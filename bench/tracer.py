"""Per-layer counters and self times, measured from outside the program.

`install` wraps the public functions of each perisolve module where they are
looked up: in the defining module's namespace for the names in its
`__all__`, and in every module that imports a perisolve function under its
own name (so `perisolve.cascade.minimize` is wrapped as a call into the
variational layer).  Public methods of the modules' classes are wrapped on
the class.  Calls into scipy's direct factorizations and solves are wrapped
as a pseudo-layer `factor`, whichever entry point the program uses.

A layer's self time is the time inside calls that entered it from another
layer, minus the time of the calls it made into other wrapped layers.  Calls
within one layer pass straight through, apart from the hooks that read the
values the program returns (minimizer reports, stage diagnostics).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("discretize", "convexcore", "variational", "cascade", "verify", "cli")

_SPARSE_FACTOR = ("spsolve", "splu", "spilu", "factorized", "spsolve_triangular")
_DENSE_FACTOR = (
    "solve", "solve_banded", "solveh_banded", "lu_factor", "lu_solve",
    "cho_factor", "cho_solve", "cholesky_banded", "cho_solve_banded",
)


class Tracer:
    """Wrappers, their counters, and the stack of open layer calls."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping

    def _wrap(self, fn, layer: str, hook=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                if hook is None:
                    return fn(*args, **kwargs)
                t0 = clock()
                out = fn(*args, **kwargs)
                hook(out, clock() - t0)
                return out
            calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(out, dt)
            return out

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"perisolve.{name}") for name in LAYERS}
        layer_of = {f"perisolve.{name}": name for name in LAYERS}
        hooks = self._hooks()
        for name, mod in mods.items():
            public = set(getattr(mod, "__all__", ()))
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__bench_wrapped__", False):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in layer_of:
                    home = layer_of[obj.__module__]
                    if home != name or attr in public:
                        hook = hooks.get((name, attr)) or hooks.get((home, attr))
                        self._set(mod, attr, self._wrap(obj, home, hook))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and attr in public:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._set(obj, meth, self._wrap(fn, name))
        self._install_factor(mods)
        self._time_private(mods["cli"], "_write_report", "cli_write_s")

    def _install_factor(self, mods) -> None:
        import scipy.linalg
        import scipy.sparse.linalg

        originals = {}
        for mod, names in ((scipy.sparse.linalg, _SPARSE_FACTOR), (scipy.linalg, _DENSE_FACTOR)):
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap_factor(fn, attr)
                originals[id(fn)] = wrapped
                self._set(mod, attr, wrapped)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._set(mod, attr, originals[id(obj)])

    def _wrap_factor(self, fn, attr: str):
        wrapped = self._wrap(fn, "factor")
        if attr in ("splu", "spilu"):
            proxy = self._wrap_superlu

            @functools.wraps(fn)
            def make(*args, **kwargs):
                return proxy(wrapped(*args, **kwargs))

            make.__bench_wrapped__ = True
            return make
        if attr == "factorized":
            timed = self._wrap

            @functools.wraps(fn)
            def make_solver(*args, **kwargs):
                return timed(wrapped(*args, **kwargs), "factor")

            make_solver.__bench_wrapped__ = True
            return make_solver
        return wrapped

    def _wrap_superlu(self, lu):
        solve = self._wrap(lu.solve, "factor")

        class _TimedLU:
            def __getattr__(self, name):
                return solve if name == "solve" else getattr(lu, name)

        return _TimedLU()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- hooks on values the program returns

    def _hooks(self) -> dict:
        counts = self.counts

        def minimize(out, dt):
            rep = out[1]
            counts["minimize_calls"] += 1
            counts["newton_steps"] += rep.iterations
            counts["line_search_failures"] += rep.line_search_failures
            counts["minimize_unconverged"] += not rep.converged

        def beta_map(out, dt):
            counts["beta_evals"] += 1

        def fixed_point_solve(out, dt):
            counts["fixed_point_stages"] += 1
            counts["stages_unconverged"] += not out.converged
            counts["omega_halvings"] += out.diagnostics.get("omega_halvings", 0)

        def timer(key):
            def hook(out, dt):
                counts[key] += dt
            return hook

        return {
            ("variational", "minimize"): minimize,
            ("cascade", "beta_map"): beta_map,
            ("cascade", "fixed_point_solve"): fixed_point_solve,
            ("verify", "solve_routed"): timer("verify_base_solve_s"),
            ("cli", "load_config"): timer("cli_load_config_s"),
            ("cli", "write_field_csv"): timer("cli_write_s"),
            ("cli", "write_field_dat"): timer("cli_write_s"),
        }

    def _time_private(self, mod, attr: str, key: str) -> None:
        """Add the time of one private helper to counts[key]."""
        fn = getattr(mod, attr, None)
        if fn is None:
            return
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] += clock() - t0

        self._set(mod, attr, timed)

    # -- results

    def metrics(self) -> dict[str, float]:
        """Counters and self times; run.py forms the ratios from the sums."""
        c = self.counts
        out = {}
        for layer in ("discretize", "convexcore"):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["variational.minimize_calls"] = c["minimize_calls"]
        out["variational.newton_steps"] = c["newton_steps"]
        out["variational.factor_solves"] = self.calls["factor"]
        out["variational.factor_solve_s"] = self.self_s["factor"]
        out["variational.self_s"] = self.self_s["variational"]
        out["variational.minimize_unconverged"] = c["minimize_unconverged"]
        out["variational.line_search_failures"] = c["line_search_failures"]
        out["cascade.fixed_point_stages"] = c["fixed_point_stages"]
        out["cascade.beta_evals"] = c["beta_evals"]
        out["cascade.self_s"] = self.self_s["cascade"]
        out["cascade.stages_unconverged"] = c["stages_unconverged"]
        out["cascade.omega_halvings"] = c["omega_halvings"]
        out["verify.base_solve_s"] = c["verify_base_solve_s"]
        out["cli.load_config_s"] = c["cli_load_config_s"]
        out["cli.write_s"] = c["cli_write_s"]
        return out

