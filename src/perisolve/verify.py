"""Falsification harness: manufactured solutions, invariant suites,
structural-stability experiments, and growth-envelope audits.

Everything here either reconstructs a known answer and measures the distance
to it, or evaluates an inequality the solution must satisfy and reports the
margin.  Failures are data, not exceptions; only malformed inputs raise.
"""

from __future__ import annotations

import csv
import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait

import numpy as np

from . import convexcore as cc
from .cascade import (
    CascadeParams,
    StageResult,
    chain_rule_sum,
    energy_margin,
    lf_margin,
    solve_routed,
)
from .discretize import (
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    bochner_norm,
    cell_gradient,
    dual_bochner_norm,
    norm_V,
    norm_Vstar,
    norm_X,
    pairing,
    time_derivative,
)
from .variational import residual_AP

__all__ = [
    "Table",
    "MmsSpec",
    "MoscoSequenceSpec",
    "derived_forcing",
    "mms_run",
    "mms_temporal_order",
    "invariant_suite",
    "mosco_experiment",
    "growth_audit",
    "loglog_slope",
    "refit_problem",
]

log = logging.getLogger(__name__)

_FMT = "%.17g"


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return _FMT % v
    return str(v)


@dataclass
class Table:
    """Column-named result table with CSV and gnuplot writers."""

    columns: list[str]
    rows: list[list] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != column count {len(self.columns)}"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.asarray([row[j] for row in self.rows])

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(self.columns)
            for row in self.rows:
                w.writerow([_fmt(v) for v in row])

    def to_dat(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("# " + " ".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")

    def as_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [
                [v if not isinstance(v, (np.floating, np.integer)) else v.item() for v in row]
                for row in self.rows
            ],
            "meta": self.meta,
        }


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# manufactured solutions


# u = sin(pi x/L) tau(t): per name, tau and dtau/ds in the phase s = 2 pi t/T
_PROFILES = {
    "separable_bump": (lambda s: 1.0 + 0.5 * np.sin(s), lambda s: 0.5 * np.cos(s)),
    "separable_sin": (np.sin, np.cos),
    "steady_sin": (np.ones_like, np.zeros_like),
    "zero": (np.zeros_like, np.zeros_like),
}


@dataclass(frozen=True)
class MmsSpec:
    """A named manufactured trajectory u = sin(pi x/L) tau(t) and the recipe
    for its forcing.  L and T are those of the meshes it is sampled on.

    "separable_bump": tau = 1 + sin(2 pi t/T)/2, good for discrete-exact
    recovery (no identically zero slice).
    "separable_sin": tau = sin(2 pi t/T), the linear-instance order study
    solution.
    "steady_sin": tau = 1, for spatial order studies.
    "zero": tau = 0, the zero trajectory.

    mode "discrete_exact" builds the forcing with the solver's own discrete
    operators (recovery then is limited only by solver tolerance);
    "continuum" evaluates the continuum equation at the nodes, which
    reintroduces discretization error and supports order studies.  It needs
    constant diffusion.
    """

    name: str
    mode: str = "discrete_exact"

    def __post_init__(self) -> None:
        if self.name not in _PROFILES:
            raise ValueError(f"unknown exact solution {self.name!r}")
        if self.mode not in ("discrete_exact", "continuum"):
            raise ValueError(f"unknown mms mode {self.mode!r}")


def _profile(mms: MmsSpec, smesh: SpatialMesh, tmesh: TemporalMesh):
    """sin(pi x/L) at the nodes, tau and its time derivative at the times."""
    tau, dtau = _PROFILES[mms.name]
    s = 2 * np.pi * tmesh.times / tmesh.period
    space = np.sin(np.pi * smesh.nodes / smesh.length)
    return space, tau(s), 2 * np.pi / tmesh.period * dtau(s)


def sample_exact(mms: MmsSpec, smesh: SpatialMesh, tmesh: TemporalMesh) -> np.ndarray:
    space, tau, _ = _profile(mms, smesh, tmesh)
    return np.outer(tau, space)


def _constant_diffusion(a: cc.DiffusionField) -> float:
    vals = a.midpoint_values
    if np.any(vals != vals[0]):
        raise ValueError("continuum mode needs constant diffusion")
    return float(vals[0])


def derived_forcing(
    mms: MmsSpec, prob: ProblemSpec, delta: float
) -> np.ndarray:
    """Forcing that makes mms the (discrete or continuum) solution of prob.

    The continuum forcing is alpha(u_t) - a (m-1) |u_x|^(m-2) u_xx for the
    constant diffusion a; the flux term is 0 where u_xx = 0.  At m < 2 it is
    unbounded at x = L/2, where u_x = 0, so a mesh with a node there (odd M)
    raises ValueError unless the solution is zero.
    """
    smesh, tmesh = prob.smesh, prob.tmesh
    if mms.mode == "discrete_exact":
        U = sample_exact(mms, smesh, tmesh)
        dU = time_derivative(U, tmesh)
        return prob.nl.alpha_eval(dU) + cc.PhiAt(U, prob.a, prob.m, delta, smesh).grad
    a = _constant_diffusion(prob.a)
    k = np.pi / smesh.length
    space, tau, dtau = _profile(mms, smesh, tmesh)
    if prob.m < 2.0 and smesh.interior_count % 2 == 1 and np.any(tau):
        raise ValueError(
            f"the continuum forcing at m = {prob.m:g} < 2 is singular at the "
            f"node x = L/2 of M = {smesh.interior_count}; use an even M"
        )
    u_x = k * np.outer(tau, np.cos(k * smesh.nodes))
    u_xx = -k * k * np.outer(tau, space)
    with np.errstate(divide="ignore", invalid="ignore"):
        flux_x = a * (prob.m - 1) * np.abs(u_x) ** (prob.m - 2) * u_xx
    return prob.nl.alpha_eval(np.outer(dtau, space)) - np.where(
        u_xx == 0.0, 0.0, flux_x
    )


def refit_problem(
    prob: ProblemSpec, M: int, N: int, f: np.ndarray
) -> ProblemSpec:
    """Same physics on a different grid with a new forcing trajectory."""
    smesh = SpatialMesh(prob.smesh.length, M)
    tmesh = TemporalMesh(prob.tmesh.period, N)
    a_vals = np.interp(
        smesh.cell_midpoints, prob.smesh.cell_midpoints, prob.a.midpoint_values
    )
    a = cc.DiffusionField(a_vals)
    return ProblemSpec(
        p=prob.p, m=prob.m, nl=prob.nl, a=a, f=f, smesh=smesh, tmesh=tmesh
    )


def _mms_level(
    mms: MmsSpec, prob: ProblemSpec, M: int, N: int, delta: float
) -> ProblemSpec:
    """prob refit to an M x N grid, forced so that mms is its solution."""
    level = refit_problem(prob, M, N, np.zeros((N, M)))
    return replace(level, f=derived_forcing(mms, level, delta))


def mms_run(
    mms: MmsSpec,
    prob: ProblemSpec,
    params: CascadeParams,
    levels: tuple[tuple[int, int], ...],
    jobs: int = 1,
) -> Table:
    """Solve the manufactured problem across the (M, N) refinement levels.

    Error column is the sup-in-time nodal L^p distance to the exact
    trajectory.  In discrete-exact mode the error is bounded by solver
    tolerance at every level; in continuum mode consecutive level ratios
    expose the convergence order (meta key "orders").  The steady solution
    makes the time stepping exact, so its levels isolate the second-order
    spatial error.  jobs > 1 solves the levels on up to that many processes,
    this one included, starting workers only when the solves left can pay
    for them; the table is the same.
    """
    table = Table(["level", "M", "N", "error", "residual", "converged"])
    table.meta["mode"] = mms.mode
    table.meta["name"] = mms.name
    probs = [_mms_level(mms, prob, M, N, params.delta) for M, N in levels]
    outs = _solve_batch([(lp, params, "auto") for lp in probs], jobs)
    for lv, ((M, N), lp, (final, _, _)) in enumerate(zip(levels, probs, outs)):
        U = sample_exact(mms, lp.smesh, lp.tmesh)
        err = bochner_norm(norm_V(final.u - U, lp.p, lp.smesh), np.inf, lp.tmesh)
        res = residual_AP(final.u, lp, delta=params.delta)
        table.add(lv, M, N, float(err), float(res), final.converged)
    errs = table.column("error").astype(float)
    if mms.mode == "continuum" and len(errs) > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            orders = np.log2(errs[:-1] / errs[1:])
        table.meta["orders"] = [float(o) for o in orders]
    return table


def mms_temporal_order(
    mms: MmsSpec,
    prob: ProblemSpec,
    params: CascadeParams,
    M: int = 8,
    Ns: tuple[int, ...] = (8, 16, 32),
    N_ref: int = 128,
) -> Table:
    """Self-convergence in dt against a fine-step reference on the same grid.

    Holding M fixed cancels the spatial error, so the distance to the
    reference isolates the first-order time stepping.  Every N must divide
    N_ref so slices align.  The ladder starts at N = 8: coarser steps sit
    outside the asymptotic range and pollute the fitted order.
    """
    for N in Ns:
        if N_ref % N != 0 or N >= N_ref:
            raise ValueError(f"each N must divide N_ref and be smaller, got {N}")

    def solve(N: int) -> np.ndarray:
        final, _, _ = solve_routed(_mms_level(mms, prob, M, N, params.delta), params)
        return final.u

    u_ref = solve(N_ref)
    smesh = SpatialMesh(prob.smesh.length, M)
    table = Table(["N", "dt", "error"])
    for N in Ns:
        u = solve(N)
        stride = N_ref // N
        diff = u - u_ref[::stride]
        err = float(np.max(norm_V(diff, prob.p, smesh)))
        table.add(N, prob.tmesh.period / N, err)
    errs = table.column("error").astype(float)
    table.meta["orders"] = [float(o) for o in np.log2(errs[:-1] / errs[1:])]
    table.meta["slope"] = loglog_slope(table.column("dt"), errs)
    return table


# ---------------------------------------------------------------------------
# invariant suite


def _check(name: str, margin: float, tol: float) -> dict:
    return {
        "name": name,
        "margin": float(margin),
        "tolerance": float(tol),
        "passed": bool(margin >= -tol),
    }


def invariant_suite(
    result: StageResult,
    prob: ProblemSpec,
    params: CascadeParams,
    rng: np.random.Generator | None = None,
) -> dict:
    """Evaluate the structural invariants on a converged stage.

    Each entry reports margin (how far inside the inequality the solution
    sits; negative means violated) and the tolerance used.  The report is
    data; nothing raises on failure.
    """
    rng = rng or np.random.default_rng(1234)
    u = result.u
    smesh, tmesh = prob.smesh, prob.tmesh
    scale = max(1.0, dual_bochner_norm(prob.f, prob))
    checks: list[dict] = []

    # stationarity: the converged fixed point solves its stage equation
    if result.epsilon == 0.0 and result.mu == 0.0:
        res = residual_AP(u, prob, delta=params.delta)
        tol = 20.0 * params.fp_tol * scale
    else:
        res = float(result.diagnostics.get("fixed_point_residual", np.inf))
        tol = 2.0 * params.fp_tol * scale
    checks.append(_check("stationarity", tol - res, tol))

    # periodic energy inequality: rate pairing cannot exceed forcing pairing
    gap = -energy_margin(u, prob)
    checks.append(_check("energy_inequality", 1e-8 * scale - gap, 1e-8 * scale))

    # chain rule sum: nonnegative and O(dt)
    S = chain_rule_sum(u, prob, params.delta)
    du = time_derivative(u, tmesh)
    w = cc.PhiAt(u, prob.a, prob.m, params.delta, smesh).weights
    ddu = cell_gradient(du, smesh)
    predicted = 0.5 * tmesh.dt * float(
        tmesh.dt * np.sum(smesh.dx * np.sum(w * ddu * ddu, axis=-1))
    )
    checks.append(_check("chain_rule_nonneg", S, 1e-10 * max(1.0, scale)))
    upper = max(4.0 * predicted, 1e-8 * scale)
    checks.append(_check("chain_rule_size", upper - S, upper))

    # dual flow inequality over every window: every window defect sum is
    # nonnegative (exact Fenchel-Young direction) and the full-period total
    # is O(dt), predicted by the Bregman gaps 0.5 <dxi, d du> (exact at p=2)
    xi = prob.nl.alpha_eval(du)
    psis = cc.fenchel_psi_star(xi, prob.nl, smesh)
    lf_scale = max(1.0, float(np.max(np.abs(psis))))
    checks.append(_check("dual_flow_windows", lf_margin(u, prob), 1e-8 * lf_scale))
    dxi = xi - np.roll(xi, 1, axis=0)
    defect_total = float(np.sum(pairing(dxi, du, smesh)))
    bregman = 0.5 * float(
        np.sum(pairing(dxi, du - np.roll(du, 1, axis=0), smesh))
    )
    lf_upper = max(4.0 * abs(bregman), 1e-8 * lf_scale)
    checks.append(_check("dual_flow_size", lf_upper - defect_total, lf_upper))

    # proximal sandwich and parameter monotonicity on sample slices
    def phi(v: np.ndarray) -> cc.PhiAt:
        return cc.PhiAt(v, prob.a, prob.m, params.delta, smesh)

    lams = (1.0, 0.1, 0.01)
    sandwich_margin = np.inf
    picks = sorted({0, tmesh.step_count // 2, tmesh.step_count - 1})
    env_tol = 1e-8 * max(1.0, abs(float(phi(u[picks[-1]]).value)))
    try:
        for n in picks:
            envs = []
            phu = float(phi(u[n]).value)
            for lam in lams:
                J, env, _ = cc.moreau_yosida(u[n], lam, prob, params.delta, tol=1e-11)
                phJ = float(phi(J).value)
                sandwich_margin = min(sandwich_margin, env - phJ, phu - env)
                envs.append(env)
            # the envelope grows as lam drops
            for a_, b_ in zip(envs, envs[1:]):
                sandwich_margin = min(sandwich_margin, b_ - a_)
        checks.append(_check("proximal_sandwich", sandwich_margin, env_tol))
    except RuntimeError as exc:  # a stalled proximal solve fails the check
        check = _check("proximal_sandwich", -np.inf, env_tol)
        checks.append({**check, "margin": None, "message": str(exc)})

    # duality map identities on the solution slices
    dev = 0.0
    for n in picks:
        v = u[n]
        nv = float(norm_V(v, prob.p, smesh))
        F = cc.duality_map(v, prob.p, smesh)
        dev = max(dev, abs(float(pairing(F, v, smesh)) - nv**2))
        dev = max(dev, abs(float(norm_Vstar(F, prob.p_conj, smesh)) - nv))
    id_tol = 1e-10 * max(1.0, nv**2)
    checks.append(_check("duality_identities", id_tol - dev, id_tol))

    # Fenchel-Young equality on the rate pairs (du, xi)
    psi = np.asarray(cc.eval_psi(du, prob.nl, smesh))
    fy = np.abs(psi + psis - np.asarray(pairing(xi, du, smesh)))
    fy_scale = max(1.0, float(np.max(np.abs(psi))))
    fy_tol = 1e-8 * fy_scale
    checks.append(_check("fenchel_young_pairs", fy_tol - float(np.max(fy)), fy_tol))

    # monotonicity of the energy gradient on random pairs
    mono = np.inf
    for _ in range(5):
        v = rng.standard_normal(smesh.interior_count)
        w2 = rng.standard_normal(smesh.interior_count)
        gv = phi(v).grad
        gw = phi(w2).grad
        mono = min(mono, float(pairing(gv - gw, v - w2, smesh)))
    checks.append(_check("gradient_monotonicity", mono, 1e-12))

    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# structural stability (Mosco) experiments


@dataclass
class MoscoSequenceSpec:
    """A family of perturbed problems converging back to a base problem.

    Kinds: "diffusion_perturbation" scales the coefficient by
    1 + sin(n x)/n; "nonlinearity_perturbation" adds s/n to the rate map;
    "forcing_perturbation" adds g/n for the shift
    g = sin(2 pi x/L) cos(2 pi t/T); "combined" applies all three;
    "identity" perturbs nothing (noise-floor control).  The one structural
    bound checked is that every instance's diffusion coefficient is positive
    on every cell: DiffusionField rejects any other when instance(n) builds
    it.  The growth constants of the instances are not checked.
    """

    kind: str
    base: ProblemSpec
    index_set: tuple[int, ...] = tuple(range(1, 9))

    _KINDS = (
        "diffusion_perturbation",
        "nonlinearity_perturbation",
        "forcing_perturbation",
        "combined",
        "identity",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if any(n < 1 for n in self.index_set):
            raise ValueError("index set entries must be >= 1")

    def instance(self, n: int) -> ProblemSpec:
        base = self.base
        a, nl, f = base.a, base.nl, base.f
        if self.kind in ("diffusion_perturbation", "combined"):
            mids = base.smesh.cell_midpoints
            a = cc.DiffusionField(a.midpoint_values * (1.0 + np.sin(n * mids) / n))
        if self.kind in ("nonlinearity_perturbation", "combined"):
            nl = self._perturbed_nl(n)
        if self.kind in ("forcing_perturbation", "combined"):
            smesh, tmesh = base.smesh, base.tmesh
            g = np.sin(2 * np.pi * smesh.nodes[None, :] / smesh.length) * np.cos(
                2 * np.pi * tmesh.times[:, None] / tmesh.period
            )
            f = f + g / n
        return replace(base, a=a, nl=nl, f=f)

    def _perturbed_nl(self, n: int) -> cc.Nonlinearity:
        base = self.base.nl
        p = base.p_exponent
        if base.kind == "power" and p == 2.0:
            # alpha_n(s) = (1 + 1/n) s exactly, as a two-knot segment with
            # matching end-slope extension
            slope = 1.0 + 1.0 / n
            return cc.Nonlinearity.piecewise_linear(
                [(-1.0, -slope), (1.0, slope)], p_exponent=2.0
            )
        s = np.linspace(-64.0, 64.0, 4097)
        return cc.Nonlinearity.custom_tabulated(
            s, base.alpha_eval(s) + s / n, p_exponent=p
        )


# BLAS libraries read these once, when they load
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A worker's start-up, read once: the CPU this process has spent by the time
# this module is imported.  That is starting an interpreter and importing
# numpy, scipy and this package, which a spawned worker repeats before its
# first claim (on 2 cores: 0.4-0.5 s read here, 0.4-0.5 s from a worker's
# start() to its first claim)
_WORKER_START_S = time.process_time()


def _solve_one(prob: ProblemSpec, params: CascadeParams, route: str):
    # the solve of one batch item, in the caller or in a worker.  It is
    # private, so instrumentation that rebinds public names to wrappers
    # leaves it alone
    return solve_routed(prob, params, route)


def _claim(counter) -> int:
    """The next unclaimed batch index; past the end once all are claimed."""
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i


def _work(items, counter, results) -> None:
    # a spawned worker: solve claimed items until the batch runs out.  Pickle
    # sends it by name, so it is module-level
    while (i := _claim(counter)) < len(items):
        try:
            out = (i, True, _solve_one(*items[i]))
        except Exception as exc:
            out = (i, False, exc)
        results.put(out)


def _receive(results, outs: list, pending: set) -> None:
    """Take every result already sent; re-raise a worker's exception."""
    while not results.empty():
        i, ok, value = results.get()
        if not ok:
            raise value
        outs[i] = value
        pending.discard(i)


def _solve_batch(items, jobs: int) -> list:
    """solve_routed over (prob, params, route) items, outputs in input order.

    jobs is a ceiling on the processes, the caller included.  The caller
    solves the items in order and starts workers only when the solves left
    can pay for them: before each item after the first, with at least two
    left, it estimates their serial time as the mean wall time of its own
    solves so far times their number.  Once that exceeds twice a worker's
    start-up, it hands the items left to _solve_pooled.  A worker is of use
    only after its start-up, and while it starts it slows the caller down,
    so a batch that cannot pay for a worker is solved without starting any
    process.  A solve that raises is re-raised.  Spawned workers re-import
    the main module, so a script that calls this with jobs > 1 must guard
    its entry point with ``if __name__ == "__main__"``.
    """
    outs, t0 = [], time.perf_counter()
    for k, item in enumerate(items):
        left = len(items) - k
        if k and jobs > 1 and left > 1:
            pace = (time.perf_counter() - t0) / k
            if pace * left > 2.0 * _WORKER_START_S:
                return outs + _solve_pooled(items, k, jobs)
        outs.append(_solve_one(*item))
    return outs


def _solve_pooled(items, first: int, jobs: int) -> list:
    """The outputs of items[first:] in order, solved by the caller and
    min(jobs, len(items) - first) - 1 spawned workers.

    Caller and workers claim indices from one shared counter that starts at
    first, so the caller solves items while the workers start.  Each worker
    has one BLAS thread, so the processes share the cores instead of
    oversubscribing them; the thread variables are set only around the
    starts and then restored, so the caller's environment and its already
    loaded BLAS keep their settings.  A solve that raises, here or in a
    worker, is re-raised; a worker that dies holding an item raises
    RuntimeError.  No worker outlives the call.
    """
    ctx = multiprocessing.get_context("spawn")
    counter, results = ctx.Value("i", first), ctx.Queue()
    procs = [
        ctx.Process(target=_work, args=(items, counter, results), daemon=True)
        for _ in range(min(jobs, len(items) - first) - 1)
    ]
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    try:
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            for p in procs:
                p.start()
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        outs, pending = [None] * len(items), set(range(first, len(items)))
        while (i := _claim(counter)) < len(items):
            outs[i] = _solve_one(*items[i])
            pending.discard(i)
            _receive(results, outs, pending)
        live = procs
        while True:
            # a worker that has exited has flushed its results, so those
            # still pending after this receive are held by a live worker
            live = [p for p in live if p.exitcode is None]
            _receive(results, outs, pending)
            if not pending:
                return outs[first:]
            if not live:
                codes = [p.exitcode for p in procs]
                raise RuntimeError(
                    f"batch items {sorted(pending)} were lost: a worker "
                    f"process exited while solving them (exit codes {codes})"
                )
            # wake on a result or on a worker's exit; the queue exposes its
            # pipe's read end only as _reader
            wait([results._reader, *(p.sentinel for p in live)])
    finally:
        # workers still starting, or still solving after a failure
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.pid is not None:
                p.join()
        results.close()


def mosco_experiment(
    seq: MoscoSequenceSpec,
    params: CascadeParams,
    jobs: int = 1,
) -> Table:
    """Solve each perturbed instance and measure drift from the base solution.

    Error is the sup-in-time nodal L^p distance, the discrete stand-in for
    uniform-in-time state-space convergence.  meta records the trailing to
    leading error ratio and whether errors decrease beyond the noise floor.
    jobs > 1 solves the base problem and the instances in one batch on up
    to that many processes, this one included, starting workers only when
    the solves left can pay for them, each with one BLAS thread; the table
    is the same as with jobs = 1.
    """
    ns = sorted(seq.index_set)
    probs = [seq.base] + [seq.instance(n) for n in ns]
    (base_final, _, _), *outs = _solve_batch(
        [(pr, params, "auto") for pr in probs], jobs
    )
    smesh, tmesh = seq.base.smesh, seq.base.tmesh
    table = Table(["n", "error", "converged", "residual"])
    for n, (final, _, _) in zip(ns, outs):
        err = bochner_norm(
            norm_V(final.u - base_final.u, seq.base.p, smesh), np.inf, tmesh
        )
        res = final.diagnostics.get("fixed_point_residual", np.nan)
        table.add(n, float(err), final.converged, float(res))
    errs = table.column("error").astype(float)
    floor = 2.0 * params.resolved_stage_tol()
    above = errs > floor
    monotone = all(
        b < a for a, b, fa, fb in zip(errs, errs[1:], above, above[1:]) if fa and fb
    )
    table.meta["monotone_beyond_floor"] = bool(monotone)
    table.meta["noise_floor"] = floor
    if errs.size >= 2:
        table.meta["last_over_first"] = float(errs[-1] / max(errs[0], 1e-300))
    if np.all(above) and errs.size >= 3:
        table.meta["slope"] = loglog_slope(ns, errs)
    return table


# ---------------------------------------------------------------------------
# growth-envelope audit


_INEQUALITIES = (
    "state_by_rate_primitive",      # |u|_V^p <= C (psi(u) + 1)
    "rate_grad_by_state",           # |d psi(u)|^p' <= C (|u|_V^p + 1)
    "grad_norm_by_energy",          # |u|_X^m <= C (phi(u) + 1)
    "energy_grad_by_grad_norm",     # |eta|^m' <= C (|u|_X^m + 1)
    "rate_grad_by_primitive",       # |d psi(u)|^p' <= C (psi(u) + 1)
    "primitive_by_state",           # psi(u) <= C (|u|_V^p + 1)
    "state_by_rate_grad",           # |u|_V^p <= C (|d psi(u)|^p' + 1)
    "energy_grad_by_energy",        # |eta|^m' <= C (phi(u) + 1)
    "energy_by_grad_norm",          # phi(u) <= C (|u|_X^m + 1)
    "grad_norm_by_energy_grad",     # |u|_X^m <= C (|eta|^m' + 1)
)


def growth_audit(prob: ProblemSpec, sample_count: int, seed: int = 0) -> Table:
    """Empirically realized constants of the growth/coercivity envelope.

    Random fields are rescaled to nodal norms spanning five magnitude
    decades; per inequality and decade the audit reports the largest
    affine-form constant and, where the functional is exactly homogeneous,
    the homogeneous ratio (e.g. state-to-primitive realizes the exponent p
    itself for the power rate map).  Dual norms on the gradient-space side
    are measured in the nodal dual norm, a surrogate for the gradient-space
    dual.  All constants must be finite; there is no pass/fail here.
    """
    rng = np.random.default_rng(seed)
    smesh = prob.smesh
    p, pc, m = prob.p, prob.p_conj, prob.m
    mc = prob.m_conj
    decades = (-2, -1, 0, 1, 2)
    fields = rng.standard_normal((sample_count, smesh.interior_count))
    table = Table(["inequality", "decade", "affine_constant", "homogeneous_ratio"])
    power_kind = prob.nl.kind == "power"
    for dec in decades:
        target = 10.0**dec
        base_n = norm_V(fields, p, smesh)
        u = fields * (target / base_n)[:, None]
        psi = np.asarray(cc.eval_psi(u, prob.nl, smesh))
        dpsi = prob.nl.alpha_eval(u)
        dpsi_n = np.asarray(norm_Vstar(dpsi, pc, smesh)) ** pc
        up = np.asarray(norm_V(u, p, smesh)) ** p
        energy = cc.PhiAt(u, prob.a, prob.m, 0.0, smesh)
        phi = np.asarray(energy.value)
        eta = energy.grad
        eta_n = np.asarray(norm_Vstar(eta, mc, smesh)) ** mc
        xm = np.asarray(norm_X(u, m, smesh)) ** m
        pairs = {
            "state_by_rate_primitive": (up, psi),
            "rate_grad_by_state": (dpsi_n, up),
            "grad_norm_by_energy": (xm, phi),
            "energy_grad_by_grad_norm": (eta_n, xm),
            "rate_grad_by_primitive": (dpsi_n, psi),
            "primitive_by_state": (psi, up),
            "state_by_rate_grad": (up, dpsi_n),
            "energy_grad_by_energy": (eta_n, phi),
            "energy_by_grad_norm": (phi, xm),
            "grad_norm_by_energy_grad": (xm, eta_n),
        }
        for name in _INEQUALITIES:
            lhs, rhs = pairs[name]
            affine = float(np.max(lhs / (rhs + 1.0)))
            homog = float(np.max(lhs / np.maximum(rhs, 1e-300)))
            if not power_kind and name in (
                "state_by_rate_primitive",
                "rate_grad_by_state",
                "rate_grad_by_primitive",
                "primitive_by_state",
                "state_by_rate_grad",
            ):
                homog = float("nan")  # only power maps are exactly homogeneous
            table.add(name, dec, affine, homog)
    finite = np.isfinite(table.column("affine_constant").astype(float))
    table.meta["all_finite"] = bool(np.all(finite))
    return table
