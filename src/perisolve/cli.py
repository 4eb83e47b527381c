"""Batch front door: JSON configs in, tables and reports out.

Subcommands: solve, verify, mms, mosco, sweep.  Every run is driven by a
versioned JSON config; validation failures name the offending key and exit
with code 1, as a malformed command line does, solver non-convergence exits
with code 2 (the report is still written), success exits 0.  All randomness
flows from the single seed, and identical configs produce byte-identical CSV
outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import convexcore as cc
from .cascade import CascadeParams, StageResult, solve_routed, stage_report
from .discretize import (
    FIELD_COLUMNS,
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    format_field,
    read_field_csv,
    write_csv,
    write_dat,
)
from .verify import (
    MmsSpec,
    MoscoSequenceSpec,
    Table,
    _constant_diffusion,
    growth_audit,
    invariant_suite,
    mms_level,
    mms_run,
    mosco_experiment,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "cmd_solve",
    "cmd_verify",
    "cmd_mms",
    "cmd_mosco",
    "cmd_sweep",
    "main",
]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOCONV = 2


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted key path."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key


_SENTINEL = object()


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(d: dict, key: str, path: str, typ=None, default=_SENTINEL):
    if key not in d:
        if default is not _SENTINEL:
            return default
        raise ConfigError(_dotted(path, key), "missing required key")
    val = d[key]
    names = typ if isinstance(typ, tuple) else (typ,)
    # JSON true and false load as bool, which is a subclass of int; no key
    # takes a boolean
    if typ is not None and (not isinstance(val, typ) or isinstance(val, bool)):
        raise ConfigError(
            _dotted(path, key),
            f"expected {'/'.join(t.__name__ for t in names)}, got {type(val).__name__}",
        )
    return val


def _is_number(val) -> bool:
    """A JSON number, not a boolean, that is finite as a float."""
    try:
        return type(val) in (int, float) and math.isfinite(val)
    except OverflowError:  # an integer too large for a float
        return False


def _number(d: dict, key: str, path: str, default=_SENTINEL) -> float:
    val = _get(d, key, path, (int, float), default)
    if not _is_number(val):
        raise ConfigError(_dotted(path, key), f"expected a finite number, got {val}")
    return float(val)


def _numbers(d: dict, key: str, path: str, default=_SENTINEL, pairs=False) -> list:
    """List key of d of finite numbers, or with pairs of [a, b] pairs of them."""
    vals = _get(d, key, path, list, default)
    if pairs:
        ok = all(isinstance(e, list) and len(e) == 2 and all(map(_is_number, e))
                 for e in vals)
    else:
        ok = all(map(_is_number, vals))
    if not ok:
        what = "[a, b] pairs of finite numbers" if pairs else "finite numbers"
        raise ConfigError(_dotted(path, key), f"expected a list of {what}")
    return vals


def _int(d: dict, key: str, path: str, default=_SENTINEL, minimum: int = 0) -> int:
    val = _get(d, key, path, int, default)
    if val < minimum:
        raise ConfigError(_dotted(path, key), f"must be >= {minimum}, got {val}")
    return val


def _known(d: dict, keys: tuple[str, ...], path: str) -> None:
    """Reject a key of block d that is not in keys: a misspelt or retired key
    would otherwise leave its default in force without notice."""
    for key in d:
        if key not in keys:
            raise ConfigError(_dotted(path, key), "unknown key")


@dataclass
class RunConfig:
    """Validated run configuration plus the raw document for echoing."""

    problem: ProblemSpec
    cascade: CascadeParams
    seed: int
    output_dir: str
    raw: dict
    route: str = "auto"

    def block(self, name: str, keys: tuple[str, ...]) -> dict:
        """Block name of the config, {} when absent, with no key outside keys."""
        blk = _get(self.raw, name, "", dict, {})
        _known(blk, keys, name)
        return blk


def _checked(key: str, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError or OSError a ConfigError
    naming key."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(key, str(exc)) from exc


def _build_nonlinearity(spec: dict, p: float, path: str) -> cc.Nonlinearity:
    kind = _get(spec, "kind", path, str, "power")
    if kind == "power":
        _known(spec, ("kind",), path)
        return cc.Nonlinearity.power(p)
    if kind == "piecewise_linear":
        _known(spec, ("kind", "breakpoints"), path)
        pts = _numbers(spec, "breakpoints", path, pairs=True)
        return _checked(path, cc.Nonlinearity.piecewise_linear, pts, p_exponent=p)
    if kind == "custom_tabulated":
        if "path" in spec:
            _known(spec, ("kind", "path"), path)
            table = _get(spec, "path", path, str)
            return _checked(
                f"{path}.path", cc.Nonlinearity.from_csv, table, p_exponent=p
            )
        _known(spec, ("kind", "s_values", "alpha_values"), path)
        s = _numbers(spec, "s_values", path)
        al = _numbers(spec, "alpha_values", path)
        return _checked(path, cc.Nonlinearity.custom_tabulated, s, al, p_exponent=p)
    raise ConfigError(f"{path}.kind", f"unknown nonlinearity kind {kind!r}")


def _build_diffusion(spec: dict, smesh: SpatialMesh, path: str) -> cc.DiffusionField:
    kind = _get(spec, "kind", path, str, "constant")
    if kind == "constant":
        _known(spec, ("kind", "value"), path)
        value = _number(spec, "value", path, 1.0)
        return _checked(path, cc.DiffusionField.constant, value, smesh)
    if kind == "values":
        _known(spec, ("kind", "values"), path)
        vals = np.asarray(_numbers(spec, "values", path), dtype=float)
        if vals.size != smesh.interior_count + 1:
            raise ConfigError(
                f"{path}.values",
                f"need {smesh.interior_count + 1} midpoint values, got {vals.size}",
            )
        return _checked(path, cc.DiffusionField, vals)
    if kind == "sin_modulated":
        _known(spec, ("kind", "base", "amplitude", "mode"), path)
        base = _number(spec, "base", path, 1.0)
        amp = _number(spec, "amplitude", path, 0.5)
        mode = _number(spec, "mode", path, 1.0)
        vals = base * (
            1.0 + amp * np.sin(np.pi * mode * smesh.cell_midpoints / smesh.length)
        )
        return _checked(path, cc.DiffusionField, vals)
    raise ConfigError(f"{path}.kind", f"unknown diffusion kind {kind!r}")


_WAVES = {"sin": np.sin, "cos": np.cos}


def _sinusoid(
    term: dict, smesh: SpatialMesh, tmesh: TemporalMesh, path: str
) -> np.ndarray:
    """One product term amplitude * time_profile(2 pi j t / T) *
    space_profile(pi k x / L); it may state its kind, "sinusoid"."""
    keys = ("kind", "amplitude", "space_mode", "time_mode", "space_profile",
            "time_profile")
    _known(term, keys, path)
    kind = _get(term, "kind", path, str, "sinusoid")
    if kind != "sinusoid":
        raise ConfigError(_dotted(path, "kind"), f"expected 'sinusoid', got {kind!r}")
    amp = _number(term, "amplitude", path, 1.0)
    k = _number(term, "space_mode", path, 1)
    j = _number(term, "time_mode", path, 0)
    space = _get(term, "space_profile", path, str, "sin")
    time = _get(term, "time_profile", path, str, "const")
    if space not in _WAVES:
        raise ConfigError(_dotted(path, "space_profile"), f"unknown profile {space!r}")
    if time != "const" and time not in _WAVES:
        raise ConfigError(_dotted(path, "time_profile"), f"unknown profile {time!r}")
    sx = _WAVES[space](np.pi * k * smesh.nodes / smesh.length)
    st = _WAVES.get(time, np.ones_like)(2.0 * np.pi * j * tmesh.times / tmesh.period)
    return amp * st[:, None] * sx[None, :]


def _build_forcing(
    spec: dict, smesh: SpatialMesh, tmesh: TemporalMesh, path: str
) -> np.ndarray:
    """The forcing sampled at t_0..t_{N-1}, which implies its periodic
    extension.  Kinds: "zero", "sinusoid" (one product term), "terms" (their
    sum) and "csv" (a t,x,value grid file on the meshes)."""
    kind = _get(spec, "kind", path, str)
    shape = (tmesh.step_count, smesh.interior_count)
    if kind == "zero":
        _known(spec, ("kind",), path)
        return np.zeros(shape)
    if kind == "sinusoid":
        return _sinusoid(spec, smesh, tmesh, path)
    if kind == "terms":
        _known(spec, ("kind", "terms"), path)
        key = f"{path}.terms"
        f = np.zeros(shape)
        for n, term in enumerate(_get(spec, "terms", path, list)):
            if not isinstance(term, dict):
                raise ConfigError(key, f"term {n} must be an object, got {term!r}")
            try:
                f += _sinusoid(term, smesh, tmesh, "")
            except ConfigError as exc:
                raise ConfigError(key, f"term {n}: {exc}") from exc
        return f
    if kind == "csv":
        _known(spec, ("kind", "path"), path)
        key = f"{path}.path"
        f, t, x = _checked(key, read_field_csv, _get(spec, "path", path, str))
        if f.shape != shape:
            raise ConfigError(key, f"grid {f.shape} does not match the meshes {shape}")
        if not (
            np.allclose(t, tmesh.times, atol=1e-12)
            and np.allclose(x, smesh.nodes, atol=1e-12)
        ):
            raise ConfigError(key, "coordinates do not match the meshes")
        return f
    raise ConfigError(f"{path}.kind", f"unknown forcing kind {kind!r}")


def _build_problem(doc: dict) -> ProblemSpec:
    pb = _get(doc, "problem", "", dict)
    path = "problem"
    keys = ("p", "m", "L", "T", "M", "N", "nonlinearity", "diffusion", "forcing")
    _known(pb, keys, path)
    p = _number(pb, "p", path, 2.0)
    m = _number(pb, "m", path, 2.0)
    if p <= 1.0:
        raise ConfigError("problem.p", f"must exceed 1, got {p}")
    if m <= 1.0:
        raise ConfigError("problem.m", f"must exceed 1, got {m}")
    L = _number(pb, "L", path, 1.0)
    T = _number(pb, "T", path, 1.0)
    M = _int(pb, "M", path, 32, minimum=1)
    N = _int(pb, "N", path, 32, minimum=2)
    smesh = _checked(f"{path}.L", SpatialMesh, L, M)
    tmesh = _checked(f"{path}.T", TemporalMesh, T, N)
    # the larger count is the one to shrink
    too_large = ConfigError(
        f"{path}.{'M' if M >= N else 'N'}",
        f"an N x M = {N} x {M} grid is too large to allocate",
    )
    # numpy cannot size an array of more bytes than an index can count
    if 8 * N * (M + 2) > sys.maxsize:
        raise too_large
    nl = _build_nonlinearity(
        _get(pb, "nonlinearity", path, dict, {}), p, f"{path}.nonlinearity"
    )
    try:
        # the coefficient and forcing arrays are the grid's first allocations
        a = _build_diffusion(
            _get(pb, "diffusion", path, dict, {}), smesh, f"{path}.diffusion"
        )
        fspec = _get(pb, "forcing", path, dict, {"kind": "zero"})
        f = _build_forcing(fspec, smesh, tmesh, f"{path}.forcing")
    except MemoryError as exc:
        raise too_large from exc
    return _checked(
        path, ProblemSpec, p=p, m=m, nl=nl, a=a, f=f, smesh=smesh, tmesh=tmesh
    )


def _build_cascade(doc: dict) -> CascadeParams:
    """One key per CascadeParams field, of the JSON type of the field's
    default, each checked by CascadeParams itself; null, like an absent key,
    leaves the default."""
    cb = _get(doc, "cascade", "", dict, {})
    path = "cascade"
    fields = dataclasses.fields(CascadeParams)
    _known(cb, tuple(fld.name for fld in fields), path)
    kwargs = {}
    for fld in fields:
        if cb.get(fld.name) is None:
            continue
        if isinstance(fld.default, int):
            val = _get(cb, fld.name, path, int)
        else:
            val = _number(cb, fld.name, path)
        # no rule of CascadeParams spans two fields, so a field alone is checked
        _checked(f"{path}.{fld.name}", CascadeParams, **{fld.name: val})
        kwargs[fld.name] = val
    return CascadeParams(**kwargs)


_TOP_KEYS = ("schema", "seed", "output_dir", "route", "problem", "cascade",
             "verify", "mms", "mosco", "sweep")


def load_config(path: str, output_override: str | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # besides bad syntax: an integer of more digits than Python converts,
        # or nesting deeper than the parser recurses
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    _known(doc, _TOP_KEYS, "")
    schema = _get(doc, "schema", "", int, 1)
    if schema != 1:
        raise ConfigError("schema", f"unsupported schema version {schema}")
    seed = _int(doc, "seed", "", 0)
    out = output_override or _get(doc, "output_dir", "", str, "out")
    route = _get(doc, "route", "", str, "auto")
    if route not in ("auto", "mu"):
        raise ConfigError("route", f"must be 'auto' or 'mu', got {route!r}")
    problem = _build_problem(doc)
    cascade = _build_cascade(doc)
    return RunConfig(
        problem=problem, cascade=cascade, seed=seed, output_dir=out, raw=doc,
        route=route,
    )


# ---------------------------------------------------------------------------
# output helpers


_TRAJECTORY = ("trajectory.csv", "trajectory.dat")


def _ensure_dir(path: str, files: tuple[str, ...]) -> Path:
    """The directory path, made with its parents if absent, to hold
    report.json and files; a path that cannot be a directory, or a file
    name in it that is one, is a ConfigError naming output_dir."""
    p = Path(path)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in path
        raise ConfigError("output_dir", f"cannot make {path!r}: {exc}") from exc
    for name in ("report.json", *files):
        if (p / name).is_dir():
            msg = f"cannot write {str(p / name)!r}: a directory"
            raise ConfigError("output_dir", msg)
    return p


def _stage_summary(stage: StageResult) -> dict:
    """A stage's diagnostics minus its residual history, with its report
    fields (stage_report); reruns write equal bytes."""
    d = dict(stage.diagnostics)
    d.pop("residual_history", None)
    return {"epsilon": stage.epsilon, "mu": stage.mu, **d, **stage_report(stage)}


def _write_report(outdir: Path, payload: dict, ok: bool) -> int:
    """Write payload to outdir/report.json with the run's exit code, 0 if
    ok (the run converged) and 2 if not, and return that code."""
    payload["exit_code"] = code = EXIT_OK if ok else EXIT_NOCONV
    with open(outdir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


def _write_study(outdir: Path, name: str, table: Table, cfg: RunConfig) -> int:
    """Write a study's table to <name>.csv and <name>.dat and its report;
    the exit code says whether every row converged."""
    table.write(str(outdir / name))
    payload = {"command": name, "table": table.as_dict(), "config": cfg.raw}
    return _write_report(outdir, payload, np.all(table.column("converged")))


def _solve_payload(stages: list[StageResult], route: str) -> dict:
    """Report entries of one routed solve: outcome, residual, every stage.

    Each stage entry holds the stage's diagnostics and the report fields
    stage_report computes from the stage alone, here and only here.  A
    routed solve ends at the limit stage eps = mu = 0, so the outcome and
    final_residual_AP, the residual of the unperturbed equation, are the
    last entry's.
    """
    entries = [_stage_summary(s) for s in stages]
    return {
        "command": "solve",
        "route": route,
        "converged": stages[-1].converged,
        "final_residual_AP": entries[-1]["residual_AP"],
        "stages": entries,
    }


def _solve_and_dump(
    prob: ProblemSpec, cfg: RunConfig, outdir: Path, dat: bool = True
) -> tuple[StageResult, dict]:
    """Solve prob on cfg's route and write its trajectory.csv (and, if dat,
    trajectory.dat) to outdir; returns the final stage and its report."""
    final, stages, route = solve_routed(prob, cfg.cascade, route=cfg.route)
    blocks = format_field(final.u, prob.smesh, prob.tmesh)
    write_csv(str(outdir / "trajectory.csv"), FIELD_COLUMNS, blocks)
    if dat:
        write_dat(str(outdir / "trajectory.dat"), FIELD_COLUMNS, blocks)
    return final, _solve_payload(stages, route)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: RunConfig) -> int:
    outdir = _ensure_dir(cfg.output_dir, _TRAJECTORY)
    final, payload = _solve_and_dump(cfg.problem, cfg, outdir)
    log.info("solve: converged=%s residual=%.3e", final.converged,
             payload["final_residual_AP"])
    return _write_report(outdir, {**payload, "config": cfg.raw}, final.converged)


def cmd_verify(cfg: RunConfig) -> int:
    blk = cfg.block("verify", ("sample_count",))
    samples = _int(blk, "sample_count", "verify", 40, minimum=1)
    # the audit reads only the problem and the seed, so it runs before any
    # output: a sample count too large to allocate is a config error
    try:
        audit = growth_audit(cfg.problem, sample_count=samples, seed=cfg.seed)
    except (MemoryError, ValueError) as exc:
        raise ConfigError("verify.sample_count", f"{samples} samples: {exc}") from exc
    files = (*_TRAJECTORY, "growth_audit.csv", "growth_audit.dat")
    outdir = _ensure_dir(cfg.output_dir, files)
    final, payload = _solve_and_dump(cfg.problem, cfg, outdir)
    suite = invariant_suite(final, cfg.cascade, rng=np.random.default_rng(cfg.seed + 1))
    audit.write(str(outdir / "growth_audit"))
    payload.update(command="verify", invariants=suite, growth_audit=audit.meta,
                   config=cfg.raw)
    ok = final.converged and suite["all_passed"] and audit.meta.get("all_finite", False)
    return _write_report(outdir, payload, ok)


def _build_mms_spec(cfg: RunConfig) -> tuple[MmsSpec, list[ProblemSpec]]:
    """The mms block's manufactured solution and its level problems, each
    built once here, where building it validates it."""
    blk = cfg.block("mms", ("exact", "mode", "levels"))
    name = _get(blk, "exact", "mms", str, "separable_bump")
    mode = _get(blk, "mode", "mms", str, "discrete_exact")
    _checked("mms.exact", MmsSpec, name)
    spec = _checked("mms.mode", MmsSpec, name, mode)
    if mode == "continuum":
        _checked("mms.mode", _constant_diffusion, cfg.problem.a)
    levels = _get(blk, "levels", "mms", list, [[8, 8], [16, 16], [32, 32]])
    if not levels:
        raise ConfigError("mms.levels", "expected at least one [M, N] level")
    probs = []
    for lv in levels:
        if not isinstance(lv, list) or len(lv) != 2 or any(
            type(v) is not int for v in lv
        ):
            raise ConfigError("mms.levels", "expected [M, N] integer pairs")
        try:
            probs.append(_checked("mms.levels", mms_level, spec, cfg.problem, *lv))
        except MemoryError as exc:
            raise ConfigError("mms.levels", f"level {lv}: {exc}") from exc
    return spec, probs


def cmd_mms(cfg: RunConfig) -> int:
    spec, levels = _build_mms_spec(cfg)
    outdir = _ensure_dir(cfg.output_dir, ("mms.csv", "mms.dat"))
    table = mms_run(spec, levels, cfg.cascade)
    return _write_study(outdir, "mms", table, cfg)


def cmd_mosco(cfg: RunConfig) -> int:
    blk = cfg.block("mosco", ("kind", "n_max"))
    kind = _get(blk, "kind", "mosco", str, "diffusion_perturbation")
    n_max = _int(blk, "n_max", "mosco", 8, minimum=1)
    try:
        index_set = tuple(range(1, n_max + 1))
    except OverflowError as exc:  # more instances than a tuple can index
        raise ConfigError("mosco.n_max", str(exc)) from exc
    seq = _checked("mosco.kind", MoscoSequenceSpec, kind, cfg.problem, index_set)
    outdir = _ensure_dir(cfg.output_dir, ("mosco.csv", "mosco.dat"))
    table = mosco_experiment(seq, cfg.cascade)
    return _write_study(outdir, "mosco", table, cfg)


def cmd_sweep(cfg: RunConfig) -> int:
    blk = cfg.block("sweep", ("pairs",))
    default_pairs = [[2, 2], [2, 3], [2.5, 3], [3, 2], [2, 1.5]]
    pairs = _numbers(blk, "pairs", "sweep", default_pairs, pairs=True)
    if not pairs:
        raise ConfigError("sweep.pairs", "expected at least one [p, m] pair")
    if cfg.problem.nl.kind != "power":
        raise ConfigError("sweep", "sweep varies p and requires the power rate map")
    probs = {}  # by the directory each pair writes to
    for pm in pairs:
        p, m = float(pm[0]), float(pm[1])
        name = f"p{p:g}_m{m:g}"
        if name in probs:
            raise ConfigError("sweep.pairs", f"{pm} would overwrite {name}")
        try:
            probs[name] = replace(cfg.problem, p=p, m=m, nl=cc.Nonlinearity.power(p))
        except ValueError as exc:
            raise ConfigError("sweep.pairs", str(exc)) from exc

    outdir = _ensure_dir(cfg.output_dir, ("summary.csv", "summary.dat"))
    # every directory first: a path that cannot be one, or a file name in
    # one that is a directory, ends the run unsolved
    subs = {name: _ensure_dir(str(outdir / name), ("trajectory.csv",))
            for name in probs}
    summary = Table(["p", "m", "route", "converged", "residual"])
    for name, prob in probs.items():
        final, payload = _solve_and_dump(prob, cfg, subs[name], dat=False)
        _write_report(subs[name], payload, final.converged)
        summary.add(prob.p, prob.m, payload["route"], final.converged,
                    payload["final_residual_AP"])
    summary.write(str(outdir / "summary"))
    ok = bool(np.all(summary.column("converged")))
    payload = {"command": "sweep", "runs": len(probs), "all_converged": ok,
               "config": cfg.raw}
    return _write_report(outdir, payload, ok)


# ---------------------------------------------------------------------------
# entry point


class _UsageError(Exception):
    """A malformed command line, as argparse words it."""


class _Parser(argparse.ArgumentParser):
    # every usage error reaches main, which exits 1 as for an invalid config:
    # 2 means non-convergence
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


_COMMANDS = {
    "solve": (cmd_solve, "run the regularization cascade and write the trajectory"),
    "verify": (cmd_verify, "solve, then run the invariant suite and growth audit"),
    "mms": (cmd_mms, "manufactured-solution convergence study"),
    "mosco": (cmd_mosco, "structural-stability experiment"),
    "sweep": (cmd_sweep, "solve once per (p, m) pair"),
}


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="perisolve",
        description="Time-periodic doubly nonlinear diffusion solver and "
        "verification harness",
        epilog="commands:\n"
        + "\n".join(f"  {name:<8}{text}" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    ap.add_argument("--config", required=True, help="JSON config path")
    ap.add_argument("--output", default=None, help="output directory override")
    ap.add_argument("--quiet", action="store_true", help="warnings only")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, output_override=args.output)
        command, _ = _COMMANDS[args.command]
        return command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
