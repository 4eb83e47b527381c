"""Batch front door: JSON configs in, tables and reports out.

Subcommands: solve, verify, mms, mosco, sweep.  Every run is driven by a
versioned JSON config; validation failures name the offending key and exit
with code 1, solver non-convergence exits with code 2 (the report is still
written), success exits 0.  All randomness flows from the single seed, and
identical configs produce byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import convexcore as cc
from .cascade import CascadeParams, StageResult, _perturbation_exponent, solve_routed
from .discretize import (
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    sample_forcing,
    write_field_csv,
    write_field_dat,
)
from .verify import (
    MmsSpec,
    MoscoSequenceSpec,
    Table,
    _constant_diffusion,
    _mms_level,
    _solve_batch,
    growth_audit,
    invariant_suite,
    mms_run,
    mosco_experiment,
)
from .variational import residual_AP

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


def _get(d: dict, key: str, path: str, typ=None, default=_SENTINEL):
    if key not in d:
        if default is not _SENTINEL:
            return default
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    val = d[key]
    names = typ if isinstance(typ, tuple) else (typ,)
    # JSON true and false load as bool, which is a subclass of int
    if typ is not None and (
        not isinstance(val, typ) or isinstance(val, bool) and bool not in names
    ):
        raise ConfigError(
            f"{path}.{key}" if path else key,
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
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {val}")
    return float(val)


def _int(d: dict, key: str, path: str, default=_SENTINEL, minimum: int = 0) -> int:
    val = _get(d, key, path, int, default)
    if val < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {val}")
    return val


@dataclass
class RunConfig:
    """Validated run configuration plus the raw document for echoing."""

    problem: ProblemSpec
    cascade: CascadeParams
    seed: int
    output_dir: str
    raw: dict
    route: str = "auto"

    def block(self, name: str) -> dict:
        return _get(self.raw, name, "", dict, {})


def _build_nonlinearity(spec: dict, p: float, path: str) -> cc.Nonlinearity:
    kind = _get(spec, "kind", path, str, "power")
    try:
        if kind == "power":
            return cc.Nonlinearity.power(p)
        if kind == "piecewise_linear":
            pts = _get(spec, "breakpoints", path, list)
            return cc.Nonlinearity.piecewise_linear(pts, p_exponent=p)
        if kind == "custom_tabulated":
            if "path" in spec:
                return cc.Nonlinearity.from_csv(spec["path"], p_exponent=p)
            s = _get(spec, "s_values", path, list)
            al = _get(spec, "alpha_values", path, list)
            return cc.Nonlinearity.custom_tabulated(s, al, p_exponent=p)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown nonlinearity kind {kind!r}")


def _build_diffusion(spec: dict, smesh: SpatialMesh, path: str) -> cc.DiffusionField:
    kind = _get(spec, "kind", path, str, "constant")
    try:
        if kind == "constant":
            return cc.DiffusionField.constant(_number(spec, "value", path, 1.0), smesh)
        if kind == "values":
            vals = np.asarray(_get(spec, "values", path, list), dtype=float)
            if vals.size != smesh.interior_count + 1:
                raise ConfigError(
                    f"{path}.values",
                    f"need {smesh.interior_count + 1} midpoint values, got {vals.size}",
                )
            return cc.DiffusionField(vals)
        if kind == "sin_modulated":
            base = _number(spec, "base", path, 1.0)
            amp = _number(spec, "amplitude", path, 0.5)
            mode = _number(spec, "mode", path, 1.0)
            vals = base * (
                1.0 + amp * np.sin(np.pi * mode * smesh.cell_midpoints / smesh.length)
            )
            return cc.DiffusionField(vals)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown diffusion kind {kind!r}")


def _build_problem(doc: dict) -> ProblemSpec:
    pb = _get(doc, "problem", "", dict)
    path = "problem"
    p = _number(pb, "p", path, 2.0)
    m = _number(pb, "m", path, 2.0)
    if p <= 1.0:
        raise ConfigError("problem.p", f"must exceed 1, got {p}")
    if m <= 1.0:
        raise ConfigError("problem.m", f"must exceed 1, got {m}")
    L = _number(pb, "L", path, 1.0)
    T = _number(pb, "T", path, 1.0)
    M = _int(pb, "M", path, 32)
    N = _int(pb, "N", path, 32)
    try:
        smesh = SpatialMesh(L, M)
        tmesh = TemporalMesh(T, N)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    nl = _build_nonlinearity(
        _get(pb, "nonlinearity", path, dict, {}), p, f"{path}.nonlinearity"
    )
    a = _build_diffusion(_get(pb, "diffusion", path, dict, {}), smesh, f"{path}.diffusion")
    fspec = _get(pb, "forcing", path, dict, {"kind": "zero"})
    try:
        f = sample_forcing(fspec, smesh, tmesh)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{path}.forcing", str(exc)) from exc
    try:
        return ProblemSpec(p=p, m=m, nl=nl, a=a, f=f, smesh=smesh, tmesh=tmesh)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


_SCHEDULE_KEYS = ("epsilon_schedule", "mu_schedule")
_NUMBER_KEYS = ("alpha_exp", "delta", "fp_tol", "stage_tol")
_INT_KEYS = ("max_fp_iter", "mu_eps_truncate")
_CASCADE_KEYS = (*_SCHEDULE_KEYS, *_NUMBER_KEYS, *_INT_KEYS, "exact_limit_stage")


def _build_cascade(doc: dict) -> CascadeParams:
    cb = _get(doc, "cascade", "", dict, {})
    path = "cascade"
    for key in cb:
        if key not in _CASCADE_KEYS:
            raise ConfigError(f"{path}.{key}", "unknown key")
    kwargs = {}
    for key in _SCHEDULE_KEYS:
        if key in cb:
            sched = _get(cb, key, path, list)
            if not all(_is_number(e) for e in sched):
                raise ConfigError(f"{path}.{key}", "expected a list of finite numbers")
            kwargs[key] = tuple(sched)
    for key in _NUMBER_KEYS:
        if key in cb and cb[key] is not None:
            kwargs[key] = _number(cb, key, path)
    for key in _INT_KEYS:
        if key in cb:
            kwargs[key] = _int(cb, key, path)
    if "exact_limit_stage" in cb:
        kwargs["exact_limit_stage"] = _get(cb, "exact_limit_stage", path, bool)
    try:
        return CascadeParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


_SINGULAR_FLUX = (
    "delta = 0 with m = {m:g} < 2: the flux slope is singular at a zero "
    "cell gradient, and the solve starts from u = 0"
)


def load_config(path: str, output_override: str | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    schema = _get(doc, "schema", "", int, 1)
    if schema != 1:
        raise ConfigError("schema", f"unsupported schema version {schema}")
    seed = _get(doc, "seed", "", int, 0)
    out = output_override or _get(doc, "output_dir", "", str, "out")
    route = _get(doc, "route", "", str, "auto")
    if route not in ("auto", "mu"):
        raise ConfigError("route", f"must be 'auto' or 'mu', got {route!r}")
    problem = _build_problem(doc)
    cascade = _build_cascade(doc)
    if problem.m < 2.0 and cascade.delta == 0.0:
        raise ConfigError("cascade.delta", _SINGULAR_FLUX.format(m=problem.m))
    # m (1 + alpha_exp) <= p forces m < p, so every such pair takes the mu route
    try:
        _perturbation_exponent(problem.p, problem.m, cascade.alpha_exp)
    except ValueError as exc:
        raise ConfigError("cascade.alpha_exp", str(exc)) from exc
    return RunConfig(
        problem=problem, cascade=cascade, seed=seed, output_dir=out, raw=doc,
        route=route,
    )


# ---------------------------------------------------------------------------
# output helpers


def _ensure_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _stage_summary(stage: StageResult) -> dict:
    """A stage's diagnostics minus history and timer; reruns write equal bytes."""
    d = dict(stage.diagnostics)
    d.pop("residual_history", None)
    d.pop("wall_time", None)
    return {"epsilon": stage.epsilon, "mu": stage.mu, **d}


def _write_report(outdir: Path, payload: dict) -> None:
    with open(outdir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_study(outdir: Path, name: str, table: Table, cfg: RunConfig) -> int:
    """Write a study's table to <name>.csv and <name>.dat and its report;
    the exit code says whether every row converged."""
    table.to_csv(str(outdir / f"{name}.csv"))
    table.to_dat(str(outdir / f"{name}.dat"))
    code = EXIT_OK if np.all(table.column("converged")) else EXIT_NOCONV
    payload = {
        "command": name,
        "table": table.as_dict(),
        "config": cfg.raw,
        "exit_code": code,
    }
    _write_report(outdir, payload)
    return code


def _solve_payload(
    prob: ProblemSpec,
    params: CascadeParams,
    final: StageResult,
    stages: list[StageResult],
    route: str,
) -> dict:
    """Report entries of one routed solve: outcome, residual, every stage."""
    return {
        "command": "solve",
        "route": route,
        "converged": final.converged,
        "final_residual_AP": residual_AP(final.u, prob, delta=params.delta),
        "stages": [_stage_summary(s) for s in stages],
    }


def _solve_and_dump(cfg: RunConfig, outdir: Path) -> tuple[StageResult, dict]:
    final, stages, route = solve_routed(cfg.problem, cfg.cascade, route=cfg.route)
    write_field_csv(
        str(outdir / "trajectory.csv"), final.u, cfg.problem.smesh, cfg.problem.tmesh
    )
    write_field_dat(
        str(outdir / "trajectory.dat"), final.u, cfg.problem.smesh, cfg.problem.tmesh
    )
    payload = _solve_payload(cfg.problem, cfg.cascade, final, stages, route)
    payload["config"] = cfg.raw
    return final, payload


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: RunConfig) -> int:
    outdir = _ensure_dir(cfg.output_dir)
    final, payload = _solve_and_dump(cfg, outdir)
    code = EXIT_OK if final.converged else EXIT_NOCONV
    payload["exit_code"] = code
    _write_report(outdir, payload)
    log.info("solve: converged=%s residual=%.3e", final.converged,
             payload["final_residual_AP"])
    return code


def cmd_verify(cfg: RunConfig) -> int:
    samples = _int(cfg.block("verify"), "sample_count", "verify", 40, minimum=1)
    outdir = _ensure_dir(cfg.output_dir)
    final, payload = _solve_and_dump(cfg, outdir)
    suite = invariant_suite(
        final, cfg.problem, cfg.cascade, rng=np.random.default_rng(cfg.seed + 1)
    )
    audit = growth_audit(cfg.problem, sample_count=samples, seed=cfg.seed)
    audit.to_csv(str(outdir / "growth_audit.csv"))
    audit.to_dat(str(outdir / "growth_audit.dat"))
    payload["command"] = "verify"
    payload["invariants"] = suite
    payload["growth_audit"] = audit.meta
    ok = final.converged and suite["all_passed"] and audit.meta.get("all_finite", False)
    code = EXIT_OK if ok else EXIT_NOCONV
    payload["exit_code"] = code
    _write_report(outdir, payload)
    return code


def _build_mms_spec(cfg: RunConfig):
    blk = cfg.block("mms")
    name = _get(blk, "exact", "mms", str, "separable_bump")
    mode = _get(blk, "mode", "mms", str, "discrete_exact")
    try:
        MmsSpec(name)
    except ValueError as exc:
        raise ConfigError("mms.exact", str(exc)) from exc
    try:
        spec = MmsSpec(name, mode)
        if mode == "continuum":
            _constant_diffusion(cfg.problem.a)
    except ValueError as exc:
        raise ConfigError("mms.mode", str(exc)) from exc
    levels = _get(blk, "levels", "mms", list, [[8, 8], [16, 16], [32, 32]])
    if not levels:
        raise ConfigError("mms.levels", "expected at least one [M, N] level")
    for lv in levels:
        if not isinstance(lv, list) or len(lv) != 2 or any(
            type(v) is not int for v in lv
        ):
            raise ConfigError("mms.levels", "expected [M, N] integer pairs")
        try:
            _mms_level(spec, cfg.problem, *lv, cfg.cascade.delta)
        except ValueError as exc:
            raise ConfigError("mms.levels", str(exc)) from exc
    return spec, tuple(map(tuple, levels))


def cmd_mms(cfg: RunConfig, jobs: int = 1) -> int:
    spec, levels = _build_mms_spec(cfg)
    outdir = _ensure_dir(cfg.output_dir)
    table = mms_run(spec, cfg.problem, cfg.cascade, levels, jobs=jobs)
    return _write_study(outdir, "mms", table, cfg)


def cmd_mosco(cfg: RunConfig, jobs: int = 1) -> int:
    blk = cfg.block("mosco")
    kind = _get(blk, "kind", "mosco", str, "diffusion_perturbation")
    n_max = _int(blk, "n_max", "mosco", 8, minimum=1)
    try:
        seq = MoscoSequenceSpec(
            kind=kind, base=cfg.problem, index_set=tuple(range(1, n_max + 1))
        )
    except ValueError as exc:
        raise ConfigError("mosco.kind", str(exc)) from exc
    outdir = _ensure_dir(cfg.output_dir)
    table = mosco_experiment(seq, cfg.cascade, jobs=jobs)
    return _write_study(outdir, "mosco", table, cfg)


def cmd_sweep(cfg: RunConfig, jobs: int = 1) -> int:
    blk = cfg.block("sweep")
    default_pairs = [[2, 2], [2, 3], [2.5, 3], [3, 2], [2, 1.5]]
    pairs = _get(blk, "pairs", "sweep", list, default_pairs)
    if not pairs:
        raise ConfigError("sweep.pairs", "expected at least one [p, m] pair")
    eps_finals = _get(
        blk, "epsilon_final", "sweep", list, list(cfg.cascade.epsilon_schedule[-1:])
    )
    if not eps_finals or not all(_is_number(e) for e in eps_finals):
        raise ConfigError(
            "sweep.epsilon_final", "expected a non-empty list of finite numbers"
        )
    if cfg.problem.nl.kind != "power":
        raise ConfigError("sweep", "sweep varies p and requires the power rate map")
    runs = []
    for pm in pairs:
        if not isinstance(pm, list) or len(pm) != 2 or not all(map(_is_number, pm)):
            raise ConfigError("sweep.pairs", "expected [p, m] pairs of finite numbers")
        p, m = float(pm[0]), float(pm[1])
        if m < 2.0 and cfg.cascade.delta == 0.0:
            raise ConfigError("sweep.pairs", _SINGULAR_FLUX.format(m=m))
        try:
            prob = replace(cfg.problem, p=p, m=m, nl=cc.Nonlinearity.power(p))
            _perturbation_exponent(p, m, cfg.cascade.alpha_exp)
        except ValueError as exc:
            raise ConfigError("sweep.pairs", str(exc)) from exc
        for ef in map(float, eps_finals):
            sched = tuple(e for e in cfg.cascade.epsilon_schedule if e >= ef)
            if not sched or sched[-1] != ef:
                sched = sched + (ef,)
            try:
                params = replace(cfg.cascade, epsilon_schedule=sched)
            except ValueError as exc:
                raise ConfigError("sweep.epsilon_final", str(exc)) from exc
            runs.append((p, m, ef, prob, params))

    outdir = _ensure_dir(cfg.output_dir)
    outs = _solve_batch([(prob, params, cfg.route) for *_, prob, params in runs], jobs)
    summary = Table(["p", "m", "epsilon_final", "route", "converged", "residual"])
    for (p, m, ef, prob, params), (final, stages, route) in zip(runs, outs):
        sub = _ensure_dir(str(outdir / f"p{p:g}_m{m:g}_eps{ef:g}"))
        write_field_csv(str(sub / "trajectory.csv"), final.u, prob.smesh, prob.tmesh)
        payload = _solve_payload(prob, params, final, stages, route)
        payload["exit_code"] = EXIT_OK if final.converged else EXIT_NOCONV
        _write_report(sub, payload)
        summary.add(p, m, ef, route, final.converged, payload["final_residual_AP"])
    summary.to_csv(str(outdir / "summary.csv"))
    summary.to_dat(str(outdir / "summary.dat"))
    ok = bool(np.all(summary.column("converged")))
    _write_report(
        outdir,
        {
            "command": "sweep",
            "runs": len(runs),
            "all_converged": ok,
            "config": cfg.raw,
            "exit_code": EXIT_OK if ok else EXIT_NOCONV,
        },
    )
    return EXIT_OK if ok else EXIT_NOCONV


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="perisolve",
        description="Time-periodic doubly nonlinear diffusion solver and "
        "verification harness",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "run the regularization cascade and write the trajectory"),
        ("verify", "solve, then run the invariant suite and growth audit"),
        ("mms", "manufactured-solution convergence study"),
        ("mosco", "structural-stability experiment"),
        ("sweep", "solve over a grid of (p, m, final epsilon) values"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--output", default=None, help="output directory override")
        sp.add_argument("--quiet", action="store_true", help="warnings only")
        if name in ("mms", "mosco", "sweep"):
            sp.add_argument(
                "--jobs", type=int, default=1,
                help="at most this many processes, this one included; workers "
                "start only when the solves left can pay for them, with one BLAS "
                "thread each",
            )
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, output_override=args.output)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "mms":
            return cmd_mms(cfg, jobs=args.jobs)
        if args.command == "mosco":
            return cmd_mosco(cfg, jobs=args.jobs)
        if args.command == "sweep":
            return cmd_sweep(cfg, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
