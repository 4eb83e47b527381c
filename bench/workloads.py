"""The four workloads: how each builds its inputs, solves, and is checked.

Each workload is a list of units; a unit runs in a fresh interpreter, so the
imports count as they do for users.  `setup` builds the inputs (this is what
`setup_s` times, from the interpreter's start), `solve` does the work that
`solve_s` times, and `check` compares the outputs with the independent
references in `references.py` or with a property the method must have.

The problem set is fixed and does not depend on the seed: see README.md.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

import references as ref

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "perisolve" / "configs"
OUT = ROOT / ".bench_out"

TWO_PI = 2.0 * math.pi


def _problem(p, m, L, T, M, N, f):
    from perisolve import convexcore as cc
    from perisolve import discretize as dz

    smesh, tmesh = dz.SpatialMesh(L, M), dz.TemporalMesh(T, N)
    return dz.ProblemSpec(
        p=p, m=m, nl=cc.Nonlinearity.power(p),
        a=cc.DiffusionField.constant(1.0, smesh), f=f, smesh=smesh, tmesh=tmesh,
    )


class Linear64:
    """p = m = 2 at 64x64 on the default epsilon ladder (criterion 1)."""

    M = N = 64
    units = ("solve",)

    def setup(self, unit):
        from perisolve.cascade import CascadeParams

        f = ref.two_mode_forcing(TWO_PI, TWO_PI, self.M, self.N)
        return {"prob": _problem(2.0, 2.0, TWO_PI, TWO_PI, self.M, self.N, f),
                "params": CascadeParams(), "f": f}

    def solve(self, st):
        import perisolve.cascade

        return perisolve.cascade.epsilon_continuation(st["prob"], st["params"])

    def check(self, st, stages):
        final = stages[-1]
        u_ref = ref.cyclic_heat_solve(st["f"], TWO_PI, TWO_PI)
        rel = ref.relative_sup_l2(final.u, u_ref, TWO_PI / (self.M + 1))
        return final.converged and rel <= 1e-6, {"rel_err": rel, "stages": len(stages)}


class MmsP3M2:
    """Discrete-exact manufactured problem, p = 3, m = 2, on the mu route."""

    M = N = 24
    p, m = 3.0, 2.0
    units = ("solve",)

    def setup(self, unit):
        from perisolve.cascade import CascadeParams

        _, _, dx, dt = ref.grid(1.0, 1.0, self.M, self.N)
        U = ref.bump_trajectory(1.0, 1.0, self.M, self.N)
        f = ref.discrete_exact_forcing(U, self.p, self.m, dx, dt)
        return {"prob": _problem(self.p, self.m, 1.0, 1.0, self.M, self.N, f),
                "params": CascadeParams(fp_tol=1e-8, stage_tol=1e-8), "U": U, "dx": dx}

    def solve(self, st):
        import perisolve.cascade

        return perisolve.cascade.solve_routed(st["prob"], st["params"])

    def check(self, st, out):
        final, stages, route = out
        err = ref.sup_l2(final.u - st["U"], st["dx"])
        ok = route == "mu" and final.converged and err <= 1e-7
        return ok, {"err": err, "route": route, "stages": len(stages)}


class CliBundled:
    """`perisolve solve` on both bundled configs, one interpreter each."""

    units = ("linear_heat", "nonlinear_diffusion")

    def setup(self, unit):
        import perisolve.cli

        path = CONFIGS / f"{unit}.json"
        perisolve.cli.load_config(str(path))
        with open(path) as fh:
            doc = json.load(fh)
        out = OUT / "cli-bundled" / unit
        shutil.rmtree(out, ignore_errors=True)
        return {"unit": unit, "path": str(path), "doc": doc, "out": out}

    def solve(self, st):
        import perisolve.cli

        return perisolve.cli.main(
            ["solve", "--config", st["path"], "--output", str(st["out"]), "--quiet"]
        )

    def check(self, st, code):
        out = st["out"]
        size = sum(f.stat().st_size for f in out.iterdir())
        info = {"exit": code, "output_bytes": size}
        if code != 0:
            return False, info
        pb = st["doc"]["problem"]
        p, m, L, T, M, N = (pb[k] for k in ("p", "m", "L", "T", "M", "N"))
        f = ref.sample_terms(pb["forcing"]["terms"], L, T, M, N)
        u = ref.read_trajectory_csv(str(out / "trajectory.csv"))
        _, _, dx, dt = ref.grid(L, T, M, N)
        if st["unit"] == "linear_heat":
            if not (p == m == 2.0 and pb["diffusion"] == {"kind": "constant", "value": 1.0}):
                raise ValueError("the cyclic reference needs p = m = 2 and unit diffusion")
            info["rel_err"] = ref.relative_sup_l2(u, ref.cyclic_heat_solve(f, L, T), dx)
            return info["rel_err"] <= 1e-6, info
        R = ref.periodic_residual(u, f, p, m, dx, dt)
        info["residual"] = ref.bochner_dual_norm(R, p, dx, dt)
        info["bound"] = ref.stationarity_bound(f, p, st["doc"]["cascade"]["fp_tol"], dx, dt)
        return info["residual"] <= info["bound"], info

    def self_check(self, st, metrics):
        """Traced counts against the stage counters the program reports."""
        with open(st["out"] / "report.json") as fh:
            report = json.load(fh)
        if report["route"] != "plain":
            return True, {}
        beta = sum(s["beta_evaluations"] for s in report["stages"])
        newton = sum(s["stage_newton_iterations"] for s in report["stages"])
        info = {"report_beta": beta, "report_newton": newton}
        ok = (metrics["cascade.beta_evals"] == beta
              and metrics["variational.newton_steps"] == newton)
        return ok, info


class MoscoDiffusion16:
    """Mosco diffusion-perturbation family of the 16x16 canonical problem,
    instances n = 1, 2, 4, 8 on two worker processes."""

    M = N = 16
    jobs = 2
    index_set = (1, 2, 4, 8)
    units = ("solve",)

    def setup(self, unit):
        from perisolve.cascade import CascadeParams
        from perisolve.verify import MoscoSequenceSpec

        f = ref.two_mode_forcing(TWO_PI, TWO_PI, self.M, self.N)
        base = _problem(2.0, 2.0, TWO_PI, TWO_PI, self.M, self.N, f)
        seq = MoscoSequenceSpec(kind="diffusion_perturbation", base=base,
                                index_set=self.index_set)
        return {"seq": seq, "params": CascadeParams(mu_eps_truncate=2)}

    def solve(self, st):
        import perisolve.verify

        return perisolve.verify.mosco_experiment(st["seq"], st["params"], jobs=self.jobs)

    def fanout_metrics(self, solve_s, metrics, worker_cpu):
        """The verify.* metrics: the fan-out is what follows the base solve."""
        fanout = solve_s - metrics["verify.base_solve_s"]
        return {
            "verify.fanout_wall_s": fanout,
            "verify.worker_cpu_s": worker_cpu,
            "verify.parallel_efficiency": worker_cpu / (self.jobs * fanout),
        }

    def check(self, st, table):
        cols = table.columns
        rows = table.rows
        ns = [r[cols.index("n")] for r in rows]
        errs = np.array([r[cols.index("error")] for r in rows], dtype=float)
        converged = all(bool(r[cols.index("converged")]) for r in rows)
        # errors at or under twice the stage tolerance are solver noise
        floor = 2.0 * st["params"].resolved_stage_tol()
        above = errs > floor
        decreasing = all(b < a for a, b, fa, fb in zip(errs, errs[1:], above, above[1:])
                         if fa and fb)
        ratio = float(errs[-1] / errs[0])
        ok = (ns == list(self.index_set) and converged and decreasing and ratio <= 0.25)
        return ok, {"errors": errs.tolist(), "last_over_first": ratio}


WORKLOADS = {
    "linear64-plain": Linear64(),
    "mms-p3m2-mu": MmsP3M2(),
    "cli-bundled": CliBundled(),
    "mosco-diffusion16": MoscoDiffusion16(),
}

