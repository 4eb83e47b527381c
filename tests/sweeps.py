"""Seeded families of random problems, solved target by target.

    PYTHONPATH=src python tests/sweeps.py <family> [--route]

run from the root of a checkout, solves every problem's eps = 0 target
from u = 0 and prints one JSON line per problem (index, p, m, M, N,
converged, steps, final residual, seconds) and then a summary line.  With
--route each failed target is also solved routed, by solve_routed(prob,
CascadeParams()), and its line records the walk's verdict: rescued, its
stage count and its Newton steps.  The family "all" runs every family in
turn.

Every problem lives on the unit square with unit diffusion, as
tests/util.unit_problem builds it, and has the power map unless its family
draws a table.  Per problem the draws are, in order: p ~ U(plo, phi),
m ~ U(mlo, mhi), M ~ integers(3, 17), N ~ integers(2, 17) and
integers(1, 3) terms.  Per term: an amplitude U(0.1, A) times
choice([-1, 1]); sin or cos (integers(0, 2)) of k pi x with
k ~ integers(1, 4); a time frequency j ~ integers(0, 3); and a profile
integers(0, 3), which is 1 when it is 0 or j = 0 and otherwise sin or cos
of 2 pi j t.  A term adds amplitude * time profile * space profile,
multiplied in that order: the failed targets' step counts depend on its
roundoff.  A table family then draws the rate map: integers(2, 7) knots
s ~ U(-4, 4) in one draw, plus s = 0, sorted; one slope U(0.1, 10) per
segment in one draw; and alpha(0) = 0.  pytest does not collect this
file; test_sweeps.py pins the draws.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Iterator, NamedTuple

import numpy as np

from perisolve.cascade import CascadeParams, fixed_point_solve, solve_routed
from perisolve.convexcore import Nonlinearity
from perisolve.discretize import ProblemSpec
from util import unit_problem


class Family(NamedTuple):
    """A seeded family: count problems with p in [plo, phi), m in
    [mlo, mhi), forcing amplitudes up to A and, with table, a drawn
    piecewise linear rate map in place of the power map."""

    seed: int
    p: tuple[float, float]
    m: tuple[float, float]
    A: float
    count: int
    table: bool = False


FAMILIES = {
    "seed2027": Family(2027, (1.2, 1.5), (1.5, 3.0), 10.0, 60),
    "seed3": Family(3, (2.0, 4.0), (1.1, 1.5), 100.0, 60),
    "seed4": Family(4, (1.35, 1.9), (1.1, 1.9), 10.0, 40),
    "seed7": Family(7, (1.5, 3.0), (1.5, 3.0), 10.0, 60),
    "seed2026": Family(2026, (1.5, 2.0), (1.5, 3.0), 10.0, 60),
    "seed2028": Family(2028, (2.0, 3.5), (1.5, 3.0), 10.0, 60),
    "seed1": Family(1, (1.5, 2.0), (1.1, 3.0), 100.0, 60),
    "seed5": Family(5, (1.5, 3.0), (1.5, 3.0), 10.0, 40, table=True),
}


def problems(family: Family) -> Iterator[tuple[int, ProblemSpec]]:
    """(index, problem) of every problem of family, in draw order."""
    rng = np.random.default_rng(family.seed)
    for index in range(family.count):
        p = rng.uniform(*family.p)
        m = rng.uniform(*family.m)
        M = int(rng.integers(3, 17))
        N = int(rng.integers(2, 17))
        prob = unit_problem(p, m, M, N)
        x, t = prob.smesh.nodes[None, :], prob.tmesh.times[:, None]
        f = np.zeros((N, M))
        for _ in range(int(rng.integers(1, 3))):
            amp = rng.uniform(0.1, family.A) * rng.choice([-1.0, 1.0])
            space = (np.sin, np.cos)[rng.integers(0, 2)]
            k = int(rng.integers(1, 4))
            j = int(rng.integers(0, 3))
            profile = int(rng.integers(0, 3))
            wave = 1.0
            if profile and j:
                wave = (np.sin, np.cos)[profile - 1](2.0 * np.pi * j * t)
            f = f + amp * wave * space(k * np.pi * x)
        prob = replace(prob, f=f)
        if family.table:
            s = rng.uniform(-4.0, 4.0, int(rng.integers(2, 7)))
            s = np.sort(np.append(s, 0.0))
            slopes = rng.uniform(0.1, 10.0, s.size - 1)
            alpha = np.append(0.0, np.cumsum(slopes * np.diff(s)))
            alpha -= alpha[np.searchsorted(s, 0.0)]
            table = np.column_stack([s, alpha])
            prob = replace(prob, nl=Nonlinearity.piecewise_linear(table))
        yield index, prob


def run(name: str, route: bool) -> dict:
    """Solve family name's targets, and with route its failed ones routed;
    print a line per problem and return the summary."""
    params = CascadeParams()
    summary = {"family": name, "problems": 0, "converged": 0, "steps": 0,
               "seconds": 0.0}
    if route:
        summary.update(routed=0, rescued=0, routed_steps=0, routed_seconds=0.0)
    for index, prob in problems(FAMILIES[name]):
        t0 = time.perf_counter()
        stage = fixed_point_solve(prob, 0.0, params)
        seconds = time.perf_counter() - t0
        diag = stage.diagnostics
        line = {
            "index": index, "p": prob.p, "m": prob.m,
            "M": prob.smesh.interior_count, "N": prob.tmesh.step_count,
            "converged": stage.converged,
            "steps": diag["fixed_point_newton_steps"],
            "residual": diag["fixed_point_residual"],
            "seconds": round(seconds, 4),
        }
        summary["problems"] += 1
        summary["converged"] += stage.converged
        summary["steps"] += line["steps"]
        summary["seconds"] += seconds
        if route and not stage.converged:
            t0 = time.perf_counter()
            final, stages, _ = solve_routed(prob, params)
            seconds = time.perf_counter() - t0
            steps = sum(s.diagnostics["fixed_point_newton_steps"] for s in stages)
            line.update(rescued=final.converged, route_stages=len(stages),
                        route_steps=steps, route_seconds=round(seconds, 4))
            summary["routed"] += 1
            summary["rescued"] += final.converged
            summary["routed_steps"] += steps
            summary["routed_seconds"] += seconds
        print(json.dumps(line), flush=True)
    for key in ("seconds", "routed_seconds"):
        if key in summary:
            summary[key] = round(summary[key], 2)
    print(json.dumps({"summary": summary}), flush=True)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("family", choices=[*FAMILIES, "all"])
    parser.add_argument("--route", action="store_true",
                        help="also solve every failed target routed")
    args = parser.parse_args(argv)
    for name in FAMILIES if args.family == "all" else [args.family]:
        run(name, args.route)
    return 0


if __name__ == "__main__":
    sys.exit(main())
