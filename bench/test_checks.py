"""The benchmark's own tests: each correctness check passes on the program's
output and fails on that output perturbed by 1e-3, and the tracer's counts
agree with the counters the program reports.

    python3 -m pytest bench -q

The workloads run here on smaller grids than in the benchmark, so the tests
take about half a minute.
"""

import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

import workloads
from tracer import Tracer

PERTURBATION = 1e-3


def perturbed(u):
    noise = np.random.default_rng(0).standard_normal(u.shape)
    return u + PERTURBATION * float(np.max(np.abs(u))) * noise


def small(cls, M, N):
    wl = cls()
    wl.M, wl.N = M, N
    return wl


def test_cyclic_reference_check():
    wl = small(workloads.Linear64, 16, 16)
    st = wl.setup("solve")
    stages = wl.solve(st)
    ok, info = wl.check(st, stages)
    assert ok, info
    stages[-1].u = perturbed(stages[-1].u)
    ok, info = wl.check(st, stages)
    assert not ok and info["rel_err"] > 1e-6


def test_manufactured_forcing_check():
    wl = small(workloads.MmsP3M2, 8, 8)
    st = wl.setup("solve")
    final, stages, route = wl.solve(st)
    ok, info = wl.check(st, (final, stages, route))
    assert ok, info
    final.u = perturbed(final.u)
    ok, info = wl.check(st, (final, stages, route))
    assert not ok and info["err"] > 1e-7


@pytest.fixture()
def small_configs(monkeypatch):
    """Copies of the bundled configs at 16x16 (linear) and 8x8 (nonlinear),
    written inside the checkout like the benchmark's own outputs."""
    base = workloads.OUT / "tests"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    for name, size in (("linear_heat", 16), ("nonlinear_diffusion", 8)):
        doc = json.loads((workloads.CONFIGS / f"{name}.json").read_text())
        doc["problem"]["M"] = doc["problem"]["N"] = size
        (base / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.setattr(workloads, "CONFIGS", base)
    monkeypatch.setattr(workloads, "OUT", base / "out")
    return workloads.CliBundled()


def rewrite_trajectory(path, transform):
    rows = path.read_text().splitlines()
    data = np.array([r.split(",") for r in rows[1:]], dtype=float)
    data[:, 2] = transform(data[:, 2])
    path.write_text("\n".join([rows[0]] + [",".join("%.17g" % v for v in r) for r in data]) + "\n")


@pytest.mark.parametrize("unit", ["linear_heat", "nonlinear_diffusion"])
def test_cli_output_checks(small_configs, unit):
    wl = small_configs
    st = wl.setup(unit)
    code = wl.solve(st)
    ok, info = wl.check(st, code)
    assert ok, info
    rewrite_trajectory(st["out"] / "trajectory.csv", perturbed)
    ok, info = wl.check(st, code)
    assert not ok, info


def test_tracer_counts_match_the_program_report(small_configs):
    wl = small_configs
    st = wl.setup("nonlinear_diffusion")
    tracer = Tracer()
    tracer.install()
    try:
        assert wl.solve(st) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    held, info = wl.self_check(st, metrics)
    assert held, (info, metrics)
    assert metrics["variational.factor_solves"] == metrics["variational.newton_steps"] > 0
    assert metrics["discretize.calls"] > 0 and metrics["convexcore.calls"] > 0
    import perisolve.cascade

    assert not hasattr(perisolve.cascade.minimize, "__bench_wrapped__")


def mosco_table(errors):
    rows = [[n, e, True, 1e-10] for n, e in zip((1, 2, 4, 8), errors)]
    return SimpleNamespace(columns=["n", "error", "converged", "residual"], rows=rows)


def test_mosco_property_check():
    from perisolve.cascade import CascadeParams

    wl = workloads.MoscoDiffusion16()
    st = {"params": CascadeParams(mu_eps_truncate=2)}
    assert wl.check(st, mosco_table([0.24, 0.16, 0.053, 0.020]))[0]
    assert not wl.check(st, mosco_table([0.24, 0.16, 0.053, 0.061]))[0]
    assert not wl.check(st, mosco_table([0.24, 0.16, 0.12, 0.070]))[0]
