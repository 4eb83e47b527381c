"""End-to-end acceptance checks.

Each test evaluates one deliverable-level criterion and records a PASS/FAIL
line (echoed in the terminal summary) before asserting, so a red run still
reports every verdict.  Fixtures shared across criteria live in conftest.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perisolve
import perisolve.cascade as ca
import perisolve.convexcore as cc
import perisolve.verify as vf
from conftest import MMS_PAIRS, record_criterion
from oracles import (
    RESOLVENT_LAMBDA_STAR,
    RESOLVENT_U_STAR,
    fd_gradient,
    scalar_mode_problem,
)
from perisolve.discretize import SpatialMesh, norm_V, pairing
from perisolve.variational import _StageAt, residual_AP
from util import linf_l2, slice_problem, unit_problem


def test_criterion_1_linear_reference(linear_cascade_64):
    fx = linear_cascade_64
    final = fx.stages[-1]
    rel = linf_l2(final.u - fx.u_ref, fx.prob) / linf_l2(fx.u_ref, fx.prob)
    passed = final.converged and rel <= 1e-6 and fx.wall < 30.0
    assert record_criterion(
        1,
        passed,
        f"64x64 linear cascade vs independent cyclic solve rel_err={rel:.2e} "
        f"wall={fx.wall:.1f}s",
    )


def test_criterion_2_mms_matrix(mms_matrix):
    tol = 1e-7  # 10x the stage tolerance used for these runs
    details = []
    ok = True
    for pm in MMS_PAIRS:
        fx = mms_matrix[pm]
        ok &= fx.final.converged and fx.err <= tol and fx.wall < 120.0
        details.append(f"{pm}:{fx.err:.1e}/{fx.wall:.0f}s/{fx.route}")
    routes = {pm: mms_matrix[pm].route for pm in MMS_PAIRS}
    ok &= routes[(3.0, 2.0)] == "mu" and routes[(2.0, 1.5)] == "mu"
    ok &= routes[(2.0, 3.0)] == "plain" and routes[(2.5, 3.0)] == "plain"
    assert record_criterion(2, ok, "exact recovery " + " ".join(details))


def test_criterion_3_energy_inequality(mms_matrix, linear_cascade_64):
    worst = np.inf
    count = 0
    all_stages = list(linear_cascade_64.stages)
    for fx in mms_matrix.values():
        all_stages.extend(fx.stages)
    for stage in all_stages:
        if not stage.converged:
            continue
        scale = stage.diagnostics["residual_scale"]
        worst = min(worst, ca.stage_report(stage)["energy_margin"] / scale)
        count += 1
    passed = count > 0 and worst >= -1e-8
    assert record_criterion(
        3, passed, f"dissipation margin >= {worst:.2e} * scale on {count} stages"
    )


def test_criterion_4_chain_rule_halving():
    vals = {}
    converged = True
    for N in (16, 32):
        prob = unit_problem(2.5, 3.0, 16, N)
        stages = ca.epsilon_continuation(prob, ca.CascadeParams())
        converged &= stages[-1].converged
        vals[N] = ca.chain_rule_sum(_StageAt(stages[-1].u, prob, 0.0))
    ratio = vals[32] / vals[16]
    passed = converged and vals[16] > 0.0 and 0.3 <= ratio <= 0.8
    assert record_criterion(
        4,
        passed,
        f"chain-rule defect S(dt/2)/S(dt)={ratio:.3f} "
        f"(S16={vals[16]:.2e}, S32={vals[32]:.2e})",
    )


def test_criterion_5_identity_suite(rng):
    worst = {}

    # duality map: <F(v), v> = |v|^2 and |F(v)|_* = |v| across exponents
    mesh = SpatialMesh(1.5, 24)
    dev = 0.0
    for r in (1.5, 2.0, 3.0, 4.0):
        for _ in range(10):
            v = rng.standard_normal(24)
            nv = float(norm_V(v, r, mesh))
            F = cc.duality_map(v, r, mesh)
            scale = max(1.0, nv**2)
            dev = max(dev, abs(float(pairing(F, v, mesh)) - nv**2) / scale)
            rc = r / (r - 1.0)
            dev = max(dev, abs(float(norm_V(F, rc, mesh)) - nv) / scale)
    worst["duality"] = dev
    ok = dev <= 1e-10

    # proximal envelope: Phi(J) <= Phi_lam(u) <= Phi(u), monotone in lam
    pmesh = SpatialMesh(1.0, 12)
    pprob = slice_problem(pmesh, 3.0)
    margin = np.inf
    for _ in range(20):
        u = rng.standard_normal(12)
        phu = float(cc.PhiAt(u, pprob.a, 3.0, 1e-6, pmesh).value)
        scale = max(1.0, abs(phu))
        envs = []
        for lam in (1.0, 0.1, 0.01):
            J, env, _ = cc.moreau_yosida(u, lam, pprob, 1e-6, tol=1e-11)
            phJ = float(cc.PhiAt(J, pprob.a, 3.0, 1e-6, pmesh).value)
            margin = min(margin, (env - phJ) / scale, (phu - env) / scale)
            envs.append(env)
        margin = min(margin, (envs[1] - envs[0]) / scale, (envs[2] - envs[1]) / scale)
    worst["yosida"] = margin
    ok &= margin >= -1e-9

    # Fenchel-Young: equality on the graph of the rate map, inequality off it
    nl = cc.Nonlinearity.power(2.5)
    fy_dev = 0.0
    fy_margin = np.inf
    for _ in range(10):
        s = 2.0 * rng.standard_normal((6, 24))
        xi = nl.alpha_eval(s)
        gap = (
            np.asarray(cc.eval_psi(s, nl, mesh))
            + np.asarray(cc.fenchel_psi_star(xi, nl, mesh))
            - np.asarray(pairing(xi, s, mesh))
        )
        scale = max(1.0, float(np.max(np.abs(cc.eval_psi(s, nl, mesh)))))
        fy_dev = max(fy_dev, float(np.max(np.abs(gap))) / scale)
        zeta = nl.alpha_eval(2.0 * rng.standard_normal((6, 24)))
        off = (
            np.asarray(cc.eval_psi(s, nl, mesh))
            + np.asarray(cc.fenchel_psi_star(zeta, nl, mesh))
            - np.asarray(pairing(zeta, s, mesh))
        )
        fy_margin = min(fy_margin, float(np.min(off)) / scale)
    worst["fenchel_young"] = fy_dev
    ok &= fy_dev <= 1e-8 and fy_margin >= -1e-8

    # energy subgradient against finite differences
    amesh = SpatialMesh(1.0, 10)
    acfg_a = cc.DiffusionField.constant(1.3, amesh)
    u = rng.standard_normal(10)
    # PhiAt.grad is the pairing gradient; Euclidean FD partials carry the dx
    # quadrature weight
    g = amesh.dx * cc.PhiAt(u, acfg_a, 2.5, 1e-4, amesh).grad
    fd = fd_gradient(lambda v: float(cc.PhiAt(v, acfg_a, 2.5, 1e-4, amesh).value), u)
    fd_dev = float(np.max(np.abs(g - fd))) / max(1.0, float(np.max(np.abs(g))))
    worst["grad_phi_fd"] = fd_dev
    ok &= fd_dev <= 1e-6

    # perturbed resolvent against the frozen scalar oracle
    smesh1, sprob = scalar_mode_problem()
    pf = cc.PerturbedFunctional(mu=1.0, alpha_exp=1.0)
    ur = cc.resolvent_phi_power(np.array([0.0]), np.array([1.0]), pf, sprob, 0.0)
    lam = float(cc.PhiAt(ur, sprob.a, 2.0, 0.0, smesh1).value)
    res_dev = max(abs(ur[0] - RESOLVENT_U_STAR), abs(lam - RESOLVENT_LAMBDA_STAR))
    worst["resolvent"] = res_dev
    ok &= res_dev <= 1e-6

    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    assert record_criterion(5, ok, "identity suite " + detail)


def test_criterion_6_mosco_stability():
    import time

    from oracles import canonical_problem

    base = canonical_problem(M=32, N=32)
    params = ca.CascadeParams(mu_eps_truncate=2)
    seq = vf.MoscoSequenceSpec(
        kind="diffusion_perturbation", base=base, index_set=tuple(range(1, 9))
    )
    t0 = time.perf_counter()
    tab = vf.mosco_experiment(seq, params)
    wall = time.perf_counter() - t0
    errs = tab.column("error").astype(float)
    ratio = tab.meta["last_over_first"]
    passed = (
        bool(np.all(tab.column("converged")))
        and tab.meta["monotone_beyond_floor"]
        and ratio <= 0.25
        and wall < 300.0
    )
    assert record_criterion(
        6,
        passed,
        f"diffusion perturbation errors {errs[0]:.2e}->{errs[-1]:.2e} "
        f"(ratio {ratio:.3f}) monotone={tab.meta['monotone_beyond_floor']} "
        f"wall={wall:.0f}s",
    )


def test_criterion_7_perturbation_vanishes(mms_matrix):
    # the default route solves the unperturbed stage directly; the mu walk
    # is what carries the perturbation, so read it on its own route
    fx = mms_matrix[(3.0, 2.0)]
    _, stages, _ = ca.solve_routed(fx.prob, fx.params, route="mu")
    mus, norms = [], []
    for stage in stages:
        # the exact eps = 0 stage of each mu level carries the mu-term itself
        if stage.mu > 0.0 and stage.epsilon == 0.0:
            mus.append(stage.mu)
            norms.append(ca.stage_report(stage)["audit"]["mu_term_dual_norm"])
    slope = float(np.polyfit(np.log(mus), np.log(norms), 1)[0])
    passed = len(mus) >= 3 and slope >= 0.9
    assert record_criterion(
        7,
        passed,
        f"perturbation dual norm ~ mu^{slope:.3f} over {len(mus)} stages "
        f"({norms[0]:.1e}->{norms[-1]:.1e})",
    )


def test_criterion_8_residual_detects_corruption(mms_matrix):
    fx = mms_matrix[(2.0, 3.0)]
    res0 = residual_AP(fx.final.u, fx.prob)
    noise = np.random.default_rng(7).standard_normal(fx.final.u.shape)
    res1 = residual_AP(fx.final.u + 1e-2 * noise, fx.prob)
    ratio = res1 / res0
    passed = ratio > 100.0
    assert record_criterion(
        8,
        passed,
        f"1e-2 corruption lifts residual {res0:.1e} -> {res1:.1e} ({ratio:.1e}x)",
    )


def test_criterion_9_cli_determinism(tmp_path, bundled_config_dir):
    # Run the CLI module on this interpreter with the imported package first
    # on the child's path: the child runs the code under test, installed or
    # not, and no stale console script on PATH can stand in for it.
    pkg_root = str(Path(perisolve.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""),
    )
    config = bundled_config_dir / "linear_heat.json"
    outputs = []
    codes = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "perisolve.cli", "solve",
             "--config", str(config), "--output", str(out), "--quiet"],
            capture_output=True,
            text=True,
            timeout=240,
            env=env,
        )
        codes.append(proc.returncode)
        trajectory = out / "trajectory.csv"
        if proc.returncode != 0 or not trajectory.exists():
            tail = " | ".join(proc.stderr.strip().splitlines()[-5:])
            assert record_criterion(
                9,
                False,
                f"CLI {name} exit {codes}, trajectory.csv written="
                f"{trajectory.exists()}, stderr tail: {tail or '(empty)'}",
            )
        outputs.append(trajectory.read_bytes())
    identical = outputs[0] == outputs[1]

    # byte-identical runs must also still match the frozen reference run
    from perisolve.discretize import read_field_csv

    u_run, _, _ = read_field_csv(str(tmp_path / "run_a" / "trajectory.csv"))
    u_ref, _, _ = read_field_csv(str(bundled_config_dir / "linear_heat_reference.csv"))
    ref_dev = float(np.max(np.abs(u_run - u_ref))) / float(np.max(np.abs(u_ref)))
    passed = codes == [0, 0] and identical and ref_dev <= 1e-6
    assert record_criterion(
        9,
        passed,
        f"two CLI solves exit {codes}, byte-identical={identical}, "
        f"reference dev={ref_dev:.1e}",
    )
