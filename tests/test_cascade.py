from dataclasses import replace

import numpy as np
import pytest

import perisolve.cascade as ca
import perisolve.convexcore as cc
from newton_oracle import direct_newton_oracle
from oracles import canonical_problem, cyclic_heat_solve
from perisolve.discretize import pairing, time_derivative
from perisolve.variational import ObjectiveConfig, residual_AP
from util import dense_affine_zero, linf_l2, stage_equation, unit_problem


def test_default_epsilon_schedule_shape():
    sched = ca.default_epsilon_schedule()
    assert len(sched) == 15
    assert sched[0] == 1.0
    assert sched[-1] == 1e-4
    ratios = np.array(sched[1:]) / np.array(sched[:-1])
    assert np.all(ratios < 1.0)
    assert np.allclose(ratios[:-1], 0.5)  # last entry clamps to stop
    with pytest.raises(ValueError, match="factor"):
        ca.default_epsilon_schedule(factor=1.5)
    with pytest.raises(ValueError, match="stop"):
        ca.default_epsilon_schedule(start=1e-5, stop=1e-4)


def test_params_validation_and_stage_tol():
    with pytest.raises(ValueError, match="strictly decreasing"):
        ca.CascadeParams(epsilon_schedule=(0.5, 0.5))
    with pytest.raises(ValueError, match="must be positive"):
        ca.CascadeParams(epsilon_schedule=(1.0, 0.0))
    with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
        ca.CascadeParams(mu_schedule=(1.0,))
    with pytest.raises(ValueError, match="mu schedule must be strictly"):
        ca.CascadeParams(mu_schedule=(1e-2, 1e-1))
    with pytest.raises(ValueError, match="fp_tol"):
        ca.CascadeParams(fp_tol=0.0)
    # the fixed point has no damping, acceleration or inner-solve knobs
    for key in ("omega", "anderson_depth", "max_newton"):
        with pytest.raises(TypeError, match=key):
            ca.CascadeParams(**{key: 1})
    for key, bad, match in (
        ("delta", np.nan, "delta"),
        ("delta", -1.0, "delta"),
        ("fp_tol", np.nan, "fp_tol"),
        ("stage_tol", np.inf, "stage_tol"),
        ("stage_tol", np.nan, "stage_tol"),
        ("epsilon_schedule", (1.0, np.nan), "epsilon schedule"),
        ("alpha_exp", -1.0, "alpha_exp"),
        ("alpha_exp", 0.0, "alpha_exp"),
    ):
        with pytest.raises(ValueError, match=match):
            ca.CascadeParams(**{key: bad})
    assert ca.CascadeParams().resolved_stage_tol() == pytest.approx(0.05 * 1e-10)
    assert ca.CascadeParams(stage_tol=1e-7).resolved_stage_tol() == 1e-7


def test_beta_of_zero_forcing_is_zero():
    # zero forcing gives a zero stage: u = 0 and h = -alpha(0) = 0
    zero_prob = unit_problem(2.0, 3.0, 5, 5, amp=0.0)
    zero = ca.fixed_point_solve(zero_prob, 0.1, ca.CascadeParams())
    assert zero.converged
    assert np.abs(zero.u).max() <= 1e-9 and np.abs(zero.h).max() <= 1e-9


def test_solve_APh_zero_and_deterministic():
    # the stage solve maps zero forcing to zero and is bitwise repeatable
    zero_prob = unit_problem(2.5, 3.0, 6, 6, amp=0.0)
    zero = ca.fixed_point_solve(zero_prob, 0.1, ca.CascadeParams())
    assert zero.converged
    assert np.abs(zero.u).max() <= 1e-9 and np.abs(zero.h).max() <= 1e-9
    prob = unit_problem(2.5, 3.0, 6, 6)
    a = ca.fixed_point_solve(prob, 0.1, ca.CascadeParams())
    b = ca.fixed_point_solve(prob, 0.1, ca.CascadeParams())
    assert np.array_equal(a.u, b.u) and np.array_equal(a.h, b.h)


def test_affine_fixed_point_matches_dense_solve():
    # p = m = 2 makes the stage equation F(u) = R(u) + alpha(du) affine;
    # assemble its dense Jacobian column by column, not through the band,
    # and solve F(u) = 0 independently
    prob = unit_problem(2.0, 2.0, 4, 4)
    ocfg = ObjectiveConfig(prob, 0.25, ca.CascadeParams().delta)
    u_direct = dense_affine_zero(stage_equation(ocfg), (4, 4))
    params = ca.CascadeParams(fp_tol=1e-12, stage_tol=1e-13)
    stage = ca.fixed_point_solve(prob, 0.25, params)
    assert stage.converged
    assert np.abs(stage.u - u_direct).max() <= 1e-10
    h_direct = -prob.nl.alpha_eval(time_derivative(u_direct, prob.tmesh))
    assert np.abs(stage.h - h_direct).max() <= 1e-8


def test_fixed_point_stage_contract():
    prob = unit_problem(2.0, 3.0, 8, 8)
    stage = ca.fixed_point_solve(prob, 0.05, ca.CascadeParams())
    d = stage.diagnostics
    assert stage.converged
    assert d["fixed_point_residual"] <= ca.CascadeParams().fp_tol * d["residual_scale"]
    # h is the dual forcing selection -alpha(du) at the fixed point
    du = time_derivative(stage.u, prob.tmesh)
    assert np.allclose(stage.h, -prob.nl.alpha_eval(du), atol=1e-8)
    assert np.array_equal(stage.xi, prob.nl.alpha_eval(du))
    # no stage minimization is left to count
    assert d["beta_evaluations"] == d["stage_newton_iterations"] == 0
    assert d["fixed_point_newton_steps"] == len(d["residual_history"]) - 1 > 0
    for key in ("residual_history", "energy_margin", "audit"):
        assert key in d, key


def test_fixed_point_residual_is_the_last_newton_residual():
    # the stage reports the norm of its equation residual where Newton
    # stopped, a real measurement rather than a constant
    prob = unit_problem(2.0, 3.0, 8, 8)
    d = ca.fixed_point_solve(prob, 0.05, ca.CascadeParams()).diagnostics
    assert d["converged"]
    assert d["fixed_point_residual"] == d["residual_history"][-1] > 0.0


def test_linear_stage_takes_one_newton_step():
    # at p = m = 2 the stage equation with h = -alpha(du) is affine, so one
    # full Newton step from zero lands on the fixed point
    prob = canonical_problem(M=8, N=8)
    d = ca.fixed_point_solve(prob, 1e-3, ca.CascadeParams()).diagnostics
    assert d["converged"]
    assert d["fixed_point_newton_steps"] == 1
    assert d["beta_evaluations"] == 0


def test_stage_with_vanishing_slices_converges_at_p3():
    # sin(2 pi t) forcing makes the slices at t = 0 and T/2 vanish; the
    # duality term of the Newton band must not freeze them
    prob = unit_problem(3.0, 2.0, 8, 8)
    f = np.outer(np.sin(2 * np.pi * prob.tmesh.times), np.sin(np.pi * prob.smesh.nodes))
    prob = replace(prob, f=f)
    pf = cc.PerturbedFunctional(0.1, 1.0)
    stage = ca.fixed_point_solve(prob, 1.0, ca.CascadeParams(fp_tol=1e-8), pf=pf)
    assert stage.converged
    assert stage.diagnostics["fixed_point_newton_steps"] <= 10


def test_epsilon_continuation_zero_forcing():
    prob = unit_problem(2.5, 3.0, 6, 6, amp=0.0)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    assert all(s.converged for s in stages)
    assert all(np.abs(s.u).max() == 0.0 for s in stages)


def test_epsilon_continuation_drives_residual_down():
    prob = unit_problem(2.0, 3.0, 12, 12)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    assert stages[-1].epsilon == 0.0  # exact limit stage appended
    assert all(s.converged for s in stages)
    aps = [s.diagnostics["residual_AP"] for s in stages]
    assert all(b <= a * 1.001 for a, b in zip(aps, aps[1:]))
    assert aps[-1] <= 1e-9
    assert all("wall_time" in s.diagnostics for s in stages)
    audit = stages[-1].diagnostics["audit"]
    for key in (
        "eps_rate_group",
        "rate_p_integral",
        "rate_dual_integral",
        "rate_primitive_integral",
        "state_energy_integral",
        "eps_state_p",
        "eps_state_sq",
        "eta_dual_integral",
        "psi_grad_dual_integral",
        "h_dual_norm",
    ):
        assert np.isfinite(audit[key]), key


def test_epsilon_continuation_respects_exact_limit_flag():
    prob = unit_problem(2.0, 3.0, 6, 6)
    stages = ca.epsilon_continuation(
        prob, ca.CascadeParams(epsilon_schedule=(0.5, 0.25), exact_limit_stage=False)
    )
    assert stages[-1].epsilon == 0.25


def test_mu_path_validation():
    bad = ca.CascadeParams(mu_schedule=(0.1,), alpha_exp=0.2)
    with pytest.raises(ValueError, match="alpha_exp too small"):
        ca.solve_routed(unit_problem(3.0, 2.0, 4, 4), bad, route="mu")


def test_mu_route_agrees_with_plain_when_both_apply():
    # m > p solves directly; the perturbation path must land on the same
    # solution once mu reaches zero
    prob = unit_problem(2.0, 3.0, 8, 8)
    final_p, _, route_p = ca.solve_routed(prob, ca.CascadeParams(), route="auto")
    final_m, stages_m, route_m = ca.solve_routed(prob, ca.CascadeParams(), route="mu")
    assert (route_p, route_m) == ("plain", "mu")
    assert final_p.converged and final_m.converged
    assert linf_l2(final_p.u - final_m.u, prob) <= 1e-6
    assert final_m.mu == 0.0
    # every stage of every level, mu nonincreasing through the schedule to 0,
    # and each level closing at its exact eps = 0 stage
    mus = [s.mu for s in stages_m]
    assert all(b <= a for a, b in zip(mus, mus[1:]))
    levels = list(dict.fromkeys(mus))
    assert levels == [*ca.DEFAULT_MU_SCHEDULE, 0.0]
    for mu in levels:
        assert [s.epsilon for s in stages_m if s.mu == mu][-1] == 0.0


def test_solve_routed_routing_rules():
    params = ca.CascadeParams()
    _, _, route = ca.solve_routed(unit_problem(2.0, 2.0, 4, 4), params, route="auto")
    assert route == "mu"  # m <= p needs the perturbation path
    with pytest.raises(ValueError, match="route must be"):
        ca.solve_routed(unit_problem(2.0, 2.0, 4, 4), params, route="direct")


def test_linear_cascade_matches_independent_cyclic_solve():
    prob = canonical_problem(M=16, N=16)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    u_ref = cyclic_heat_solve(prob)
    assert linf_l2(stages[-1].u - u_ref, prob) / linf_l2(u_ref, prob) <= 1e-6


def test_lf_margin_matches_brute_force(rng):
    prob = unit_problem(2.5, 2.0, 5, 7)
    u = 0.3 * rng.normal(size=(7, 5))
    got = ca.lf_margin(u, prob)
    du = time_derivative(u, prob.tmesh)
    xi = prob.nl.alpha_eval(du)
    psis = cc.fenchel_psi_star(xi, prob.nl, prob.smesh)
    lhs = pairing(xi - np.roll(xi, 1, axis=0), du, prob.smesh)
    d = np.asarray(lhs - (psis - np.roll(psis, 1)), dtype=float)
    N = d.size
    brute = min(
        sum(d[(s + k) % N] for k in range(ln))
        for s in range(N)
        for ln in range(1, N + 1)
    )
    assert got == pytest.approx(brute, abs=1e-12)


def test_lf_margin_nonnegative_on_solutions():
    prob = unit_problem(2.0, 3.0, 8, 8)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    scale = 1.0 + abs(float(np.sum(np.abs(stages[-1].xi))))
    assert ca.lf_margin(stages[-1].u, prob) >= -1e-10 * scale


def test_energy_margin_nonnegative_at_solution():
    prob = unit_problem(2.0, 3.0, 8, 8)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    assert ca.energy_margin(stages[-1].u, prob) >= -1e-8


def test_direct_newton_oracle():
    # linear problem: one Newton step lands exactly
    lin = canonical_problem(M=12, N=12)
    u, rep = direct_newton_oracle(lin)
    assert rep["converged"] and rep["iterations"] <= 2
    assert linf_l2(u - cyclic_heat_solve(lin), lin) <= 1e-8
    # zero forcing short-circuits
    uz, repz = direct_newton_oracle(unit_problem(2.0, 3.0, 5, 5, amp=0.0))
    assert repz["converged"]
    assert np.abs(uz).max() == 0.0
    # nonlinear agreement with the cascade
    prob = unit_problem(2.0, 3.0, 12, 12)
    u_or, rep_or = direct_newton_oracle(prob, delta=1e-8)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    assert rep_or["converged"]
    assert np.abs(u_or - stages[-1].u).max() <= 1e-9


def test_chain_rule_sum_is_finite_and_small():
    prob = unit_problem(2.5, 3.0, 8, 8)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    s = ca.chain_rule_sum(stages[-1].u, prob, delta=1e-8)
    assert np.isfinite(s)
    assert abs(s) <= 1.0  # O(dt) defect on a unit problem


def test_stage_audit_mu_keys():
    pf = cc.PerturbedFunctional(mu=0.1, alpha_exp=0.5)
    prob = unit_problem(2.0, 3.0, 6, 6)
    stage = ca.fixed_point_solve(prob, 0.01, ca.CascadeParams(), pf=pf)
    assert stage.converged
    audit = stage.diagnostics["audit"]
    assert np.isfinite(audit["mu_term_dual_norm"])
    assert np.isfinite(audit["mu_phi_power_max"])
    assert audit["mu_term_dual_norm"] >= 0.0


def test_residual_AP_matches_diagnostics():
    prob = unit_problem(2.0, 3.0, 8, 8)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    final = stages[-1]
    assert final.diagnostics["residual_AP"] == pytest.approx(
        residual_AP(final.u, prob, delta=ca.CascadeParams().delta), rel=1e-9
    )
