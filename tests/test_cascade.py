import logging
from dataclasses import replace

import numpy as np
import pytest

import perisolve.cascade as ca
import perisolve.cli as cli
import perisolve.convexcore as cc
import perisolve.variational as var
from newton_oracle import direct_newton_oracle
from oracles import canonical_problem, cyclic_heat_solve
from perisolve.discretize import dual_bochner_norm, pairing, time_derivative
from perisolve.variational import residual_AP
from util import dense_affine_zero, linf_l2, stage_equation, unit_problem


def rate(stage, prob):
    """alpha(du) of a stage's trajectory; its dual forcing is h = -rate."""
    return prob.nl.alpha_eval(time_derivative(stage.u, prob.tmesh))


def test_default_epsilon_schedule_shape():
    sched = ca.EPSILON_SCHEDULE
    assert len(sched) == 15
    assert sched[0] == 1.0
    assert sched[-1] == 1e-4
    ratios = np.array(sched[1:]) / np.array(sched[:-1])
    assert np.all(ratios < 1.0)
    assert np.all(ratios[:-1] == 0.5)  # halving until the clamp at 1e-4


def test_params_validation_and_stage_tol():
    with pytest.raises(ValueError, match="fp_tol"):
        ca.CascadeParams(fp_tol=0.0)
    # the fixed point has no damping, acceleration or inner-solve knobs, and
    # the ladders, the smoothing, the exponent and the step budget are fixed
    for key in ("omega", "anderson_depth", "max_newton", "epsilon_schedule",
                "mu_schedule", "alpha_exp", "delta", "max_fp_iter"):
        with pytest.raises(TypeError, match=key):
            ca.CascadeParams(**{key: 1})
    # the stage layer reads the smoothing DELTA, and alpha's slope from its
    # own evaluation
    prob, u = unit_problem(2.0, 2.0, 4, 3), np.zeros((3, 4))
    at = var._StageAt(u, prob, 0.0)
    for call in (
        lambda: var._StageAt(u, prob, 0.0, delta=1e-8),
        lambda: var.newton_fixed_point(
            u, prob, 0.0, pf=None, tol=1e-10, max_iter=5, delta=1e-8
        ),
        lambda: ca.chain_rule_sum(at, delta=1e-8),
    ):
        with pytest.raises(TypeError, match="delta"):
            call()
    with pytest.raises(TypeError, match="slope"):
        at.jacobian(slope=np.ones((3, 4)))
    for key, bad, match in (
        ("fp_tol", np.nan, "fp_tol"),
        ("stage_tol", np.inf, "stage_tol"),
        ("stage_tol", np.nan, "stage_tol"),
        ("mu_eps_truncate", 0, "mu_eps_truncate"),
    ):
        with pytest.raises(ValueError, match=match):
            ca.CascadeParams(**{key: bad})
    assert ca.CascadeParams().resolved_stage_tol() == pytest.approx(0.05 * 1e-10)
    assert ca.CascadeParams(stage_tol=1e-7).resolved_stage_tol() == 1e-7


def test_beta_of_zero_forcing_is_zero():
    # zero forcing gives a zero stage: u = 0 and h = -xi = -alpha(0) = 0
    zero_prob = unit_problem(2.0, 3.0, 5, 5, amp=0.0)
    zero = ca.fixed_point_solve(zero_prob, 0.1, ca.CascadeParams())
    assert zero.converged
    h = -rate(zero, zero_prob)
    assert np.abs(zero.u).max() <= 1e-9 and np.abs(h).max() <= 1e-9


def test_solve_APh_zero_and_deterministic():
    # the stage solve maps zero forcing to zero and is bitwise repeatable
    zero_prob = unit_problem(2.5, 3.0, 6, 6, amp=0.0)
    zero = ca.fixed_point_solve(zero_prob, 0.1, ca.CascadeParams())
    assert zero.converged
    h = -rate(zero, zero_prob)
    assert np.abs(zero.u).max() <= 1e-9 and np.abs(h).max() <= 1e-9
    prob = unit_problem(2.5, 3.0, 6, 6)
    a = ca.fixed_point_solve(prob, 0.1, ca.CascadeParams())
    b = ca.fixed_point_solve(prob, 0.1, ca.CascadeParams())
    assert np.array_equal(a.u, b.u) and np.array_equal(-rate(a, prob), -rate(b, prob))


def test_affine_fixed_point_matches_dense_solve():
    # p = m = 2 makes the stage equation F(u) = R(u) + alpha(du) affine;
    # assemble its dense Jacobian column by column, not through the band,
    # and solve F(u) = 0 independently
    prob = unit_problem(2.0, 2.0, 4, 4)
    F = stage_equation(prob, 0.25)
    u_direct = dense_affine_zero(F, (4, 4))
    params = ca.CascadeParams(fp_tol=1e-12, stage_tol=1e-13)
    stage = ca.fixed_point_solve(prob, 0.25, params)
    assert stage.converged
    assert np.abs(stage.u - u_direct).max() <= 1e-10
    h_direct = -prob.nl.alpha_eval(time_derivative(u_direct, prob.tmesh))
    assert np.abs(-rate(stage, prob) - h_direct).max() <= 1e-8


def test_fixed_point_stage_contract():
    prob = unit_problem(2.0, 3.0, 8, 8)
    stage = ca.fixed_point_solve(prob, 0.05, ca.CascadeParams())
    d = stage.diagnostics
    assert stage.converged
    assert d["fixed_point_residual"] <= ca.CascadeParams().fp_tol * d["residual_scale"]
    # h = -xi is the dual forcing selection -alpha(du) at the fixed point;
    # the stage's report reads it, and the residual, at the returned iterate
    xi = rate(stage, prob)
    rep = ca.stage_report(stage)
    assert rep["audit"]["h_dual_norm"] == dual_bochner_norm(xi, prob)
    assert rep["residual_AP"] == residual_AP(stage.u, prob)
    # no stage minimization is left to count
    assert d["beta_evaluations"] == d["stage_newton_iterations"] == 0
    assert d["fixed_point_newton_steps"] == len(d["residual_history"]) - 1 > 0
    assert "residual_history" in d
    for key in ("energy_margin", "audit"):
        assert key in rep, key


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
    # its Jacobian does not vary in time: the step is exact
    assert (d["exact_steps"], d["band_steps"]) == (1, 0)
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


def climb(prob):
    """The full default epsilon ladder from u = 0, as a failed target
    attempt makes epsilon_continuation walk it."""
    return ca._climb(prob, ca.CascadeParams(), ca.EPSILON_SCHEDULE, None, None)


def test_epsilon_continuation_drives_residual_down():
    prob = unit_problem(2.0, 3.0, 12, 12)
    stages = climb(prob)
    assert stages[-1].epsilon == 0.0  # the climb ends at eps = 0
    assert all(s.converged for s in stages)
    aps = [ca.stage_report(s)["residual_AP"] for s in stages]
    assert all(b <= a * 1.001 for a, b in zip(aps, aps[1:]))
    assert aps[-1] <= 1e-9
    audit = ca.stage_report(stages[-1])["audit"]
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


def test_epsilon_continuation_solves_its_target_first():
    # Newton converges on the eps = 0 stage straight from the warm start:
    # the walk is that one stage, and it agrees with the ladder's answer
    prob = unit_problem(2.0, 3.0, 12, 12)
    (stage,) = ca.epsilon_continuation(prob, ca.CascadeParams())
    assert stage.converged and stage.epsilon == 0.0
    assert np.abs(stage.u - climb(prob)[-1].u).max() <= 1e-9


def test_steady_forcing_converges_its_target():
    # a time-constant forcing keeps every iterate time-constant, each step
    # solved exactly: Newton converges the eps = 0 stage from u = 0, where
    # the band's roundoff once made it creep for 400 steps
    prob = unit_problem(1.5469, 2.752, 3, 3)
    f = np.broadcast_to(0.6459 * np.sin(np.pi * prob.smesh.nodes), prob.f.shape)
    prob = replace(prob, f=f.copy())
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    assert len(stages) == 1 and stages[0].epsilon == 0.0 and stages[0].converged
    assert stages[0].diagnostics["fixed_point_newton_steps"] <= 10


def ladder_problem():
    """p < m < 1.7: Newton stalls on the eps = 0 stage from u = 0 but
    converges along the ladder.  The forcing's sin(2 pi t) vanishes at both
    time nodes but for roundoff, so the iterates vary in time."""
    prob = unit_problem(1.6321698645661629, 1.6441639943239328, 6, 2)
    x, t = prob.smesh.nodes[None, :], prob.tmesh.times[:, None]
    f = (4.031714902854928 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * t)
         + 2.623325731293733 * np.sin(2.0 * np.pi * x))
    return replace(prob, f=f)


def mu_walk_problem():
    """m < p < 1.75 with a time-varying forcing: Newton stalls on the
    unperturbed stage from u = 0, and the mu walk converges."""
    prob = unit_problem(1.714351619603352, 1.6726892970292777, 5, 3)
    x, t = prob.smesh.nodes[None, :], prob.tmesh.times[:, None]
    f = -3.563404816899705 * np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * t)
    return replace(prob, f=f)


def test_failed_target_climbs_the_ladder_from_the_warm_start(monkeypatch):
    prob = ladder_problem()
    starts = []
    solve = ca.fixed_point_solve

    def recorded_solve(prob, eps, params, pf=None, u0=None):
        starts.append(u0)
        return solve(prob, eps, params, pf=pf, u0=u0)

    monkeypatch.setattr(ca, "fixed_point_solve", recorded_solve)
    u0 = np.zeros_like(prob.f)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams(), u0=u0)
    assert stages[0].epsilon == 0.0 and not stages[0].converged
    assert stages[1].epsilon == 1.0
    assert starts[0] is u0 and starts[1] is u0
    assert stages[-1].epsilon == 0.0 and stages[-1].converged


def test_stage_diagnostics_are_what_newton_measured(monkeypatch, caplog):
    # a walk forced by a 3-step budget: the failed unperturbed target, then
    # the mu levels' targets and ladder rungs.  Each stage's diagnostics hold
    # Newton's measurements and no timer, and each stage logs its own line
    monkeypatch.setattr(ca, "MAX_FP_ITER", 3)
    measured = {
        "converged", "fixed_point_residual", "residual_scale",
        "residual_history", "fixed_point_newton_steps", "exact_steps",
        "band_steps", "beta_evaluations", "stage_newton_iterations",
    }
    prob = unit_problem(3.0, 2.0, 8, 8)
    with caplog.at_level(logging.INFO, logger=ca.log.name):
        _, stages, route = ca.solve_routed(prob, ca.CascadeParams())
    assert route == "mu"
    target = stages[0]
    assert (target.epsilon, target.mu) == (0.0, 0.0) and not target.converged
    assert any(s.epsilon > 0.0 and s.mu > 0.0 for s in stages)
    assert all(set(s.diagnostics) == measured for s in stages)
    lines = [r.getMessage() for r in caplog.records
             if r.levelno == logging.INFO and r.getMessage().startswith("eps=")]
    assert [ln.split()[0] for ln in lines] == [f"eps={s.epsilon:.3e}" for s in stages]


def test_failed_target_with_no_rung_left_is_not_retried(monkeypatch):
    # with no rung to climb, a second eps = 0 attempt from the same start
    # would repeat the failed one bit for bit
    monkeypatch.setattr(ca, "EPSILON_SCHEDULE", ())
    monkeypatch.setattr(ca, "MAX_FP_ITER", 2)
    params = ca.CascadeParams()
    (stage,) = ca.epsilon_continuation(unit_problem(2.5, 3.0, 8, 8), params)
    assert stage.epsilon == 0.0 and not stage.converged
    # likewise every mu level walks its target alone, the first ones failing
    _, stages, _ = ca.solve_routed(unit_problem(3.0, 2.0, 8, 8), params, route="mu")
    levels = (*ca.MU_SCHEDULE, 0.0)
    assert [(s.epsilon, s.mu) for s in stages] == [(0.0, mu) for mu in levels]
    assert not stages[0].converged and stages[-1].converged


def tiny_forcing_problem():
    """p < 1.7 under a forcing of norm 1e-12: the rates sit near 1e-17, far
    below DELTA, and the eps = 0 stage stops just above its bound."""
    prob = unit_problem(1.6646546944493514, 2.034373830035789, 7, 7)
    x, t = prob.smesh.nodes[None, :], prob.tmesh.times[:, None]
    f = 4.340825295325375e-12 * np.sin(np.pi * x) * (np.sin(2.0 * np.pi * t) + 0.3)
    return replace(prob, f=f)


def test_climb_leaves_the_ladder_once_residual_AP_stagnates():
    # the rungs at eps = 1 and 1/2 converge with residual_AP below the stage
    # tolerance and falling by less than half: the walk goes straight to its
    # eps = 0 stage, 4 stages in all instead of 17
    prob, params = tiny_forcing_problem(), ca.CascadeParams()
    stages = ca.epsilon_continuation(prob, params)
    assert [s.epsilon for s in stages] == [0.0, 1.0, 0.5, 0.0]
    assert [s.converged for s in stages] == [False, True, True, False]
    # each stage was judged by the bound its report gives: stage_tol,
    # min(1, dt) and its residual_scale
    for stage in stages:
        diag = stage.diagnostics
        bound = (params.resolved_stage_tol() * min(1.0, prob.tmesh.dt)
                 * diag["residual_scale"])
        assert stage.converged == (diag["fixed_point_residual"] <= bound)
    # the target's 9.3e-13 misses the absolute bound 5e-12 / 7 = 7.1e-13
    target = stages[0].diagnostics
    assert target["residual_scale"] == 1.0
    assert target["fixed_point_residual"] > 0.05 * params.fp_tol / 7


def test_perturbation_exponent_meets_coercivity():
    # the mu route's perturbation needs m (1 + a) > p; the derived exponent
    # meets it for every p, m > 1, m near 1 under a large p included, so no
    # exponent pair is rejected before a solve
    near_one = (1.0 + 1e-9, 1.0 + 1e-6, 1.01)
    for p in (1.0 + 1e-9, 1.5, 2.0, 3.0, 10.0, 1e3, 1e6):
        for m in (*near_one, 1.5, 2.0, 3.0, 10.0, 1e3):
            a = ca._perturbation_exponent(p, m)
            assert a >= 0.5 and m * (1.0 + a) > p, (p, m, a)


def test_mu_route_solves_the_unperturbed_target_first():
    # at a fixed grid the mu = 0, eps = 0 stage is the finite equation the
    # perturbation path converges to; Newton solves it straight from u = 0
    prob = unit_problem(3.0, 2.0, 8, 8)
    final, stages, route = ca.solve_routed(prob, ca.CascadeParams())
    assert route == "mu" and len(stages) == 1 and stages[0] is final
    assert final.converged and (final.epsilon, final.mu) == (0.0, 0.0)
    walked, _, _ = ca.solve_routed(prob, ca.CascadeParams(), route="mu")
    assert np.linalg.norm(final.u - walked.u) <= 1e-9 * np.linalg.norm(walked.u)


def test_steady_forcing_converges_its_unperturbed_target():
    # p, m < 1.7 with a steady forcing: every iterate stays time-constant,
    # so Newton solves the unperturbed stage from u = 0 and no mu level is
    # walked; the band's roundoff once made it creep for 400 steps
    prob = unit_problem(1.6393521324548206, 1.5269430534788342, 6, 8)
    f = 2.8459252439774487 * np.sin(2.0 * np.pi * prob.smesh.nodes)
    prob = replace(prob, f=np.broadcast_to(f, prob.f.shape).copy())
    final, stages, route = ca.solve_routed(prob, ca.CascadeParams())
    assert route == "mu" and stages == [final] and final.converged
    assert (final.epsilon, final.mu) == (0.0, 0.0)
    assert final.diagnostics["fixed_point_newton_steps"] <= 10


def test_failed_unperturbed_target_walks_the_mu_levels_from_zero():
    prob = mu_walk_problem()
    final, stages, route = ca.solve_routed(prob, ca.CascadeParams())
    _, walked, _ = ca.solve_routed(prob, ca.CascadeParams(), route="mu")
    assert route == "mu"
    assert (stages[0].epsilon, stages[0].mu) == (0.0, 0.0)
    assert not stages[0].converged
    assert len(stages) == len(walked) + 1
    for stage, ref in zip(stages[1:], walked):
        assert (stage.epsilon, stage.mu) == (ref.epsilon, ref.mu)
        assert np.array_equal(stage.u, ref.u)
    steps = [s.diagnostics["fixed_point_newton_steps"] for s in walked]
    assert steps == [28, 160, 25, 10, 142]
    assert final is stages[-1] and final.converged


@pytest.mark.parametrize(
    "walk, budget, rungs, route",
    [
        (ladder_problem, None, None, "auto"),
        (mu_walk_problem, None, None, "auto"),
        (lambda: unit_problem(3.0, 2.0, 8, 8), 3, None, "auto"),
        (lambda: unit_problem(3.0, 2.0, 8, 8), None, None, "mu"),
        (lambda: unit_problem(3.0, 2.0, 8, 8), 2, (), "mu"),
    ],
    ids=["ladder", "mu-levels", "three-step-budget", "route-mu", "no-rung"],
)
def test_every_walk_ends_at_the_limit_stage(monkeypatch, walk, budget, rungs, route):
    # every walk the suite runs, converged or not, ends at the eps = mu = 0
    # stage, which is the final stage solve_routed returns
    if budget is not None:
        monkeypatch.setattr(ca, "MAX_FP_ITER", budget)
    if rungs is not None:
        monkeypatch.setattr(ca, "EPSILON_SCHEDULE", rungs)
    final, stages, _ = ca.solve_routed(walk(), ca.CascadeParams(), route=route)
    assert len(stages) > 1
    assert final is stages[-1]
    assert (final.epsilon, final.mu) == (0.0, 0.0)


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
    assert levels == [*ca.MU_SCHEDULE, 0.0]
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
    got = ca.lf_margin(var._StageAt(u, prob, 0.0))
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
    scale = 1.0 + abs(float(np.sum(np.abs(rate(stages[-1], prob)))))
    assert ca.lf_margin(var._StageAt(stages[-1].u, prob, 0.0)) >= -1e-10 * scale


def test_energy_margin_nonnegative_at_solution():
    prob = unit_problem(2.0, 3.0, 8, 8)
    stages = ca.epsilon_continuation(prob, ca.CascadeParams())
    assert ca.energy_margin(var._StageAt(stages[-1].u, prob, 0.0)) >= -1e-8


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
    s = ca.chain_rule_sum(var._StageAt(stages[-1].u, prob, 0.0))
    assert np.isfinite(s)
    assert abs(s) <= 1.0  # O(dt) defect on a unit problem


def test_stage_audit_mu_keys():
    pf = cc.PerturbedFunctional(mu=0.1, alpha_exp=0.5)
    prob = unit_problem(2.0, 3.0, 6, 6)
    stage = ca.fixed_point_solve(prob, 0.01, ca.CascadeParams(), pf=pf)
    assert stage.converged
    audit = ca.stage_report(stage)["audit"]
    assert np.isfinite(audit["mu_term_dual_norm"])
    assert np.isfinite(audit["mu_phi_power_max"])
    assert audit["mu_term_dual_norm"] >= 0.0


@pytest.mark.parametrize("p", [1.5, 2.5, 4.7])
@pytest.mark.parametrize("mu", [0.0, 0.1])
def test_report_h_dual_norm_is_the_dual_bochner_norm(p, mu):
    # the report's norm of the dual forcing h = -xi is the one dual norm
    # helper's, bit for bit, on perturbed stages too
    prob = unit_problem(p, 3.0, 7, 5)
    pf = ca._perturbation(mu, prob)
    stage = ca.fixed_point_solve(prob, 0.05, ca.CascadeParams(), pf=pf)
    audit = ca.stage_report(stage)["audit"]
    assert audit["h_dual_norm"] == dual_bochner_norm(rate(stage, prob), prob) > 0.0


def test_stage_audit_integrates_psi_of_a_non_power_map():
    # the identity map as two breakpoints has psi(s) = s^2 / 2, as the power
    # map at p = 2 has; the audit integrates its psi pointwise and lands on
    # the power map's closed form
    prob = unit_problem(2.0, 3.0, 8, 6)
    table = replace(prob, nl=cc.Nonlinearity.piecewise_linear([(-1, -1), (1, 1)]))
    audits = []
    for pb in (prob, table):
        stage = ca.fixed_point_solve(pb, 0.05, ca.CascadeParams())
        assert stage.converged
        audits.append(ca.stage_report(stage)["audit"])
    power, pwl = (a["rate_primitive_integral"] for a in audits)
    assert table.nl.kind == "piecewise_linear"
    assert pwl == pytest.approx(power, rel=1e-12)
    assert pwl == pytest.approx(0.5 * audits[1]["rate_p_integral"], rel=1e-12)


def test_stage_report_reads_the_equation_the_stage_solved():
    # a = 0.75 is not the mu route's exponent at p = 2, m = 3 (0.5): the
    # report fields are those of the stage's own perturbation, as Newton
    # last evaluated them, not those of the route's
    prob = unit_problem(2.0, 3.0, 8, 8)
    pf = cc.PerturbedFunctional(0.1, 0.75)
    assert pf.alpha_exp != ca._perturbation_exponent(prob.p, prob.m)
    stage = ca.fixed_point_solve(prob, 0.0, ca.CascadeParams(), pf=pf)
    assert stage.converged
    at = var._StageAt(stage.u, prob, 0.0, pf)
    report = ca.stage_report(stage)
    assert report == {
        "energy_margin": ca.energy_margin(at),
        "residual_AP": at.residual_AP,
        "audit": ca.stage_audit(at),
    }
    # the stage solved that equation: its residual_AP is its residual
    assert report["residual_AP"] <= 1e-10
    assert stage.prob is prob and stage.pf is pf and stage.mu == 0.1


def test_residual_AP_matches_diagnostics():
    # every unperturbed stage reports the residual_AP of its trajectory, bit
    # for bit: both read one formula at one evaluation of u
    prob = unit_problem(2.0, 3.0, 8, 8)
    stages = climb(prob)
    for stage in stages:
        assert stage.mu == 0.0
        assert ca.stage_report(stage)["residual_AP"] == residual_AP(stage.u, prob)


def test_stage_bookkeeping_reads_newtons_last_evaluation(monkeypatch):
    # the diagnostics of a stage read Newton's last evaluation of the stage
    # equation: no stage takes du again.  The one other evaluation is each
    # rung's residual_AP, which the climb reads to test stagnation
    counts = {"time_derivative": 0, "iterates": 0}
    newton = cc._newton

    def counted_time_derivative(*args, **kwargs):
        counts["time_derivative"] += 1
        return time_derivative(*args, **kwargs)

    def counted_newton(u, equation, *args):
        def counted_equation(v):
            counts["iterates"] += 1
            return equation(v)

        return newton(u, counted_equation, *args)

    # cascade reads du off the stage: were it to take du itself, the count
    # would see it
    for mod in (ca, var):
        monkeypatch.setattr(mod, "time_derivative", counted_time_derivative,
                            raising=False)
    monkeypatch.setattr(cc, "_newton", counted_newton)
    stages = climb(unit_problem(2.5, 3.0, 5, 4))
    assert len(stages) == 16 and counts["iterates"] > 0
    assert counts["time_derivative"] == counts["iterates"] + len(stages) - 1


def test_target_from_zero_skips_the_halvings_of_an_overlong_step(
    monkeypatch, bundled_config_dir
):
    # the bundled p = 2.5, m = 3 config's eps = 0 target from u = 0: both
    # smoothed Hessians almost vanish there, so the first full step is about
    # 2^26 times too long; halving alone evaluated the stage 35 times over
    # the target's 7 steps
    cfg = cli.load_config(str(bundled_config_dir / "nonlinear_diffusion.json"))
    built = []

    class CountedStage(var._StageAt):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(var, "_StageAt", CountedStage)
    (target,) = ca.epsilon_continuation(cfg.problem, cfg.cascade, schedule=())
    assert target.converged
    assert len(built) <= 12


def test_stage_reports_its_step_kinds(bundled_config_dir):
    # the bundled p = 2.5, m = 3 config's eps = 0 target from u = 0: the
    # first step has time-constant coefficients and is exact, and every
    # later one varies in time and takes the band
    cfg = cli.load_config(str(bundled_config_dir / "nonlinear_diffusion.json"))
    (target,) = ca.epsilon_continuation(cfg.problem, cfg.cascade, schedule=())
    d = target.diagnostics
    assert target.converged
    assert (d["exact_steps"], d["band_steps"]) == (1, 6)
    assert d["exact_steps"] + d["band_steps"] == d["fixed_point_newton_steps"]
