import numpy as np
import pytest

import perisolve.convexcore as cc
from oracles import fd_gradient
from perisolve.discretize import dual_bochner_norm, pairing, time_derivative
from perisolve.variational import (
    MinimizerReport,
    ObjectiveConfig,
    _duality_diag,
    _fixed_point_band,
    _shifted_band_solve,
    _Stage,
    minimize,
    residual_AP,
)
from util import linf_l2, mms_problem, unit_problem


def plain_cfg(prob, eps, f_plus_h=None, delta=1e-6, pf=None):
    return ObjectiveConfig(
        prob=prob,
        epsilon=eps,
        f_plus_h=prob.f if f_plus_h is None else f_plus_h,
        delta=delta,
        pf=pf,
    )


def test_config_validation():
    prob = unit_problem(2.0, 2.0, 4, 3)
    with pytest.raises(ValueError, match="epsilon"):
        ObjectiveConfig(prob, -0.1, prob.f, 0.0)
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            ObjectiveConfig(prob, eps, prob.f, 0.0)
    for delta in (-1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            ObjectiveConfig(prob, 0.1, prob.f, delta)
    with pytest.raises(ValueError, match="combined forcing"):
        ObjectiveConfig(prob, 0.1, np.zeros((3, 5)), 0.0)


def test_objective_zero_and_linear_term(rng):
    prob = unit_problem(2.5, 3.0, 6, 5)
    exact_cfg = plain_cfg(prob, 0.2, f_plus_h=np.zeros((5, 6)), delta=0.0)
    assert _Stage(exact_cfg).value(np.zeros((5, 6))) == 0.0
    # delta smoothing shifts the zero level only by O(delta^m)
    zero_cfg = plain_cfg(prob, 0.2, f_plus_h=np.zeros((5, 6)))
    assert abs(_Stage(zero_cfg).value(np.zeros((5, 6)))) <= 1e-15
    # forcing enters only through the linear pairing term
    u = rng.normal(size=(5, 6))
    with_f = _Stage(plain_cfg(prob, 0.2)).value(u)
    without = _Stage(zero_cfg).value(u)
    lin = prob.tmesh.dt * float(np.sum(pairing(prob.f, u, prob.smesh)))
    assert with_f - without == pytest.approx(-lin, rel=1e-12)


def test_gradient_matches_fd_plain(rng):
    # the objective's pairing gradient is dt times the slice residual, also
    # for the power-perturbed energy of the mu route
    mu_cfg = dict(pf=cc.PerturbedFunctional(mu=0.1, alpha_exp=1.0), delta=1e-3)
    for p, m, extra in ((2.5, 3.0, {}), (3.0, 2.0, mu_cfg)):
        prob = unit_problem(p, m, 6, 5)
        ocfg = plain_cfg(prob, 0.1, **extra)
        u = 0.3 * rng.normal(size=(5, 6))
        fd = fd_gradient(lambda v: _Stage(ocfg).value(v), u)
        g = prob.smesh.dx * prob.tmesh.dt * _Stage(ocfg).residual(u)
        assert np.allclose(fd, g, rtol=1e-6, atol=1e-9)


def test_gradient_shift_covariance(rng):
    prob = unit_problem(2.5, 3.0, 6, 5)
    u = rng.normal(size=(5, 6))
    base = _Stage(plain_cfg(prob, 0.1)).residual(u)
    shifted = _Stage(plain_cfg(prob, 0.1, f_plus_h=prob.f + 0.37)).residual(u)
    assert np.allclose(shifted, base - 0.37, atol=1e-13)


@pytest.mark.parametrize("M, N", [(6, 5), (5, 2)])
def test_minimizer_matches_dense_linear_solve(M, N):
    # p = m = 2: the gradient is affine, so an independently assembled dense
    # system pins the minimizer exactly, and the exact Hessian gets there in
    # one Newton step.  At N = 2 both time couplings of a node pair share
    # one band row.
    prob = unit_problem(2.0, 2.0, M, N)
    ocfg = plain_cfg(prob, 0.25, delta=0.0)
    D = N * M
    g0 = _Stage(ocfg).residual(np.zeros((N, M))).ravel()
    A = np.zeros((D, D))
    for j in range(D):
        e = np.zeros(D)
        e[j] = 1.0
        A[:, j] = _Stage(ocfg).residual(e.reshape(N, M)).ravel() - g0
    u_direct = np.linalg.solve(A, -g0).reshape(N, M)
    u_min, rep = minimize(np.zeros((N, M)), ocfg)
    assert rep.converged
    assert rep.iterations == 1
    assert np.abs(u_min - u_direct).max() <= 1e-10


def test_band_hessian_matches_fd_jacobian(rng):
    # p = 2, m = 3 with eps, delta > 0 drops no Hessian term, so the band
    # unpacked to a dense matrix is the Jacobian of the slice residual
    N, M = 4, 5
    prob = unit_problem(2.0, 3.0, M, N)
    stage = _Stage(plain_cfg(prob, 0.3, delta=1e-2))
    u = rng.normal(size=(N, M))
    band = stage.hessian(u)
    D = N * M
    H = np.zeros((D, D))
    for k in range(N + 1):
        j = np.arange(D - k)
        H[j + k, j] = H[j, j + k] = band[k, : D - k]
    # band index i*N + n of trajectory entry (n, i), in trajectory order
    perm = np.arange(D).reshape(M, N).T.ravel()
    J = np.zeros((D, D))
    h = 1e-6
    for t in range(D):
        e = np.zeros(D)
        e[t] = h
        plus = stage.residual(u + e.reshape(N, M))
        minus = stage.residual(u - e.reshape(N, M))
        J[:, t] = (plus - minus).ravel() / (2.0 * h)
    assert np.allclose(H[np.ix_(perm, perm)], J, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize(
    "row, bad", [(0, -1.0), (0, np.nan), (1, np.nan), (1, np.inf), (3, np.inf)]
)
def test_band_solve_failure_is_left_to_the_shift_ladder(row, bad):
    # an indefinite or non-finite band must surface as LinAlgError or a
    # non-finite solution, which the Newton driver catches, never ValueError
    prob = unit_problem(2.0, 2.0, 4, 3)
    H = _Stage(plain_cfg(prob, 0.25, delta=0.0)).hessian(np.zeros((3, 4)))
    H[row, 4] = bad
    try:
        x = _shifted_band_solve(H, np.ones(12), 0.0)
    except np.linalg.LinAlgError:
        return
    assert not np.all(np.isfinite(x))


@pytest.mark.parametrize("N", [2, 3, 5])
def test_fixed_point_band_matches_fd_jacobian(rng, N):
    # p = 2, m = 3 with eps, delta > 0 drops no term, so the general band
    # unpacked to a dense matrix is the Jacobian of F(u) = R(u) + alpha(du);
    # at N = 2 the wrap and the time coupling share a band row
    M = 4
    prob = unit_problem(2.0, 3.0, M, N)
    stage = _Stage(plain_cfg(prob, 0.3, delta=1e-2))

    def F(v):
        return stage.residual(v) + prob.nl.alpha_eval(time_derivative(v, prob.tmesh))

    u = rng.normal(size=(N, M))
    du = time_derivative(u, prob.tmesh)
    ab = _fixed_point_band(
        stage.hessian(u), prob.nl.alpha_derivative(du, 1e-2), prob.tmesh.dt
    )
    D = N * M
    A = np.zeros((D, D))
    for r in range(D):
        for c in range(max(0, r - N), min(D, r + N + 1)):
            A[r, c] = ab[N + r - c, c]
    perm = np.arange(D).reshape(M, N).T.ravel()
    J = np.zeros((D, D))
    h = 1e-6
    for t in range(D):
        e = np.zeros(D)
        e[t] = h
        J[:, t] = (F(u + e.reshape(N, M)) - F(u - e.reshape(N, M))).ravel() / (2 * h)
    assert np.allclose(A[np.ix_(perm, perm)], J, rtol=1e-6, atol=1e-6)


def test_duality_diagonal_is_scale_free_above_two(rng):
    # at p > 2 the duality map is homogeneous of degree one, so its Jacobian
    # diagonal stays the same when a slice shrinks far below the smoothing
    prob = unit_problem(3.0, 2.0, 5, 3)
    u = rng.normal(size=(3, 5))
    d = _duality_diag(u, 3.0, 1e-8, prob.smesh)
    assert np.allclose(_duality_diag(1e-12 * u, 3.0, 1e-8, prob.smesh), d, rtol=1e-12)


def test_minimizer_zero_data_and_uniqueness(rng):
    prob = unit_problem(2.5, 3.0, 6, 5)
    zero_cfg = plain_cfg(prob, 0.1, f_plus_h=np.zeros((5, 6)))
    # the origin is the singular point of the nonlinear maps, so ask for a
    # tolerance the degenerate Jacobian can actually deliver
    uz, rz = minimize(0.1 * rng.normal(size=(5, 6)), zero_cfg, tol=1e-8)
    assert rz.converged
    assert np.abs(uz).max() <= 1e-6
    # strict convexity: two arbitrary starts meet at the same point
    ocfg = plain_cfg(prob, 0.1)
    ua, ra = minimize(0.5 * rng.normal(size=(5, 6)), ocfg)
    ub, rb = minimize(0.5 * rng.normal(size=(5, 6)), ocfg)
    assert ra.converged and rb.converged
    assert np.abs(ua - ub).max() <= 1e-9


def test_objective_convex_along_segments(rng):
    prob = unit_problem(2.5, 3.0, 5, 4)
    ocfg = plain_cfg(prob, 0.15)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    Ia, Ib = _Stage(ocfg).value(a), _Stage(ocfg).value(b)
    scale = 1.0 + abs(Ia) + abs(Ib)
    for th in (0.2, 0.5, 0.8):
        mid = _Stage(ocfg).value(th * a + (1 - th) * b)
        assert mid <= th * Ia + (1 - th) * Ib + 1e-12 * scale


def test_minimize_report_contract(rng):
    prob = unit_problem(2.0, 3.0, 6, 5)
    ocfg = plain_cfg(prob, 0.2)
    u0 = 0.2 * rng.normal(size=(5, 6))
    u, rep = minimize(u0, ocfg)
    assert isinstance(rep, MinimizerReport)
    assert rep.converged
    assert rep.objective_value <= _Stage(ocfg).value(u0) + 1e-12
    assert rep.final_gradient_norm == pytest.approx(
        dual_bochner_norm(_Stage(ocfg).residual(u), prob), rel=1e-10
    )
    assert rep.history[-1] == rep.final_gradient_norm
    assert len(rep.history) == rep.iterations + 1


def test_residual_AP_vanishes_on_manufactured_solution():
    prob, exact = mms_problem(2.0, 3.0, 8, 8, delta=1e-8)
    assert residual_AP(exact, prob, delta=1e-8) <= 1e-12
    assert residual_AP(exact + 1e-3, prob, delta=1e-8) > 1e-4


def test_stage_residual_vanishes_at_minimizer():
    prob = unit_problem(2.5, 3.0, 6, 5)
    ocfg = plain_cfg(prob, 0.1)
    u, rep = minimize(np.zeros((5, 6)), ocfg)
    assert rep.converged
    assert dual_bochner_norm(_Stage(ocfg).residual(u), prob) <= 1e-9
    # epsilon = 0 decouples the slices into elliptic solves; the minimizer
    # then satisfies the energy equation per slice
    ocfg0 = plain_cfg(prob, 0.0)
    u0, rep0 = minimize(np.zeros((5, 6)), ocfg0)
    assert rep0.converged
    assert dual_bochner_norm(_Stage(ocfg0).residual(u0), prob) <= 1e-9
    per_slice = cc.grad_phi(u0, prob.a, prob.m, 1e-6, prob.smesh) - prob.f
    assert np.abs(per_slice).max() <= 1e-7
