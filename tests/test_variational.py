import numpy as np
import pytest

import perisolve.convexcore as cc
from oracles import fd_gradient, stage_objective
from perisolve.discretize import dual_bochner_norm, time_derivative
from perisolve.variational import (
    ObjectiveConfig,
    _fixed_point_band,
    _Stage,
    newton_fixed_point,
    residual_AP,
)
from util import dense_affine_zero, mms_problem, stage_equation, unit_problem


def plain_cfg(prob, eps, delta=1e-6, pf=None):
    return ObjectiveConfig(prob=prob, epsilon=eps, delta=delta, pf=pf)


def test_config_validation():
    prob = unit_problem(2.0, 2.0, 4, 3)
    with pytest.raises(ValueError, match="epsilon"):
        ObjectiveConfig(prob, -0.1, 0.0)
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            ObjectiveConfig(prob, eps, 0.0)
    for delta in (-1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            ObjectiveConfig(prob, 0.1, delta)


def test_gradient_matches_fd_plain(rng):
    # the slice residual is the pairing gradient, over dt, of the reference
    # stage objective, also for the power-perturbed energy of the mu route
    mu_pf = cc.PerturbedFunctional(mu=0.1, alpha_exp=1.0)
    for p, m, delta, pf in ((2.5, 3.0, 1e-6, None), (3.0, 2.0, 1e-3, mu_pf)):
        prob = unit_problem(p, m, 6, 5)
        u = 0.3 * rng.normal(size=(5, 6))
        fd = fd_gradient(lambda v: stage_objective(prob, 0.1, delta, v, pf), u)
        R = _Stage(plain_cfg(prob, 0.1, delta=delta, pf=pf)).residual(u)
        assert np.allclose(fd, prob.smesh.dx * prob.tmesh.dt * R, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("M, N", [(6, 5), (5, 2)])
def test_minimizer_matches_dense_linear_solve(M, N):
    # p = m = 2: the stage equation is affine, so its dense Jacobian,
    # assembled column by column without the band, pins the stage solution
    # exactly, and the exact band Jacobian gets there in one Newton step.
    # At N = 2 both time couplings of a node pair share one band row.
    prob = unit_problem(2.0, 2.0, M, N)
    ocfg = plain_cfg(prob, 0.25, delta=0.0)
    u_direct = dense_affine_zero(stage_equation(ocfg), (N, M))
    u, history, converged = newton_fixed_point(np.zeros((N, M)), ocfg, 1e-12, 1)
    assert converged
    assert len(history) == 2
    assert np.abs(u - u_direct).max() <= 1e-10


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


@pytest.mark.parametrize("N", [2, 3, 5])
def test_fixed_point_band_matches_fd_jacobian(rng, N):
    # p = 2, m = 3 with eps, delta > 0 drops no term, so the general band
    # unpacked to a dense matrix is the Jacobian of F(u) = R(u) + alpha(du);
    # at N = 2 the wrap and the time coupling share a band row
    M = 4
    prob = unit_problem(2.0, 3.0, M, N)
    ocfg = plain_cfg(prob, 0.3, delta=1e-2)
    stage, F = _Stage(ocfg), stage_equation(ocfg)
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
    d = cc._duality_diag(u, 3.0, 1e-8, prob.smesh)
    tiny = cc._duality_diag(1e-12 * u, 3.0, 1e-8, prob.smesh)
    assert np.allclose(tiny, d, rtol=1e-12)
    # a zero slice has no duality block, at any exponent
    u[1] = 0.0
    for r in (1.5, 3.0, 5.0):
        assert np.all(cc._duality_diag(u, r, 1e-8, prob.smesh)[1] == 0.0)


def test_minimizer_zero_data_and_uniqueness(rng):
    # the stage equation is strictly monotone: zero forcing has the zero
    # solution, and Newton from two arbitrary starts meets at one point
    zero = unit_problem(2.5, 3.0, 6, 5, amp=0.0)
    uz, _, conv_z = newton_fixed_point(
        0.1 * rng.normal(size=(5, 6)), plain_cfg(zero, 0.1), 1e-10, 100
    )
    assert conv_z
    assert np.abs(uz).max() <= 1e-6
    ocfg = plain_cfg(unit_problem(2.5, 3.0, 6, 5), 0.1)
    ua, _, conv_a = newton_fixed_point(0.5 * rng.normal(size=(5, 6)), ocfg, 1e-12, 100)
    ub, _, conv_b = newton_fixed_point(0.5 * rng.normal(size=(5, 6)), ocfg, 1e-12, 100)
    assert conv_a and conv_b
    assert np.abs(ua - ub).max() <= 1e-9


def test_residual_AP_vanishes_on_manufactured_solution():
    prob, exact = mms_problem(2.0, 3.0, 8, 8, delta=1e-8)
    assert residual_AP(exact, prob, delta=1e-8) <= 1e-12
    assert residual_AP(exact + 1e-3, prob, delta=1e-8) > 1e-4


def test_stage_residual_vanishes_at_minimizer():
    # Newton's history records the dual norm of F, which vanishes at the
    # solution; at eps = 0 the slices satisfy alpha(du) + grad Phi(u) = f
    prob = unit_problem(2.5, 3.0, 6, 5)
    for eps in (0.1, 0.0):
        ocfg = plain_cfg(prob, eps)
        u, history, converged = newton_fixed_point(np.zeros((5, 6)), ocfg, 1e-11, 100)
        assert converged
        F = stage_equation(ocfg)(u)
        assert history[-1] == dual_bochner_norm(F, prob) <= 1e-9
    per_slice = (
        cc.grad_phi(u, prob.a, prob.m, 1e-6, prob.smesh)
        + prob.nl.alpha_eval(time_derivative(u, prob.tmesh))
        - prob.f
    )
    assert np.abs(per_slice).max() <= 1e-7
