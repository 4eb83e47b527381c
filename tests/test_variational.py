import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgbsv

import perisolve.convexcore as cc
import perisolve.variational as var
from oracles import fd_gradient, stage_objective
from perisolve.discretize import dual_bochner_norm, time_derivative
from perisolve.variational import _StageAt, newton_fixed_point, residual_AP
from util import dense_affine_zero, mms_problem, stage_equation, unit_problem


def stage_args(prob, eps, pf=None):
    """(prob, eps, pf) of one stage equation, as _StageAt and
    newton_fixed_point take them."""
    return prob, eps, pf


def band_workspace(N, M):
    return np.zeros((3 * N + 1, N * M), order="F")


def band_solve(jac, b):
    """Solve the Jacobian jac at right side b (N, M) through its gbsv band."""
    N, M = b.shape
    lu = band_workspace(N, M)
    jac.write_band(lu)
    _, _, x, info = dgbsv(N, N, lu, b.T.ravel())
    assert info == 0
    return x.reshape(M, N).T


def unpack_band(lu, N):
    """Dense matrix of the gbsv band lu with kl = ku = N, in band order."""
    D = lu.shape[1]
    A = np.zeros((D, D))
    for r in range(D):
        for c in range(max(0, r - N), min(D, r + N + 1)):
            A[r, c] = lu[2 * N + r - c, c]
    return A


def test_config_validation():
    prob = unit_problem(2.0, 2.0, 4, 3)
    u0 = np.zeros((3, 4))
    with pytest.raises(ValueError, match="epsilon"):
        newton_fixed_point(u0, prob, -0.1, None, 1e-10, 5)
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            newton_fixed_point(u0, prob, eps, None, 1e-10, 5)


def test_gradient_matches_fd_plain(rng, monkeypatch):
    # the slice residual is the pairing gradient, over dt, of the reference
    # stage objective, also for the power-perturbed energy of the mu route
    mu_pf = cc.PerturbedFunctional(mu=0.1, alpha_exp=1.0)
    for p, m, delta, pf in ((2.5, 3.0, 1e-6, None), (3.0, 2.0, 1e-3, mu_pf)):
        monkeypatch.setattr(var, "DELTA", delta)
        prob = unit_problem(p, m, 6, 5)
        u = 0.3 * rng.normal(size=(5, 6))
        fd = fd_gradient(lambda v: stage_objective(prob, 0.1, delta, v, pf), u)
        R = _StageAt(u, prob, 0.1, pf).residual
        assert np.allclose(fd, prob.smesh.dx * prob.tmesh.dt * R, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("M, N", [(6, 5), (5, 2)])
def test_minimizer_matches_dense_linear_solve(M, N):
    # p = m = 2: the stage equation is affine, so its dense Jacobian,
    # assembled column by column without the band, pins the stage solution
    # exactly, and the exact Jacobian, whose coefficients do not vary in
    # time, gets there in one Newton step by the DFT solve.  At N = 2 both
    # time couplings of a node pair share one band row.
    prob = unit_problem(2.0, 2.0, M, N)
    args = stage_args(prob, 0.25)
    u_direct = dense_affine_zero(stage_equation(*args), (N, M))
    stage, history, converged, _ = newton_fixed_point(np.zeros((N, M)), *args, 1e-12, 1)
    assert converged
    assert len(history) == 2
    assert np.abs(stage.u - u_direct).max() <= 1e-10


def test_band_hessian_matches_fd_jacobian(rng, monkeypatch):
    # p = 2, m = 3 with eps, delta > 0 drops no Hessian term, and a zero
    # alpha slope block leaves R's, so the band unpacked to a dense matrix
    # is the Jacobian of the slice residual
    monkeypatch.setattr(var, "DELTA", 1e-2)
    N, M = 4, 5
    prob = unit_problem(2.0, 3.0, M, N)
    args = stage_args(prob, 0.3)
    u = rng.normal(size=(N, M))
    lu = band_workspace(N, M)
    jac = _StageAt(u, *args).jacobian()
    jac._replace(s=np.zeros_like(jac.s)).write_band(lu)
    H = unpack_band(lu, N)
    assert np.array_equal(H, H.T)
    # band index i*N + n of trajectory entry (n, i), in trajectory order
    D = N * M
    perm = np.arange(D).reshape(M, N).T.ravel()
    J = np.zeros((D, D))
    h = 1e-6
    for t in range(D):
        e = np.zeros(D)
        e[t] = h
        plus = _StageAt(u + e.reshape(N, M), *args).residual
        minus = _StageAt(u - e.reshape(N, M), *args).residual
        J[:, t] = (plus - minus).ravel() / (2.0 * h)
    assert np.allclose(H[np.ix_(perm, perm)], J, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_fixed_point_band_matches_fd_jacobian(rng, monkeypatch, N):
    # p = 2, m = 3 with eps, delta > 0 drops no term, so the general band
    # unpacked to a dense matrix is the Jacobian of F(u) = R(u) + alpha(du);
    # at N = 2 the wrap and the time coupling share a band row
    monkeypatch.setattr(var, "DELTA", 1e-2)
    M = 4
    prob = unit_problem(2.0, 3.0, M, N)
    args = stage_args(prob, 0.3)
    F = stage_equation(*args)
    u = rng.normal(size=(N, M))
    lu = band_workspace(N, M)
    _StageAt(u, *args).jacobian().write_band(lu)
    assert not lu[:N].any()  # the fill rows of the factorization
    D = N * M
    A = unpack_band(lu, N)
    perm = np.arange(D).reshape(M, N).T.ravel()
    J = np.zeros((D, D))
    h = 1e-6
    for t in range(D):
        e = np.zeros(D)
        e[t] = h
        J[:, t] = (F(u + e.reshape(N, M)) - F(u - e.reshape(N, M))).ravel() / (2 * h)
    assert np.allclose(A[np.ix_(perm, perm)], J, rtol=1e-6, atol=1e-6)


# (p, m, eps, varying diffusion, time-constant iterate): p = m = 2 at either
# eps, with the Mosco family's spatially varying diffusion too, and
# time-constant iterates at p != 2, where at eps > 0 the lower-order terms
# vary in space but not in time
EXACT_CASES = [
    (2.0, 2.0, 0.0, False, False),
    (2.0, 2.0, 0.3, False, False),
    (2.0, 2.0, 0.0, True, False),
    (2.0, 2.0, 0.3, True, False),
    (2.5, 3.0, 0.0, False, True),
    (1.7, 2.4, 0.0, True, True),
    (3.0, 2.0, 0.3, False, True),
]


def check_exact_step(rng, N, M, p, m, eps, varying, constant):
    """The exact step of one time-invariant Jacobian against its band solve."""
    prob = unit_problem(p, m, M, N)
    if varying:
        prob = dataclasses.replace(prob, a=cc.DiffusionField(1.0 + rng.random(M + 1)))
    u = np.tile(rng.normal(size=M), (N, 1)) if constant else rng.normal(size=(N, M))
    jac = _StageAt(u, prob, eps).jacobian()
    assert jac.time_invariant()
    b = rng.normal(size=(N, M))
    x = jac.solve_time_invariant(b)
    ref = band_solve(jac, b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("p, m, eps, varying, constant", EXACT_CASES)
def test_exact_step_matches_the_band(rng, N, p, m, eps, varying, constant):
    # the real DFT in time and the tridiagonal solve per frequency solve a
    # time-invariant Jacobian as the band does: odd N, the Nyquist term of
    # even N, and N = 2, where the wrap and the time coupling share a
    # diagonal
    check_exact_step(rng, N, 6, p, m, eps, varying, constant)


@pytest.mark.parametrize("N, M", [(2, 1), (3, 1), (4, 1), (5, 1), (64, 64)])
@pytest.mark.parametrize("p, m, eps, varying, constant", EXACT_CASES)
def test_exact_step_matches_the_band_at_one_node_and_64(
    rng, N, M, p, m, eps, varying, constant
):
    # at M = 1 every off-diagonal of the stacked tridiagonal system is a
    # block boundary; 64^2 is the grid of the largest bench solve
    check_exact_step(rng, N, M, p, m, eps, varying, constant)


@pytest.mark.parametrize("N", [3, 5, 7, 17])
def test_exact_step_keeps_a_time_constant_right_side_time_constant(rng, N):
    # a steady forcing keeps every Newton iterate time-constant, and so every
    # step exact, only while each step is time-constant bit for bit; at odd
    # N the DFT of a time-constant field has roundoff at k > 0
    prob = unit_problem(1.545433250897403, 1.5303233600342203, 9, N)
    jac = _StageAt(np.zeros((N, 9)), prob, 0.0).jacobian()
    for _ in range(20):
        x = jac.solve_time_invariant(np.tile(rng.normal(size=9), (N, 1)))
        assert (x == x[0]).all()


def test_steady_forcing_at_odd_n_takes_only_exact_steps():
    # p, m near 1.5 with a steady forcing on 5 time nodes: a step that is
    # time-constant only to roundoff sends the next one to the band, and
    # this stage then creeps for its 400 steps
    prob = unit_problem(1.545433250897403, 1.5303233600342203, 3, 5)
    f = 2.5608407547689307 * np.sin(3.0 * np.pi * prob.smesh.nodes)
    prob = dataclasses.replace(prob, f=np.broadcast_to(f, prob.f.shape).copy())
    stage, history, converged, kinds = newton_fixed_point(
        np.zeros((5, 3)), prob, 0.0, None, 5e-12, 400
    )
    assert converged and (stage.u == stage.u[0]).all()
    assert kinds == {"exact_steps": len(history) - 1, "band_steps": 0}
    assert len(history) - 1 <= 10


@pytest.mark.parametrize("p, m", [(2.5, 2.0), (2.0, 3.0)])
def test_time_varying_coefficients_take_the_band(rng, monkeypatch, p, m):
    # at m = 2 every slice has the same weights, but alpha's slope varies in
    # time at p != 2; at p = 2 the slope is 1, but the weights vary at m != 2
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return dgbsv(*args, **kwargs)

    monkeypatch.setattr(var, "dgbsv", spy)
    N, M = 4, 5
    args = stage_args(unit_problem(p, m, M, N), 0.0)
    u = rng.normal(size=(N, M))
    assert not _StageAt(u, *args).jacobian().time_invariant()
    newton_fixed_point(u, *args, 1e-10, 1)
    assert len(calls) == 1


def test_linear_stage_never_factors_a_band(monkeypatch):
    # at p = m = 2 no coefficient varies in time, at any iterate: no step
    # calls gbsv, and no band workspace is allocated
    def no_band(*args, **kwargs):
        raise AssertionError("gbsv called")

    monkeypatch.setattr(var, "dgbsv", no_band)
    N = M = 32
    band_bytes = band_workspace(N, M).nbytes
    for eps in (0.0, 0.25):
        args = stage_args(unit_problem(2.0, 2.0, M, N), eps)
        tracemalloc.start()
        try:
            _, history, converged, _ = newton_fixed_point(
                np.zeros((N, M)), *args, 1e-12, 5
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert converged and len(history) == 2
        assert peak < band_bytes / 4


def test_newton_factors_the_band_in_place(rng, monkeypatch):
    # every band step hands LAPACK one Fortran-ordered workspace, which gbsv
    # overwrites with its LU factors; any other layout makes f2py copy the
    # whole band before every solve.  The step from u = 0 has time-constant
    # coefficients and is solved exactly; the band starts where u begins to
    # vary in time
    calls, order = [], []
    exact = var._Jacobian.solve_time_invariant

    def spy(kl, ku, ab, b, **kwargs):
        out = dgbsv(kl, ku, ab, b, **kwargs)
        calls.append((kl, ku, ab, out[0]))
        order.append("band")
        return out

    def exact_spy(jac, b):
        order.append("exact")
        return exact(jac, b)

    monkeypatch.setattr(var, "dgbsv", spy)
    monkeypatch.setattr(var._Jacobian, "solve_time_invariant", exact_spy)
    monkeypatch.setattr(var, "DELTA", 1e-2)
    N, M = 3, 5
    prob = unit_problem(2.5, 3.0, M, N)
    args = stage_args(prob, 0.1)
    _, history, converged, _ = newton_fixed_point(np.zeros((N, M)), *args, 1e-10, 50)
    assert converged and len(order) == len(history) - 1
    assert order == ["exact"] + ["band"] * len(calls) and len(calls) >= 2
    assert all(ab is calls[0][2] for _, _, ab, _ in calls)
    for kl, ku, ab, lu in calls:
        assert kl == ku == N
        assert ab.shape == (3 * N + 1, N * M) and ab.flags.f_contiguous
        assert np.shares_memory(lu, ab)
    # the writer re-zeroes the workspace: written over the factors of the
    # last step, it holds the same band as written into zeros
    jac = _StageAt(rng.normal(size=(N, M)), *args).jacobian()
    fresh = band_workspace(N, M)
    jac.write_band(fresh)
    lu = fresh.copy(order="F")
    _, _, _, info = dgbsv(N, N, lu, rng.normal(size=N * M), overwrite_ab=1)
    assert info == 0 and not np.array_equal(lu, fresh)
    jac.write_band(lu)
    assert np.array_equal(lu, fresh)


def test_newton_evaluates_each_iterate_once(monkeypatch):
    # an eps > 0 stage reads du and alpha(du) at an iterate once: for the
    # residual and the band
    counts = {"time_derivative": 0, "iterates": 0}
    time_derivative_ = var.time_derivative
    newton = cc._newton

    def counted_time_derivative(*args, **kwargs):
        counts["time_derivative"] += 1
        return time_derivative_(*args, **kwargs)

    def counted_newton(u, equation, *args):
        def counted_equation(v):
            counts["iterates"] += 1
            return equation(v)

        return newton(u, counted_equation, *args)

    monkeypatch.setattr(var, "time_derivative", counted_time_derivative)
    monkeypatch.setattr(cc, "_newton", counted_newton)
    monkeypatch.setattr(var, "DELTA", 1e-2)
    args = stage_args(unit_problem(2.5, 3.0, 5, 4), 0.1)
    _, history, converged, _ = newton_fixed_point(np.zeros((4, 5)), *args, 1e-10, 50)
    assert converged and len(history) >= 3
    assert counts["time_derivative"] == counts["iterates"] >= len(history)


def test_newton_converges_at_the_first_norm_within_an_absolute_tol():
    # tol is a number: |f - alpha(du)| is about 3.6 at every iterate here,
    # and a bound scaled by it would stop a step early, at the norm above tol
    prob = unit_problem(2.5, 3.0, 8, 8, amp=5.0)
    u0 = np.zeros_like(prob.f)
    _, full, _, _ = newton_fixed_point(u0, prob, 0.0, None, 0.0, 50)
    tol = 0.5 * full[4]
    assert full[5] < tol < full[4]
    _, history, converged, _ = newton_fixed_point(u0, prob, 0.0, None, tol, 50)
    assert converged and history == full[:6]


@pytest.mark.filterwarnings("error")
def test_singular_jacobian_stops_newton_unconverged(monkeypatch):
    # at delta = 0 and m = 3 the energy has no curvature at u = 0, and the
    # periodic backward difference annihilates time-constant trajectories;
    # at p = 3 alpha has no slope at 0 and the duality map no block at a
    # zero slice, so eps adds nothing.  F's Jacobian is singular there: the
    # exact step reports it, without a warning, and no step is taken
    monkeypatch.setattr(var, "DELTA", 0.0)
    N, M = 3, 4
    for p, eps in ((2.0, 0.0), (3.0, 0.5)):
        args = stage_args(unit_problem(p, 3.0, M, N), eps)
        stage = _StageAt(np.zeros((N, M)), *args)
        jac = stage.jacobian()
        assert jac.time_invariant()
        with pytest.raises(np.linalg.LinAlgError):
            jac.solve_time_invariant(-stage.F)
        stage, history, converged, _ = newton_fixed_point(
            np.zeros((N, M)), *args, 1e-10, 5
        )
        assert not converged
        assert len(history) == 1 and history[0] > 0.0
        assert not stage.u.any()


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
    sz, _, conv_z, _ = newton_fixed_point(
        0.1 * rng.normal(size=(5, 6)), *stage_args(zero, 0.1), 1e-10, 100
    )
    assert conv_z
    assert np.abs(sz.u).max() <= 1e-6
    args = stage_args(unit_problem(2.5, 3.0, 6, 5), 0.1)
    sa, _, conv_a, _ = newton_fixed_point(0.5 * rng.normal(size=(5, 6)), *args, 1e-12, 100)
    sb, _, conv_b, _ = newton_fixed_point(0.5 * rng.normal(size=(5, 6)), *args, 1e-12, 100)
    assert conv_a and conv_b
    assert np.abs(sa.u - sb.u).max() <= 1e-9


def test_residual_AP_vanishes_on_manufactured_solution():
    prob, exact = mms_problem(2.0, 3.0, 8, 8)
    assert residual_AP(exact, prob) <= 1e-12
    assert residual_AP(exact + 1e-3, prob) > 1e-4


def test_stage_residual_vanishes_at_minimizer():
    # Newton's history records the dual norm of F, which vanishes at the
    # solution; at eps = 0 the slices satisfy alpha(du) + grad Phi(u) = f
    prob = unit_problem(2.5, 3.0, 6, 5)
    for eps in (0.1, 0.0):
        args = stage_args(prob, eps)
        stage, history, converged, _ = newton_fixed_point(
            np.zeros((5, 6)), *args, 1e-11, 100
        )
        assert converged
        u = stage.u
        F = stage_equation(*args)(u)
        assert history[-1] == dual_bochner_norm(F, prob) <= 1e-9
    per_slice = (
        cc.PhiAt(u, prob.a, prob.m, var.DELTA, prob.smesh).grad
        + prob.nl.alpha_eval(time_derivative(u, prob.tmesh))
        - prob.f
    )
    assert np.abs(per_slice).max() <= 1e-7
