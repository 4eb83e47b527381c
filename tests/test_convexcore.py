from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import perisolve.convexcore as cc
import perisolve.verify as vf
from oracles import (
    RESOLVENT_LAMBDA_STAR,
    RESOLVENT_U_STAR,
    fd_gradient,
    scalar_mode_problem,
)
from perisolve.discretize import SpatialMesh, norm_V, pairing
from util import slice_problem, unit_problem

slices = arrays(float, st.integers(2, 8), elements=st.floats(-5.0, 5.0))


# ---------------------------------------------------------------------------
# scalar nonlinearities


class TestPowerNonlinearity:
    def test_closed_forms(self):
        nl = cc.Nonlinearity.power(3.0)
        s = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert np.allclose(nl.alpha_eval(s), np.sign(s) * s**2)
        assert np.allclose(nl.primitive_A(s), np.abs(s) ** 3 / 3.0)
        xi = np.array([-1.5, 0.0, 2.0])
        assert np.allclose(nl.conjugate_Astar(xi), np.abs(xi) ** 1.5 / 1.5)

    def test_exponent_validation(self):
        with pytest.raises(ValueError, match="p_exponent"):
            cc.Nonlinearity.power(1.0)

    def test_derivative_smoothing(self):
        nl = cc.Nonlinearity.power(1.5)
        # (p-1)(s^2 + d^2)^((p-2)/2) at s=0 reduces to 0.5 delta^(-1/2)
        got = nl.alpha_derivative(np.array([0.0]), delta=1e-6)
        assert got[0] == pytest.approx(0.5 * 1e-6 ** (-0.5), rel=1e-12)
        exact = nl.alpha_derivative(np.array([2.0]))
        assert exact[0] == pytest.approx(0.5 * 2.0**-0.5, rel=1e-12)

    @given(slices, st.sampled_from([1.5, 2.0, 2.5, 4.0]))
    @settings(max_examples=40, deadline=None)
    def test_fenchel_young_equality_on_graph(self, s, p):
        # A(s) + A*(alpha(s)) = alpha(s) s holds pointwise on the graph
        nl = cc.Nonlinearity.power(p)
        lhs = nl.primitive_A(s) + nl.conjugate_Astar(nl.alpha_eval(s))
        rhs = nl.alpha_eval(s) * s
        assert np.allclose(lhs, rhs, atol=1e-8 * (1.0 + np.abs(rhs).max()))


class TestPiecewiseNonlinearity:
    def mk(self):
        return cc.Nonlinearity.piecewise_linear(
            [[-1.0, -2.0], [0.0, 0.0], [1.0, 0.5]]
        )

    def test_values_and_extension(self):
        nl = self.mk()
        assert np.allclose(nl.alpha_eval(np.array([0.5, -0.5])), [0.25, -1.0])
        # beyond the last knot the final slope continues
        assert nl.alpha_eval(np.array([3.0]))[0] == pytest.approx(1.5)
        assert nl.alpha_eval(np.array([-2.0]))[0] == pytest.approx(-4.0)

    def test_left_slope_at_kinks(self):
        nl = self.mk()
        assert np.allclose(nl.alpha_derivative(np.array([0.0, 0.5])), [2.0, 0.5])

    def test_primitive_and_conjugate(self):
        nl = self.mk()
        assert nl.primitive_A(np.array([1.0]))[0] == pytest.approx(0.25)
        assert nl.primitive_A(np.array([0.0]))[0] == 0.0
        # alpha = s/2 on [0, 1]: A*(xi) = xi^2 there
        assert nl.conjugate_Astar(np.array([0.25]))[0] == pytest.approx(
            0.0625, rel=1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            cc.Nonlinearity.piecewise_linear([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="nondecreasing"):
            cc.Nonlinearity.piecewise_linear([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            cc.Nonlinearity.piecewise_linear([0.0, 1.0])
        with pytest.raises(ValueError, match=">= 2 breakpoints"):
            cc.Nonlinearity.custom_tabulated([0.0], [0.0])
        with pytest.raises(ValueError, match="unknown nonlinearity kind 'bogus'"):
            cc.Nonlinearity("bogus", 2.0)

    def test_bounded_range_conjugate_is_infinite_outside(self):
        flat = cc.Nonlinearity.piecewise_linear(
            [[-2.0, -1.0], [-1.0, -1.0], [0.0, 0.0], [1.0, 1.0], [2.0, 1.0]]
        )
        assert np.all(np.isinf(flat.conjugate_Astar(np.array([-5.0, 5.0]))))
        # alpha = s on [-1, 1]: A*(xi) = xi^2/2 there, and the flat ends
        # attain their values, so A*(+-1) = 1/2 stays finite
        assert flat.conjugate_Astar(0.5) == pytest.approx(0.125, rel=1e-12)
        assert np.allclose(flat.conjugate_Astar(np.array([-1.0, 1.0])), 0.5)

    @given(
        st.sampled_from([1, 8]),
        arrays(float, 16, elements=st.floats(-80.0, 80.0)),
    )
    @settings(max_examples=20, deadline=None)
    def test_mosco_table_conjugate_is_exact(self, n, s):
        # the 4097-knot table of the rate-map Mosco family, p = 2.5
        spec = vf.MoscoSequenceSpec(
            kind="nonlinearity_perturbation", base=unit_problem(2.5, 2.0, 4, 4)
        )
        nl = spec.instance(n).nl
        assert nl.kind == "custom_tabulated" and nl._knots.size == 4097
        # Fenchel-Young equality on the graph
        xi = nl.alpha_eval(s)
        fy = nl.primitive_A(s) + nl.conjugate_Astar(xi) - xi * s
        assert np.all(np.abs(fy) <= 1e-12 * (1.0 + np.abs(xi * s)))
        # A*(xi) bounds xi t - A(t) over a dense grid of t, beyond the ends too
        t = np.linspace(-96.0, 96.0, 19201)
        inner = xi[:, None] * t[None, :] - nl.primitive_A(t)[None, :]
        gap = nl.conjugate_Astar(xi)[:, None] - inner
        scale = 1.0 + np.abs(xi[:, None] * t[None, :])
        assert np.all(gap >= -1e-12 * scale)

    def test_mosco_table_primitive_is_exact_near_zero(self):
        # power(3) + s on 4097 knots over [-64, 64]: A near 0 is tiny next to
        # A at the end knots, and must not inherit their roundoff
        spec = vf.MoscoSequenceSpec(
            kind="nonlinearity_perturbation", base=unit_problem(3.0, 2.0, 4, 4)
        )
        nl = spec.instance(1).nl
        knots = [Fraction(k) for k in nl._knots]
        values = [Fraction(v) for v in nl._values]

        def exact(s):
            # integral of the interpolant from 0 to s, in rational arithmetic
            lo, hi = sorted((Fraction(0), Fraction(s)))
            total = Fraction(0)
            for k0, k1, v0, v1 in zip(knots, knots[1:], values, values[1:]):
                a, b = max(k0, lo), min(k1, hi)
                if a < b:
                    slope = (v1 - v0) / (k1 - k0)
                    total += (2 * v0 + slope * (a + b - 2 * k0)) / 2 * (b - a)
            return total if s > 0 else -total

        for s in (6.4e-4, 1e-3, -1e-3, 0.3, -5.0):
            ref = exact(s)
            assert abs(Fraction(float(nl.primitive_A(s))) - ref) <= 1e-12 * abs(ref)

    def test_tabulated_identity_matches_quadratic(self):
        nl = cc.Nonlinearity.custom_tabulated(
            np.linspace(-1, 1, 21), np.linspace(-1, 1, 21)
        )
        # end-slope extension makes this the identity map everywhere
        assert nl.conjugate_Astar(np.array([5.0]))[0] == pytest.approx(
            12.5, rel=1e-9
        )
        assert nl.primitive_A(np.array([0.7]))[0] == pytest.approx(0.245)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "alpha.csv"
        s = np.linspace(-2, 2, 9)
        np.savetxt(path, np.column_stack([s, s**3]), delimiter=",")
        nl = cc.Nonlinearity.from_csv(str(path), p_exponent=4.0)
        assert nl.kind == "custom_tabulated"
        assert np.allclose(nl.alpha_eval(s), s**3)


# ---------------------------------------------------------------------------
# quadrature functionals


def test_eval_psi_frozen_values():
    sm = SpatialMesh(1.0, 63)
    nl = cc.Nonlinearity.power(2.0)
    assert cc.eval_psi(np.zeros(63), nl, sm) == 0.0
    # constant 2 on the unit interval: the half-cell convention gives
    # 2 (1 - dx) exactly
    val = cc.eval_psi(np.full(63, 2.0), nl, sm)
    assert val == pytest.approx(2.0 * (1.0 - sm.dx), rel=1e-14)
    assert abs(val - 2.0) <= 2.0 * sm.dx
    # integral of x^3/3 over [0, 1] is 1/12
    nl3 = cc.Nonlinearity.power(3.0)
    v3 = cc.eval_psi(sm.nodes, nl3, sm)
    assert v3 == pytest.approx(1.0 / 12.0, abs=sm.dx / 3.0)


def test_grad_psi_is_pointwise_alpha(rng):
    # alpha, applied pointwise, is the pairing gradient of eval_psi
    sm = SpatialMesh(1.0, 12)
    nl = cc.Nonlinearity.power(2.5)
    u = rng.normal(size=12)
    fd = fd_gradient(lambda v: float(cc.eval_psi(v, nl, sm)), u)
    assert np.allclose(sm.dx * nl.alpha_eval(u), fd, rtol=1e-6, atol=1e-8)


def test_eval_phi_frozen_values():
    sm = SpatialMesh(1.0, 63)
    a = cc.DiffusionField.constant(1.0, sm)
    assert cc.PhiAt(np.zeros(63), a, 2.0, 0.0, sm).value == 0.0
    u = sm.nodes * (1.0 - sm.nodes)
    val = cc.PhiAt(u, a, 2.0, 0.0, sm).value
    assert val == pytest.approx(1.0 / 6.0, abs=sm.dx**2)
    # one-node hat, m = 4, a = 2: (dx/4) * 2 * (2 * 16) = 8
    sm1 = SpatialMesh(1.0, 1)
    a2 = cc.DiffusionField.constant(2.0, sm1)
    assert cc.PhiAt(np.array([1.0]), a2, 4.0, 0.0, sm1).value == pytest.approx(8.0)
    with pytest.raises(ValueError, match="energy exponent"):
        cc.PhiAt(u, a, 1.0, 0.0, sm)


def test_grad_phi_linear_case_is_second_difference(rng):
    sm = SpatialMesh(1.0, 9)
    a = cc.DiffusionField.constant(1.0, sm)
    u = rng.normal(size=9)
    z = np.concatenate([[0.0], u, [0.0]])
    lap = (z[:-2] - 2.0 * z[1:-1] + z[2:]) / sm.dx**2
    assert np.allclose(cc.PhiAt(u, a, 2.0, 0.0, sm).grad, -lap, atol=1e-12)


def test_grad_phi_matches_fd(rng):
    sm = SpatialMesh(1.0, 8)
    a = cc.DiffusionField.constant(1.3, sm)
    for m, delta in ((3.0, 0.0), (2.5, 1e-4), (1.5, 1e-3)):
        u = rng.normal(size=8)
        fd = fd_gradient(lambda v: float(cc.PhiAt(v, a, m, delta, sm).value), u)
        g = sm.dx * cc.PhiAt(u, a, m, delta, sm).grad
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7), (m, delta)


def test_grad_phi_singular_cell_raises():
    sm = SpatialMesh(1.0, 3)
    a = cc.DiffusionField.constant(1.0, sm)
    u = np.array([1.0, 1.0, 1.0])  # interior cell gradients vanish
    with pytest.raises(FloatingPointError, match="zero gradient cell"):
        cc.PhiAt(u, a, 1.5, 0.0, sm).grad
    # smoothing removes the singularity
    out = cc.PhiAt(u, a, 1.5, 1e-6, sm).grad
    assert np.all(np.isfinite(out))


@given(
    arrays(float, 5, elements=st.floats(-3.0, 3.0)),
    arrays(float, 5, elements=st.floats(-3.0, 3.0)),
    st.sampled_from([2.0, 2.5, 3.0]),
)
@settings(max_examples=40, deadline=None)
def test_grad_phi_monotone(u, v, m):
    sm = SpatialMesh(1.0, 5)
    a = cc.DiffusionField.constant(1.0, sm)
    gap = pairing(
        cc.PhiAt(u, a, m, 0.0, sm).grad - cc.PhiAt(v, a, m, 0.0, sm).grad,
        u - v,
        sm,
    )
    assert gap >= -1e-10 * (1.0 + np.abs(u).max() + np.abs(v).max()) ** m


@pytest.mark.parametrize("delta", [0.0, 1e-3, 0.5])
def test_phi_weights_are_exact_at_m2(rng, delta):
    sm = SpatialMesh(1.0, 9)
    vals = 1.0 + 0.5 * np.sin(7.0 * sm.cell_midpoints)
    a = cc.DiffusionField(vals)
    u = rng.normal(size=(3, 9))
    w = cc.PhiAt(u, a, 2.0, delta, sm).weights
    assert np.array_equal(w, np.broadcast_to(a.midpoint_values, w.shape))
    if delta == 0.0:
        return
    # elsewhere the weights keep the value of s2^((m-4)/2) ((m-1) Du^2 + delta^2)
    for m in (1.5, 3.0):
        phi = cc.PhiAt(u, a, m, delta, sm)
        s2 = phi.Du**2 + delta**2
        qp = s2 ** ((m - 4.0) / 2.0) * ((m - 1.0) * phi.Du**2 + delta**2)
        old = a.midpoint_values * qp
        assert np.allclose(phi.weights, old, rtol=1e-13, atol=0.0)


def test_phi_hessian_matches_directional_fd(rng):
    sm = SpatialMesh(1.0, 7)
    a = cc.DiffusionField.constant(1.0, sm)
    u = rng.normal(size=7)
    v = rng.normal(size=7)
    H = cc.PhiAt(u, a, 3.0, 1e-3, sm).matrix()
    h = 1e-6
    fd = (
        cc.PhiAt(u + h * v, a, 3.0, 1e-3, sm).grad
        - cc.PhiAt(u - h * v, a, 3.0, 1e-3, sm).grad
    ) / (2.0 * h)
    assert np.allclose(H @ v, fd, rtol=1e-5, atol=1e-6)
    with pytest.raises(ValueError, match="single slice"):
        cc.PhiAt(np.zeros((2, 7)), a, 3.0, 1e-3, sm).matrix()


# ---------------------------------------------------------------------------
# duality map


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 4.0])
def test_duality_map_identities(r, rng):
    sm = SpatialMesh(2.0, 11)
    v = rng.normal(size=11)
    F = cc.duality_map(v, r, sm)
    nv = norm_V(v, r, sm)
    assert pairing(F, v, sm) == pytest.approx(nv**2, rel=1e-12)
    rc = r / (r - 1.0)
    assert norm_V(F, rc, sm) == pytest.approx(nv, rel=1e-12)


def test_duality_map_edge_cases():
    sm = SpatialMesh(1.0, 4)
    assert np.all(cc.duality_map(np.zeros(4), 1.5, sm) == 0.0)
    v = np.array([1.0, -2.0, 0.5, 0.0])
    assert np.array_equal(cc.duality_map(v, 2.0, sm), v)
    with pytest.raises(ValueError, match="exponent r"):
        cc.duality_map(v, 1.0, sm)


# ---------------------------------------------------------------------------
# envelope and resolvent


def test_moreau_yosida_scalar_closed_forms():
    _, prob = scalar_mode_problem()
    u = np.array([1.7])
    for lam in (1.0, 0.25, 0.01):
        J, env, yg = cc.moreau_yosida(u, lam, prob, 0.0)
        assert J[0] == pytest.approx(1.7 / (1.0 + lam), abs=1e-9)
        assert env == pytest.approx(1.7**2 / (2.0 * (1.0 + lam)), abs=1e-9)
        # envelope gradient equals the energy gradient at the prox point
        assert yg[0] == pytest.approx(J[0], abs=1e-9)


def test_moreau_yosida_sandwich_and_monotonicity(rng):
    sm = SpatialMesh(1.0, 10)
    prob = slice_problem(sm, 3.0)
    # delta > 0 keeps the prox Hessian nondegenerate at flat cells, same as
    # every solver-side use of the energy
    for _ in range(5):
        u = rng.normal(size=10)
        phi_u = float(cc.PhiAt(u, prob.a, 3.0, 1e-6, sm).value)
        prev = -np.inf
        for lam in (1.0, 0.1, 0.01):
            J, env, _ = cc.moreau_yosida(u, lam, prob, 1e-6)
            phi_J = float(cc.PhiAt(J, prob.a, 3.0, 1e-6, sm).value)
            slack = 1e-8 * (1.0 + phi_u)
            assert phi_J <= env + slack
            assert env <= phi_u + slack
            assert env >= prev - slack  # envelope grows as lam shrinks
            prev = env


def test_moreau_yosida_gradient_consistency(rng):
    sm = SpatialMesh(1.0, 9)
    prob = slice_problem(sm, 2.0)
    u = rng.normal(size=9)
    J, _, yg = cc.moreau_yosida(u, 0.5, prob, 0.0)
    assert np.allclose(yg, cc.PhiAt(J, prob.a, 2.0, 0.0, sm).grad, atol=1e-8)
    with pytest.raises(ValueError, match="must be positive"):
        cc.moreau_yosida(u, 0.0, prob, 0.0)


def test_moreau_yosida_singular_step_stalls(rng, monkeypatch):
    # a singular dense Newton system ends the solve; the caller sees the
    # stall, not the LinAlgError
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cc.np.linalg, "solve", singular)
    sm = SpatialMesh(1.0, 9)
    prob = slice_problem(sm, 3.0)
    with pytest.raises(RuntimeError, match="stalled"):
        cc.moreau_yosida(rng.normal(size=9), 0.5, prob, 1e-6)


def test_fenchel_psi_star_quadratic_and_zero(rng):
    sm = SpatialMesh(1.0, 15)
    nl = cc.Nonlinearity.power(2.0)
    xi = rng.normal(size=15)
    assert cc.fenchel_psi_star(xi, nl, sm) == pytest.approx(
        0.5 * sm.dx * np.sum(xi**2), rel=1e-13
    )
    assert cc.fenchel_psi_star(np.zeros(15), nl, sm) == 0.0


def test_fenchel_young_for_field_functionals(rng):
    # psi(v) + psi*(alpha(v)) = <alpha(v), v> at conjugate pairs, and
    # the inequality holds for mismatched pairs
    sm = SpatialMesh(1.0, 12)
    nl = cc.Nonlinearity.power(3.0)
    v = rng.normal(size=12)
    xi = nl.alpha_eval(v)
    lhs = cc.eval_psi(v, nl, sm) + cc.fenchel_psi_star(xi, nl, sm)
    rhs = pairing(xi, v, sm)
    assert lhs == pytest.approx(rhs, abs=1e-8 * (1.0 + abs(rhs)))
    eta = rng.normal(size=12)
    assert cc.eval_psi(v, nl, sm) + cc.fenchel_psi_star(eta, nl, sm) >= pairing(
        eta, v, sm
    ) - 1e-10


# ---------------------------------------------------------------------------
# power-perturbed energy


def test_phi_power_scalar_values():
    sm, prob = scalar_mode_problem()
    pf = cc.PerturbedFunctional(mu=1.0, alpha_exp=1.0)
    phi = cc.PhiAt(np.array([2.0]), prob.a, 2.0, 0.0, sm, pf)
    val, grad = phi.value, phi.grad
    # phi = 2: value 2 + 4/2 = 4, grad (1 + 2) * 2 = 6
    assert val == pytest.approx(4.0, rel=1e-14)
    assert grad[0] == pytest.approx(6.0, rel=1e-14)


def test_phi_power_reduces_to_plain(rng):
    sm = SpatialMesh(1.0, 8)
    a = cc.DiffusionField.constant(1.0, sm)
    u = rng.normal(size=8)
    plain = cc.PhiAt(u, a, 3.0, 0.0, sm)
    zero_mu = cc.PhiAt(u, a, 3.0, 0.0, sm, cc.PerturbedFunctional(0.0, 1.5))
    assert zero_mu.value == pytest.approx(float(plain.value), rel=1e-14)
    assert np.allclose(zero_mu.grad, plain.grad)


def test_phi_power_gradient_chain_rule(rng):
    sm = SpatialMesh(1.0, 8)
    a = cc.DiffusionField.constant(1.0, sm)
    pf = cc.PerturbedFunctional(mu=0.5, alpha_exp=1.5)
    u = rng.normal(size=8)
    grad = cc.PhiAt(u, a, 3.0, 1e-6, sm, pf).grad
    plain = cc.PhiAt(u, a, 3.0, 1e-6, sm)
    manual = (1.0 + 0.5 * float(plain.value) ** 1.5) * plain.grad
    assert np.allclose(grad, manual, rtol=1e-14, atol=1e-14)
    fd = fd_gradient(lambda v: float(cc.PhiAt(v, a, 3.0, 1e-6, sm, pf).value), u)
    assert np.allclose(sm.dx * grad, fd, rtol=1e-5, atol=1e-7)


def test_perturbed_functional_validation():
    with pytest.raises(ValueError, match="mu must lie"):
        cc.PerturbedFunctional(mu=-0.1, alpha_exp=1.0)
    with pytest.raises(ValueError, match="mu must lie"):
        cc.PerturbedFunctional(mu=1.5, alpha_exp=1.0)
    with pytest.raises(ValueError, match="alpha_exp"):
        cc.PerturbedFunctional(mu=0.5, alpha_exp=0.0)


def test_resolvent_reproduces_scalar_oracle():
    sm, prob = scalar_mode_problem()
    pf = cc.PerturbedFunctional(mu=1.0, alpha_exp=1.0)
    u = cc.resolvent_phi_power(np.array([0.0]), np.array([1.0]), pf, prob, 0.0)
    assert u[0] == pytest.approx(RESOLVENT_U_STAR, abs=1e-9)
    lam = float(cc.PhiAt(u, prob.a, 2.0, 0.0, sm).value)
    assert lam == pytest.approx(RESOLVENT_LAMBDA_STAR, abs=1e-9)


def test_resolvent_mu_zero_reduction():
    sm, prob = scalar_mode_problem()
    pf0 = cc.PerturbedFunctional(mu=0.0, alpha_exp=1.0)
    w, ws = np.array([0.3]), np.array([0.9])
    u = cc.resolvent_phi_power(w, ws, pf0, prob, 0.0)
    # scalar equation (u - w) + u = w*
    assert u[0] == pytest.approx(0.6, abs=1e-10)
    res = cc.duality_map(u - w, 2.0, sm) + cc.PhiAt(u, prob.a, 2.0, 0.0, sm).grad - ws
    assert abs(res[0]) <= 1e-10


def test_resolvent_field_case_satisfies_equation(rng):
    sm = SpatialMesh(1.0, 6)
    prob = slice_problem(sm, 2.0)
    pf = cc.PerturbedFunctional(mu=0.8, alpha_exp=1.0)
    w = rng.normal(size=6)
    ws = rng.normal(size=6)
    u = cc.resolvent_phi_power(w, ws, pf, prob, 0.0, tol=1e-8)
    phi = cc.PhiAt(u, prob.a, 2.0, 0.0, sm)
    lam = 0.8 * float(phi.value)
    res = cc.duality_map(u - w, 2.0, sm) + (1.0 + lam) * phi.grad - ws
    assert norm_V(res, 2.0, sm) <= 1e-8 * max(1.0, norm_V(ws, 2.0, sm))


def test_resolvent_that_cannot_reach_its_tolerance_raises(rng):
    # no iterate's residual is exactly zero: Newton stops at the roundoff
    # floor, and the solve reports the residual it reached
    sm = SpatialMesh(1.0, 6)
    prob = slice_problem(sm, 2.0)
    pf = cc.PerturbedFunctional(mu=0.8, alpha_exp=1.0)
    w, ws = rng.normal(size=6), rng.normal(size=6)
    with pytest.raises(RuntimeError, match="resolvent solve stalled with residual"):
        cc.resolvent_phi_power(w, ws, pf, prob, 0.0, tol=0.0)


def resolvent_residual(u, w, ws, pf, prob, delta):
    """Dual norm of F(u - w) + (1 + mu phi^a) grad phi(u) - w* and its bound
    at the default tolerance."""
    sm, pc = prob.smesh, prob.p_conj
    grad = cc.PhiAt(u, prob.a, prob.m, delta, sm, pf).grad
    res = cc.duality_map(u - w, prob.p, sm) + grad - ws
    return norm_V(res, pc, sm), 1e-10 * max(1.0, norm_V(ws, pc, sm))


def test_resolvent_is_one_newton_solve_off_the_quadratic_case(rng, monkeypatch):
    # p = 2.5, m = 3 and a non-constant diffusion: the duality block and the
    # energy are both nonlinear, and one Newton solve meets the equation
    sm = SpatialMesh(1.0, 8)
    diffusion = cc.DiffusionField(rng.uniform(0.5, 2.0, 9))
    prob = replace(slice_problem(sm, 3.0, p=2.5), a=diffusion)
    pf = cc.PerturbedFunctional(mu=0.5, alpha_exp=0.75)
    w, ws = rng.normal(size=8), 3.0 * rng.normal(size=8)
    solves = []
    newton = cc._newton

    def counted(*args, **kwargs):
        solves.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(cc, "_newton", counted)
    u = cc.resolvent_phi_power(w, ws, pf, prob, 1e-6)
    assert len(solves) == 1
    res, bound = resolvent_residual(u, w, ws, pf, prob, 1e-6)
    assert res <= bound


@pytest.mark.parametrize("m, delta", [(3.0, 1e-6), (1.6, 1e-3), (2.0, 0.0)])
def test_perturbed_phi_matrix_matches_fd(rng, m, delta):
    # the dense Hessian of the perturbed energy keeps the rank-one term
    # mu a phi^(a-1) dx g g^T that the band drops
    sm = SpatialMesh(1.0, 7)
    a = cc.DiffusionField(rng.uniform(0.5, 2.0, 8))
    pf = cc.PerturbedFunctional(mu=0.7, alpha_exp=0.6)
    u, h = rng.normal(size=7), 1e-6
    H = cc.PhiAt(u, a, m, delta, sm, pf).matrix()
    fd = np.empty((7, 7))
    for j, e in enumerate(np.eye(7)):
        fd[:, j] = (
            cc.PhiAt(u + h * e, a, m, delta, sm, pf).grad
            - cc.PhiAt(u - h * e, a, m, delta, sm, pf).grad
        ) / (2.0 * h)
    assert np.allclose(H, fd, rtol=1e-6, atol=1e-6 * np.abs(H).max())
    # phi = 0 has g = 0: the rank-one term vanishes, and phi^(a-1) is not
    # evaluated there
    zero = cc.PhiAt(np.zeros(7), a, 2.0, 0.0, sm, pf).matrix()
    assert np.array_equal(zero, cc.PhiAt(np.zeros(7), a, 2.0, 0.0, sm).matrix())


@st.composite
def resolvent_slices(draw):
    M = draw(st.integers(1, 12))
    field = arrays(float, M, elements=st.floats(-5.0, 5.0))
    return (
        draw(st.floats(1.5, 3.0)),
        draw(st.floats(1.5, 3.0)),
        draw(field),
        draw(field),
        cc.PerturbedFunctional(draw(st.floats(0.0, 1.0)), draw(st.floats(0.5, 2.0))),
    )


@given(resolvent_slices())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_resolvent_converges_or_reports_a_stall(case):
    p, m, w, ws, pf = case
    sm = SpatialMesh(1.0, w.size)
    prob = slice_problem(sm, m, p=p)
    try:
        u = cc.resolvent_phi_power(w, ws, pf, prob, 1e-8)
    except RuntimeError as exc:
        assert "stalled" in str(exc)
        return
    res, bound = resolvent_residual(u, w, ws, pf, prob, 1e-8)
    assert res <= bound


# ---------------------------------------------------------------------------
# the Newton loop's backtracking

# g(v) = v |v| + delta v - 1 from v = 0: g'(0) = delta, so the full Newton
# step 1/delta is 1e8 times too long and the trial norm grows like t^2
DELTA = 1e-8
ROOT = (-DELTA + np.sqrt(DELTA**2 + 4.0)) / 2.0


def g_norm(v):
    return abs(v * abs(v) + DELTA * v - 1.0)


def traced_newton(norm_at, step, max_iter, tol=0.0):
    """_newton on a scalar with the given norm and step; returns its result
    and every argument the equation was evaluated at."""
    points = []

    def equation(v):
        points.append(float(v[0]))
        return None, norm_at(float(v[0]))

    out = cc._newton(np.zeros(1), equation, tol, step, max_iter)
    return out, points


def g_step(v, _):
    x = float(v[0])
    return np.array([-(x * abs(x) + DELTA * x - 1.0) / (2.0 * abs(x) + DELTA)])


def test_backtracking_follows_a_quadratic_growth():
    halvings = next(k for k in range(31) if g_norm(0.5**k / DELTA) < 1.0)
    assert halvings >= 26
    (_, history, _, _), points = traced_newton(g_norm, g_step, 1)
    assert len(history) == 2 and len(points) <= 5
    (u, history, converged, _), _ = traced_newton(g_norm, g_step, 50, tol=1e-14)
    assert converged and u[0] == pytest.approx(ROOT, rel=1e-14)
    assert all(b < a for a, b in zip(history, history[1:]))


def test_backtracking_halves_when_the_norm_grows_sublinearly():
    # res(2t) / res(t) = (1 + 2t) / (1 + t) < 2: every factor down to 2^-30
    # is tried in turn, and then the step is given up
    (u, history, converged, _), points = traced_newton(
        lambda x: 1.0 + x, lambda v, _: np.ones(1), 10
    )
    assert points == [0.0] + [0.5**k for k in range(31)]
    assert history == [1.0] and not converged and u[0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_backtracking_halves_past_a_non_finite_norm(bad):
    # trials at t = 1 and 1/2 evaluate to bad: no power law is fitted through
    # them; from 1/4 and 1/8 on the norm grows like t^2 and the jump follows
    def norm_at(x):
        return bad if x > 0.3 / DELTA else g_norm(x)

    (_, history, _, _), points = traced_newton(norm_at, g_step, 1)
    d = g_step(np.zeros(1), None)[0]
    trials = [x / d for x in points[1:]]
    assert trials[:4] == [1.0, 0.5, 0.25, 0.125]
    assert len(trials) == 5 and trials[4] < 1 / 16 and history[1] < 1.0


# ---------------------------------------------------------------------------
# validation


def test_phi_config_validation_and_stripping():
    # the energy object validates m and delta; a perturbation with mu = 0
    # is stripped, one with mu > 0 adds energy
    sm = SpatialMesh(1.0, 4)
    a = cc.DiffusionField.constant(1.0, sm)
    u = np.array([1.0, 2.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="energy exponent"):
        cc.PhiAt(u, a, 1.0, 0.0, sm)
    with pytest.raises(ValueError, match="delta"):
        cc.PhiAt(u, a, 2.0, -1.0, sm)
    with pytest.raises(ValueError, match="delta"):
        cc.PhiAt(u, a, 2.0, np.nan, sm)
    assert cc.PhiAt(u, a, 2.0, 0.0, sm, cc.PerturbedFunctional(0.0, 1.0)).pf is None
    pf = cc.PerturbedFunctional(mu=0.5, alpha_exp=1.0)
    v_plain = cc.PhiAt(u, a, 2.0, 0.0, sm).value
    assert cc.PhiAt(u, a, 2.0, 0.0, sm, pf).value > v_plain  # adds energy


def test_diffusion_field_validation():
    sm = SpatialMesh(1.0, 3)
    for bad in (0.0, -0.5):
        vals = np.ones(4)
        vals[2] = bad
        with pytest.raises(ValueError, match="positive on every cell"):
            cc.DiffusionField(vals)
    with pytest.raises(ValueError, match="non-finite"):
        cc.DiffusionField(np.array([1.0, np.nan, 1.0, 1.0]))
    vals = 1.0 + 0.5 * sm.cell_midpoints
    assert np.array_equal(cc.DiffusionField(vals).midpoint_values, vals)
