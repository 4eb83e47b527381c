"""Scalar nonlinearities and the discrete convex-analysis toolkit.

Houses the rate nonlinearity (a nondecreasing scalar map with its primitive
and conjugate), the cellwise diffusion coefficient, gradient-energy
functionals and their gradients, duality maps of the nodal L^r spaces,
proximal smoothing (envelope, resolvent, Yosida gradient), the
power-perturbed energy used on the hard exponent branch with its resolvent,
and the one Newton loop: it halves each step, or cuts it faster where the
trial residual grows like a power of the step length, until the residual's
dual norm falls.  It serves both the stage equation of the variational
layer and the single-slice proximal problems here, each of which is one
Newton solve on its stationarity equation with that equation's exact dense
Jacobian.

Gradients are always understood against the pairing <xi, u> = sum_i dx xi_i u_i,
so a "dual field" returned here pairs with increments through that weighted
sum.  All operations are pure functions; every value object is immutable
after construction and safe to share across concurrent solves.

Field arguments accept a single slice of shape (M,) or a stack (..., M); the
math is applied along the last axis and scalar outputs become arrays over the
leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .discretize import ProblemSpec, SpatialMesh, cell_gradient, norm_V

__all__ = [
    "Nonlinearity",
    "DiffusionField",
    "PerturbedFunctional",
    "PhiAt",
    "eval_psi",
    "duality_map",
    "moreau_yosida",
    "fenchel_psi_star",
    "resolvent_phi_power",
]


def _require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


# ---------------------------------------------------------------------------
# rate nonlinearity


class Nonlinearity:
    """Nondecreasing scalar map alpha with primitive A and conjugate A*.

    Two kinds are supported: "power" (alpha(s) = |s|^(p-2) s, everything in
    closed form) and "piecewise_linear" (one table of knots (s, alpha(s)),
    exact segment integrals and conjugate).  A table extends beyond its end
    knots with the end segment slopes; at a knot the derivative takes the
    left segment's slope, a single-valued selection.

    p_exponent is the growth exponent used by the norm bookkeeping.
    """

    def __init__(
        self,
        kind: str,
        p_exponent: float,
        knots: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ) -> None:
        if p_exponent <= 1.0:
            raise ValueError(f"p_exponent must exceed 1, got {p_exponent}")
        if kind not in ("power", "piecewise_linear"):
            raise ValueError(f"unknown nonlinearity kind {kind!r}")
        self.kind = kind
        self.p_exponent = float(p_exponent)
        if kind == "power":
            self._knots = None
            self._values = None
            self._cum = None
        else:
            knots = _require_finite(knots, "nonlinearity knots")
            values = _require_finite(values, "nonlinearity values")
            if knots.ndim != 1 or knots.size < 2 or values.shape != knots.shape:
                raise ValueError("need >= 2 breakpoints of matching shape")
            if np.any(np.diff(knots) <= 0):
                raise ValueError("breakpoint arguments must be strictly increasing")
            if np.any(np.diff(values) < -1e-14 * max(1.0, np.abs(values).max())):
                raise ValueError("nonlinearity values must be nondecreasing")
            self._knots = knots
            self._values = values
            seg = np.diff(knots)
            self._slopes = np.diff(values) / seg
            # exact integral of the interpolant from the knot nearest 0, so
            # that A near 0 is not the difference of two large partial sums
            self._cum = np.concatenate(
                ([0.0], np.cumsum(0.5 * (values[:-1] + values[1:]) * seg))
            )
            self._cum -= self._cum[np.argmin(np.abs(knots))]
            self._A_at_zero = self._raw_integral(np.asarray(0.0))

    # -- constructors

    @classmethod
    def power(cls, p: float) -> "Nonlinearity":
        return cls("power", p)

    @classmethod
    def piecewise_linear(
        cls, breakpoints: "np.ndarray | list", p_exponent: float = 2.0
    ) -> "Nonlinearity":
        pts = np.asarray(breakpoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("breakpoints must be an (n, 2) array of (s, alpha(s))")
        return cls("piecewise_linear", p_exponent, pts[:, 0], pts[:, 1])

    @classmethod
    def from_csv(cls, path: str, p_exponent: float = 2.0) -> "Nonlinearity":
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(
                f"{path} has {data.shape[1]} columns, expected two: s, alpha(s)"
            )
        return cls.piecewise_linear(data, p_exponent)

    # -- piecewise helpers

    def _segment_index(self, s: np.ndarray, side: str) -> np.ndarray:
        idx = np.searchsorted(self._knots, s, side=side) - 1
        return np.clip(idx, 0, self._knots.size - 2)

    def _raw_integral(self, s: np.ndarray) -> np.ndarray:
        idx = self._segment_index(s, "right")
        ds = s - self._knots[idx]
        return self._cum[idx] + self._values[idx] * ds + 0.5 * self._slopes[idx] * ds**2

    # -- scalar maps (vectorized)

    def alpha_eval(self, s) -> np.ndarray:
        s = _require_finite(s, "nonlinearity argument")
        if self.kind == "power":
            q = self.p_exponent - 1.0
            return np.sign(s) * np.abs(s) ** q
        idx = self._segment_index(s, "right")
        return self._values[idx] + self._slopes[idx] * (s - self._knots[idx])

    def primitive_A(self, s) -> np.ndarray:
        s = _require_finite(s, "nonlinearity argument")
        if self.kind == "power":
            return np.abs(s) ** self.p_exponent / self.p_exponent
        return self._raw_integral(s) - self._A_at_zero

    def conjugate_Astar(self, xi) -> np.ndarray:
        """A*(xi) = sup_s (xi s - A(s)), +inf where xi lies beyond a flat end.

        For a table the supremum is attained where alpha(s*) = xi:
        s* = knot + (xi - value)/slope on the segment whose values bracket
        xi, the end segments carrying the end-slope extension.  On a flat
        segment every point gives the same value, so s* is its knot.
        """
        xi = _require_finite(xi, "conjugate argument")
        if self.kind == "power":
            pc = self.p_exponent / (self.p_exponent - 1.0)
            return np.abs(xi) ** pc / pc
        idx = np.searchsorted(self._values, xi, side="right") - 1
        idx = np.clip(idx, 0, self._knots.size - 2)
        knot, value, slope = self._knots[idx], self._values[idx], self._slopes[idx]
        flat = slope <= 0.0
        s = knot + np.where(flat, 0.0, xi - value) / np.where(flat, 1.0, slope)
        out = xi * s - (self._raw_integral(s) - self._A_at_zero)
        unbounded = flat & ((xi < self._values[0]) | (xi > self._values[-1]))
        out = np.where(unbounded, np.inf, out)
        return out if out.ndim else float(out)

    def alpha_derivative(self, s, delta: float = 0.0) -> np.ndarray:
        """Slope of alpha, smoothed near 0 for the power kind when delta > 0."""
        s = _require_finite(s, "nonlinearity argument")
        if self.kind == "power":
            q = self.p_exponent - 2.0
            if delta > 0.0:
                return (self.p_exponent - 1.0) * (s * s + delta * delta) ** (q / 2.0)
            return (self.p_exponent - 1.0) * np.abs(s) ** q
        idx = self._segment_index(s, "left")
        return self._slopes[idx] + np.zeros_like(np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# diffusion coefficient


@dataclass(frozen=True)
class DiffusionField:
    """Cellwise diffusion coefficient, finite and positive on every cell."""

    midpoint_values: np.ndarray

    def __post_init__(self) -> None:
        vals = _require_finite(self.midpoint_values, "diffusion values")
        object.__setattr__(self, "midpoint_values", vals)
        if not np.all(vals > 0.0):
            raise ValueError(
                f"diffusion values must be positive on every cell, got {vals.min():g}"
            )

    @classmethod
    def constant(cls, value: float, smesh: SpatialMesh) -> "DiffusionField":
        return cls(np.full(smesh.interior_count + 1, float(value)))


@dataclass(frozen=True)
class PerturbedFunctional:
    """Power perturbation of the gradient energy: phi + mu/(1+a) * phi^(1+a).

    The endpoints are both admitted: mu = 0 reduces every operation to the
    unperturbed energy (the resolvent then collapses to the plain one) and
    mu = 1 appears in scalar reference computations.  Continuation schedules
    keep their entries strictly inside (0, 1).
    """

    mu: float
    alpha_exp: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if not self.alpha_exp > 0.0:
            raise ValueError(f"alpha_exp must be positive, got {self.alpha_exp}")


# ---------------------------------------------------------------------------
# integral functionals and gradients


def eval_psi(u: np.ndarray, nl: Nonlinearity, mesh: SpatialMesh):
    """Nodal integral of the primitive: sum_i dx A(u_i). Convex in u."""
    u = _require_finite(u, "field")
    return mesh.dx * np.sum(nl.primitive_A(u), axis=-1)


class PhiAt:
    """The gradient energy at one field u, over the last axis.

    The energy is (1/m) sum_cells dx a ((Du)^2 + delta^2)^(m/2), convex in u
    for every delta >= 0 and exact at delta = 0; value, grad (its pairing
    gradient, the negative weighted nonlinear Laplacian) and weights (the
    cell weights of its tridiagonal pairing Hessian) are read off one
    object.  Every formula of the energy is written here once: the smoothed
    density, the flux divergence, the Hessian cell weights and, when pf has
    mu > 0, the power perturbation phi + mu/(1+a) phi^(1+a) with its
    gradient factor 1 + mu phi^a.  The cell gradient is taken once, and
    every other quantity is computed on first use and kept, so the value,
    gradient and Hessian at one point share it and one base energy.
    """

    def __init__(
        self, u: np.ndarray, a: DiffusionField, m: float, delta: float,
        mesh: SpatialMesh, pf: PerturbedFunctional | None = None,
    ) -> None:
        if m <= 1.0:
            raise ValueError(f"energy exponent m must exceed 1, got {m}")
        if not delta >= 0.0:
            raise ValueError(f"smoothing delta must be >= 0, got {delta}")
        self.Du = cell_gradient(_require_finite(u, "field"), mesh)
        self.a, self.m, self.delta, self.dx = a.midpoint_values, m, delta, mesh.dx
        self.pf = pf if pf is not None and pf.mu > 0.0 else None

    @cached_property
    def base(self):
        """Unperturbed energy (1/m) sum_cells dx a ((Du)^2 + delta^2)^(m/2)."""
        dens = (self.Du * self.Du + self.delta * self.delta) ** (self.m / 2.0)
        return (self.dx / self.m) * np.sum(self.a * dens, axis=-1)

    @cached_property
    def mu_power(self):
        """mu phi^a per slice of a perturbed energy."""
        return self.pf.mu * np.asarray(self.base) ** self.pf.alpha_exp

    @cached_property
    def value(self):
        if self.pf is None:
            return self.base
        e = 1.0 + self.pf.alpha_exp
        return self.base + self.pf.mu / e * np.asarray(self.base) ** e

    def _scaled(self, x: np.ndarray) -> np.ndarray:
        """x times the gradient factor 1 + mu phi^a of its slice."""
        return x if self.pf is None else np.asarray(1.0 + self.mu_power)[..., None] * x

    @cached_property
    def base_grad(self) -> np.ndarray:
        """Negative discrete weighted nonlinear Laplacian of the base energy."""
        Du, m, delta = self.Du, self.m, self.delta
        if delta == 0.0 and m < 2.0 and np.any(Du == 0.0):
            raise FloatingPointError(
                "zero gradient cell with m < 2 and delta = 0: flux slope is singular"
            )
        if delta > 0.0:
            q = (Du * Du + delta * delta) ** ((m - 2.0) / 2.0) * Du
        else:
            q = np.abs(Du) ** (m - 2.0) * Du if m != 2.0 else Du
        return -np.diff(self.a * q, axis=-1) / self.dx

    @cached_property
    def grad(self) -> np.ndarray:
        return self._scaled(self.base_grad)

    @cached_property
    def weights(self) -> np.ndarray:
        """Cell weights a q'(Du) of the pairing Hessian, scaled by the
        perturbation factor.  The band Jacobian built from them drops the
        perturbation's rank-one term mu a phi^(a-1) dx g g^T, which the step
        halving absorbs; matrix() keeps it.  At m = 2 q' is exactly 1 for any
        delta, so a p = m = 2 stage keeps one band bit for bit from step to
        step."""
        Du, m, delta = self.Du, self.m, self.delta
        if delta > 0.0:
            s2 = Du * Du + delta * delta
            qp = s2 ** ((m - 2.0) / 2.0) * (1.0 + (m - 2.0) * (Du * Du) / s2)
        else:
            qp = (m - 1.0) * np.abs(Du) ** (m - 2.0)
        return self._scaled(self.a * qp)

    def matrix(self) -> np.ndarray:
        """Exact dense (M, M) pairing Hessian of a single slice: the
        tridiagonal matrix of the weights plus, when perturbed, the rank-one
        term mu a phi^(a-1) dx g g^T with g = base_grad.  At phi = 0 g is 0
        and the term is dropped."""
        w = self.weights
        if w.ndim != 1:
            raise ValueError("expected a single slice")
        M = w.size - 1
        H = np.zeros((M, M))
        idx = np.arange(M)
        H[idx, idx] = (w[:-1] + w[1:]) / self.dx**2
        off = -w[1:-1] / self.dx**2
        H[idx[:-1], idx[:-1] + 1] = off
        H[idx[:-1] + 1, idx[:-1]] = off
        if self.pf is not None and self.base > 0.0:
            c = self.pf.alpha_exp * self.mu_power / self.base * self.dx
            H += c * np.outer(self.base_grad, self.base_grad)
        return H


# ---------------------------------------------------------------------------
# duality map


def duality_map(v: np.ndarray, r: float, mesh: SpatialMesh) -> np.ndarray:
    """Duality map of the nodal L^r space: F(v)_i = |v|^(2-r) |v_i|^(r-2) v_i.

    Satisfies <F(v), v> = |v|_r^2 and |F(v)|_{r'} = |v|_r exactly up to
    roundoff; F(0) = 0 by continuity.
    """
    if r <= 1.0:
        raise ValueError(f"exponent r must exceed 1, got {r}")
    v = _require_finite(v, "field")
    nrm = np.asarray(norm_V(v, r, mesh))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(v == 0.0, 0.0, np.abs(v) ** (r - 2.0) * v)
        out = np.where(nrm[..., None] == 0.0, 0.0, nrm[..., None] ** (2.0 - r) * g)
    return out


def _duality_diag(v: np.ndarray, r: float, delta: float, mesh: SpatialMesh) -> np.ndarray:
    """Diagonal of the duality map Jacobian, slicewise, rank-one term dropped.

    Only r < 2 smooths |v|^(r-2) by delta: at r > 2 a smoothed diagonal
    grows like (delta / |v|_r)^(r-2) on a slice far below delta and freezes
    that slice in every Newton step.  A zero slice has no duality block.
    """
    if r == 2.0:
        return np.ones_like(v)
    nrm = np.asarray(norm_V(v, r, mesh))[..., None]
    if r < 2.0:
        slope = (v * v + delta * delta) ** ((r - 2.0) / 2.0)
    else:
        slope = np.abs(v) ** (r - 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(nrm == 0.0, 0.0, (r - 1.0) * nrm ** (2.0 - r) * slope)


def _duality_hessian(
    w: np.ndarray, r: float, delta: float, mesh: SpatialMesh
) -> np.ndarray:
    """Dense Jacobian of the duality map at a single slice.

    Exact for r = 2 (identity).  Otherwise _duality_diag plus the rank-one
    term (2 - r) |w|^(2-2r) dx g g^T, g = |w_i|^(r-2) w_i smoothed as the
    diagonal is.
    """
    d = _duality_diag(w, r, delta, mesh)
    H = np.diag(d)
    nrm = float(norm_V(w, r, mesh))
    if r != 2.0 and nrm > 0.0:
        g = d * w / nrm
        H += (2.0 - r) / (r - 1.0) ** 2 * mesh.dx * np.outer(g, g)
    return H


# ---------------------------------------------------------------------------
# fenchel conjugate of the rate functional


def fenchel_psi_star(xi: np.ndarray, nl: Nonlinearity, mesh: SpatialMesh):
    """Nodal integral of the scalar conjugate: sum_i dx A*(xi_i)."""
    xi = _require_finite(xi, "dual field")
    return mesh.dx * np.sum(nl.conjugate_Astar(xi), axis=-1)


# ---------------------------------------------------------------------------
# Newton's method


# the smallest trial factor of a Newton step, 30 halvings of the full step;
# a step that does not decrease the norm there is given up
_MIN_STEP = 0.5**30


def _newton(
    u: np.ndarray,
    equation: Callable[[np.ndarray], tuple[object, float]],
    tol: float,
    step: Callable[[np.ndarray, object], np.ndarray],
    max_iter: int,
) -> tuple[np.ndarray, list[float], bool, object]:
    """Newton's method that backtracks each step until a residual norm falls.

    equation(v) returns (state, norm): what step needs at v and the dual
    norm of the equation residual there.  v solves the equation once that
    norm is at most tol, an absolute bound: any scale is the caller's.
    step(v, state) is the Newton step at v; it raises LinAlgError when its
    linear system is singular, and a MemoryError is a system too large to
    allocate, a step that cannot be taken either.  Every step is tried
    in full, then at factors that halve, or fall faster where the trial
    norm grows like a power of the factor, down to _MIN_STEP, until the
    norm falls.  Stops on convergence, after
    max_iter steps, or when a step is singular, cannot be allocated, is
    non-finite or cannot decrease the norm.  Returns the last iterate, the
    norm at the start and after every step, whether it converged, and the
    state of the last iterate.
    """
    state, res = equation(u)
    history = [res]
    while True:
        if res <= tol:
            return u, history, True, state
        if len(history) > max_iter:
            break
        try:
            d = step(u, state)
        except (np.linalg.LinAlgError, MemoryError):
            break
        if not np.all(np.isfinite(d)):
            break
        t, last, last_res = 1.0, math.inf, math.inf
        while True:
            trial = u + t * d
            state_t, res_t = equation(trial)
            if res_t < res or t == _MIN_STEP:
                break
            nxt = 0.5 * t
            # Far from a root (from u = 0, where the smoothed Hessians almost
            # vanish) the full step can be millions of times too long.  Finite
            # norms at 2t and t with res(2t) >= 2 res(t) fix the power law
            # res(s) = res(t) (s/t)^q, q = log2(res(2t) / res(t)): go straight
            # to where it meets res.  A NaN or infinite norm halves.
            if last == 2.0 * t and math.isfinite(last_res) and last_res >= 2.0 * res_t:
                q = math.log2(last_res / res_t)
                nxt = min(nxt, t * (res / res_t) ** (1.0 / q))
            last, last_res, t = t, res_t, max(nxt, _MIN_STEP)
        if not res_t < res:
            break
        u, state, res = trial, state_t, res_t
        history.append(res)
    return u, history, False, state


# ---------------------------------------------------------------------------
# proximal smoothing


def _prox_newton(
    center: np.ndarray,
    lam: float,
    pf: PerturbedFunctional | None,
    wstar: np.ndarray | float,
    prob: ProblemSpec,
    delta: float,
    tol: float,
) -> tuple[np.ndarray, float, bool]:
    """Newton on the slice equation F(v - center)/lam + grad phi(v) = wstar.

    phi is the energy of prob at smoothing delta, perturbed by pf when given,
    and F the duality map of its nodal L^p space.  The dense Jacobian is
    exact: the duality block with its rank-one term plus phi's pairing
    Hessian.  Newton starts from a copy of center.  Returns the last
    iterate, the dual norm of the residual there and whether that norm is
    at most tol.
    """
    mesh, p, pc = prob.smesh, prob.p, prob.p_conj

    def equation(v: np.ndarray) -> tuple[tuple, float]:
        phi = PhiAt(v, prob.a, prob.m, delta, mesh, pf)
        R = duality_map(v - center, p, mesh) / lam + phi.grad - wstar
        return (R, phi), float(norm_V(R, pc, mesh))

    def step(v: np.ndarray, state: tuple) -> np.ndarray:
        R, phi = state
        H = _duality_hessian(v - center, p, delta, mesh) / lam
        return np.linalg.solve(H + phi.matrix(), -R)

    v0 = np.array(center, dtype=float)  # the result never aliases the caller's array
    v, history, converged, _ = _newton(v0, equation, tol, step, 200)
    return v, history[-1], converged


def moreau_yosida(
    u: np.ndarray, lam: float, prob: ProblemSpec, delta: float, tol: float = 1e-10
) -> tuple[np.ndarray, float, np.ndarray]:
    """Resolvent, envelope value, and envelope gradient at parameter lam > 0.

    Solves argmin_v |u - v|^2_V / (2 lam) + phi(v) for the energy phi of
    prob at smoothing delta and V its nodal L^p space, by Newton from v = u,
    and returns (J, envelope, envelope gradient -F(J - u)/lam).  The
    sandwich phi(J) <= envelope <= phi(u) holds up to the solve tolerance.
    """
    if lam <= 0.0:
        raise ValueError(f"envelope parameter must be positive, got {lam}")
    u = _require_finite(u, "field")
    mesh, p = prob.smesh, prob.p
    scale = max(1.0, float(norm_V(u, p, mesh)) / lam)
    J, res, converged = _prox_newton(u, lam, None, 0.0, prob, delta, tol * scale)
    if not converged:
        raise RuntimeError(
            f"proximal solve stalled with stationarity residual {res:.3e}"
        )
    phi = PhiAt(J, prob.a, prob.m, delta, mesh)
    envelope = float(0.5 * norm_V(u - J, p, mesh) ** 2 / lam + phi.value)
    yosida = -duality_map(J - u, p, mesh) / lam
    return J, envelope, yosida


def resolvent_phi_power(
    w: np.ndarray,
    wstar: np.ndarray,
    pf: PerturbedFunctional,
    prob: ProblemSpec,
    delta: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve F(u - w) + (1 + mu phi^a(u)) grad phi(u) = w* by Newton from u = w.

    phi is the energy of prob at smoothing delta and F the duality map of
    its nodal L^p space.  The equation is the stationarity condition of the
    strictly convex |u - w|^2_V / 2 + phi + mu/(1+a) phi^(1+a) - <w*, u>.
    One Newton solve with the equation's exact dense Jacobian solves it once
    the residual's dual norm is at most tol * max(1, |w*|); a solve that
    stops short raises RuntimeError.
    """
    w = _require_finite(w, "field")
    wstar = _require_finite(wstar, "dual field")
    tol *= max(1.0, float(norm_V(wstar, prob.p_conj, prob.smesh)))
    u, res, converged = _prox_newton(w, 1.0, pf, wstar, prob, delta, tol)
    if not converged:
        raise RuntimeError(f"resolvent solve stalled with residual {res:.3e}")
    return u
