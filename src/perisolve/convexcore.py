"""Scalar nonlinearities and the discrete convex-analysis toolkit.

Houses the rate nonlinearity (a nondecreasing scalar map with its primitive
and conjugate), the cellwise diffusion coefficient, gradient-energy
functionals and their gradients, duality maps of the nodal L^r spaces,
proximal smoothing (envelope, resolvent, Yosida gradient), the
power-perturbed energy used on the hard exponent branch, and the damped
Newton descent of the single-slice proximal problems.

Gradients are always understood against the pairing <xi, u> = sum_i dx xi_i u_i,
so a "dual field" returned here pairs with increments through that weighted
sum.  All operations are pure functions; every value object is immutable
after construction and safe to share across concurrent solves.

Field arguments accept a single slice of shape (M,) or a stack (..., M); the
math is applied along the last axis and scalar outputs become arrays over the
leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .discretize import SpatialMesh, cell_gradient, norm_V, norm_Vstar, pairing

__all__ = [
    "Nonlinearity",
    "DiffusionField",
    "PerturbedFunctional",
    "PhiConfig",
    "eval_psi",
    "eval_phi",
    "grad_phi",
    "phi_hessian_cell_weights",
    "duality_map",
    "moreau_yosida",
    "fenchel_psi_star",
    "resolvent_phi_power",
    "phi_value",
    "phi_grad",
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

    Three kinds are supported: "power" (alpha(s) = |s|^(p-2) s, everything in
    closed form), "piecewise_linear" (knot list, exact segment integrals and
    conjugate), and "custom_tabulated" (same machinery, data read from a
    two-column file).  Piecewise kinds extend beyond their end knots with
    the end segment slopes; at a knot the derivative takes the left
    segment's slope, a single-valued selection.

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
        if kind not in ("power", "piecewise_linear", "custom_tabulated"):
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
    def custom_tabulated(
        cls, s_values, alpha_values, p_exponent: float = 2.0
    ) -> "Nonlinearity":
        return cls(
            "custom_tabulated",
            p_exponent,
            np.asarray(s_values, dtype=float),
            np.asarray(alpha_values, dtype=float),
        )

    @classmethod
    def from_csv(cls, path: str, p_exponent: float = 2.0) -> "Nonlinearity":
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls.custom_tabulated(data[:, 0], data[:, 1], p_exponent)

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

        For piecewise kinds the supremum is attained where alpha(s*) = xi:
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
        """Slope of alpha, smoothed near 0 for power kinds when delta > 0."""
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
    """Cellwise diffusion coefficient with uniform positive bounds."""

    midpoint_values: np.ndarray
    lower_bound: float
    upper_bound: float

    def __post_init__(self) -> None:
        vals = _require_finite(self.midpoint_values, "diffusion values")
        object.__setattr__(self, "midpoint_values", vals)
        if not self.lower_bound > 0.0:
            raise ValueError(f"lower bound must be positive, got {self.lower_bound}")
        slack = 1e-12 * max(1.0, self.upper_bound)
        if np.any(vals < self.lower_bound - slack) or np.any(
            vals > self.upper_bound + slack
        ):
            raise ValueError("diffusion values violate the stated bounds")

    @classmethod
    def constant(cls, value: float, smesh: SpatialMesh) -> "DiffusionField":
        vals = np.full(smesh.interior_count + 1, float(value))
        return cls(vals, float(value), float(value))


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


@dataclass(frozen=True)
class PhiConfig:
    """Everything needed to evaluate the gradient energy on a mesh.

    Bundles the diffusion field, energy exponent m, gradient smoothing delta,
    the mesh, the state-norm exponent p (for duality maps and prox metrics),
    and an optional power perturbation applied on top of the base energy.
    """

    a: DiffusionField
    m: float
    delta: float
    smesh: SpatialMesh
    p: float = 2.0
    pf: PerturbedFunctional | None = None

    def __post_init__(self) -> None:
        if self.m <= 1.0:
            raise ValueError(f"energy exponent m must exceed 1, got {self.m}")
        if self.delta < 0.0:
            raise ValueError(f"smoothing delta must be >= 0, got {self.delta}")
        if self.p <= 1.0:
            raise ValueError(f"norm exponent p must exceed 1, got {self.p}")

    def without_perturbation(self) -> "PhiConfig":
        return replace(self, pf=None) if self.pf is not None else self


# ---------------------------------------------------------------------------
# integral functionals and gradients


def eval_psi(u: np.ndarray, nl: Nonlinearity, mesh: SpatialMesh):
    """Nodal integral of the primitive: sum_i dx A(u_i). Convex in u."""
    u = _require_finite(u, "field")
    return mesh.dx * np.sum(nl.primitive_A(u), axis=-1)


class _PhiAt:
    """The gradient energy at one field u, over the last axis.

    Every formula of the energy is written here once: the smoothed density,
    the flux divergence, the Hessian cell weights and, when pf has mu > 0,
    the power perturbation phi + mu/(1+a) phi^(1+a) with its gradient factor
    1 + mu phi^a.  The cell gradient is taken once, and every other quantity
    is computed on first use and kept, so the value, gradient and Hessian at
    one point share it and one base energy.
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
        perturbation factor.  The perturbation's rank-one term
        mu a phi^(a-1) g g^T is dropped, which the line searches absorb.
        At m = 2 q' is exactly 1 for any delta, so a p = m = 2 stage keeps
        one band bit for bit from step to step."""
        Du, m, delta = self.Du, self.m, self.delta
        if delta > 0.0:
            s2 = Du * Du + delta * delta
            qp = s2 ** ((m - 2.0) / 2.0) * (1.0 + (m - 2.0) * (Du * Du) / s2)
        else:
            qp = (m - 1.0) * np.abs(Du) ** (m - 2.0)
        return self._scaled(self.a * qp)

    def matrix(self) -> np.ndarray:
        """Dense (M, M) pairing Hessian of a single slice from the weights."""
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
        return H


def eval_phi(
    u: np.ndarray, a: DiffusionField, m: float, delta: float, mesh: SpatialMesh
):
    """Smoothed gradient energy (1/m) sum_cells dx a ((Du)^2 + delta^2)^(m/2).

    delta = 0 gives the exact discrete functional.  Convex in u for every
    delta >= 0.
    """
    return _PhiAt(u, a, m, delta, mesh).base


def grad_phi(
    u: np.ndarray, a: DiffusionField, m: float, delta: float, mesh: SpatialMesh
) -> np.ndarray:
    """Negative discrete weighted nonlinear Laplacian; the pairing gradient
    of eval_phi at the same delta."""
    return _PhiAt(u, a, m, delta, mesh).grad


def phi_hessian_cell_weights(
    u: np.ndarray, a: DiffusionField, m: float, delta: float, mesh: SpatialMesh
) -> np.ndarray:
    """Cell weights a * q'(Du) of the energy Hessian, shape (..., M+1).

    The (pairing) Hessian is tridiagonal: diag (w_k + w_{k+1})/dx^2 and
    off-diagonal -w_{k+1}/dx^2.
    """
    return _PhiAt(u, a, m, delta, mesh).weights


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
# energy of a configuration


def phi_value(u: np.ndarray, cfg: PhiConfig):
    return _PhiAt(u, cfg.a, cfg.m, cfg.delta, cfg.smesh, cfg.pf).value


def phi_grad(u: np.ndarray, cfg: PhiConfig) -> np.ndarray:
    return _PhiAt(u, cfg.a, cfg.m, cfg.delta, cfg.smesh, cfg.pf).grad


# ---------------------------------------------------------------------------
# fenchel conjugate of the rate functional


def fenchel_psi_star(xi: np.ndarray, nl: Nonlinearity, mesh: SpatialMesh):
    """Nodal integral of the scalar conjugate: sum_i dx A*(xi_i)."""
    xi = _require_finite(xi, "dual field")
    return mesh.dx * np.sum(nl.conjugate_Astar(xi), axis=-1)


# ---------------------------------------------------------------------------
# damped Newton descent (slice proximal problems)


def _damped_newton(
    u: np.ndarray,
    value: Callable[[np.ndarray], float],
    residual: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    dual_norm: Callable[[np.ndarray], float],
    pair: Callable[[np.ndarray, np.ndarray], float],
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float]:
    """Damped Newton descent of a convex functional of one slice.

    residual(u) is the gradient R of value against pair, and hessian(u) its
    (approximate) dense Jacobian H.  A Levenberg shift climbs a six-rung
    ladder from 1e-8 of the mean diagonal until the solve gives a finite
    descent direction; with no such rung the step is steepest descent.
    Armijo backtracking on the exact value guards every step, and a Newton
    direction that fails it is retried along -R.  Once the predicted
    decrease drops below float64 value noise the Armijo test is blind and
    acceptance falls back to a strict residual decrease.  Stops at
    dual_norm(R) <= tol, after max_iter steps, or when no step is accepted;
    returns the last iterate and dual_norm(R) there, so the caller reads
    convergence off the norm.
    """
    fv = value(u)
    R = residual(u)
    res = dual_norm(R)
    for _ in range(max_iter):
        if res <= tol:
            break
        H = hessian(u)
        g = R.ravel()
        step = None
        shift = 0.0
        diag_mean = max(float(np.diag(H).mean()), 1e-12)
        for _ in range(6):
            try:
                cand = np.linalg.solve(H + shift * np.eye(H.shape[0]), -g)
            except np.linalg.LinAlgError:
                cand = None
            if (
                cand is not None
                and np.all(np.isfinite(cand))
                and float(cand @ g) < 0.0
            ):
                step = cand.reshape(u.shape)
                break
            shift = diag_mean * 1e-8 if shift == 0.0 else shift * 100.0
        newton_ok = step is not None
        if not newton_ok:
            step = -R
        accepted = False
        updated = False
        # Below this, objective differences drown in float64 roundoff and the
        # Armijo test becomes meaningless; fall back to residual decrease.
        noise = 64.0 * np.finfo(float).eps * (abs(fv) + 1.0)
        for direction in (step, -R) if newton_ok else (step,):
            slope = pair(R, direction)
            blind = 1e-4 * abs(slope) <= noise
            if slope >= 0.0 and not blind:
                continue
            t = 1.0
            res_tries = 0
            while t > 1e-16 and res_tries < 3:
                trial = u + t * direction
                ft = value(trial)
                if not blind and ft <= fv + 1e-4 * t * slope:
                    u, fv = trial, ft
                    accepted = True
                    break
                if blind or 1e-4 * t * abs(slope) <= noise:
                    res_tries += 1
                    Rt = residual(trial)
                    rt = dual_norm(Rt)
                    if rt < res:
                        u, fv = trial, ft
                        R, res = Rt, rt
                        updated = True
                        accepted = True
                        break
                t *= 0.5
            if accepted:
                break
        if not accepted:
            break
        if not updated:
            R = residual(u)
            res = dual_norm(R)
    return u, res


# ---------------------------------------------------------------------------
# proximal smoothing


def moreau_yosida(
    u: np.ndarray,
    lam: float,
    cfg: PhiConfig,
    tol: float = 1e-10,
    max_iter: int = 200,
    v0: np.ndarray | None = None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Resolvent, envelope value, and envelope gradient at parameter lam > 0.

    Solves argmin_v |u - v|^2_V / (2 lam) + phi(v), returns (J, envelope,
    envelope gradient -F(J - u)/lam).  The sandwich phi(J) <= envelope <=
    phi(u) holds up to the inner solve tolerance.
    """
    if lam <= 0.0:
        raise ValueError(f"envelope parameter must be positive, got {lam}")
    u = _require_finite(u, "field")
    mesh, p = cfg.smesh, cfg.p
    pc = p / (p - 1.0)

    def value(v: np.ndarray) -> float:
        return float(
            0.5 * norm_V(u - v, p, mesh) ** 2 / lam + phi_value(v, cfg)
        )

    def grad(v: np.ndarray) -> np.ndarray:
        return duality_map(v - u, p, mesh) / lam + phi_grad(v, cfg)

    def hess(v: np.ndarray) -> np.ndarray:
        phi = _PhiAt(v, cfg.a, cfg.m, cfg.delta, mesh, cfg.pf)
        return _duality_hessian(v - u, p, cfg.delta, mesh) / lam + phi.matrix()

    scale = max(1.0, float(norm_V(u, p, mesh)) / lam)
    start = u if v0 is None else v0
    J, res = _damped_newton(
        np.array(start, dtype=float), value, grad, hess,
        lambda g: float(norm_Vstar(g, pc, mesh)),
        lambda a, b: float(pairing(a, b, mesh)),
        tol * scale, max_iter,
    )
    if res > tol * scale:
        raise RuntimeError(
            f"proximal solve stalled with stationarity residual {res:.3e}"
        )
    envelope = value(J)
    yosida = -duality_map(J - u, p, mesh) / lam
    return J, envelope, yosida


def resolvent_phi_power(
    w: np.ndarray,
    wstar: np.ndarray,
    pf: PerturbedFunctional,
    cfg: PhiConfig,
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve F(u - w) + (1 + mu phi^a(u)) grad_phi(u) = w* by scalar bisection.

    The auxiliary problem with frozen factor (1 + lam) is a convex
    minimization; the map lam -> mu phi^a(u_lam) is nonincreasing, so
    g(lam) = mu phi^a(u_lam) - lam brackets its root on [0, mu phi^a(u_0)]
    and bisection drives the combined equation residual below tol.
    """
    w = _require_finite(w, "field")
    wstar = _require_finite(wstar, "dual field")
    base_cfg = cfg.without_perturbation()
    mesh, p = cfg.smesh, cfg.p
    pc = p / (p - 1.0)
    inner_tol = 0.1 * tol * max(1.0, float(norm_Vstar(wstar, pc, mesh)))

    def solve_aux(lam: float, v0: np.ndarray) -> np.ndarray:
        def value(v):
            return float(
                0.5 * norm_V(v - w, p, mesh) ** 2
                + (1.0 + lam) * phi_value(v, base_cfg)
                - pairing(wstar, v, mesh)
            )

        def grad(v):
            return (
                duality_map(v - w, p, mesh)
                + (1.0 + lam) * phi_grad(v, base_cfg)
                - wstar
            )

        def hess(v):
            H = _PhiAt(v, cfg.a, cfg.m, cfg.delta, mesh).matrix()
            return _duality_hessian(v - w, p, cfg.delta, mesh) + (1.0 + lam) * H

        u, res = _damped_newton(
            np.array(v0, dtype=float), value, grad, hess,
            lambda g: float(norm_Vstar(g, pc, mesh)),
            lambda a, b: float(pairing(a, b, mesh)),
            inner_tol, 200,
        )
        if res > inner_tol:
            raise RuntimeError(
                f"auxiliary solve at lam={lam:.3e} stalled, residual {res:.3e}"
            )
        return u

    def mu_phi_pow(u: np.ndarray) -> float:
        return float(_PhiAt(u, cfg.a, cfg.m, cfg.delta, mesh, pf).mu_power)

    def equation_residual(u: np.ndarray) -> float:
        eta = _PhiAt(u, cfg.a, cfg.m, cfg.delta, mesh, pf).grad
        lhs = duality_map(u - w, p, mesh) + eta - wstar
        return float(norm_Vstar(lhs, pc, mesh))

    u_lo = solve_aux(0.0, w)
    if pf.mu == 0.0:
        return u_lo
    g_lo = mu_phi_pow(u_lo)
    if g_lo < -10.0 * inner_tol:
        raise RuntimeError(
            f"bracket violation: mu phi^a at lam=0 evaluated to {g_lo:.3e} < 0"
        )
    scale = max(1.0, float(norm_Vstar(wstar, pc, mesh)))
    if equation_residual(u_lo) <= tol * scale:
        return u_lo
    lo, hi = 0.0, g_lo
    u_hi = solve_aux(hi, u_lo)
    g_hi = mu_phi_pow(u_hi) - hi
    expand = 0
    while g_hi > 0.0 and expand < 60:
        # monotonicity makes this bracket sufficient; expansion only mops up
        # inner-solve noise
        lo, u_lo = hi, u_hi
        hi *= 2.0
        u_hi = solve_aux(hi, u_hi)
        g_hi = mu_phi_pow(u_hi) - hi
        expand += 1
    u_best, best_res = u_hi, equation_residual(u_hi)
    for _ in range(200):
        if best_res <= tol * scale:
            break
        mid = 0.5 * (lo + hi)
        u_mid = solve_aux(mid, u_best)
        g_mid = mu_phi_pow(u_mid) - mid
        res_mid = equation_residual(u_mid)
        if res_mid < best_res:
            u_best, best_res = u_mid, res_mid
        if g_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    if best_res > tol * scale:
        raise RuntimeError(
            f"resolvent bisection stalled with residual {best_res:.3e}"
        )
    return u_best
