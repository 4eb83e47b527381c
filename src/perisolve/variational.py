"""Space-time objective for the regularized periodic problem and its solver.

One periodic stage fixes the total forcing (given forcing plus dual update)
and minimizes, over periodic trajectories, the strictly convex functional

    sum_n dt [ eps Psi(du_n) + eps Psi(u_n) + Phi(u_n)
               + (eps/2) |u_n|_V^2 - <(f+h)_n, u_n> ]

where du is the backward difference with periodic wrap, Psi the nodal
primitive integral, and Phi the smoothed (possibly power-perturbed)
gradient energy.  The gradient slice reproduces the discrete Euler
equation, so stationarity equals solving the stage system.

The minimizer runs the damped Newton descent of convexcore on the flattened
trajectory with the cyclic block-tridiagonal Hessian in banded storage, one
banded Cholesky solve per step, Armijo backtracking on the exact objective,
and a steepest-descent fallback.

A fixed point stage ties the dual forcing to the rate, h = -alpha(du), and
newton_fixed_point solves the resulting stage equation directly: its
Jacobian is the stage band plus the backward-difference block of alpha,
which keeps the half-bandwidth N but is no longer symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from . import convexcore as cc
from .convexcore import MinimizerReport
from .discretize import (
    ProblemSpec,
    dual_bochner_norm,
    norm_V,
    pairing,
    time_derivative,
    validate_trajectory,
)

__all__ = [
    "ObjectiveConfig",
    "MinimizerReport",
    "minimize",
    "newton_fixed_point",
    "residual_AP",
]


@dataclass
class ObjectiveConfig:
    """Frozen data of one periodic stage minimization.

    f_plus_h is the combined forcing trajectory of shape (N, M).  epsilon
    may be zero, which drops the time coupling and the lower-order terms and
    decouples the slices.
    """

    prob: ProblemSpec
    epsilon: float
    f_plus_h: np.ndarray
    delta: float
    pf: cc.PerturbedFunctional | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0.0 <= self.delta < math.inf):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        self.f_plus_h = validate_trajectory(
            self.f_plus_h, self.prob.smesh, self.prob.tmesh, "combined forcing"
        )


def _duality_diag(u: np.ndarray, p: float, delta: float, smesh) -> np.ndarray:
    """Diagonal part of the duality map Jacobian, slicewise, rank-one dropped.

    Only p < 2 smooths |u|^(p-2) by delta: at p > 2 a smoothed diagonal
    grows like (delta / |u|_V)^(p-2) on a slice far below delta and freezes
    that slice in every Newton step.
    """
    if p == 2.0:
        return np.ones_like(u)
    nrm = np.asarray(norm_V(u, p, smesh))
    nrm = np.maximum(nrm, 1e-150)
    if p < 2.0:
        slope = (u * u + delta * delta) ** ((p - 2.0) / 2.0)
    else:
        slope = np.abs(u) ** (p - 2.0)
    return (p - 1.0) * nrm[..., None] ** (2.0 - p) * slope


class _Stage:
    """Value, slice residual and band Hessian of one stage objective.

    All three read one evaluation of the trajectory they are given: du, Du
    and, through the energy, the base energy per slice and the perturbation
    factor.  It is kept for the last trajectory object asked about: the
    damped Newton descent asks for all three at one iterate, and a
    line-search trial computes only what the value needs.
    """

    def __init__(self, ocfg: ObjectiveConfig) -> None:
        self.ocfg = ocfg
        self._u = None

    def _at(self, u: np.ndarray) -> tuple[np.ndarray | None, cc._PhiAt]:
        if u is not self._u:
            ocfg, prob = self.ocfg, self.ocfg.prob
            self._u = u
            self._du = time_derivative(u, prob.tmesh) if ocfg.epsilon > 0.0 else None
            self._phi = cc._PhiAt(
                u, prob.a, prob.m, ocfg.delta, prob.smesh, ocfg.pf
            )
        return self._du, self._phi

    def value(self, u: np.ndarray) -> float:
        """Value of the stage objective at a periodic trajectory."""
        prob, eps = self.ocfg.prob, self.ocfg.epsilon
        du, phi = self._at(u)
        total = float(np.sum(phi.value))
        total -= float(np.sum(pairing(self.ocfg.f_plus_h, u, prob.smesh)))
        if eps > 0.0:
            total += eps * float(np.sum(cc.eval_psi(du, prob.nl, prob.smesh)))
            total += eps * float(np.sum(cc.eval_psi(u, prob.nl, prob.smesh)))
            total += 0.5 * eps * float(np.sum(norm_V(u, prob.p, prob.smesh) ** 2))
        return prob.tmesh.dt * total

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Stage equation residual per slice: the objective gradient over dt."""
        prob, eps = self.ocfg.prob, self.ocfg.epsilon
        du, phi = self._at(u)
        R = phi.grad - self.ocfg.f_plus_h
        if eps > 0.0:
            xi = prob.nl.alpha_eval(du)
            R = R + eps * (xi - np.roll(xi, -1, axis=0)) / prob.tmesh.dt
            R = R + eps * prob.nl.alpha_eval(u)
            R = R + eps * cc.duality_map(u, prob.p, prob.smesh)
        return R

    def hessian(self, u: np.ndarray) -> np.ndarray:
        """Jacobian of the slice residual (symmetric) in LAPACK lower band storage.

        The unknown at time node n and spatial node i sits at i*N + n, so the
        cyclic block-tridiagonal matrix is banded with half-bandwidth N.  Band
        row 0 holds the main diagonal, row 1 the coupling of time nodes n-1
        and n, row N-1 the periodic wrap from node N-1 back to node 0, and row
        N the spatial off-diagonal.  At N = 2 rows 1 and N-1 coincide and the
        two time couplings add.
        """
        prob, eps, delta = self.ocfg.prob, self.ocfg.epsilon, self.ocfg.delta
        N, M = u.shape
        dt, dx = prob.tmesh.dt, prob.smesh.dx
        du, phi = self._at(u)
        w = phi.weights
        H = np.zeros((N + 1, N * M))
        main = (w[:, :-1] + w[:, 1:]) / dx**2
        if eps > 0.0:
            c = eps * prob.nl.alpha_derivative(du, delta) / dt**2
            main = main + c + np.roll(c, -1, axis=0)
            main = main + eps * prob.nl.alpha_derivative(u, delta)
            main = main + eps * _duality_diag(u, prob.p, delta, prob.smesh)
            H[1].reshape(M, N)[:, :-1] = -c[1:].T
            H[N - 1].reshape(M, N)[:, 0] -= c[0]
        H[0] = main.T.ravel()
        H[N, : N * (M - 1)] = (-w[:, 1:-1] / dx**2).T.ravel()
        return H


def _shifted_band_solve(H: np.ndarray, rhs: np.ndarray, shift: float) -> np.ndarray:
    """Solve (H + shift I) x = rhs by banded Cholesky; rhs and x time-major.

    An indefinite or non-finite H gives LinAlgError or a non-finite x, which
    the Newton driver's shift ladder catches.
    """
    N = H.shape[0] - 1
    Hs = np.concatenate((H[:1] + shift, H[1:]))
    b = rhs.reshape(N, -1).T.ravel()
    x = solveh_banded(Hs, b, overwrite_ab=True, lower=True, check_finite=False)
    return x.reshape(-1, N).T.ravel()


def minimize(
    u0: np.ndarray,
    ocfg: ObjectiveConfig,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> tuple[np.ndarray, MinimizerReport]:
    """Newton descent to stationarity of the stage objective.

    Stops when the Bochner dual norm of the slice residual drops below
    tol * max(1, |f+h| in the same norm).  Returns the trajectory and a
    report; a non-converged report is returned rather than raising so the
    caller can decide.
    """
    prob = ocfg.prob
    u = validate_trajectory(u0, prob.smesh, prob.tmesh, "initial trajectory").copy()
    smesh, dt = prob.smesh, prob.tmesh.dt
    scale = max(1.0, dual_bochner_norm(ocfg.f_plus_h, prob))
    stage = _Stage(ocfg)
    return cc._damped_newton(
        u,
        stage.value,
        stage.residual,
        stage.hessian,
        lambda H: H[0],
        _shifted_band_solve,
        lambda R: dual_bochner_norm(R, prob),
        lambda A, B: dt * float(np.sum(pairing(A, B, smesh))),
        tol * scale,
        max_iter,
    )


def _fixed_point_band(H: np.ndarray, slope: np.ndarray, dt: float) -> np.ndarray:
    """The symmetric lower band H plus the Jacobian of alpha(du), in general
    band storage with l = u = N for solve_banded.

    slope is alpha'(du) per slice.  Row (n, i) of alpha(du) depends on u_n
    with weight slope/dt and on u_(n-1) with -slope/dt: the sub-diagonal for
    n > 0, and for n = 0 the periodic wrap to node N-1, N-1 columns right.
    """
    N, D = H.shape[0] - 1, H.shape[1]
    ab = np.zeros((2 * N + 1, D))
    ab[N] = H[0]
    for k in range(1, N + 1):
        ab[N + k, : D - k] = ab[N - k, k:] = H[k, : D - k]
    c = slope.T / dt
    ab[N] += c.ravel()
    ab[N + 1].reshape(-1, N)[:, :-1] -= c[:, 1:]
    ab[1].reshape(-1, N)[:, -1] -= c[:, 0]
    return ab


def newton_fixed_point(
    u0: np.ndarray, ocfg: ObjectiveConfig, tol: float, max_iter: int
) -> tuple[np.ndarray, list[float]]:
    """Newton on the stage equation at the dual forcing h = -alpha(du).

    ocfg carries the problem's forcing f in f_plus_h, so the equation is
    F(u) = R(u) + alpha(du) = 0 with R the stage residual at h = 0.  Every
    step backtracks until the Bochner dual norm of F falls.  Stops when
    that norm is at most tol * max(1, |f - alpha(du)|), the stationarity
    test of the stage minimization at h; after max_iter steps; or when a
    step is singular, non-finite or cannot decrease the norm.  Returns the
    last iterate and the norm of F at the start and after every step.
    """
    prob, delta = ocfg.prob, ocfg.delta
    tmesh, nl = prob.tmesh, prob.nl
    u = validate_trajectory(u0, prob.smesh, tmesh, "initial trajectory")
    N, M = u.shape
    stage = _Stage(ocfg)

    def equation(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        dv = time_derivative(v, tmesh)
        F = stage.residual(v) + nl.alpha_eval(dv)
        return F, dv, dual_bochner_norm(F, prob)

    F, du, res = equation(u)
    history = [res]
    for _ in range(max_iter):
        scale = max(1.0, dual_bochner_norm(ocfg.f_plus_h - nl.alpha_eval(du), prob))
        if res <= tol * scale:
            break
        slope = nl.alpha_derivative(du, delta)
        ab = _fixed_point_band(stage.hessian(u), slope, tmesh.dt)
        try:
            x = solve_banded(
                (N, N), ab, -F.T.ravel(), overwrite_ab=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(x)):
            break
        step = x.reshape(M, N).T
        for k in range(31):
            trial = u + 0.5**k * step
            F_t, du_t, res_t = equation(trial)
            if res_t < res:
                break
        else:
            break
        u, F, du, res = trial, F_t, du_t, res_t
        history.append(res)
    return u, history


def residual_AP(
    u: np.ndarray,
    prob: ProblemSpec,
    delta: float = 0.0,
    pf: cc.PerturbedFunctional | None = None,
) -> float:
    """Bochner dual norm of the unregularized equation residual.

    Measures alpha(du) + eta - f with eta the (possibly perturbed) energy
    gradient at smoothing delta, in the p'-in-time V*-in-space norm.
    """
    u = validate_trajectory(u, prob.smesh, prob.tmesh, "trajectory")
    du = time_derivative(u, prob.tmesh)
    eta = cc._PhiAt(u, prob.a, prob.m, delta, prob.smesh, pf).grad
    R = prob.nl.alpha_eval(du) + eta - prob.f
    return dual_bochner_norm(R, prob)
