"""Stage equation of the regularized periodic problem and its Newton solver.

One periodic stage at parameter eps has the slice residual

    R(u)_n = grad Phi(u_n) - f_n + eps [ (xi_n - xi_(n+1)) / dt
                                         + alpha(u_n) + F_p(u_n) ]

with xi = alpha(du), du the backward difference with periodic wrap, Phi the
smoothed (possibly power-perturbed) gradient energy and F_p the duality map
of the nodal L^p space.  It is the gradient, over dt, of a strictly convex
space-time functional.  Its Jacobian is the cyclic block-tridiagonal band
read from the same evaluation of u.

A fixed point stage ties the dual forcing to the rate, h = -alpha(du), so
the stage equation becomes F(u) = R(u) + alpha(du) = 0, which
newton_fixed_point solves directly: its Jacobian is the stage band plus the
backward-difference block of alpha, which keeps the half-bandwidth N but is
no longer symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import convexcore as cc
from .discretize import (
    ProblemSpec,
    dual_bochner_norm,
    time_derivative,
    validate_trajectory,
)

__all__ = [
    "ObjectiveConfig",
    "newton_fixed_point",
    "residual_AP",
]


@dataclass
class ObjectiveConfig:
    """Frozen data of one periodic stage equation; the forcing is prob.f.

    epsilon may be zero, which drops the time coupling and the lower-order
    terms of R; F keeps the coupling through alpha(du).
    """

    prob: ProblemSpec
    epsilon: float
    delta: float
    pf: cc.PerturbedFunctional | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0.0 <= self.delta < math.inf):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")


class _Stage:
    """Slice residual and band Jacobian of one stage equation.

    Both read one evaluation of the trajectory they are given: du, Du and,
    through the energy, the base energy per slice and the perturbation
    factor.  It is kept for the last trajectory object asked about, so a
    Newton step reads the residual and the band at one iterate from it.
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

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Stage equation residual per slice at h = 0."""
        prob, eps = self.ocfg.prob, self.ocfg.epsilon
        du, phi = self._at(u)
        R = phi.grad - prob.f
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
            main = main + eps * cc._duality_diag(u, prob.p, delta, prob.smesh)
            H[1].reshape(M, N)[:, :-1] = -c[1:].T
            H[N - 1].reshape(M, N)[:, 0] -= c[0]
        H[0] = main.T.ravel()
        H[N, : N * (M - 1)] = (-w[:, 1:-1] / dx**2).T.ravel()
        return H


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
) -> tuple[np.ndarray, list[float], bool]:
    """Newton on the stage equation at the dual forcing h = -alpha(du).

    The equation is F(u) = R(u) + alpha(du) = 0 with R the stage residual
    at h = 0.  Every step backtracks until the Bochner dual norm of F falls.
    Converged when that norm is at most tol * max(1, |f - alpha(du)|);
    otherwise it stops after max_iter steps, or when a step is singular,
    non-finite or cannot decrease the norm.  Returns the last iterate, the
    norm of F at the start and after every step, and whether it converged.
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
    while True:
        scale = max(1.0, dual_bochner_norm(prob.f - nl.alpha_eval(du), prob))
        if res <= tol * scale:
            return u, history, True
        if len(history) > max_iter:
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
    return u, history, False


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
