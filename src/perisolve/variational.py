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
no longer symmetric.  _Stage.write_band writes that Jacobian straight into
the band storage of LAPACK's dgbsv, one Fortran-ordered workspace per solve,
and every Newton step factors and solves it there in place; the Newton loop
itself is convexcore's, the one the slice proximal solves run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv

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

    Both read one evaluation of the trajectory they are given: du, its rate
    xi = alpha(du), Du and, through the energy, the base energy per slice
    and the perturbation factor.  It is kept for the last trajectory object
    asked about, so a Newton step reads the residual, its tolerance and the
    band at one iterate from it.
    """

    def __init__(self, ocfg: ObjectiveConfig) -> None:
        self.ocfg = ocfg
        self._u = None

    def _at(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, cc.PhiAt]:
        if u is not self._u:
            ocfg, prob = self.ocfg, self.ocfg.prob
            self._u = u
            self._du = time_derivative(u, prob.tmesh)
            self._xi = prob.nl.alpha_eval(self._du)
            self._phi = cc.PhiAt(
                u, prob.a, prob.m, ocfg.delta, prob.smesh, ocfg.pf
            )
        return self._du, self._xi, self._phi

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Stage equation residual per slice at h = 0."""
        prob, eps = self.ocfg.prob, self.ocfg.epsilon
        _, xi, phi = self._at(u)
        R = phi.grad - prob.f
        if eps > 0.0:
            R = R + eps * (xi - np.roll(xi, -1, axis=0)) / prob.tmesh.dt
            R = R + eps * prob.nl.alpha_eval(u)
            R = R + eps * cc.duality_map(u, prob.p, prob.smesh)
        return R

    def write_band(self, u: np.ndarray, slope: np.ndarray, lu: np.ndarray) -> None:
        """Write the Jacobian of R plus slope/dt times the backward-difference
        block into lu, the LAPACK gbsv band with kl = ku = N.

        The unknown at time node n and spatial node i sits at i*N + n, so the
        cyclic block-tridiagonal matrix is banded with half-bandwidth N, and
        entry A[r, c] goes to lu[2N + r - c, c]; rows 0 to N-1 are the fill
        rows of the factorization.  lu is Fortran-ordered with 3N+1 rows and
        is zeroed first, so it may hold the factors of the previous step.
        R's Jacobian is symmetric with the couplings of time nodes n-1 and n,
        the periodic wrap from node N-1 back to node 0, and the spatial
        couplings; at N = 2 the wrap and the time coupling share a diagonal.
        slope is alpha'(du) per slice, so that row (n, i) of alpha(du)
        depends on u_n with weight slope/dt and on u_(n-1) with -slope/dt.
        A zero slope leaves R's Jacobian.
        """
        prob, eps, delta = self.ocfg.prob, self.ocfg.epsilon, self.ocfg.delta
        N, M = u.shape
        dt, dx = prob.tmesh.dt, prob.smesh.dx
        du, _, phi = self._at(u)
        w = phi.weights

        def diag(k: int) -> np.ndarray:
            """Diagonal k (A[c + k, c]) as an (M, N) view over the columns c."""
            return lu[2 * N + k].reshape(M, N)

        lu.fill(0.0)
        main = (w[:, :-1] + w[:, 1:]) / dx**2
        if eps > 0.0:
            c = eps * prob.nl.alpha_derivative(du, delta) / dt**2
            main = main + c + np.roll(c, -1, axis=0)
            main = main + eps * prob.nl.alpha_derivative(u, delta)
            main = main + eps * cc._duality_diag(u, prob.p, delta, prob.smesh)
            diag(1)[:, :-1] = -c[1:].T
            diag(N - 1)[:, 0] -= c[0]
        s = slope / dt
        diag(0)[...] = (main + s).T
        diag(N)[:-1] = (-w[:, 1:-1] / dx**2).T
        for k in {1, N - 1, N}:
            lu[2 * N - k, k:] = lu[2 * N + k, :-k]
        diag(1)[:, :-1] -= s[1:].T
        diag(1 - N)[:, -1] -= s[0]


def newton_fixed_point(
    u0: np.ndarray, ocfg: ObjectiveConfig, tol: float, max_iter: int
) -> tuple[np.ndarray, list[float], bool]:
    """Newton on the stage equation at the dual forcing h = -alpha(du).

    The equation is F(u) = R(u) + alpha(du) = 0 with R the stage residual
    at h = 0.  convexcore's Newton loop halves every step until the
    Bochner dual norm of F falls.  Converged when that norm is at most
    tol * max(1, |f - alpha(du)|); otherwise it stops after max_iter steps,
    or when a step is singular, non-finite or cannot decrease the norm.
    Returns the last iterate, the norm of F at the start and after every
    step, and whether it converged.
    """
    prob, delta = ocfg.prob, ocfg.delta
    tmesh, nl = prob.tmesh, prob.nl
    u = validate_trajectory(u0, prob.smesh, tmesh, "initial trajectory")
    N, M = u.shape
    stage = _Stage(ocfg)
    lu = np.zeros((3 * N + 1, N * M), order="F")

    def equation(v: np.ndarray) -> tuple[tuple, float]:
        dv, xi, _ = stage._at(v)
        F = stage.residual(v) + xi
        return (F, dv, xi), dual_bochner_norm(F, prob)

    def stage_tol(state: tuple) -> float:
        _, _, xi = state
        return tol * max(1.0, dual_bochner_norm(prob.f - xi, prob))

    def step(v: np.ndarray, state: tuple) -> np.ndarray | None:
        F, dv, _ = state
        stage.write_band(v, nl.alpha_derivative(dv, delta), lu)
        _, _, x, info = dgbsv(N, N, lu, -F.T.ravel(), overwrite_ab=1, overwrite_b=1)
        return x.reshape(M, N).T if info == 0 else None

    return cc._newton(u, equation, stage_tol, step, max_iter)


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
    eta = cc.PhiAt(u, prob.a, prob.m, delta, prob.smesh, pf).grad
    R = prob.nl.alpha_eval(du) + eta - prob.f
    return dual_bochner_norm(R, prob)
