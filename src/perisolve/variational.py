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
no longer symmetric.  _StageAt, the stage at one iterate, writes it
straight into the band storage of LAPACK's dgbsv, one Fortran-ordered
workspace per solve, and every Newton step factors and solves it there in
place; the Newton loop itself is convexcore's, the one the slice proximal
solves run, and its state is the _StageAt of the current iterate.
"""

from __future__ import annotations

import math
from functools import cached_property

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
    "newton_fixed_point",
    "residual_AP",
]


class _StageAt:
    """The stage equation at parameter eps, read at one trajectory u.

    du, its rate xi = alpha(du) and the energy phi (smoothing delta,
    perturbed by pf when given) are computed once, here; residual, F and
    residual_AP are computed on first use and kept, and write_band writes
    the band from the same evaluation.  eps may be zero, which drops the
    time coupling and the lower-order terms of R; F keeps the coupling
    through alpha(du).
    """

    def __init__(
        self, u: np.ndarray, prob: ProblemSpec, eps: float, delta: float,
        pf: cc.PerturbedFunctional | None = None,
    ) -> None:
        self.u, self.prob, self.eps, self.delta = u, prob, eps, delta
        self.du = time_derivative(u, prob.tmesh)
        self.xi = prob.nl.alpha_eval(self.du)
        self.phi = cc.PhiAt(u, prob.a, prob.m, delta, prob.smesh, pf)

    @cached_property
    def residual(self) -> np.ndarray:
        """Stage equation residual R per slice at h = 0."""
        prob, eps, u, xi = self.prob, self.eps, self.u, self.xi
        R = self.phi.grad - prob.f
        if eps > 0.0:
            R = R + eps * (xi - np.roll(xi, -1, axis=0)) / prob.tmesh.dt
            R = R + eps * prob.nl.alpha_eval(u)
            R = R + eps * cc.duality_map(u, prob.p, prob.smesh)
        return R

    @cached_property
    def F(self) -> np.ndarray:
        """Fixed point stage equation F = R + alpha(du) per slice."""
        return self.residual + self.xi

    @cached_property
    def residual_AP(self) -> float:
        """Dual norm of alpha(du) + eta - f, as residual_AP; eps plays no part."""
        return dual_bochner_norm(self.xi + self.phi.grad - self.prob.f, self.prob)

    def write_band(self, slope: np.ndarray, lu: np.ndarray) -> None:
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
        prob, eps, delta, u, du = self.prob, self.eps, self.delta, self.u, self.du
        N, M = u.shape
        dt, dx = prob.tmesh.dt, prob.smesh.dx
        w = self.phi.weights

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
    u0: np.ndarray,
    prob: ProblemSpec,
    eps: float,
    delta: float,
    pf: cc.PerturbedFunctional | None,
    tol: float,
    max_iter: int,
) -> tuple[_StageAt, list[float], bool]:
    """Newton on the stage equation at the dual forcing h = -alpha(du).

    The equation is F(u) = R(u) + alpha(du) = 0 with R the stage residual
    at h = 0, the parameter eps and smoothing delta finite and >= 0, and
    the forcing prob.f.  convexcore's Newton loop halves every step until
    the Bochner dual norm of F falls.  Converged when that norm is at most
    tol * max(1, |f - alpha(du)|); otherwise it stops after max_iter steps,
    or when a step is singular, non-finite or cannot decrease the norm.
    Returns the stage at the last iterate (its u, du, xi, energy and F, as
    Newton evaluated them), the norm of F at the start and after every
    step, and whether it converged.
    """
    if not (0.0 <= eps < math.inf):
        raise ValueError(f"epsilon must be finite and >= 0, got {eps}")
    if not (0.0 <= delta < math.inf):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    u = validate_trajectory(u0, prob.smesh, prob.tmesh, "initial trajectory")
    N, M = u.shape
    lu = np.zeros((3 * N + 1, N * M), order="F")

    def equation(v: np.ndarray) -> tuple[_StageAt, float]:
        stage = _StageAt(v, prob, eps, delta, pf)
        return stage, dual_bochner_norm(stage.F, prob)

    def stage_tol(stage: _StageAt) -> float:
        return tol * max(1.0, dual_bochner_norm(prob.f - stage.xi, prob))

    def step(v: np.ndarray, stage: _StageAt) -> np.ndarray | None:
        stage.write_band(prob.nl.alpha_derivative(stage.du, delta), lu)
        _, _, x, info = dgbsv(
            N, N, lu, -stage.F.T.ravel(), overwrite_ab=1, overwrite_b=1
        )
        return x.reshape(M, N).T if info == 0 else None

    _, history, converged, stage = cc._newton(u, equation, stage_tol, step, max_iter)
    return stage, history, converged


def residual_AP(u: np.ndarray, prob: ProblemSpec, delta: float = 0.0) -> float:
    """Bochner dual norm of the unregularized equation residual.

    Measures alpha(du) + eta - f with eta the unperturbed energy gradient
    at smoothing delta, in the p'-in-time V*-in-space norm.
    """
    u = validate_trajectory(u, prob.smesh, prob.tmesh, "trajectory")
    return _StageAt(u, prob, 0.0, delta).residual_AP
