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
banded Cholesky factorization per distinct band (a stage whose Hessian does
not change, as at p = m = 2, factors it once), Armijo backtracking on the
exact objective, and a steepest-descent fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

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
    """Diagonal part of the duality map Jacobian, slicewise, rank-one dropped."""
    if p == 2.0:
        return np.ones_like(u)
    nrm = np.asarray(norm_V(u, p, smesh))
    nrm = np.maximum(nrm, 1e-150)
    smooth = (u * u + delta * delta) ** ((p - 2.0) / 2.0)
    return (p - 1.0) * nrm[..., None] ** (2.0 - p) * smooth


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


class _BandFactor:
    """The last factored band: an owned copy of it, its shift and its lower
    Cholesky factor.  Both live in buffers kept while the band shape holds,
    so a refactorization allocates nothing.  A NaN shift marks the entry
    empty."""

    band: np.ndarray | None = None
    factor: np.ndarray | None = None
    shift = math.nan


# Module level because the stages of one fixed-point solve are separate
# minimize calls, and at p = m = 2 they all repeat one band.
_last = _BandFactor()


def _shifted_band_solve(H: np.ndarray, rhs: np.ndarray, shift: float) -> np.ndarray:
    """Solve (H + shift I) x = rhs by banded Cholesky; rhs and x time-major.

    One factorization per distinct band: while H and shift equal those of
    the last factored call, only the triangular solves run, which give the
    same bits as a fresh factorization.  An indefinite or non-finite H gives
    LinAlgError or a non-finite x, which the Newton driver's shift ladder
    catches.
    """
    last = _last
    if not (last.shift == shift and np.array_equal(H, last.band)):
        last.shift = math.nan
        if last.band is None or last.band.shape != H.shape:
            last.band = np.empty_like(H)
            last.factor = np.empty(H.shape, order="F")
        last.band[...] = H
        last.factor[...] = H
        last.factor[0] += shift
        last.factor = cholesky_banded(
            last.factor, overwrite_ab=True, lower=True, check_finite=False
        )
        last.shift = shift
    N = H.shape[0] - 1
    b = rhs.reshape(N, -1).T.ravel()
    x = cho_solve_banded((last.factor, True), b, overwrite_b=True, check_finite=False)
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
