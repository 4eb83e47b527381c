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
trajectory with a cyclic block-tridiagonal sparse Hessian, Armijo
backtracking on the exact objective, and a steepest-descent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

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
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        self.f_plus_h = validate_trajectory(
            self.f_plus_h, self.prob.smesh, self.prob.tmesh, "combined forcing"
        )

    def phi_config(self) -> cc.PhiConfig:
        return cc.PhiConfig(
            a=self.prob.a,
            m=self.prob.m,
            delta=self.delta,
            smesh=self.prob.smesh,
            p=self.prob.p,
            pf=self.pf,
        )


def _objective(u: np.ndarray, ocfg: ObjectiveConfig) -> float:
    """Value of the stage objective at a periodic trajectory."""
    prob = ocfg.prob
    dt = prob.tmesh.dt
    eps = ocfg.epsilon
    total = float(np.sum(cc.phi_value(u, ocfg.phi_config())))
    total -= float(np.sum(pairing(ocfg.f_plus_h, u, prob.smesh)))
    if eps > 0.0:
        du = time_derivative(u, prob.tmesh)
        total += eps * float(np.sum(cc.eval_psi(du, prob.nl, prob.smesh)))
        total += eps * float(np.sum(cc.eval_psi(u, prob.nl, prob.smesh)))
        total += 0.5 * eps * float(np.sum(norm_V(u, prob.p, prob.smesh) ** 2))
    return dt * total


def _slice_residual(u: np.ndarray, ocfg: ObjectiveConfig) -> np.ndarray:
    """Stage equation residual per slice: the objective gradient over dt."""
    prob = ocfg.prob
    eps = ocfg.epsilon
    R = cc.phi_grad(u, ocfg.phi_config()) - ocfg.f_plus_h
    if eps > 0.0:
        du = time_derivative(u, prob.tmesh)
        xi = prob.nl.alpha_eval(du)
        R = R + eps * (xi - np.roll(xi, -1, axis=0)) / prob.tmesh.dt
        R = R + eps * prob.nl.alpha_eval(u)
        R = R + eps * cc.duality_map(u, prob.p, prob.smesh)
    return R


def _duality_diag(u: np.ndarray, p: float, delta: float, smesh) -> np.ndarray:
    """Diagonal part of the duality map Jacobian, slicewise, rank-one dropped."""
    if p == 2.0:
        return np.ones_like(u)
    nrm = np.asarray(norm_V(u, p, smesh))
    nrm = np.maximum(nrm, 1e-150)
    smooth = (u * u + delta * delta) ** ((p - 2.0) / 2.0)
    return (p - 1.0) * nrm[..., None] ** (2.0 - p) * smooth


def _assemble_hessian(u: np.ndarray, ocfg: ObjectiveConfig) -> sp.csr_matrix:
    """Cyclic block-tridiagonal Jacobian of the slice residual (symmetric)."""
    prob = ocfg.prob
    smesh, tmesh = prob.smesh, prob.tmesh
    N, M = u.shape
    dt, dx = tmesh.dt, smesh.dx
    eps = ocfg.epsilon
    delta = ocfg.delta

    w = cc.phi_hessian_cell_weights(u, prob.a, prob.m, delta, smesh)
    if ocfg.pf is not None and ocfg.pf.mu > 0.0:
        base = np.asarray(cc.eval_phi(u, prob.a, prob.m, delta, smesh))
        w = (1.0 + ocfg.pf.mu * base**ocfg.pf.alpha_exp)[..., None] * w

    main = (w[:, :-1] + w[:, 1:]) / dx**2
    rows, cols, vals = [], [], []
    base_idx = np.arange(N * M).reshape(N, M)

    if eps > 0.0:
        du = time_derivative(u, tmesh)
        c = eps * prob.nl.alpha_derivative(du, delta) / dt**2
        main = main + c + np.roll(c, -1, axis=0)
        main = main + eps * prob.nl.alpha_derivative(u, delta)
        main = main + eps * _duality_diag(u, prob.p, delta, smesh)
        prev = np.roll(base_idx, 1, axis=0)
        rows.append(base_idx.ravel())
        cols.append(prev.ravel())
        vals.append(-c.ravel())
        rows.append(prev.ravel())
        cols.append(base_idx.ravel())
        vals.append(-c.ravel())

    rows.append(base_idx.ravel())
    cols.append(base_idx.ravel())
    vals.append(main.ravel())

    off = -w[:, 1:-1] / dx**2
    left = base_idx[:, :-1]
    right = base_idx[:, 1:]
    rows.append(left.ravel())
    cols.append(right.ravel())
    vals.append(off.ravel())
    rows.append(right.ravel())
    cols.append(left.ravel())
    vals.append(off.ravel())

    H = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N * M, N * M),
    )
    return H.tocsr()


def _shifted_spsolve(H: sp.csr_matrix, rhs: np.ndarray, shift: float) -> np.ndarray:
    Hs = H if shift == 0.0 else H + shift * sp.identity(H.shape[0])
    return spsolve(Hs.tocsc(), rhs)


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
    return cc._damped_newton(
        u,
        lambda v: _objective(v, ocfg),
        lambda v: _slice_residual(v, ocfg),
        lambda v: _assemble_hessian(v, ocfg),
        _shifted_spsolve,
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
    cfg = cc.PhiConfig(
        a=prob.a, m=prob.m, delta=delta, smesh=prob.smesh, p=prob.p, pf=pf
    )
    R = prob.nl.alpha_eval(du) + cc.phi_grad(u, cfg) - prob.f
    return dual_bochner_norm(R, prob)
