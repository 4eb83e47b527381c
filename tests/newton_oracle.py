"""Direct space-time Newton solve of the unregularized system.

An oracle for the cascade that shares only the discrete operators with it:
its own sparse Jacobian assembly, sparse LU solve and residual line search.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from perisolve import convexcore as cc
from perisolve.discretize import ProblemSpec, dual_bochner_norm, time_derivative


def direct_newton_oracle(
    prob: ProblemSpec,
    delta: float = 0.0,
    u0: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iter: int = 100,
) -> tuple[np.ndarray, dict]:
    """Damped Newton on the unregularized space-time system.

    Solves alpha(du_n) + grad Phi(u_n) = f_n directly on the cyclic
    block-bidiagonal Jacobian.  Independent of the cascade machinery except
    for the shared discrete operators; linear problems finish in one step.
    """
    smesh, tmesh = prob.smesh, prob.tmesh
    N, M = tmesh.step_count, smesh.interior_count
    dt = tmesh.dt
    u = np.zeros((N, M)) if u0 is None else np.asarray(u0, dtype=float).copy()
    scale = max(1.0, dual_bochner_norm(prob.f, prob))
    jac_delta = delta if delta > 0.0 else (1e-12 if prob.p < 2.0 else 0.0)

    def residual(v: np.ndarray) -> np.ndarray:
        dv = time_derivative(v, tmesh)
        return (
            prob.nl.alpha_eval(dv)
            + cc.PhiAt(v, prob.a, prob.m, delta, smesh).grad
            - prob.f
        )

    R = residual(u)
    res = dual_bochner_norm(R, prob)
    iters = 0
    base_idx = np.arange(N * M).reshape(N, M)
    for iters in range(1, max_iter + 1):
        if res <= tol * scale:
            break
        du = time_derivative(u, tmesh)
        ad = prob.nl.alpha_derivative(du, jac_delta) / dt
        w = cc.PhiAt(u, prob.a, prob.m, delta, smesh).weights
        main = ad + (w[:, :-1] + w[:, 1:]) / smesh.dx**2
        rows = [base_idx.ravel()]
        cols = [base_idx.ravel()]
        vals = [main.ravel()]
        prev = np.roll(base_idx, 1, axis=0)
        rows.append(base_idx.ravel())
        cols.append(prev.ravel())
        vals.append(-ad.ravel())
        off = -w[:, 1:-1] / smesh.dx**2
        rows.append(base_idx[:, :-1].ravel())
        cols.append(base_idx[:, 1:].ravel())
        vals.append(off.ravel())
        rows.append(base_idx[:, 1:].ravel())
        cols.append(base_idx[:, :-1].ravel())
        vals.append(off.ravel())
        J = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N * M, N * M),
        ).tocsc()
        diag_mean = max(float(J.diagonal().mean()), 1e-12)
        step = None
        shift = 0.0
        for _ in range(6):
            Js = J if shift == 0.0 else J + shift * sp.identity(N * M)
            try:
                cand = spsolve(Js, -R.ravel())
            except RuntimeError:
                cand = None
            if cand is not None and np.all(np.isfinite(cand)):
                step = cand.reshape(N, M)
                break
            shift = diag_mean * 1e-8 if shift == 0.0 else shift * 100.0
        if step is None:
            break
        t = 1.0
        accepted = False
        while t > 1e-16:
            trial = u + t * step
            Rt = residual(trial)
            rt = dual_bochner_norm(Rt, prob)
            if rt <= (1.0 - 1e-4 * t) * res:
                u, R, res = trial, Rt, rt
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    report = {
        "iterations": iters,
        "residual": float(res),
        "converged": bool(res <= tol * scale),
    }
    return u, report
