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
no longer symmetric.  _StageAt, the stage at one iterate, reads it as a
_Jacobian: a tridiagonal spatial block per slice, coupled in time.  Each
Newton step solves it one of two ways, chosen from those coefficients.
When none of them varies in time, bit for bit, the Jacobian is a Kronecker
sum of the spatial block and a circulant in time, which a real DFT in time
and one block-diagonal complex tridiagonal solve (LAPACK's zgtsv) solve
exactly in O(N M log N): so at p = m = 2 and at every time-constant
iterate, the first one from u = 0 included.  Otherwise the Jacobian is
written straight into the band storage of LAPACK's dgbsv, one
Fortran-ordered workspace per solve made at its first such step, and
factored and solved there in place, in O(N^3 M).  The Newton loop itself
is convexcore's, the one the slice proximal solves run, and its state is
the _StageAt of the current iterate.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbsv, zgtsv

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

# smoothing of the gradient energy's modulus, (|Du|^2 + DELTA^2)^(1/2): at
# m < 2 it keeps the flux slope finite at a zero cell gradient, and every
# solve starts from u = 0
DELTA = 1e-8


class _StageAt:
    """The stage equation at parameter eps, read at one trajectory u.

    du, its rate xi = alpha(du) and the energy phi (at the smoothing DELTA
    as it reads now, perturbed by pf when given) are computed once, here;
    residual, F, residual_AP and psi_star are computed on first use and
    kept, and jacobian reads F's Jacobian from the same evaluation.  eps
    may be zero, which drops the time coupling and the lower-order terms
    of R; F keeps the coupling through alpha(du).
    """

    def __init__(
        self, u: np.ndarray, prob: ProblemSpec, eps: float,
        pf: cc.PerturbedFunctional | None = None,
    ) -> None:
        self.u, self.prob, self.eps = u, prob, eps
        self.du = time_derivative(u, prob.tmesh)
        self.xi = prob.nl.alpha_eval(self.du)
        self.phi = cc.PhiAt(u, prob.a, prob.m, DELTA, prob.smesh, pf)

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

    @cached_property
    def psi_star(self) -> np.ndarray:
        """The conjugate rate functional psi*(xi) per slice."""
        return cc.fenchel_psi_star(self.xi, self.prob.nl, self.prob.smesh)

    def jacobian(self) -> _Jacobian:
        """F's Jacobian: R's plus alpha'(du)/dt times the backward-difference
        block, by its coefficients per slice.

        Row (n, i) of alpha(du) depends on u_n with weight alpha'(du)/dt and
        on u_(n-1) with -alpha'(du)/dt; at eps > 0 the same slope couples
        R's time nodes.
        """
        prob, eps, delta, u = self.prob, self.eps, self.phi.delta, self.u
        dt, dx = prob.tmesh.dt, prob.smesh.dx
        w = self.phi.weights
        slope = prob.nl.alpha_derivative(self.du, delta)
        d = (w[:, :-1] + w[:, 1:]) / dx**2
        c = None
        if eps > 0.0:
            c = eps * slope / dt**2
            d = d + c + np.roll(c, -1, axis=0)
            d = d + eps * prob.nl.alpha_derivative(u, delta)
            d = d + eps * cc._duality_diag(u, prob.p, delta, prob.smesh)
        return _Jacobian(d, -w[:, 1:-1] / dx**2, slope / dt, c)


class _Jacobian(NamedTuple):
    """F's Jacobian: a tridiagonal spatial block per slice, coupled in time.

    d (N, M) and e (N, M-1) are the diagonal and off-diagonal of each
    slice's block: the cell weights' tridiagonal matrix over dx^2 plus, at
    eps > 0, c_n + c_(n+1), eps alpha'(u) and the duality diagonal.  Row
    (n, i) couples to u_(n-1) with -s, and s is on the diagonal too.  At
    eps > 0 c (None at eps = 0) couples time nodes n-1 and n symmetrically
    with -c_n, the periodic wrap from node N-1 back to node 0 included.
    """

    d: np.ndarray
    e: np.ndarray
    s: np.ndarray
    c: np.ndarray | None

    def time_invariant(self) -> bool:
        """Whether no coefficient varies in time, bit for bit: every slice
        has the same block, and s and c are one scalar each over the grid
        (a spatially varying s or c would not commute with the block)."""
        d, e, s, c = self
        return bool(
            (s == s.flat[0]).all() and (c is None or (c == c.flat[0]).all())
            and (d == d[0]).all() and (e == e[0]).all()
        )

    def solve_time_invariant(self, b: np.ndarray) -> np.ndarray:
        """Solve J x = b (N, M) exactly when time_invariant(); raises
        np.linalg.LinAlgError when J is singular.

        J is then the Kronecker sum I_N (x) K + C (x) I_M, with K the block
        of every slice and C the circulant s (I - P) - c (P + P^T), P the
        shift from node n-1 to node n.  C's symbol at theta_k = 2 pi k / N
        is sigma_k = s (1 - exp(-i theta_k)) - 2 c cos theta_k, so a real
        DFT in time leaves one tridiagonal system K + sigma_k I per
        frequency k = 0..N/2.  Stacked, they are one block-diagonal complex
        tridiagonal system, whose off-diagonal is zero at each block
        boundary, and zgtsv solves it in O(N M): O(N M log N) in all.
        """
        d, e, s, c = self
        N, M = b.shape
        theta = 2.0 * np.pi * np.arange(N // 2 + 1) / N
        sigma = s.flat[0] * (1.0 - np.exp(-1j * theta))
        if c is not None:
            sigma = sigma - 2.0 * c.flat[0] * np.cos(theta)
        # the stacked system: K's off-diagonal within each block, zero
        # between blocks; zgtsv copies both before it overwrites them
        off = np.zeros((N // 2 + 1, M))
        off[:, :-1] = e[0]
        off = off.ravel()[:-1]
        diag = (sigma[:, None] + d[0]).ravel()
        # the DFT of b - b_0, with its first slice b_0 put back into the
        # mean: a time-constant b then has exact zeros at every k > 0, so
        # its solution is time-constant bit for bit, which the DFT's own
        # roundoff at odd N would not keep
        rhs = np.fft.rfft(b - b[0], axis=0)
        rhs[0] += N * b[0]
        _, _, _, x, info = zgtsv(off, diag, off, rhs.ravel())
        if info > 0:
            raise np.linalg.LinAlgError("zgtsv zero pivot: singular stage Jacobian")
        return np.fft.irfft(x.reshape(rhs.shape), N, axis=0)

    def write_band(self, lu: np.ndarray) -> None:
        """Write J into lu, the LAPACK gbsv band with kl = ku = N.

        The unknown at time node n and spatial node i sits at i*N + n, so the
        cyclic block-tridiagonal matrix is banded with half-bandwidth N, and
        entry A[r, c] goes to lu[2N + r - c, c]; rows 0 to N-1 are the fill
        rows of the factorization.  lu is Fortran-ordered with 3N+1 rows and
        is zeroed first, so it may hold the factors of the previous step.
        At N = 2 the wrap and the time coupling share a diagonal.
        """
        d, e, s, c = self
        N, M = d.shape

        def diag(k: int) -> np.ndarray:
            """Diagonal k (A[c + k, c]) as an (M, N) view over the columns c."""
            return lu[2 * N + k].reshape(M, N)

        lu.fill(0.0)
        if c is not None:
            diag(1)[:, :-1] = -c[1:].T
            diag(N - 1)[:, 0] -= c[0]
        diag(0)[...] = (d + s).T
        diag(N)[:-1] = e.T
        for k in {1, N - 1, N}:
            lu[2 * N - k, k:] = lu[2 * N + k, :-k]
        diag(1)[:, :-1] -= s[1:].T
        diag(1 - N)[:, -1] -= s[0]


def newton_fixed_point(
    u0: np.ndarray,
    prob: ProblemSpec,
    eps: float,
    pf: cc.PerturbedFunctional | None,
    tol: float,
    max_iter: int,
) -> tuple[_StageAt, list[float], bool, dict[str, int]]:
    """Newton on the stage equation at the dual forcing h = -alpha(du).

    The equation is F(u) = R(u) + alpha(du) = 0 with R the stage residual
    at h = 0, the parameter eps finite and >= 0, the smoothing DELTA and
    the forcing prob.f.  convexcore's Newton loop backtracks every step
    until the Bochner dual norm of F falls (halving it, or faster where the
    trial norms grow like a power of the step length).  Converged when that
    norm is at most tol, an absolute bound (cascade.fixed_point_solve passes
    stage_tol * min(1, dt) * max(1, |f|)); otherwise it stops after
    max_iter steps, or when a step is singular, too large to allocate,
    non-finite or cannot decrease the norm.
    Each step solves the Jacobian exactly by a real DFT in time and one
    complex tridiagonal solve when its coefficients do not vary in time,
    and through the dgbsv band otherwise.  Returns the stage at the last
    iterate (its u, du, xi, energy and F, as Newton evaluated them), the
    norm of F at the start and after every step, whether it converged, and
    how many steps it solved each way, exact_steps and band_steps (a
    singular last step included, so they sum to the steps taken unless
    Newton stopped on a step it could not take).
    """
    if not (0.0 <= eps < math.inf):
        raise ValueError(f"epsilon must be finite and >= 0, got {eps}")
    u = validate_trajectory(u0, prob.smesh, prob.tmesh, "initial trajectory")
    N, M = u.shape
    lu = None
    kinds = {"exact_steps": 0, "band_steps": 0}

    def equation(v: np.ndarray) -> tuple[_StageAt, float]:
        stage = _StageAt(v, prob, eps, pf)
        return stage, dual_bochner_norm(stage.F, prob)

    def step(v: np.ndarray, stage: _StageAt) -> np.ndarray:
        nonlocal lu
        jac = stage.jacobian()
        if jac.time_invariant():
            kinds["exact_steps"] += 1
            return jac.solve_time_invariant(-stage.F)
        if lu is None:
            lu = np.zeros((3 * N + 1, N * M), order="F")
        kinds["band_steps"] += 1
        jac.write_band(lu)
        _, _, x, info = dgbsv(
            N, N, lu, -stage.F.T.ravel(), overwrite_ab=1, overwrite_b=1
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"dgbsv info {info}: singular stage Jacobian")
        return x.reshape(M, N).T

    _, history, converged, stage = cc._newton(u, equation, tol, step, max_iter)
    return stage, history, converged, kinds


def residual_AP(u: np.ndarray, prob: ProblemSpec) -> float:
    """Bochner dual norm of the unregularized equation residual.

    Measures alpha(du) + eta - f with eta the unperturbed energy gradient
    at the solver's smoothing DELTA, in the p'-in-time V*-in-space norm.
    """
    u = validate_trajectory(u, prob.smesh, prob.tmesh, "trajectory")
    return _StageAt(u, prob, 0.0).residual_AP
