"""Independent reference computations used to pin expected values.

Everything here is deliberately built from plain numpy/scipy primitives,
not from the package's own operators, so agreement is evidence rather than
tautology.  The scalar constants frozen into the tests were produced by
these oracles.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from perisolve import convexcore as cc
from perisolve import discretize as dz

CANON_L = 2.0 * np.pi
CANON_T = 2.0 * np.pi


def two_mode_forcing(smesh: dz.SpatialMesh, tmesh: dz.TemporalMesh) -> np.ndarray:
    x, t = smesh.nodes, tmesh.times
    L, T = smesh.length, tmesh.period
    return (
        np.sin(np.pi * x / L)[None, :] * np.cos(2 * np.pi * t / T)[:, None]
        + 0.25
        * np.sin(2 * np.pi * x / L)[None, :]
        * np.sin(2 * np.pi * t / T)[:, None]
    )


def canonical_problem(
    p: float = 2.0,
    m: float = 2.0,
    M: int = 32,
    N: int = 32,
    diffusion: float = 1.0,
) -> dz.ProblemSpec:
    """The instance used across the linear-case and stability tests."""
    smesh = dz.SpatialMesh(CANON_L, M)
    tmesh = dz.TemporalMesh(CANON_T, N)
    nl = cc.Nonlinearity.power(p)
    a = cc.DiffusionField.constant(diffusion, smesh)
    f = two_mode_forcing(smesh, tmesh)
    return dz.ProblemSpec(p=p, m=m, nl=nl, a=a, f=f, smesh=smesh, tmesh=tmesh)


def cyclic_heat_solve(prob: dz.ProblemSpec) -> np.ndarray:
    """Direct sparse solve of the periodic heat system (p = m = 2 only).

    Assembles (u_n - u_{n-1})/dt + A u_n = f_n with the cell-weighted
    second-difference A and solves the full NM x NM cyclic system in one
    shot.  Shares no code with the package solvers.
    """
    if not (prob.p == 2.0 and prob.m == 2.0):
        raise ValueError("linear oracle needs p = m = 2")
    M = prob.smesh.interior_count
    N = prob.tmesh.step_count
    dx, dt = prob.smesh.dx, prob.tmesh.dt
    w = prob.a.midpoint_values / dx**2
    main = w[:-1] + w[1:]
    A = sp.diags([-w[1:-1], main, -w[1:-1]], [-1, 0, 1], shape=(M, M))
    I_M = sp.identity(M)
    blocks = []
    for n in range(N):
        row = [None] * N
        row[n] = A + I_M / dt
        row[(n - 1) % N] = -I_M / dt
        blocks.append(row)
    big = sp.bmat(blocks, format="csc")
    u = spsolve(big, prob.f.ravel())
    return u.reshape(N, M)


def scalar_resolvent_oracle(tol: float = 1e-14) -> tuple[float, float]:
    """Bisection for lambda (2 + lambda)^2 = 1/2 on [0, 1].

    This is the scalar stand-in for the power-perturbed resolvent with
    w = w* = 1, mu = 1, alpha = 1 on the one-node fixture where the energy
    is u^2/2: the solution is u = 1/(2 + lambda) and the multiplier solves
    the cubic above.  Returns (lambda*, u*).
    """
    g = lambda lam: lam * (2.0 + lam) ** 2 - 0.5
    lo, hi = 0.0, 1.0
    assert g(lo) < 0.0 < g(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return lam, 1.0 / (2.0 + lam)


def scalar_mode_problem() -> tuple[dz.SpatialMesh, cc.PhiConfig]:
    """One-node grid realizing scalar closed forms exactly.

    L = 2 with a single interior node gives dx = 1; with a = 1/2 and m = 2
    the energy of the scalar value u is u^2/2 and its pairing gradient is u,
    so scalar prox/envelope/resolvent formulas hold without quadrature
    correction.
    """
    smesh = dz.SpatialMesh(2.0, 1)
    a = cc.DiffusionField.constant(0.5, smesh)
    cfg = cc.PhiConfig(a=a, m=2.0, delta=0.0, smesh=smesh, p=2.0)
    return smesh, cfg


def fd_gradient(fun, u: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a field."""
    g = np.zeros_like(u, dtype=float)
    it = np.nditer(u, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        up = u.copy()
        um = u.copy()
        up[idx] += h
        um[idx] -= h
        g[idx] = (fun(up) - fun(um)) / (2.0 * h)
        it.iternext()
    return g


def stage_objective(
    prob: dz.ProblemSpec,
    eps: float,
    delta: float,
    u: np.ndarray,
    pf: cc.PerturbedFunctional | None = None,
) -> float:
    """Strictly convex space-time functional whose gradient is the stage
    residual at h = 0 (power rate map only):

        sum_n dt [ eps Psi(du_n) + eps Psi(u_n) + Phi(u_n)
                   + (eps/2) |u_n|_V^2 - <f_n, u_n> ]

    with Psi(v) = sum_i dx |v_i|^p / p, du the periodic backward difference
    and Phi the delta-smoothed gradient energy, power-perturbed by pf.
    """
    if prob.nl.kind != "power":
        raise ValueError("the reference objective needs the power rate map")
    p, m, dx, dt = prob.p, prob.m, prob.smesh.dx, prob.tmesh.dt
    du = (u - np.roll(u, 1, axis=0)) / dt
    Du = np.diff(np.pad(u, ((0, 0), (1, 1))), axis=1) / dx
    a = prob.a.midpoint_values
    phi = dx / m * np.sum(a * (Du * Du + delta * delta) ** (m / 2.0), axis=1)
    if pf is not None:
        e = 1.0 + pf.alpha_exp
        phi = phi + pf.mu / e * phi**e
    psi = dx * np.sum(np.abs(du) ** p + np.abs(u) ** p, axis=1) / p
    sq = (dx * np.sum(np.abs(u) ** p, axis=1)) ** (2.0 / p)
    total = phi - dx * np.sum(prob.f * u, axis=1) + eps * (psi + 0.5 * sq)
    return float(dt * np.sum(total))


# Frozen reference values, produced by the oracles above (and by sympy for
# the quadrature limits).  Tests compare against these so regressions in the
# oracles themselves are also caught.
RESOLVENT_LAMBDA_STAR = 0.11208493554429694
RESOLVENT_U_STAR = 0.47346580772942753
