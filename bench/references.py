"""Independent references for the benchmark's correctness checks.

Everything here is built from numpy and scipy alone and imports nothing from
perisolve, so agreement with the program is evidence rather than tautology.
The discretization is the one the program documents: M interior nodes
x_i = (i + 1) dx with dx = L / (M + 1) and zero Dirichlet ghosts, N periodic
time slices t_n = n dt with dt = T / N, backward differences in time with
periodic wrap, and a three-point flux in space with cell coefficients a.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve


def grid(L: float, T: float, M: int, N: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Interior nodes, slice times, dx and dt."""
    dx, dt = L / (M + 1), T / N
    return dx * np.arange(1, M + 1), dt * np.arange(N), dx, dt


def sample_terms(terms: list[dict], L: float, T: float, M: int, N: int) -> np.ndarray:
    """Sum of products amplitude * space(k pi x / L) * time(2 pi j t / T).

    Reads the "terms" list of a forcing block of a perisolve config.
    """
    x, t, _, _ = grid(L, T, M, N)
    space = {"sin": np.sin, "cos": np.cos}
    time_ = {"sin": np.sin, "cos": np.cos, "const": lambda s: np.ones_like(s)}
    f = np.zeros((N, M))
    for term in terms:
        k = float(term.get("space_mode", 1))
        j = float(term.get("time_mode", 0))
        sx = space[term.get("space_profile", "sin")](np.pi * k * x / L)
        st = time_[term.get("time_profile", "const")](2.0 * np.pi * j * t / T)
        f += float(term.get("amplitude", 1.0)) * st[:, None] * sx[None, :]
    return f


def two_mode_forcing(L: float, T: float, M: int, N: int) -> np.ndarray:
    """sin(pi x/L) cos(2 pi t/T) + 0.25 sin(2 pi x/L) sin(2 pi t/T)."""
    return sample_terms(
        [
            {"amplitude": 1.0, "space_mode": 1, "space_profile": "sin",
             "time_mode": 1, "time_profile": "cos"},
            {"amplitude": 0.25, "space_mode": 2, "space_profile": "sin",
             "time_mode": 1, "time_profile": "sin"},
        ],
        L, T, M, N,
    )


def cyclic_heat_solve(f: np.ndarray, L: float, T: float, a: float = 1.0) -> np.ndarray:
    """Direct sparse solve of (u_n - u_{n-1})/dt + A u_n = f_n, n mod N.

    A is the second difference with constant coefficient a; the whole
    NM x NM cyclic system is solved at once.
    """
    N, M = f.shape
    _, _, dx, dt = grid(L, T, M, N)
    w = a / dx**2
    A = sp.diags([-w, 2.0 * w, -w], [-1, 0, 1], shape=(M, M))
    shift = sp.diags([np.ones(N - 1), [1.0]], [-1, N - 1], shape=(N, N))
    big = sp.kron(sp.identity(N), A + sp.identity(M) / dt) - sp.kron(shift, sp.identity(M) / dt)
    return spsolve(big.tocsc(), f.ravel()).reshape(N, M)


def sup_l2(u: np.ndarray, dx: float) -> float:
    """max over slices of the nodal L2 norm (sum dx u_i^2)^(1/2)."""
    return float(np.max(np.sqrt(dx * np.sum(u * u, axis=-1))))


def relative_sup_l2(u: np.ndarray, ref: np.ndarray, dx: float) -> float:
    return sup_l2(u - ref, dx) / sup_l2(ref, dx)


def bump_trajectory(L: float, T: float, M: int, N: int) -> np.ndarray:
    """Manufactured u(t, x) = sin(pi x/L) (1 + sin(2 pi t/T)/2) on the grid."""
    x, t, _, _ = grid(L, T, M, N)
    return np.sin(np.pi * x / L)[None, :] * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / T))[:, None]


def _rate(s: np.ndarray, p: float) -> np.ndarray:
    """alpha(s) = |s|^(p-2) s."""
    return np.abs(s) ** (p - 2.0) * s


def _flux_divergence(u: np.ndarray, dx: float, m: float, a: float = 1.0) -> np.ndarray:
    """-(d/dx)(a |u_x|^(m-2) u_x) by the three-point flux with zero ghosts."""
    padded = np.zeros(u.shape[:-1] + (u.shape[-1] + 2,))
    padded[..., 1:-1] = u
    g = (padded[..., 1:] - padded[..., :-1]) / dx
    q = a * np.abs(g) ** (m - 2.0) * g
    return -(q[..., 1:] - q[..., :-1]) / dx


def periodic_residual(u: np.ndarray, f: np.ndarray, p: float, m: float, dx: float, dt: float) -> np.ndarray:
    """alpha((u_n - u_{n-1})/dt) - (a |u_x|^(m-2) u_x)_x - f_n, slice by slice."""
    du = (u - np.roll(u, 1, axis=0)) / dt
    return _rate(du, p) + _flux_divergence(u, dx, m) - f


def discrete_exact_forcing(U: np.ndarray, p: float, m: float, dx: float, dt: float) -> np.ndarray:
    """Forcing for which the trajectory U solves the discrete periodic equation."""
    return periodic_residual(U, np.zeros_like(U), p, m, dx, dt)


def bochner_dual_norm(R: np.ndarray, p: float, dx: float, dt: float) -> float:
    """(sum_n dt |R_n|_{p'}^{p'})^(1/p') with |r|_{p'} = (sum_i dx |r_i|^{p'})^(1/p')."""
    pc = p / (p - 1.0)
    return float((dt * np.sum(dx * np.abs(R) ** pc)) ** (1.0 / pc))


def stationarity_bound(f: np.ndarray, p: float, fp_tol: float, dx: float, dt: float) -> float:
    """20 fp_tol max(1, |f|): the residual bound the invariant suite applies
    to a final eps = mu = 0 stage."""
    return 20.0 * fp_tol * max(1.0, bochner_dual_norm(f, p, dx, dt))


def read_trajectory_csv(path: str) -> np.ndarray:
    """Read a t,x,value grid file written time slice by time slice into (N, M)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if [h.strip() for h in rows[0]] != ["t", "x", "value"]:
        raise ValueError(f"unexpected header {rows[0]!r} in {path}")
    data = np.asarray(rows[1:], dtype=float)
    N = np.unique(data[:, 0]).size
    M = np.unique(data[:, 1]).size
    if N * M != data.shape[0]:
        raise ValueError(f"{path} is not a full grid")
    return data[:, 2].reshape(N, M)
