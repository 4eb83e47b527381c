"""Space-time discretization for time-periodic 1D diffusion problems.

A problem lives on the interval [0, L] with homogeneous Dirichlet boundary
values and on a periodic time circle of length T.  Space carries M interior
nodes x_i = (i+1)*dx with dx = L/(M+1); the two boundary (ghost) values are
identically zero.  Time carries N slices t_n = n*dt with dt = T/N and all
index arithmetic modulo N, so periodicity is structural rather than a
constraint to be enforced.

Trajectories are plain numpy arrays of shape (N, M): slice n holds the field
at t_n.  Dual trajectories use the same layout but are read through the
pairing <xi, u> = sum_i dx * xi_i * u_i per slice.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .convexcore import DiffusionField, Nonlinearity

__all__ = [
    "SpatialMesh",
    "TemporalMesh",
    "ProblemSpec",
    "time_derivative",
    "norm_V",
    "norm_X",
    "pairing",
    "dual_bochner_norm",
    "FIELD_COLUMNS",
    "format_field",
    "format_rows",
    "write_csv",
    "write_dat",
    "read_field_csv",
]

@dataclass(frozen=True)
class SpatialMesh:
    """Uniform 1D mesh on [0, length] with homogeneous Dirichlet ghosts.

    interior_count is the number of unknowns per slice; the mesh has
    interior_count + 1 cells whose midpoints carry diffusion coefficients.
    """

    length: float
    interior_count: int

    def __post_init__(self) -> None:
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"mesh length must be positive, got {self.length}")
        if self.interior_count < 1:
            raise ValueError(
                f"interior_count must be >= 1, got {self.interior_count}"
            )

    @property
    def dx(self) -> float:
        return self.length / (self.interior_count + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates, shape (M,)."""
        return self.dx * np.arange(1, self.interior_count + 1)

    @property
    def cell_midpoints(self) -> np.ndarray:
        """Midpoints of the M+1 cells, shape (M+1,)."""
        return self.dx * (np.arange(self.interior_count + 1) + 0.5)


@dataclass(frozen=True)
class TemporalMesh:
    """Periodic time mesh: N slices over one period T, indices modulo N."""

    period: float
    step_count: int

    def __post_init__(self) -> None:
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive, got {self.period}")
        if self.step_count < 2:
            raise ValueError(f"step_count must be >= 2, got {self.step_count}")

    @property
    def dt(self) -> float:
        return self.period / self.step_count

    @property
    def times(self) -> np.ndarray:
        """Slice times t_n = n*dt, shape (N,)."""
        return self.dt * np.arange(self.step_count)


def validate_trajectory(
    values: np.ndarray,
    smesh: SpatialMesh,
    tmesh: TemporalMesh,
    name: str = "trajectory",
) -> np.ndarray:
    """Check shape (N, M) and finiteness; returns the array unchanged."""
    arr = np.asarray(values, dtype=float)
    expected = (tmesh.step_count, smesh.interior_count)
    if arr.shape != expected:
        raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass
class ProblemSpec:
    """One full problem instance.

    Exponents p (state-space norm, matches a power rate map's) and
    m (gradient-energy exponent), the rate nonlinearity `nl`, the cellwise
    diffusion coefficient `a`, the sampled forcing `f` of shape (N, M), and
    the two meshes.  In one space dimension the compact-embedding
    precondition behind the exponent pairing holds for every p, m > 1, so it
    is recorded here but never enforced.
    """

    p: float
    m: float
    nl: "Nonlinearity"
    a: "DiffusionField"
    f: np.ndarray
    smesh: SpatialMesh
    tmesh: TemporalMesh

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.m > 1.0:
            raise ValueError(f"m must exceed 1, got {self.m}")
        if self.nl.kind == "power" and abs(self.nl.p_exponent - self.p) > 1e-12:
            raise ValueError(
                "nonlinearity exponent "
                f"{self.nl.p_exponent} does not match problem p = {self.p}"
            )
        ncells = self.smesh.interior_count + 1
        if self.a.midpoint_values.shape != (ncells,):
            raise ValueError(
                f"diffusion field has {self.a.midpoint_values.shape[0]} cells, "
                f"mesh needs {ncells}"
            )
        self.f = validate_trajectory(self.f, self.smesh, self.tmesh, "forcing")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def m_conj(self) -> float:
        return self.m / (self.m - 1.0)


# ---------------------------------------------------------------------------
# discrete calculus


def time_derivative(u: np.ndarray, tmesh: TemporalMesh) -> np.ndarray:
    """Backward difference with periodic wrap: slice n is (u_n - u_{n-1})/dt.

    Summing the output over one period gives the zero field exactly
    (telescoping around the wrap).
    """
    u = np.asarray(u, dtype=float)
    du = np.empty_like(u)
    np.subtract(u[1:], u[:-1], out=du[1:])
    np.subtract(u[0], u[-1], out=du[0])
    du /= tmesh.dt
    return du


def pairing(xi: np.ndarray, v: np.ndarray, smesh: SpatialMesh) -> float | np.ndarray:
    """Duality pairing <xi, v> = sum_i dx xi_i v_i over the last axis."""
    return smesh.dx * np.sum(np.asarray(xi) * np.asarray(v), axis=-1)


def norm_V(v: np.ndarray, p: float, smesh: SpatialMesh) -> float | np.ndarray:
    """Nodal L^p norm (sum dx |v_i|^p)^(1/p) over the last axis.

    A dual field's norm in V* is this norm at the conjugate exponent p'.
    For a constant field this misses the two boundary half-cells, so the
    value is (L - dx)^(1/p) rather than L^(1/p); the O(dx) defect is the
    documented boundary-cell quadrature convention.  The powers are not
    scaled, so where |v_i|^p leaves the float range the norm reads inf or
    0; a dual trajectory's norm is dual_bochner_norm, which scales them.
    """
    v = np.asarray(v, dtype=float)
    return (smesh.dx * np.sum(np.abs(v) ** p, axis=-1)) ** (1.0 / p)


def cell_gradient(v: np.ndarray, smesh: SpatialMesh) -> np.ndarray:
    """Cellwise gradient with Dirichlet ghosts, last axis M -> M+1."""
    v = np.asarray(v, dtype=float)
    z = np.zeros(v.shape[:-1] + (v.shape[-1] + 2,))
    z[..., 1:-1] = v
    return (z[..., 1:] - z[..., :-1]) / smesh.dx


def norm_X(v: np.ndarray, m: float, smesh: SpatialMesh) -> float | np.ndarray:
    """Gradient-energy norm (sum_cells dx |Dv|^m)^(1/m) over the last axis."""
    dv = cell_gradient(v, smesh)
    return (smesh.dx * np.sum(np.abs(dv) ** m, axis=-1)) ** (1.0 / m)


def dual_bochner_norm(xi: np.ndarray, prob: ProblemSpec) -> float:
    """Norm of a dual trajectory: p' in time, the nodal V* norm in space.

    Every residual and dual forcing of the problem is measured in it.  With
    one exponent p' in time and space it is one power sum over the
    trajectory, (dt dx sum_{n,i} |xi_{n,i}|^p')^(1/p').  The entries are
    divided by s = max |xi| before they are powered, as LAPACK's dnrm2
    scales its sum, so the sum neither overflows nor underflows unless the
    norm itself does: s (dt dx sum |xi/s|^p')^(1/p').  The norm is 0 for
    xi = 0 and not finite when an entry is not.
    """
    N = prob.tmesh.step_count
    xi = np.asarray(xi, dtype=float)
    if xi.shape[:-1] != (N,):
        raise ValueError(f"a dual trajectory needs {N} slices, got shape {xi.shape}")
    powers = np.abs(xi)
    s = float(np.max(powers))
    if not 0.0 < s < math.inf:  # zero, infinite or NaN
        return s
    powers /= s
    powers **= prob.p_conj
    total = prob.tmesh.dt * prob.smesh.dx * np.add.reduce(powers, axis=None)
    return s * float(total ** (1.0 / prob.p_conj))


# ---------------------------------------------------------------------------
# file formats: CSV under a header of column names (a field's are t,x,value,
# row-major by time slice) and a gnuplot-ready .dat mirror. Floats carry 17
# significant digits so that a round trip is bit exact.

_FMT = "%.17g"
FIELD_COLUMNS = ("t", "x", "value")


def format_field(
    values: np.ndarray, smesh: SpatialMesh, tmesh: TemporalMesh
) -> list[str]:
    """The rows t,x,value of a field, one string of lines per slice.

    Each node, each time and each value is formatted once; write_csv and
    write_dat both write these blocks, so one formatting feeds both files.
    """
    values = validate_trajectory(values, smesh, tmesh, "field")
    xs = [_FMT % x + "," for x in smesh.nodes.tolist()]
    blocks = []
    for t, row in zip(tmesh.times.tolist(), values.tolist()):
        head = _FMT % t + ","
        blocks.append("".join([f"{head}{x}{_FMT % v}\n" for x, v in zip(xs, row)]))
    return blocks


def format_rows(rows: list[list]) -> str:
    """The lines of a table's rows: a bool as 1 or 0, an integer as itself,
    a float with 17 digits and anything else as its str."""

    def fmt(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return _FMT % v if isinstance(v, float) else str(v)

    return "".join([",".join([fmt(v) for v in row]) + "\n" for row in rows])


def write_csv(path: str, columns: Sequence[str], blocks: list[str]) -> None:
    """The CSV file of blocks of rows, as format_field or format_rows return
    them, under a header of columns."""
    # no field holds a comma, a quote or a line break, so none is quoted
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(blocks)


def read_field_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a t,x,value grid file; returns (values (N, M), times, nodes)."""
    ts: list[float] = []
    xs: list[float] = []
    vals: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(h.strip() for h in header) != FIELD_COLUMNS:
            raise ValueError(f"bad field CSV header {header!r} in {path}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(
                    f"field CSV {path} line {reader.line_num} has {len(row)} "
                    "fields, expected 3"
                )
            ts.append(float(row[0]))
            xs.append(float(row[1]))
            vals.append(float(row[2]))
    t_unique = np.unique(ts)
    x_unique = np.unique(xs)
    n, m = len(t_unique), len(x_unique)
    if n * m != len(vals):
        raise ValueError(f"field CSV {path} is not a full grid")
    arr = np.asarray(vals, dtype=float).reshape(n, m)
    return arr, t_unique, x_unique


def write_dat(path: str, columns: Sequence[str], blocks: list[str]) -> None:
    """Gnuplot mirror of blocks of rows, as format_field or format_rows
    return them: blank-line separated blocks, space separated columns."""
    # no field holds a comma
    with open(path, "w") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        fh.write("\n".join(blocks).replace(",", " "))
