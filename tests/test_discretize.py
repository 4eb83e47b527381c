import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import perisolve.convexcore as cc
from oracles import field_file_oracle
from util import unit_problem
from perisolve.discretize import (
    FIELD_COLUMNS,
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    bochner_norm,
    cell_gradient,
    dual_bochner_norm,
    format_field,
    norm_V,
    norm_X,
    pairing,
    read_field_csv,
    time_derivative,
    validate_trajectory,
    write_csv,
    write_dat,
)

fields = arrays(
    float,
    st.tuples(st.integers(2, 6), st.integers(1, 7)),
    elements=st.floats(-10.0, 10.0),
)


def test_spatial_mesh_geometry():
    sm = SpatialMesh(2.0, 7)
    assert sm.dx * (sm.interior_count + 1) == pytest.approx(2.0, abs=1e-15)
    assert sm.nodes.shape == (7,)
    assert sm.nodes[0] == pytest.approx(sm.dx)
    assert sm.nodes[-1] == pytest.approx(2.0 - sm.dx)
    assert sm.cell_midpoints.shape == (8,)
    assert sm.cell_midpoints[0] == pytest.approx(sm.dx / 2)
    assert sm.cell_midpoints[-1] == pytest.approx(2.0 - sm.dx / 2)


@pytest.mark.parametrize("length,count", [(0.0, 4), (-1.0, 4), (np.inf, 4), (1.0, 0)])
def test_spatial_mesh_validation(length, count):
    with pytest.raises(ValueError):
        SpatialMesh(length, count)


def test_temporal_mesh_geometry():
    tm = TemporalMesh(3.0, 6)
    assert tm.dt == pytest.approx(0.5)
    assert tm.times[0] == 0.0
    assert tm.times[-1] == pytest.approx(3.0 - tm.dt)


@pytest.mark.parametrize("period,count", [(1.0, 1), (0.0, 4), (-2.0, 4)])
def test_temporal_mesh_validation(period, count):
    with pytest.raises(ValueError):
        TemporalMesh(period, count)


def test_time_derivative_constant_is_zero():
    tm = TemporalMesh(1.0, 8)
    u = np.full((8, 5), 3.7)
    assert np.all(time_derivative(u, tm) == 0.0)


@given(fields)
@settings(max_examples=50, deadline=None)
def test_time_derivative_telescopes(u):
    # summing backward differences once around the period cancels exactly
    tm = TemporalMesh(2.0, u.shape[0])
    total = tm.dt * time_derivative(u, tm).sum(axis=0)
    assert np.all(np.abs(total) <= 1e-12 * (1.0 + np.abs(u).max()))


@given(fields)
@settings(max_examples=50, deadline=None)
def test_time_derivative_inverts_cumsum(g):
    tm = TemporalMesh(1.5, g.shape[0])
    g = g - g.mean(axis=0, keepdims=True)
    u = tm.dt * np.cumsum(g, axis=0)
    back = time_derivative(u, tm)
    assert np.allclose(back, g, atol=1e-10 * (1.0 + np.abs(g).max()))


def test_pairing_slices_and_trajectories(rng):
    sm = SpatialMesh(1.0, 6)
    xi = rng.normal(size=6)
    v = rng.normal(size=6)
    assert pairing(xi, v, sm) == pytest.approx(sm.dx * np.dot(xi, v))
    traj = rng.normal(size=(4, 6))
    per_slice = pairing(traj, traj, sm)
    assert per_slice.shape == (4,)
    assert np.allclose(per_slice, sm.dx * (traj**2).sum(axis=1))
    # bilinearity
    w = rng.normal(size=6)
    lhs = pairing(xi, 2.0 * v + w, sm)
    assert lhs == pytest.approx(2.0 * pairing(xi, v, sm) + pairing(xi, w, sm))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_norm_V_boundary_convention(p):
    # constant field: value is (L - dx)^(1/p), the documented half-cell defect
    sm = SpatialMesh(1.0, 31)
    val = norm_V(np.ones(31), p, sm)
    assert val == pytest.approx((1.0 - sm.dx) ** (1.0 / p), rel=1e-14)
    assert abs(val - 1.0) <= sm.dx


@given(fields, st.sampled_from([1.5, 2.0, 2.5, 4.0]))
@settings(max_examples=50, deadline=None)
def test_holder_inequality(data, p):
    sm = SpatialMesh(1.0, data.shape[1])
    xi, v = data[0], data[-1]
    pc = p / (p - 1.0)
    bound = norm_V(xi, pc, sm) * norm_V(v, p, sm)
    assert abs(pairing(xi, v, sm)) <= bound * (1.0 + 1e-12) + 1e-15


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dual_norm_attained(p, rng):
    # the p'-power field realizes the dual norm, so sup is an equality
    sm = SpatialMesh(2.0, 17)
    xi = rng.normal(size=17)
    pc = p / (p - 1.0)
    v_star = np.abs(xi) ** (pc - 2.0) * xi
    ratio = pairing(xi, v_star, sm) / norm_V(v_star, p, sm)
    assert ratio == pytest.approx(norm_V(xi, pc, sm), rel=1e-12)


def test_cell_gradient_exact_on_quadratics():
    sm = SpatialMesh(1.0, 24)
    u = sm.nodes * (1.0 - sm.nodes)
    dv = cell_gradient(u, sm)
    assert dv.shape == (25,)
    assert np.allclose(dv, 1.0 - 2.0 * sm.cell_midpoints, atol=1e-13)


def test_norm_X_quadrature_error_is_second_order():
    # integral of |d/dx x(1-x)|^2 over [0,1] is 1/3
    errs = []
    for M in (32, 64):
        sm = SpatialMesh(1.0, M)
        u = sm.nodes * (1.0 - sm.nodes)
        errs.append(abs(norm_X(u, 2.0, sm) ** 2 - 1.0 / 3.0))
        assert errs[-1] <= sm.dx**2
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_bochner_norm_values_and_validation():
    tm = TemporalMesh(2.0, 8)
    u = np.full((8, 3), 1.5)
    sm = SpatialMesh(1.0, 3)
    sn = norm_V(u, 2.0, sm)
    const_slice = norm_V(u[0], 2.0, sm)
    assert bochner_norm(sn, 2.0, tm) == pytest.approx(
        const_slice * 2.0**0.5, rel=1e-13
    )
    assert bochner_norm(sn, np.inf, tm) == pytest.approx(const_slice)
    with pytest.raises(ValueError, match="exponent r"):
        bochner_norm(sn, 0.5, tm)
    with pytest.raises(ValueError, match="slice norms must have shape"):
        bochner_norm(np.zeros(3), 2.0, tm)


@pytest.mark.parametrize("N", [2, 3, 17])
@pytest.mark.parametrize("p", [4.0, 3.0, 2.0, 1.5])  # p' = 4/3, 3/2, 2, 3
def test_dual_bochner_norm_is_the_two_step_norm_bit_for_bit(rng, p, N):
    prob = unit_problem(p, 2.0, 5, N)
    pc, sm, tm = prob.p_conj, prob.smesh, prob.tmesh
    assert pc == p / (p - 1.0)
    extremes = [0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1e-150, -3e-150,
                1e150, -7e149, 1.0]
    for trial in range(8):
        xi = rng.normal(size=(N, 5)) * 10.0 ** rng.integers(-3, 4)
        # zeros, subnormals and entries near 1e+-150 at random places, and
        # on the first trials a whole slice of zeros or of one extreme
        hits = rng.random(xi.shape) < 0.4
        xi[hits] = rng.choice(extremes, size=int(hits.sum()))
        if trial < len(extremes):
            xi[trial % N] = extremes[trial]
        # |1e150|^3 overflows to inf on both paths
        with np.errstate(over="ignore"):
            want = bochner_norm(norm_V(xi, pc, sm), pc, tm)
            got = dual_bochner_norm(xi, prob)
        assert got == want, (trial, xi)
    with pytest.raises(ValueError, match="slice norms must have shape"):
        dual_bochner_norm(np.zeros((N + 1, 5)), prob)


def test_field_csv_roundtrip_bit_exact(tmp_path, rng):
    sm = SpatialMesh(np.pi, 6)
    tm = TemporalMesh(np.e, 5)
    values = rng.normal(size=(5, 6))
    path = tmp_path / "field.csv"
    write_csv(str(path), FIELD_COLUMNS, format_field(values, sm, tm))
    assert path.read_text().splitlines()[0] == "t,x,value"
    arr, t_read, x_read = read_field_csv(str(path))
    assert np.array_equal(arr, values)
    assert np.array_equal(t_read, tm.times)
    assert np.array_equal(x_read, sm.nodes)


def test_field_csv_skips_blank_lines_and_rejects_a_partial_grid(tmp_path, rng):
    sm, tm = SpatialMesh(1.0, 3), TemporalMesh(1.0, 2)
    values = rng.normal(size=(2, 3))
    path = tmp_path / "field.csv"
    write_csv(str(path), FIELD_COLUMNS, format_field(values, sm, tm))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines[:4], "\n", *lines[4:], "\n"]))
    arr, _, _ = read_field_csv(str(path))
    assert np.array_equal(arr, values)
    # one row short of the 2 x 3 grid
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match="is not a full grid"):
        read_field_csv(str(path))


def test_write_dat_mirrors_values(tmp_path, rng):
    sm = SpatialMesh(1.0, 3)
    tm = TemporalMesh(1.0, 2)
    values = rng.normal(size=(2, 3))
    path = tmp_path / "field.dat"
    write_dat(str(path), FIELD_COLUMNS, format_field(values, sm, tm))
    lines = path.read_text().splitlines()
    assert lines[0] == "# t x value"
    assert lines[4] == ""  # blank separator between time blocks
    parsed = [float(ln.split()[2]) for ln in lines[1:4]]
    assert np.array_equal(np.asarray(parsed), values[0])


def test_field_files_match_the_row_by_row_oracle(tmp_path):
    # signed zero, the smallest subnormal, a huge negative, and values that
    # need all 17 digits, on a grid whose nodes and times need them too
    sm = SpatialMesh(0.7, 3)
    tm = TemporalMesh(0.3, 4)
    values = np.array(
        [
            [-0.0, 5e-324, -1.5e300],
            [0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0)],
            [-np.pi * 1e-7, 2.0**-1074 * 3, 1.7976931348623157e308],
            [0.0, -2.0 / 3.0, 123456789.01234567],
        ]
    )
    csv_text, dat_text = field_file_oracle(values, sm, tm)
    blocks = format_field(values, sm, tm)
    write_csv(str(tmp_path / "f.csv"), FIELD_COLUMNS, blocks)
    write_dat(str(tmp_path / "f.dat"), FIELD_COLUMNS, blocks)
    assert (tmp_path / "f.csv").read_bytes() == csv_text.encode()
    assert (tmp_path / "f.dat").read_bytes() == dat_text.encode()
    arr, t_read, x_read = read_field_csv(str(tmp_path / "f.csv"))
    assert np.array_equal(arr.view(np.int64), values.view(np.int64))
    assert np.array_equal(t_read, tm.times) and np.array_equal(x_read, sm.nodes)


def test_validate_trajectory_errors():
    sm = SpatialMesh(1.0, 3)
    tm = TemporalMesh(1.0, 4)
    with pytest.raises(ValueError, match=r"state has shape \(4, 2\)"):
        validate_trajectory(np.zeros((4, 2)), sm, tm, "state")
    bad = np.zeros((4, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        validate_trajectory(bad, sm, tm)


def test_problem_spec_validation():
    sm = SpatialMesh(1.0, 4)
    tm = TemporalMesh(1.0, 3)
    a = cc.DiffusionField.constant(1.0, sm)
    f = np.zeros((3, 4))
    nl = cc.Nonlinearity.power(2.0)
    with pytest.raises(ValueError, match="p must exceed 1"):
        ProblemSpec(p=1.0, m=2.0, nl=nl, a=a, f=f, smesh=sm, tmesh=tm)
    with pytest.raises(ValueError, match="m must exceed 1"):
        ProblemSpec(p=2.0, m=0.5, nl=nl, a=a, f=f, smesh=sm, tmesh=tm)
    with pytest.raises(ValueError, match="does not match problem p"):
        ProblemSpec(
            p=3.0, m=2.0, nl=nl, a=a, f=f, smesh=sm, tmesh=tm
        )
    with pytest.raises(ValueError, match="cells"):
        ProblemSpec(
            p=2.0,
            m=2.0,
            nl=nl,
            a=cc.DiffusionField(np.ones(3)),
            f=f,
            smesh=sm,
            tmesh=tm,
        )
    with pytest.raises(ValueError, match="forcing"):
        ProblemSpec(
            p=2.0, m=2.0, nl=nl, a=a, f=np.zeros((3, 5)), smesh=sm, tmesh=tm
        )


def test_problem_spec_conjugate_exponents():
    sm = SpatialMesh(1.0, 2)
    tm = TemporalMesh(1.0, 2)
    prob = ProblemSpec(
        p=2.5,
        m=3.0,
        nl=cc.Nonlinearity.power(2.5),
        a=cc.DiffusionField.constant(1.0, sm),
        f=np.zeros((2, 2)),
        smesh=sm,
        tmesh=tm,
    )
    assert 1.0 / prob.p + 1.0 / prob.p_conj == pytest.approx(1.0, rel=1e-15)
    assert 1.0 / prob.m + 1.0 / prob.m_conj == pytest.approx(1.0, rel=1e-15)
