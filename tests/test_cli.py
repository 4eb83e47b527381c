import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tempfile
from copy import deepcopy
from math import inf, nan
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perisolve
import perisolve.variational as var
import perisolve.verify as vf
from perisolve import cascade, cli
from perisolve.discretize import (
    FIELD_COLUMNS,
    SpatialMesh,
    TemporalMesh,
    dual_bochner_norm,
    format_field,
    read_field_csv,
    write_csv,
)
from util import unit_problem


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def small_problem(**overrides) -> dict:
    doc = {
        "p": 2.0,
        "m": 3.0,
        "L": 1.0,
        "T": 1.0,
        "M": 8,
        "N": 8,
        "forcing": {
            "kind": "terms",
            "terms": [
                {
                    "amplitude": 1.0,
                    "space_mode": 1,
                    "space_profile": "sin",
                    "time_mode": 1,
                    "time_profile": "sin",
                }
            ],
        },
    }
    doc.update(overrides)
    return doc


class TestLoadConfig:
    def test_missing_file(self):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.load_config("/nonexistent/cfg.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        # besides bad syntax: an integer of more digits than Python converts,
        # nesting deeper than the parser recurses, and bytes that are not UTF-8
        for text in (b"{", b"1" * 5000, b"[" * 100000 + b"]" * 100000, b"\xff"):
            p.write_bytes(text)
            with pytest.raises(cli.ConfigError, match="invalid JSON"):
                cli.load_config(str(p))

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(cli.ConfigError, match="top level"):
            cli.load_config(str(p))

    def test_schema_version(self, tmp_path):
        path = write_config(tmp_path, {"schema": 2, "problem": small_problem()})
        with pytest.raises(cli.ConfigError, match="unsupported schema version 2"):
            cli.load_config(path)

    def test_bad_route(self, tmp_path):
        path = write_config(
            tmp_path, {"route": "direct", "problem": small_problem()}
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(path)
        assert err.value.key == "route"

    def test_errors_name_the_dotted_key(self, tmp_path):
        cases = [
            ({"problem": small_problem(m=0.5)}, "problem.m"),
            ({"problem": small_problem(p=1.0)}, "problem.p"),
            ({"problem": small_problem(forcing={"kind": "blob"})}, "problem.forcing.kind"),
            (
                {
                    "problem": small_problem(
                        diffusion={"kind": "values", "values": [1.0, 2.0]}
                    )
                },
                "problem.diffusion.values",
            ),
            # the diffusion coefficient must be positive on every cell
            (
                {
                    "problem": small_problem(
                        diffusion={"kind": "values", "values": [1.0] * 8 + [0.0]}
                    )
                },
                "problem.diffusion",
            ),
            (
                {
                    "problem": small_problem(
                        diffusion={"kind": "sin_modulated", "amplitude": -2.0}
                    )
                },
                "problem.diffusion",
            ),
            (
                {"problem": small_problem(nonlinearity={"kind": "cubic"})},
                "problem.nonlinearity.kind",
            ),
            ({"problem": small_problem(), "cascade": {"fp_tol": 0.0}}, "cascade.fp_tol"),
            (
                {"problem": small_problem(), "cascade": {"lambda_schedule": [0.1]}},
                "cascade.lambda_schedule",
            ),
            ({"problem": small_problem(M="8")}, "problem.M"),
            # a grid whose arrays numpy cannot even size
            ({"problem": small_problem(M=10**400)}, "problem.M"),
            ({"problem": small_problem(N=2**62)}, "problem.N"),
            ({"problem": small_problem(M=True)}, "problem.M"),
            # each grid size and mesh extent is named by its own key
            ({"problem": small_problem(M=0, N=4)}, "problem.M"),
            ({"problem": small_problem(N=1)}, "problem.N"),
            ({"problem": small_problem(L=-1)}, "problem.L"),
            ({"problem": small_problem(T=0)}, "problem.T"),
            # the knobs of the retired fixed point iteration and stage minimizer
            (
                {"problem": small_problem(), "cascade": {"anderson_depth": 3}},
                "cascade.anderson_depth",
            ),
            ({"problem": small_problem(), "cascade": {"omega": 0.5}}, "cascade.omega"),
            (
                {"problem": small_problem(), "cascade": {"max_newton": 80}},
                "cascade.max_newton",
            ),
            ({}, "problem"),
            # JSON admits NaN and Infinity; none of them may reach a solve
            ({"problem": small_problem(L=inf)}, "problem.L"),
            ({"problem": small_problem(), "cascade": {"fp_tol": nan}}, "cascade.fp_tol"),
            (
                {"problem": small_problem(), "cascade": {"stage_tol": inf}},
                "cascade.stage_tol",
            ),
            # retired knobs: every epsilon walk ends at eps = 0, and a sweep
            # solves each pair once.  The epsilon ladder, the mu levels, the
            # smoothing delta and the stage step budget are constants, and the
            # perturbation exponent is derived from (p, m): a cascade key
            # naming one of them is unknown, whatever its value
            (
                {"problem": small_problem(), "cascade": {"epsilon_schedule": [None]}},
                "cascade.epsilon_schedule",
            ),
            (
                {"problem": small_problem(), "cascade": {"epsilon_schedule": [1.0, nan]}},
                "cascade.epsilon_schedule",
            ),
            (
                {"problem": small_problem(), "cascade": {"mu_schedule": [0.1]}},
                "cascade.mu_schedule",
            ),
            (
                {"problem": small_problem(), "cascade": {"max_fp_iter": -1}},
                "cascade.max_fp_iter",
            ),
            ({"problem": small_problem(), "cascade": {"delta": nan}}, "cascade.delta"),
            (
                {"problem": small_problem(M=4, N=4, m=1.5), "cascade": {"delta": 0}},
                "cascade.delta",
            ),
            (
                {"problem": small_problem(), "cascade": {"alpha_exp": -1}},
                "cascade.alpha_exp",
            ),
            (
                {"problem": small_problem(p=3.0, m=2.0), "cascade": {"alpha_exp": 0.2}},
                "cascade.alpha_exp",
            ),
            (
                {"problem": small_problem(), "cascade": {"exact_limit_stage": False}},
                "cascade.exact_limit_stage",
            ),
            (
                {"problem": small_problem(), "sweep": {"epsilon_final": [1e-4]}},
                "sweep.epsilon_final",
            ),
            (
                {"problem": small_problem(), "cascade": {"mu_eps_truncate": 0}},
                "cascade.mu_eps_truncate",
            ),
            # a misspelt key anywhere would leave its default in force
            ({"problem": small_problem(), "cascde": {}}, "cascde"),
            ({"problem": {"MM": 64}}, "problem.MM"),
            (
                {"problem": small_problem(nonlinearity={"kind": "power", "p": 3})},
                "problem.nonlinearity.p",
            ),
            (
                {
                    "problem": small_problem(
                        nonlinearity={"breakpoints": [[-1.0, -1.0], [1.0, 1.0]]}
                    )
                },
                "problem.nonlinearity.breakpoints",
            ),
            (
                {"problem": small_problem(diffusion={"kind": "constant", "base": 2})},
                "problem.diffusion.base",
            ),
            # a tabulated map read from a file reads no inline table
            (
                {
                    "problem": small_problem(
                        nonlinearity={
                            "kind": "custom_tabulated",
                            "path": "table.csv",
                            "s_values": [0.0, 1.0],
                        }
                    )
                },
                "problem.nonlinearity.s_values",
            ),
            # an inline table pairs every s value with one alpha value
            (
                {
                    "problem": small_problem(
                        nonlinearity={
                            "kind": "custom_tabulated",
                            "s_values": [-1.0, 0.0, 1.0],
                            "alpha_values": [-1.0, 1.0],
                        }
                    )
                },
                "problem.nonlinearity",
            ),
            ({"problem": small_problem(), "mms": {"levels": "x"}}, "mms.levels"),
            ({"problem": small_problem(), "mosco": {"kind": "bogus"}}, "mosco.kind"),
            # the continuum forcing needs constant diffusion
            (
                {
                    "problem": small_problem(diffusion={"kind": "sin_modulated"}),
                    "mms": {"mode": "continuum"},
                },
                "mms.mode",
            ),
            # at m < 2 the continuum forcing is singular on a node at x = L/2
            (
                {
                    "problem": small_problem(m=1.5),
                    "mms": {"mode": "continuum", "exact": "steady_sin",
                            "levels": [[8, 4], [15, 4]]},
                },
                "mms.levels",
            ),
        ]
        commands = {"sweep": cli.cmd_sweep, "mms": cli.cmd_mms, "mosco": cli.cmd_mosco}
        for doc, key in cases:
            path = write_config(tmp_path, doc)
            with pytest.raises(cli.ConfigError) as err:
                cfg = cli.load_config(path, output_override=str(tmp_path / "out"))
                for block, command in commands.items():
                    if block in doc:
                        command(cfg)
            assert err.value.key == key, str(err.value)
            # a config error leaves no output directory behind
            assert not (tmp_path / "out").exists(), key

    def test_defaults_and_override(self, tmp_path):
        path = write_config(tmp_path, {"problem": small_problem()})
        cfg = cli.load_config(path, output_override=str(tmp_path / "o"))
        assert cfg.route == "auto"
        assert cfg.seed == 0
        assert cfg.output_dir == str(tmp_path / "o")
        assert cfg.problem.m == 3.0
        assert cfg.cascade.fp_tol == 1e-10


def load_forcing(tmp_path: Path, forcing: dict, M: int, N: int) -> np.ndarray:
    """The forcing array that load_config samples on an M x N unit grid."""
    doc = {"problem": small_problem(M=M, N=N, forcing=forcing)}
    return cli.load_config(write_config(tmp_path, doc)).problem.f


def test_forcing_zero_and_sinusoid(tmp_path):
    assert np.all(load_forcing(tmp_path, {"kind": "zero"}, 9, 4) == 0.0)
    spec = {
        "kind": "sinusoid",
        "amplitude": 2.0,
        "space_mode": 1,
        "time_mode": 1,
        "space_profile": "sin",
        "time_profile": "cos",
    }
    f = load_forcing(tmp_path, spec, 9, 4)
    sm, tm = SpatialMesh(1.0, 9), TemporalMesh(1.0, 4)
    expect = (
        2.0
        * np.cos(2.0 * np.pi * tm.times[:, None])
        * np.sin(np.pi * sm.nodes[None, :])
    )
    assert np.array_equal(f, expect)


def test_forcing_terms_sum(tmp_path):
    t1 = {"kind": "sinusoid", "amplitude": 1.0}
    t2 = {"kind": "sinusoid", "amplitude": 0.5, "time_profile": "sin", "time_mode": 1}
    total = load_forcing(tmp_path, {"kind": "terms", "terms": [t1, t2]}, 5, 3)
    parts = load_forcing(tmp_path, t1, 5, 3) + load_forcing(tmp_path, t2, 5, 3)
    assert np.array_equal(total, parts)


def test_forcing_rejects_bad_specs(tmp_path):
    for spec, key in [
        ({"kind": "mystery"}, "problem.forcing.kind"),
        ({"kind": "sinusoid", "space_profile": "tan"}, "problem.forcing.space_profile"),
        ({"kind": "sinusoid", "time_profile": "ramp"}, "problem.forcing.time_profile"),
    ]:
        with pytest.raises(cli.ConfigError) as err:
            load_forcing(tmp_path, spec, 5, 3)
        assert err.value.key == key


def test_field_csv_feeds_forcing_and_rejects_mismatch(tmp_path, rng):
    values = rng.normal(size=(3, 4))
    path = tmp_path / "f.csv"
    blocks = format_field(values, SpatialMesh(1.0, 4), TemporalMesh(1.0, 3))
    write_csv(str(path), FIELD_COLUMNS, blocks)
    back = load_forcing(tmp_path, {"kind": "csv", "path": str(path)}, 4, 3)
    assert np.array_equal(back, values)
    with pytest.raises(cli.ConfigError, match="does not match") as err:
        load_forcing(tmp_path, {"kind": "csv", "path": str(path)}, 4, 4)
    assert err.value.key == "problem.forcing.path"
    (tmp_path / "bad.csv").write_text("a,b,c\n1,2,3\n")
    with pytest.raises(cli.ConfigError, match="header") as err:
        load_forcing(tmp_path, {"kind": "csv", "path": str(tmp_path / "bad.csv")}, 4, 3)
    assert err.value.key == "problem.forcing.path"
    # the same grid on [0, 2], and a file one row short of a grid
    blocks = format_field(values, SpatialMesh(2.0, 4), TemporalMesh(1.0, 3))
    write_csv(str(path), FIELD_COLUMNS, blocks)
    with pytest.raises(cli.ConfigError, match="coordinates do not match") as err:
        load_forcing(tmp_path, {"kind": "csv", "path": str(path)}, 4, 3)
    assert err.value.key == "problem.forcing.path"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(cli.ConfigError, match="is not a full grid") as err:
        load_forcing(tmp_path, {"kind": "csv", "path": str(path)}, 4, 3)
    assert err.value.key == "problem.forcing.path"


class TestSolve:
    def test_zero_forcing_writes_zero_trajectory(self, tmp_path):
        doc = {
            "output_dir": str(tmp_path / "out"),
            "problem": small_problem(forcing={"kind": "zero"}),
        }
        code = cli.cmd_solve(cli.load_config(write_config(tmp_path, doc)))
        assert code == cli.EXIT_OK
        u, t, x = read_field_csv(str(tmp_path / "out" / "trajectory.csv"))
        assert u.shape == (8, 8)
        assert np.all(u == 0.0)
        assert (tmp_path / "out" / "trajectory.dat").exists()
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["command"] == "solve"
        assert rep["exit_code"] == 0
        assert rep["converged"] is True
        assert rep["config"] == doc  # config echoed verbatim

    def test_nonconvergence_exits_2_but_reports(self, tmp_path, monkeypatch):
        # without a Newton step the first stage stays at u = 0, where the
        # stage equation's residual is the forcing
        monkeypatch.setattr(cascade, "EPSILON_SCHEDULE", (0.5,))
        monkeypatch.setattr(cascade, "MAX_FP_ITER", 0)
        doc = {"output_dir": str(tmp_path / "st"), "problem": small_problem()}
        code = cli.cmd_solve(cli.load_config(write_config(tmp_path, doc)))
        assert code == cli.EXIT_NOCONV
        rep = json.loads((tmp_path / "st" / "report.json").read_text())
        assert rep["exit_code"] == 2
        assert rep["converged"] is False
        assert (tmp_path / "st" / "trajectory.csv").exists()

    def test_singular_newton_solve_exits_2_but_reports(self, tmp_path, monkeypatch):
        import perisolve.variational as var

        dgbsv = var.dgbsv

        def singular(kl, ku, ab, b, **kwargs):
            # a zero band: LAPACK itself reports a zero pivot, info > 0
            ab[...] = 0.0
            out = dgbsv(kl, ku, ab, b, **kwargs)
            assert out[3] > 0
            return out

        monkeypatch.setattr(var, "dgbsv", singular)
        # every stage starts from u = 0, whose time-constant Jacobian the
        # exact step would solve: take the band there too
        monkeypatch.setattr(var._Jacobian, "time_invariant", lambda jac: False)
        monkeypatch.setattr(cascade, "EPSILON_SCHEDULE", (0.5,))
        self.assert_singular_at_the_start(tmp_path, {"problem": small_problem()})

    @pytest.mark.filterwarnings("error")
    def test_singular_exact_step_exits_2_but_reports(self, tmp_path, monkeypatch):
        # p = m = 3 at delta = 0: at u = 0 the spatial block, alpha's slope
        # and, at eps > 0, the lower-order terms all vanish, so the exact
        # step's symbol is zero at theta = 0 on every stage
        monkeypatch.setattr(cascade, "EPSILON_SCHEDULE", (0.5,))
        monkeypatch.setattr(var, "DELTA", 0.0)
        doc = {"problem": small_problem(p=3.0, m=3.0)}
        self.assert_singular_at_the_start(tmp_path, doc)

    @staticmethod
    def assert_singular_at_the_start(tmp_path, doc):
        out = tmp_path / "sg"
        argv = ["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]
        assert cli.main([*argv, "--quiet"]) == cli.EXIT_NOCONV
        rep = json.loads((out / "report.json").read_text())
        assert rep["exit_code"] == 2 and rep["converged"] is False
        assert all(s["fixed_point_newton_steps"] == 0 for s in rep["stages"])
        assert not any(s["converged"] for s in rep["stages"])

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        doc = {"problem": small_problem(), "cascade": {"fp_tol": 1e-8}}
        path = write_config(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = ["solve", "--config", path, "--output", str(out), "--quiet"]
            assert cli.main(argv) == cli.EXIT_OK
            files = ("trajectory.csv", "report.json")
            outs.append([(out / f).read_bytes() for f in files])
        assert outs[0] == outs[1]

    def test_trajectory_csv_format(self, tmp_path):
        doc = {
            "output_dir": str(tmp_path / "fmt"),
            "problem": small_problem(M=4, N=4),
            "cascade": {"fp_tol": 1e-8},
        }
        cli.cmd_solve(cli.load_config(write_config(tmp_path, doc)))
        lines = (tmp_path / "fmt" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + 4 * 4
        first = lines[1].split(",")
        assert len(first) == 3
        float(first[2])  # parses


def test_cmd_verify_bundled_config(tmp_path, bundled_config_dir):
    cfg = cli.load_config(
        str(bundled_config_dir / "nonlinear_diffusion.json"),
        output_override=str(tmp_path / "v"),
    )
    code = cli.cmd_verify(cfg)
    assert code == cli.EXIT_OK
    rep = json.loads((tmp_path / "v" / "report.json").read_text())
    assert rep["command"] == "verify"
    assert rep["invariants"]["all_passed"] is True
    assert rep["growth_audit"]["all_finite"] is True
    assert (tmp_path / "v" / "growth_audit.csv").exists()


def test_cmd_verify_reports_a_stalled_proximal_solve(tmp_path, monkeypatch):
    # the proximal solve stalls on some m < 2 solutions; verify must record
    # it as a failed check, exit 2 and still write a valid JSON report
    def stalled(*args, **kwargs):
        raise RuntimeError("proximal solve stalled with stationarity residual 3.7e-02")

    monkeypatch.setattr(cli.cc, "moreau_yosida", stalled)
    doc = {"problem": small_problem(p=2.2, m=1.5, N=6)}
    out = tmp_path / "v"
    argv = ["verify", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_NOCONV

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    rep = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert rep["exit_code"] == 2 and rep["converged"] is True
    failed = [c for c in rep["invariants"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["proximal_sandwich"]
    assert "stalled" in failed[0]["message"]


@pytest.mark.parametrize("p", [2.2, 2.5])
def test_cmd_verify_passes_the_proximal_sandwich_above_two(tmp_path, p):
    # at p > 2 the proximal solve starts on a zero slice of the duality map;
    # a smoothed duality block there stalled it at m = 1.5
    doc = {"problem": small_problem(p=p, m=1.5, N=6)}
    out = tmp_path / "v"
    argv = ["verify", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in rep["invariants"]["checks"]}
    assert checks["proximal_sandwich"]["passed"], checks["proximal_sandwich"]


def test_cmd_verify_passes_the_proximal_sandwich_below_two(tmp_path):
    # at p < 2 this proximal solve stalled at a residual of 2.7e-11 against
    # its 1e-11 scaled tolerance under a descent rule that tested the energy;
    # halving each Newton step until the residual norm falls reaches it
    term = {
        "amplitude": 3.07, "space_mode": 1, "space_profile": "cos",
        "time_mode": 2, "time_profile": "sin",
    }
    forcing = {"kind": "terms", "terms": [term]}
    doc = {"problem": small_problem(p=1.83, m=2.73, M=5, N=6, forcing=forcing)}
    out = tmp_path / "v"
    argv = ["verify", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in rep["invariants"]["checks"]}
    assert checks["proximal_sandwich"]["passed"], checks["proximal_sandwich"]


def test_cascade_knobs_match_the_config_keys(tmp_path):
    # every CascadeParams field is a cascade config key, read as the JSON
    # type of its default; the cascade sets nothing else
    knobs = {"fp_tol": 1e-9, "stage_tol": 1e-11, "mu_eps_truncate": 2}
    assert {f.name for f in dataclasses.fields(cascade.CascadeParams)} == set(knobs)
    doc = {"problem": small_problem(), "cascade": knobs}
    loaded = cli.load_config(write_config(tmp_path, doc)).cascade
    assert loaded == cascade.CascadeParams(**knobs)
    # null, like an absent key, leaves every key at its default
    doc["cascade"] = {"fp_tol": None, "stage_tol": None, "mu_eps_truncate": None}
    loaded = cli.load_config(write_config(tmp_path, doc)).cascade
    assert loaded == cascade.CascadeParams()


forcing_terms = st.lists(
    st.fixed_dictionaries(
        {
            "amplitude": st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
            "space_mode": st.integers(1, 3),
            "space_profile": st.sampled_from(["sin", "cos"]),
            "time_mode": st.integers(0, 2),
            "time_profile": st.sampled_from(["const", "sin", "cos"]),
        }
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    p=st.floats(1.5, 3.0),
    m=st.floats(1.5, 3.0),
    M=st.integers(2, 8),
    N=st.integers(2, 8),
    terms=forcing_terms,
)
def test_random_small_problems_converge_or_report(p, m, M, N, terms):
    # the full solve on random small problems never raises.  A converged run
    # meets the stationarity bound and passes the invariant suite, apart
    # from a stalled proximal solve, which the suite records as a failed
    # check; a run that does not converge exits 2 and still writes its
    # report.  verify runs the solve and writes the report as solve does.
    doc = {
        "problem": {
            "p": p, "m": m, "M": M, "N": N,
            "forcing": {"kind": "terms", "terms": terms},
        }
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc)
        out = Path(tmp) / "v"
        code = cli.main(["verify", "--config", path, "--output", str(out), "--quiet"])
        rep = json.loads((out / "report.json").read_text())
        assert rep["exit_code"] == code in (cli.EXIT_OK, cli.EXIT_NOCONV)
        assert (out / "trajectory.csv").exists()
        if not rep["converged"]:
            assert code == cli.EXIT_NOCONV
            return
        cfg = cli.load_config(path)
        scale = max(1.0, dual_bochner_norm(cfg.problem.f, cfg.problem))
        assert rep["final_residual_AP"] <= 20.0 * cfg.cascade.fp_tol * scale
        for check in rep["invariants"]["checks"]:
            assert check["passed"] or (
                check["name"] == "proximal_sandwich" and "stalled" in check["message"]
            ), check


# the bundled configs, each with every subcommand block at its defaults
FUZZ_BASES = [
    {
        **json.loads(path.read_text()),
        "verify": {"sample_count": 40},
        "mms": {"exact": "separable_bump", "mode": "discrete_exact",
                "levels": [[8, 8], [16, 16], [32, 32]]},
        "mosco": {"kind": "diffusion_perturbation", "n_max": 8},
        "sweep": {"pairs": [[2, 2], [2, 3], [2.5, 3], [3, 2], [2, 1.5]]},
    }
    for path in sorted((Path(perisolve.__file__).parent / "configs").glob("*.json"))
]
# values that are not a JSON number the program can read as a float
NON_NUMBERS = [True, False, "x", "2", [1.0], [[1.0]], {}, nan, inf, -inf]
DELETE = object()


def config_nodes(node, path=()):
    """(path, value) of every node below node, path of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from config_nodes(value, path + (key,))


@st.composite
def mutated_configs(draw):
    """A bundled config with one node retyped or deleted."""
    doc = deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    path, old = draw(st.sampled_from(list(config_nodes(doc))))
    new = draw(st.sampled_from([*NON_NUMBERS, 10**400, DELETE]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc, path, old, new


class Validated(Exception):
    """Raised where a subcommand, its config validated, would start writing."""


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=mutated_configs())
def test_mutated_configs_load_or_name_the_key(case):
    # every mutated config loads and passes its subcommand validators, or
    # raises ConfigError naming a dotted key; a non-number where the program
    # reads a number is always a ConfigError naming that number's key or
    # the block entry that holds it
    doc, path, old, new = case
    commands = {"verify": cli.cmd_verify, "mms": cli.cmd_mms,
                "mosco": cli.cmd_mosco, "sweep": cli.cmd_sweep}
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        try:
            cfg = cli.load_config(config, output_override=str(Path(tmp) / "o"))
            with mock.patch.object(cli, "_ensure_dir", side_effect=Validated):
                for block in commands.keys() & doc.keys():
                    with pytest.raises(Validated):
                        commands[block](cfg)
        except cli.ConfigError as err:
            assert err.key and all(err.key.split(".")), err
            error = err
        else:
            error = None
    is_number = type(old) in (int, float)
    if is_number and any(new is v for v in NON_NUMBERS):
        dotted = ".".join(k for k in path if isinstance(k, str))
        assert error is not None, (path, new)
        assert dotted == error.key or dotted.startswith(error.key + "."), error


@pytest.mark.parametrize(
    "name, route", [("linear_heat", "mu"), ("nonlinear_diffusion", "plain")]
)
def test_report_accounts_for_all_the_work(
    tmp_path, monkeypatch, bundled_config_dir, name, route
):
    # count what the cascade runs and hold report.json to the same totals
    counts = {"stages": 0, "newton": 0}

    def count(attr, key, amount):
        fn = getattr(cascade, attr)

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += amount(out)
            return out

        monkeypatch.setattr(cascade, attr, counted)

    count("fixed_point_solve", "stages", lambda out: 1)
    count("newton_fixed_point", "newton", lambda out: len(out[1]) - 1)
    doc = json.loads((bundled_config_dir / f"{name}.json").read_text())
    doc["problem"].update(M=8, N=8)
    out = tmp_path / "o"
    argv = ["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    stages = rep["stages"]
    assert rep["route"] == route
    assert len(stages) == counts["stages"]
    assert sum(s["fixed_point_newton_steps"] for s in stages) == counts["newton"] > 0
    # no stage minimization is left to count
    assert all(s["beta_evaluations"] == 0 for s in stages)
    assert all(s["stage_newton_iterations"] == 0 for s in stages)
    assert all("epsilon" in s and "mu" in s for s in stages)
    # every step is solved exactly or through the band
    for s in stages:
        assert s["exact_steps"] + s["band_steps"] == s["fixed_point_newton_steps"]
    # the walk ends at the unperturbed eps = 0 stage, whose residual_AP the
    # report gives
    assert (stages[-1]["epsilon"], stages[-1]["mu"]) == (0.0, 0.0)
    assert rep["final_residual_AP"] == stages[-1]["residual_AP"]


def test_library_solves_compute_no_report_field(
    tmp_path, monkeypatch, bundled_config_dir
):
    # the energy margin and the audit are the report's: a solve that writes
    # no report computes neither
    def refuse(*args, **kwargs):
        raise AssertionError("a report field was computed")

    params = cascade.CascadeParams()
    with monkeypatch.context() as patch:
        patch.setattr(cascade, "stage_audit", refuse)
        patch.setattr(cascade, "energy_margin", refuse)
        seq = vf.MoscoSequenceSpec(
            "diffusion_perturbation", unit_problem(2.0, 2.0, 8, 8), (1, 2, 3)
        )
        assert all(vf.mosco_experiment(seq, params).column("converged"))
        prob = unit_problem(2.5, 3.0, 8, 8)
        for route, walked in (("auto", "plain"), ("mu", "mu")):
            final, _, name = cascade.solve_routed(prob, params, route=route)
            assert final.converged and name == walked
        # a target that fails within the step budget walks the ladder
        patch.setattr(cascade, "MAX_FP_ITER", 3)
        stages = cascade.epsilon_continuation(prob, params)
        assert not stages[0].converged and stages[1].epsilon == 1.0
    # perisolve solve computes them once for each stage it writes
    written = []
    report = cascade.stage_report

    def counted(stage):
        written.append(stage)
        return report(stage)

    monkeypatch.setattr(cli, "stage_report", counted)
    doc = json.loads((bundled_config_dir / "nonlinear_diffusion.json").read_text())
    doc["problem"].update(M=8, N=8)
    out = tmp_path / "o"
    argv = ["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert len(written) == len(rep["stages"]) > 0


def test_inline_identity_table_solves_as_the_power_map(tmp_path):
    # a two-knot table of alpha(s) = s, extended linearly past its knots, is
    # the power map at p = 2
    table = {"kind": "custom_tabulated", "s_values": [-1.0, 1.0],
             "alpha_values": [-1.0, 1.0]}
    finals = []
    for nl in ({"kind": "power"}, table):
        doc = {"problem": small_problem(p=2.0, nonlinearity=nl)}
        cfg = cli.load_config(write_config(tmp_path, doc))
        final, _, _ = cascade.solve_routed(cfg.problem, cfg.cascade)
        assert final.converged
        finals.append(final)
    assert finals[1].prob.nl.kind == "custom_tabulated"
    power, tabulated = (f.u for f in finals)
    assert np.abs(tabulated - power).max() <= 1e-12 * np.abs(power).max()


@pytest.mark.parametrize(
    "name, route, max_fp_iter",
    [
        ("linear_heat", "mu", None),
        ("nonlinear_diffusion", "mu", None),
        ("nonlinear_diffusion", "auto", 3),
        ("nonlinear_diffusion", "mu", 3),
    ],
)
def test_report_holds_each_stages_report_fields(
    tmp_path, monkeypatch, bundled_config_dir, name, route, max_fp_iter
):
    # every stage entry holds exactly what stage_report returns for its
    # stage, and that is what Newton's last evaluation of the stage gives.
    # A step budget of 3 fails the targets and forces the ladder walks
    solved, evaluated = [], []
    solve, newton = cascade.fixed_point_solve, cascade.newton_fixed_point

    def recorded_solve(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    def recorded_newton(*args):
        out = newton(*args)
        evaluated.append(out[0])
        return out

    monkeypatch.setattr(cascade, "fixed_point_solve", recorded_solve)
    monkeypatch.setattr(cascade, "newton_fixed_point", recorded_newton)
    if max_fp_iter is not None:
        monkeypatch.setattr(cascade, "MAX_FP_ITER", max_fp_iter)
    doc = json.loads((bundled_config_dir / f"{name}.json").read_text())
    doc["problem"].update(M=8, N=8)
    doc["route"] = route
    path = write_config(tmp_path, doc)
    out = tmp_path / "o"
    code = cli.main(["solve", "--config", path, "--output", str(out), "--quiet"])
    assert code in (cli.EXIT_OK, cli.EXIT_NOCONV)
    rep = json.loads((out / "report.json").read_text())
    entries = rep["stages"]
    assert len(entries) == len(solved) == len(evaluated)
    if max_fp_iter is not None:
        assert any(e["epsilon"] > 0.0 for e in entries)
    for entry, stage, at in zip(entries, solved, evaluated):
        fields = cascade.stage_report(stage)
        assert {key: entry[key] for key in fields} == fields
        assert fields == {
            "energy_margin": cascade.energy_margin(at),
            "residual_AP": at.residual_AP,
            "audit": cascade.stage_audit(at),
        }
        audit = entry["audit"]
        perturbed = entry["mu"] > 0.0
        assert ("mu_term_dual_norm" in audit) == perturbed
        assert ("mu_phi_power_max" in audit) == perturbed
        assert (audit["eps_rate_group"] == 0.0) == (entry["epsilon"] == 0.0)


def test_cmd_mms_discrete_levels(tmp_path):
    doc = {
        "output_dir": str(tmp_path / "m"),
        "problem": small_problem(),
        "cascade": {"fp_tol": 1e-8, "stage_tol": 1e-8},
        "mms": {
            "exact": "separable_bump",
            "mode": "discrete_exact",
            "levels": [[6, 6], [8, 8]],
        },
    }
    code = cli.cmd_mms(cli.load_config(write_config(tmp_path, doc)))
    assert code == cli.EXIT_OK
    rep = json.loads((tmp_path / "m" / "report.json").read_text())
    cols = rep["table"]["columns"]
    errs = [row[cols.index("error")] for row in rep["table"]["rows"]]
    assert max(errs) <= 1e-7
    assert (tmp_path / "m" / "mms.csv").exists()
    with pytest.raises(cli.ConfigError, match="mms.exact"):
        bad = dict(doc, mms={"exact": "wavefront"})
        cli.cmd_mms(cli.load_config(write_config(tmp_path, bad, "bad.json")))


def test_mms_builds_each_level_once(tmp_path, monkeypatch, bundled_config_dir):
    # the levels the config reader builds to validate them are the ones
    # solved: one derived forcing per level of the default three
    calls = []
    derived = vf.derived_forcing

    def counted(mms, prob):
        calls.append((prob.smesh.interior_count, prob.tmesh.step_count))
        return derived(mms, prob)

    monkeypatch.setattr(vf, "derived_forcing", counted)
    config = str(bundled_config_dir / "nonlinear_diffusion.json")
    argv = ["mms", "--config", config, "--output", str(tmp_path / "m"), "--quiet"]
    assert cli.main(argv) == cli.EXIT_OK
    assert calls == [(8, 8), (16, 16), (32, 32)]


def test_cmd_mosco_identity_control(tmp_path):
    doc = {
        "output_dir": str(tmp_path / "mo"),
        "problem": small_problem(M=10, N=10),
        "mosco": {"kind": "identity", "n_max": 2},
    }
    code = cli.cmd_mosco(cli.load_config(write_config(tmp_path, doc)))
    assert code == cli.EXIT_OK
    rep = json.loads((tmp_path / "mo" / "report.json").read_text())
    cols = rep["table"]["columns"]
    errs = [row[cols.index("error")] for row in rep["table"]["rows"]]
    assert max(errs) <= rep["table"]["meta"]["noise_floor"]


def test_cmd_sweep_default_pair_matrix(tmp_path):
    doc = {
        "output_dir": str(tmp_path / "sw"),
        "problem": small_problem(),
        "cascade": {"fp_tol": 1e-8},
    }
    code = cli.cmd_sweep(cli.load_config(write_config(tmp_path, doc)))
    assert code == cli.EXIT_OK
    subdirs = sorted(d.name for d in (tmp_path / "sw").iterdir() if d.is_dir())
    assert subdirs == ["p2.5_m3", "p2_m1.5", "p2_m2", "p2_m3", "p3_m2"]
    summary = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert summary[0] == "p,m,route,converged,residual"
    assert len(summary) == 6
    routes = {line.split(",")[2] for line in summary[1:]}
    assert routes == {"plain", "mu"}
    assert all(line.split(",")[3] == "1" for line in summary[1:])
    for sub in subdirs:
        assert (tmp_path / "sw" / sub / "trajectory.csv").exists()


def test_cmd_sweep_follows_the_configured_route(tmp_path):
    # p = 2, m = 3 takes the plain route under "auto"; the config asks for mu
    doc = {
        "output_dir": str(tmp_path / "sw"),
        "route": "mu",
        "problem": small_problem(),
        "cascade": {"fp_tol": 1e-8},
        "sweep": {"pairs": [[2, 3]]},
    }
    cli.cmd_sweep(cli.load_config(write_config(tmp_path, doc)))
    summary = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in summary[1:]] == ["mu"]


@pytest.mark.parametrize(
    "pairs",
    [[[2.0000001, 3], [2.0000002, 3], [2, 2]], [[2, 3], [2, 2], [2, 3]]],
    ids=["same-name", "duplicate"],
)
def test_cmd_sweep_rejects_pairs_that_share_a_directory(tmp_path, capsys, pairs):
    # each pair writes to p{p:g}_m{m:g}: a second pair of the same name
    # would overwrite the first one's outputs
    out = tmp_path / "sw"
    doc = {"problem": small_problem(M=6, N=6), "sweep": {"pairs": pairs}}
    argv = ["sweep", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_CONFIG
    assert "sweep.pairs" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_sweep_requires_power_map(tmp_path):
    doc = {
        "problem": small_problem(
            nonlinearity={
                "kind": "piecewise_linear",
                "breakpoints": [[-1.0, -1.0], [1.0, 1.0]],
            }
        )
    }
    with pytest.raises(cli.ConfigError, match="power rate map"):
        cli.cmd_sweep(cli.load_config(write_config(tmp_path, doc)))


MALFORMED_FORCINGS = [
    ({"kind": "terms", "terms": 5}, "problem.forcing.terms"),
    ({"kind": "terms", "terms": ["x"]}, "problem.forcing.terms"),
    ({"kind": "terms", "terms": [{"amplitude": [1]}]}, "problem.forcing.terms"),
    ({"kind": "csv"}, "problem.forcing.path"),
    # keys the forcing kind does not read
    ({"kind": "terms", "terms": [{"amplitude": 1.0, "time_mod": 1}]},
     "problem.forcing.terms"),
    ({"kind": "terms", "terms": [{"kind": "zero"}]}, "problem.forcing.terms"),
    ({"kind": "zero", "amplitude": 1.0}, "problem.forcing.amplitude"),
    # a boolean, a numeric string, NaN or an integer too large for a float is
    # not a number
    ({"kind": "sinusoid", "amplitude": True}, "problem.forcing.amplitude"),
    ({"kind": "sinusoid", "amplitude": "2"}, "problem.forcing.amplitude"),
    ({"kind": "sinusoid", "amplitude": nan}, "problem.forcing.amplitude"),
    ({"kind": "sinusoid", "space_mode": False}, "problem.forcing.space_mode"),
    ({"kind": "sinusoid", "space_mode": 10**400}, "problem.forcing.space_mode"),
    ({"kind": "terms", "terms": [{"amplitude": True}]}, "problem.forcing.terms"),
    ({"kind": "terms", "terms": [{"amplitude": "2"}]}, "problem.forcing.terms"),
    ({"kind": "terms", "terms": [{"space_mode": 10**400}]}, "problem.forcing.terms"),
    ({"kind": "sinusoid", "time_profile": 1}, "problem.forcing.time_profile"),
    ({"kind": "sinusoid", "amplitude": "nan"}, "problem.forcing.amplitude"),
]


class TestMain:
    def test_dispatch_and_quiet(self, tmp_path):
        doc = {"problem": small_problem(forcing={"kind": "zero"})}
        path = write_config(tmp_path, doc)
        code = cli.main(
            ["solve", "--config", path, "--output", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 0

    def test_config_error_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": small_problem(m=0.5)})
        code = cli.main(["solve", "--config", path, "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert "problem.m" in capsys.readouterr().err

    def test_mosco_index_bound_must_be_an_integer(self, tmp_path, capsys):
        doc = {"problem": small_problem(), "mosco": {"n_max": "x"}}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["mosco", "--config", path, "--output", out, "--quiet"]) == 1
        assert "mosco.n_max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, block, key",
        [
            ("sweep", {"sweep": {"epsilon_final": ["x"]}}, "sweep.epsilon_final"),
            ("sweep", {"sweep": {"pairs": [[True, 3]]}}, "sweep.pairs"),
            ("sweep", {"sweep": {"pairs": [[1, 3]]}}, "sweep.pairs"),
            ("sweep", {"sweep": {"pairs": []}}, "sweep.pairs"),
            ("verify", {"verify": {"sample_count": "x"}}, "verify.sample_count"),
            ("verify", {"verify": {"sample_count": 0}}, "verify.sample_count"),
            ("mms", {"mms": {"levels": [[8, 1]]}}, "mms.levels"),
            ("mms", {"mms": {"levels": []}}, "mms.levels"),
            ("mms", {"mms": 3}, "mms"),
            ("mosco", {"mosco": {"n_max": 0}}, "mosco.n_max"),
            ("mms", {"mms": {"mode": "symbolic"}}, "mms.mode"),
            (
                "mms",
                {
                    "problem": small_problem(
                        M=4, N=4, diffusion={"kind": "sin_modulated"}
                    ),
                    "mms": {"mode": "continuum"},
                },
                "mms.mode",
            ),
            (
                "mms",
                {
                    "problem": small_problem(M=4, N=4, m=1.5),
                    "mms": {"mode": "continuum", "levels": [[4, 4], [7, 4]]},
                },
                "mms.levels",
            ),
            # an unknown key in the block that the subcommand reads
            ("verify", {"verify": {"samples": 3}}, "verify.samples"),
            ("mms", {"mms": {"exact": "separable_bump", "level": []}}, "mms.level"),
            ("mosco", {"mosco": {"kind": "identity", "n": 2}}, "mosco.n"),
            ("sweep", {"sweep": {"epsilon_finl": [0.1]}}, "sweep.epsilon_finl"),
            ("solve", {"cascde": {"fp_tol": 1e-8}}, "cascde"),
            # more perturbed instances than a tuple can index
            ("mosco", {"mosco": {"n_max": 10**400}}, "mosco.n_max"),
        ],
    )
    def test_block_errors_exit_1_and_name_the_key(
        self, tmp_path, capsys, command, block, key
    ):
        doc = {"problem": small_problem(M=4, N=4), **block}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main([command, "--config", path, "--output", out, "--quiet"]) == 1
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "forcing, key",
        MALFORMED_FORCINGS,
        ids=[f"forcing{n}" for n in range(len(MALFORMED_FORCINGS))],
    )
    def test_malformed_forcing_exits_1_and_names_the_key(
        self, tmp_path, capsys, bundled_config_dir, forcing, key
    ):
        doc = json.loads((bundled_config_dir / "nonlinear_diffusion.json").read_text())
        doc["problem"]["forcing"] = forcing
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", path, "--output", out, "--quiet"]) == 1
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "problem, key",
        [
            # a boolean, a numeric string, an integer too large for a float or
            # a nested list is not a number
            ({"diffusion": {"kind": "values", "values": [True] * 5}},
             "problem.diffusion.values"),
            ({"diffusion": {"kind": "values", "values": ["1", "2", "3", "4", "5"]}},
             "problem.diffusion.values"),
            ({"diffusion": {"kind": "values", "values": [1, 1, 10**400, 1, 1]}},
             "problem.diffusion.values"),
            ({"diffusion": {"kind": "values", "values": [[1.0]] * 5}},
             "problem.diffusion.values"),
            (
                {"nonlinearity": {"kind": "piecewise_linear",
                                  "breakpoints": [[False, False], [True, True]]}},
                "problem.nonlinearity.breakpoints",
            ),
            (
                {"nonlinearity": {"kind": "piecewise_linear",
                                  "breakpoints": [["-1", "-1"], ["1", "1"]]}},
                "problem.nonlinearity.breakpoints",
            ),
            (
                {"nonlinearity": {"kind": "custom_tabulated",
                                  "s_values": [-1, 0, 1], "alpha_values": [-1, 0, "1"]}},
                "problem.nonlinearity.alpha_values",
            ),
        ],
    )
    def test_non_numbers_exit_1_and_name_the_key(self, tmp_path, capsys, problem, key):
        doc = {"problem": small_problem(M=4, N=4, **problem)}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", path, "--output", out, "--quiet"]) == 1
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "block, text, key",
        [
            # a tabulated rate map of one column
            ("nonlinearity", "-1\n0\n1\n", "problem.nonlinearity.path"),
            # a forcing grid row of two fields
            ("forcing", "t,x,value\n0,0.5,1\n0.5,0.5\n", "problem.forcing.path"),
            ("forcing", "", "problem.forcing.path"),
        ],
        ids=["one_column_rate_table", "short_forcing_row", "empty_forcing_file"],
    )
    def test_malformed_csv_exits_1_and_names_the_key(
        self, tmp_path, capsys, block, text, key
    ):
        table = tmp_path / "table.csv"
        table.write_text(text)
        spec = (
            {"kind": "custom_tabulated", "path": str(table)}
            if block == "nonlinearity"
            else {"kind": "csv", "path": str(table)}
        )
        doc = {"problem": small_problem(M=1, N=2, **{block: spec})}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", path, "--output", out, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"config error: {key}:" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_CONFIG
        assert "required: command" in capsys.readouterr().err

    def test_jobs_is_a_usage_error(self, tmp_path, capsys):
        # every solve runs in this process; an old --jobs command line exits
        # 1, as an invalid config does, and writes nothing
        path = write_config(tmp_path, {"problem": small_problem()})
        out = str(tmp_path / "o")
        argv = ["mosco", "--config", path, "--output", out, "--jobs", "2"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["mosco", "--help"])
        assert exit_.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_help_lists_every_command_with_its_help(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--help"])
        assert exit_.value.code == 0
        lines = [ln.split(None, 1) for ln in capsys.readouterr().out.splitlines()]
        listed = {ln[0]: ln[1] for ln in lines if len(ln) == 2}
        assert set(cli._COMMANDS) == {"solve", "verify", "mms", "mosco", "sweep"}
        for name, (_, text) in cli._COMMANDS.items():
            assert listed[name] == text


def _child_env() -> dict:
    # the imported package first on a child interpreter's path, installed or not
    pkg_root = str(Path(perisolve.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""),
    )


def run_capped(config: str, out: Path, cap: int) -> subprocess.CompletedProcess:
    """perisolve solve in a child that caps its own address space at cap
    bytes, so an array beyond it fails to allocate whatever the machine's
    overcommit policy."""
    probe = (
        "import resource, sys\n"
        "from perisolve import cli\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = int(sys.argv[3])\n"
        "cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "sys.exit(cli.main(['solve', '--config', sys.argv[1], '--output', "
        "sys.argv[2], '--quiet']))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", probe, config, str(out), str(cap)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(_child_env(), OPENBLAS_NUM_THREADS="1"),
    )


def test_grid_too_large_to_allocate_is_a_config_error(tmp_path):
    # the 8 GB coefficient array of a 10**9-node grid fails to allocate under
    # a 3 GB cap; the run exits 1 naming the grid key
    path = write_config(tmp_path, {"problem": small_problem(M=10**9)})
    out = tmp_path / "o"
    proc = run_capped(path, out, 3 << 30)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "config error: problem.M: an N x M = 8 x 1000000000 grid" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("builder", ["_build_diffusion", "_build_forcing"])
@pytest.mark.parametrize("M, N, key", [(8, 4, "problem.M"), (4, 8, "problem.N")])
def test_grid_arrays_that_fail_to_allocate_name_the_larger_count(
    tmp_path, capsys, monkeypatch, builder, M, N, key
):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, builder, out_of_memory)
    out = tmp_path / "o"
    path = write_config(tmp_path, {"problem": small_problem(M=M, N=N)})
    assert cli.main(["solve", "--config", path, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: an N x M = {N} x {M} grid is too large" in err
    assert not out.exists()


@pytest.mark.parametrize("count", [10**15, 10**18])
def test_sample_count_too_large_to_allocate_is_a_config_error(tmp_path, capsys, count):
    # 10**15 samples of 4 nodes are 28.4 PiB, which no allocator grants, and
    # 10**18 are more bytes than numpy can count; the growth audit runs
    # before the solve, so the run exits 1 before any output
    doc = {"problem": small_problem(M=4, N=4), "verify": {"sample_count": count}}
    out = tmp_path / "v"
    argv = ["verify", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_CONFIG
    assert "config error: verify.sample_count" in capsys.readouterr().err
    assert not out.exists()


def test_mms_level_too_large_to_allocate_is_a_config_error(tmp_path, capsys):
    # the forcing of a 10**8 x 10**8 level is 71.1 PiB, which no allocator
    # grants: the run exits 1 naming the levels before any output
    doc = {"problem": small_problem(), "mms": {"levels": [[4, 4], [10**8, 10**8]]}}
    out = tmp_path / "m"
    argv = ["mms", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_CONFIG
    assert "config error: mms.levels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_negative_seed_exits_1_and_names_the_key(tmp_path, capsys, command):
    out = tmp_path / "o"
    doc = {"seed": -1, "output_dir": str(out), "problem": small_problem(M=4, N=4)}
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 1
    assert "config error: seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize(
    "where, out",
    [("config", "afile"), ("option", "afile/sub"), ("config", "o\0ut")],
    ids=["existing-file", "below-a-file", "nul-byte"],
)
def test_bad_output_path_exits_1_and_names_the_key(
    tmp_path, capsys, command, where, out
):
    # a command line holds no NUL byte, a config can
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / out)
    doc = {"problem": small_problem(M=4, N=4), "verify": {"sample_count": 2},
           "mms": {"levels": [[4, 4]]}, "mosco": {"n_max": 1},
           "sweep": {"pairs": [[2, 2]]}}
    if where == "config":
        doc["output_dir"] = out
    argv = [command, "--config", write_config(tmp_path, doc), "--quiet"]
    if where == "option":
        argv += ["--output", out]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: output_dir: cannot make {out!r}" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == ""


def test_sweep_makes_every_directory_before_the_first_solve(
    tmp_path, capsys, monkeypatch
):
    # a file where the second pair's directory goes ends the run before any
    # solve, not after the first pair is solved and written
    out = tmp_path / "sw"
    out.mkdir()
    (out / "p2_m2").write_text("")
    solves = []
    monkeypatch.setattr(cli, "solve_routed", lambda *a, **k: solves.append(a))
    doc = {"problem": small_problem(M=4, N=4), "sweep": {"pairs": [[2, 3], [2, 2]]}}
    argv = ["sweep", "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: output_dir: cannot make {str(out / 'p2_m2')!r}" in err
    assert solves == []
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "command, name",
    [
        ("solve", "report.json"),
        ("solve", "trajectory.csv"),
        ("verify", "growth_audit.dat"),
        ("mms", "mms.dat"),
        ("mosco", "mosco.csv"),
        ("sweep", "p2_m2/trajectory.csv"),
    ],
)
def test_output_file_that_is_a_directory_exits_1_unsolved(
    tmp_path, capsys, monkeypatch, command, name
):
    # a file the command would write that is a directory ends the run
    # before any solve, not in a traceback after it
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    solves = []
    monkeypatch.setattr(cascade, "fixed_point_solve", lambda *a, **k: solves.append(a))
    doc = {"problem": small_problem(M=4, N=4), "verify": {"sample_count": 2},
           "mms": {"levels": [[4, 4]]}, "mosco": {"n_max": 1},
           "sweep": {"pairs": [[2, 3], [2, 2]]}}
    argv = [command, "--config", write_config(tmp_path, doc), "--output", str(out)]
    assert cli.main([*argv, "--quiet"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: output_dir: cannot write {str(out / name)!r}" in err
    assert "Traceback" not in err
    assert solves == []
    assert (out / name).is_dir() and not (out / "report.json").is_file()


def test_each_command_writes_its_file_set(tmp_path):
    doc = {"problem": small_problem(M=4, N=4), "verify": {"sample_count": 2},
           "mms": {"levels": [[4, 4], [6, 6]]}, "mosco": {"n_max": 2},
           "sweep": {"pairs": [[2, 2], [2, 3]]}, "cascade": {"fp_tol": 1e-8}}
    path = write_config(tmp_path, doc)
    solve = {"trajectory.csv", "trajectory.dat", "report.json"}
    pair = {"", "/trajectory.csv", "/report.json"}
    want = {
        "solve": solve,
        "verify": solve | {"growth_audit.csv", "growth_audit.dat"},
        "mms": {"mms.csv", "mms.dat", "report.json"},
        "mosco": {"mosco.csv", "mosco.dat", "report.json"},
        "sweep": {"summary.csv", "summary.dat", "report.json"}
        | {d + f for d in ("p2_m2", "p2_m3") for f in pair},
    }
    for command, files in want.items():
        out = tmp_path / command
        assert cli.main([command, "--config", path, "--output", str(out),
                         "--quiet"]) == cli.EXIT_OK
        assert {p.relative_to(out).as_posix() for p in out.rglob("*")} == files


def test_band_too_large_to_allocate_exits_2_but_reports(tmp_path, bundled_config_dir):
    # the grid loads under a 512 MB cap, and a stage that starts from u = 0
    # takes its first step, which is exact; the 619 MiB band of any later
    # step cannot be allocated, which ends the stage unconverged as a
    # singular step does.  The failed target sends the walk up the full
    # ladder from u = 0: its first rung takes the exact step, and every
    # later stage starts from the time-varying end of the rung before, so it
    # takes no step
    doc = json.loads((bundled_config_dir / "nonlinear_diffusion.json").read_text())
    doc["problem"].update(M=300, N=300)
    out = tmp_path / "o"
    proc = run_capped(write_config(tmp_path, doc), out, 512 << 20)
    assert proc.returncode == cli.EXIT_NOCONV, proc.stderr
    assert "Traceback" not in proc.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["exit_code"] == 2 and rep["converged"] is False
    ladder = [0.5**k for k in range(14)] + [1e-4]
    assert [s["epsilon"] for s in rep["stages"]] == [0.0, *ladder, 0.0]
    assert [s["fixed_point_newton_steps"] for s in rep["stages"]] == [1, 1] + [0] * 15
    assert (out / "trajectory.csv").exists()


def test_the_names_the_bench_tracer_times_exist():
    # bench/tracer.py finds these functions by name; a rename would leave
    # its timers empty without an error
    for module, name in ((cascade, "fixed_point_solve"), (vf, "solve_routed"),
                         (cli, "load_config"), (cli, "_write_report")):
        assert callable(getattr(module, name, None)), (module.__name__, name)


def test_console_script_resolves_to_main():
    # the installed `perisolve` command is wired through [project.scripts]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["perisolve"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_public_names_resolve():
    # every name a module exports exists, so an import * or a lookup by an
    # exported name cannot fail
    modules = [perisolve] + [
        importlib.import_module(f"perisolve.{name}")
        for name in ("discretize", "convexcore", "variational", "cascade", "verify", "cli")
    ]
    for mod in modules:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], (mod.__name__, missing)


LAYERS = ("discretize", "convexcore", "variational", "cascade", "verify", "cli")


def test_modules_import_only_earlier_layers():
    # the paper's layering: a module's relative imports name only modules
    # before it in LAYERS.  An import for type checking alone is exempt, as
    # it does not run; so is the package's __init__, which re-exports
    class Imports(ast.NodeVisitor):
        def __init__(self):
            self.names = set()

        def visit_If(self, node):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.level:
                module = node.module or ""
                self.names.update(
                    module.split(".")[0] if module else alias.name
                    for alias in node.names
                )

    src = Path(perisolve.__file__).parent
    assert {f.stem for f in src.glob("*.py")} == {"__init__", *LAYERS}
    for k, name in enumerate(LAYERS):
        visitor = Imports()
        visitor.visit(ast.parse((src / f"{name}.py").read_text()))
        assert visitor.names <= set(LAYERS[:k]), (name, visitor.names)


def test_import_leaves_out_sparse_and_optimize():
    # the library solves on band factorizations and closed forms; scipy's
    # sparse and optimize packages belong to the tests alone, the
    # manufactured solutions need no computer algebra, and every solve runs
    # in the calling process
    probe = (
        "import sys, perisolve.cli; print([m for m in "
        "('scipy.sparse', 'scipy.optimize', 'sympy', 'multiprocessing') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
