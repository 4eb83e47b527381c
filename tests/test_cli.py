import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tempfile
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perisolve
from perisolve import cascade, cli
from perisolve.discretize import dual_bochner_norm, read_field_csv


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
        p.write_text("{")
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
            ({"problem": small_problem(forcing={"kind": "blob"})}, "problem.forcing"),
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
            ({"problem": small_problem(), "cascade": {"fp_tol": 0.0}}, "cascade"),
            (
                {"problem": small_problem(), "cascade": {"lambda_schedule": [0.1]}},
                "cascade.lambda_schedule",
            ),
            ({"problem": small_problem(M="8")}, "problem.M"),
            ({"problem": small_problem(M=True)}, "problem.M"),
            (
                {"problem": small_problem(), "cascade": {"epsilon_schedule": [None]}},
                "cascade.epsilon_schedule",
            ),
            (
                {"problem": small_problem(), "cascade": {"max_fp_iter": -1}},
                "cascade.max_fp_iter",
            ),
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
            ({"problem": small_problem(), "cascade": {"delta": nan}}, "cascade.delta"),
            ({"problem": small_problem(), "cascade": {"fp_tol": nan}}, "cascade.fp_tol"),
            (
                {"problem": small_problem(), "cascade": {"stage_tol": inf}},
                "cascade.stage_tol",
            ),
            (
                {"problem": small_problem(), "cascade": {"epsilon_schedule": [1.0, nan]}},
                "cascade.epsilon_schedule",
            ),
            ({"problem": small_problem(), "cascade": {"alpha_exp": -1}}, "cascade"),
            # m < 2 with delta = 0: the flux slope is singular at u = 0
            (
                {"problem": small_problem(M=4, N=4, m=1.5), "cascade": {"delta": 0}},
                "cascade.delta",
            ),
            # the default sweep pairs include m = 1.5
            (
                {"problem": small_problem(), "cascade": {"delta": 0}, "sweep": {}},
                "sweep.pairs",
            ),
            # the mu route needs m (1 + alpha_exp) > p
            (
                {"problem": small_problem(p=3.0, m=2.0), "cascade": {"alpha_exp": 0.2}},
                "cascade.alpha_exp",
            ),
            (
                {
                    "problem": small_problem(),
                    "cascade": {"alpha_exp": 0.2},
                    "sweep": {"pairs": [[3, 2]]},
                },
                "sweep.pairs",
            ),
            # a ladder that walks no stage
            (
                {
                    "problem": small_problem(),
                    "cascade": {"epsilon_schedule": [], "exact_limit_stage": False},
                },
                "cascade",
            ),
            # an empty ladder leaves a sweep no final epsilon to default to
            (
                {
                    "problem": small_problem(),
                    "cascade": {"epsilon_schedule": []},
                    "sweep": {},
                },
                "sweep.epsilon_final",
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

    def test_nonconvergence_exits_2_but_reports(self, tmp_path):
        # without a Newton step the first stage stays at u = 0, where the
        # stage equation's residual is the forcing
        doc = {
            "output_dir": str(tmp_path / "st"),
            "problem": small_problem(),
            "cascade": {"epsilon_schedule": [0.5], "max_fp_iter": 0},
        }
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
        doc = {"problem": small_problem(), "cascade": {"epsilon_schedule": [0.5]}}
        self.assert_singular_at_the_start(tmp_path, doc)

    @pytest.mark.filterwarnings("error")
    def test_singular_exact_step_exits_2_but_reports(self, tmp_path):
        # p = m = 3 at delta = 0: at u = 0 the spatial block, alpha's slope
        # and, at eps > 0, the lower-order terms all vanish, so the exact
        # step's symbol is zero at theta = 0 on every stage
        doc = {
            "problem": small_problem(p=3.0, m=3.0),
            "cascade": {"epsilon_schedule": [0.5], "delta": 0.0},
        }
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


def test_cascade_knobs_match_the_config_keys():
    # every CascadeParams field is a cascade config key and nothing else is
    fields = {f.name for f in dataclasses.fields(cascade.CascadeParams)}
    assert fields == set(cli._CASCADE_KEYS)


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
    code = cli.cmd_mms(cli.load_config(write_config(tmp_path, doc)), jobs=2)
    assert code == cli.EXIT_OK
    rep = json.loads((tmp_path / "m" / "report.json").read_text())
    cols = rep["table"]["columns"]
    errs = [row[cols.index("error")] for row in rep["table"]["rows"]]
    assert max(errs) <= 1e-7
    assert (tmp_path / "m" / "mms.csv").exists()
    with pytest.raises(cli.ConfigError, match="mms.exact"):
        bad = dict(doc, mms={"exact": "wavefront"})
        cli.cmd_mms(cli.load_config(write_config(tmp_path, bad, "bad.json")))


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
    code = cli.cmd_sweep(cli.load_config(write_config(tmp_path, doc)), jobs=2)
    assert code == cli.EXIT_OK
    subdirs = sorted(d.name for d in (tmp_path / "sw").iterdir() if d.is_dir())
    assert subdirs == [
        "p2.5_m3_eps0.0001",
        "p2_m1.5_eps0.0001",
        "p2_m2_eps0.0001",
        "p2_m3_eps0.0001",
        "p3_m2_eps0.0001",
    ]
    summary = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert summary[0] == "p,m,epsilon_final,route,converged,residual"
    assert len(summary) == 6
    routes = {line.split(",")[3] for line in summary[1:]}
    assert routes == {"plain", "mu"}
    assert all(line.split(",")[4] == "1" for line in summary[1:])
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
    assert [line.split(",")[3] for line in summary[1:]] == ["mu"]


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
        "forcing",
        [
            {"kind": "terms", "terms": 5},
            {"kind": "terms", "terms": ["x"]},
            {"kind": "terms", "terms": [{"amplitude": [1]}]},
            {"kind": "csv"},
        ],
    )
    def test_malformed_forcing_exits_1_and_names_the_key(
        self, tmp_path, capsys, bundled_config_dir, forcing
    ):
        doc = json.loads((bundled_config_dir / "nonlinear_diffusion.json").read_text())
        doc["problem"]["forcing"] = forcing
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["solve", "--config", path, "--output", out, "--quiet"]) == 1
        assert "config error: problem.forcing:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_jobs_only_where_solves_fan_out(self, tmp_path):
        path = write_config(tmp_path, {"problem": small_problem()})
        for command in ("solve", "verify"):
            with pytest.raises(SystemExit):
                cli.main([command, "--config", path, "--jobs", "2"])

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main([])


def _child_env() -> dict:
    # the imported package first on a child interpreter's path, installed or not
    pkg_root = str(Path(perisolve.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""),
    )


# `python -m perisolve.cli` with the worker start-up taken as 0, so the
# caller hands the runs after the first to a pool, whose spawned workers
# re-import perisolve.cli as their main module.  The caller holds its first
# pooled solve until the worker has claimed the last run, and prints how
# many runs it solved itself
_POOLED_CLI = """
import runpy, sys
sys.path.insert(0, sys.argv.pop(1))
import perisolve.verify as vf
from util import hold_first_pool_solve
vf._WORKER_START_S = 0.0
calls = hold_first_pool_solve(setattr, claimed=3)
try:
    runpy.run_module("perisolve.cli", run_name="__main__", alter_sys=True)
finally:
    print(len(calls))
"""


def test_sweep_outputs_are_byte_identical_under_jobs(tmp_path):
    doc = {
        "problem": small_problem(),
        "cascade": {"fp_tol": 1e-8},
        "sweep": {"pairs": [[2, 3], [3, 2], [2.5, 3]]},
    }
    path = write_config(tmp_path, doc)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert cli.cmd_sweep(cli.load_config(path, output_override=str(serial))) == 0
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_CLI, str(Path(__file__).parent),
         "sweep", "--config", path, "--output", str(pooled), "--jobs", "2",
         "--quiet"],
        capture_output=True,
        text=True,
        timeout=240,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # the caller solved the first two runs and a spawned worker the third
    assert proc.stdout.split()[-1] == "2"
    def trajectories(root):
        return sorted(p.relative_to(root) for p in root.glob("*/trajectory.csv"))

    names = trajectories(serial)
    assert len(names) == 3 and trajectories(pooled) == names
    for name in [Path("summary.csv"), *names]:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


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


def test_import_leaves_out_sparse_and_optimize():
    # the library solves on band factorizations and closed forms; scipy's
    # sparse and optimize packages belong to the tests alone, and the
    # manufactured solutions need no computer algebra
    probe = (
        "import sys, perisolve.cli; print([m for m in "
        "('scipy.sparse', 'scipy.optimize', 'sympy') if m in sys.modules])"
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
