import multiprocessing
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import perisolve.cascade as ca
import perisolve.convexcore as cc
import perisolve.verify as vf
from perisolve.discretize import SpatialMesh, TemporalMesh, time_derivative
from util import (
    ExitsInWorker,
    bump_mms,
    claim_into,
    hold_first_pool_solve,
    unit_problem,
)


class TestTable:
    def test_add_and_column(self):
        t = vf.Table(["a", "b"])
        t.add(1, 2.0)
        t.add(3, 4.0)
        assert list(t.column("a")) == [1, 3]
        assert list(t.column("b")) == [2.0, 4.0]

    def test_width_mismatch(self):
        t = vf.Table(["a", "b", "c"])
        with pytest.raises(ValueError, match="row width 2 != column count 3"):
            t.add(1, 2)

    def test_csv_and_dat(self, tmp_path):
        t = vf.Table(["n", "err", "ok"])
        t.add(1, 0.5, True)
        t.add(2, 0.25, False)
        cp = tmp_path / "t.csv"
        dp = tmp_path / "t.dat"
        t.to_csv(str(cp))
        t.to_dat(str(dp))
        assert cp.read_text() == "n,err,ok\n1,0.5,1\n2,0.25,0\n"
        lines = dp.read_text().splitlines()
        assert lines[0] == "# n err ok"
        assert lines[1].split() == ["1", "0.5", "1"]

    def test_as_dict_strips_numpy_scalars(self):
        t = vf.Table(["x"], meta={"k": 1})
        t.add(np.float64(0.5))
        d = t.as_dict()
        assert type(d["rows"][0][0]) is float
        assert d["meta"] == {"k": 1}


def test_loglog_slope_recovers_power():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert vf.loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)


class TestMmsSpecs:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown mms mode"):
            vf.MmsSpec("separable_bump", mode="exact")
        with pytest.raises(ValueError, match="unknown exact solution"):
            vf.MmsSpec("bump")

    def test_named_solutions(self):
        # L and T are those of the meshes the spec is sampled on
        sm, tm = SpatialMesh(2.0, 5), TemporalMesh(3.0, 4)
        space = np.sin(np.pi * sm.nodes / 2.0)
        phase = 2 * np.pi * tm.times / 3.0
        want = {
            "separable_bump": np.outer(1.0 + 0.5 * np.sin(phase), space),
            "separable_sin": np.outer(np.sin(phase), space),
            "steady_sin": np.outer(np.ones(4), space),
            "zero": np.zeros((4, 5)),
        }
        for name, U in want.items():
            got = vf.sample_exact(vf.MmsSpec(name), sm, tm)
            assert np.allclose(got, U, rtol=0.0, atol=1e-14), name

    def test_sample_exact_shape(self):
        prob = unit_problem(2.0, 3.0, 7, 5)
        U = vf.sample_exact(bump_mms(), prob.smesh, prob.tmesh)
        assert U.shape == (5, 7)

    def test_derived_forcing_discrete_consistency(self):
        prob = unit_problem(2.0, 3.0, 9, 6)
        mms = bump_mms()
        f = vf.derived_forcing(mms, prob, delta=1e-8)
        U = vf.sample_exact(mms, prob.smesh, prob.tmesh)
        dU = time_derivative(U, prob.tmesh)
        want = prob.nl.alpha_eval(dU) + cc.PhiAt(U, prob.a, prob.m, 1e-8, prob.smesh).grad
        assert np.array_equal(f, want)
        zf = vf.derived_forcing(vf.MmsSpec("zero"), prob, 0.0)
        assert np.all(zf == 0.0)

    def test_continuum_forcing_scales_with_the_diffusion(self):
        mms = vf.MmsSpec("separable_bump", "continuum")
        prob = unit_problem(2.0, 3.0, 9, 6)
        x, t = prob.smesh.nodes, prob.tmesh.times
        u_t = np.outer(np.pi * np.cos(2 * np.pi * t), np.sin(np.pi * x))
        flux = [
            vf.derived_forcing(mms, unit_problem(2.0, 3.0, 9, 6, diffusion=a), 0.0)
            - u_t
            for a in (1.0, 2.0)
        ]
        assert np.max(np.abs(flux[0])) > 1.0
        np.testing.assert_allclose(flux[1], 2.0 * flux[0], rtol=1e-12, atol=1e-12)
        vals = 1.0 + 0.5 * np.sin(np.pi * prob.smesh.cell_midpoints)
        varying = replace(prob, a=cc.DiffusionField(vals))
        with pytest.raises(ValueError, match="constant diffusion"):
            vf.derived_forcing(mms, varying, 0.0)

    def test_continuum_forcing_is_finite_below_exponent_two(self):
        # alpha(0) at p < 2 and the flux of a zero slice at m < 2 are 0
        f = vf.derived_forcing(
            vf.MmsSpec("steady_sin", "continuum"), unit_problem(1.5, 3.0, 8, 8), 0.0
        )
        assert np.all(np.isfinite(f))
        prob = unit_problem(2.0, 1.5, 8, 8)
        f = vf.derived_forcing(vf.MmsSpec("separable_sin", "continuum"), prob, 0.0)
        assert np.all(np.isfinite(f))
        # tau(0) = 0: the first slice carries only the rate term
        np.testing.assert_allclose(
            f[0], 2 * np.pi * np.sin(np.pi * prob.smesh.nodes), rtol=1e-14
        )
        zero = vf.derived_forcing(vf.MmsSpec("zero", "continuum"), prob, 0.0)
        assert np.all(zero == 0.0)

    def test_continuum_forcing_rejects_a_midpoint_node_below_m_two(self):
        # an odd M puts a node at x = L/2, where the flux derivative is
        # unbounded at m < 2; an even M keeps the forcing moderate
        def forcing(name, p, m, M):
            spec = vf.MmsSpec(name, "continuum")
            return vf.derived_forcing(spec, unit_problem(p, m, M, 4), 0.0)

        for M in (7, 15):
            with pytest.raises(ValueError, match="x = L/2"):
                forcing("steady_sin", 2.0, 1.5, M)
        assert np.max(np.abs(forcing("steady_sin", 2.0, 1.5, 8))) < 20
        assert np.all(np.isfinite(forcing("steady_sin", 2.0, 2.0, 7)))
        assert np.all(forcing("zero", 2.0, 1.5, 7) == 0.0)


def test_refit_problem_resamples_grid():
    prob = unit_problem(2.0, 3.0, 8, 8, diffusion=2.0)
    out = vf.refit_problem(prob, 14, 6, np.zeros((6, 14)))
    assert out.smesh.interior_count == 14
    assert out.tmesh.step_count == 6
    assert out.a.midpoint_values.shape == (15,)
    assert np.allclose(out.a.midpoint_values, 2.0)
    assert (out.p, out.m) == (prob.p, prob.m)


def test_mms_run_discrete_hits_solver_tolerance():
    # discrete-exact forcing makes the sampled trajectory the solution up to
    # solver tolerance at every level, including rectangular grids
    params = ca.CascadeParams(fp_tol=1e-8, stage_tol=1e-8)
    tab = vf.mms_run(
        bump_mms(), unit_problem(2.0, 3.0, 8, 8), params, levels=((6, 8), (12, 10))
    )
    assert tab.meta["mode"] == "discrete_exact"
    assert list(tab.column("M")) == [6, 12]
    assert list(tab.column("N")) == [8, 10]
    assert all(tab.column("converged"))
    assert np.all(tab.column("error").astype(float) <= 1e-7)
    assert "orders" not in tab.meta
    # the levels are built here and only the problems go to the batch, which
    # returns the same rows and leaves the caller's environment as it was
    env = dict(os.environ)
    par = vf.mms_run(
        bump_mms(), unit_problem(2.0, 3.0, 8, 8), params, levels=((6, 8), (12, 10)),
        jobs=2,
    )
    assert dict(os.environ) == env
    assert par.rows == tab.rows


def test_mms_run_continuum_reports_orders():
    params = ca.CascadeParams(fp_tol=1e-9)
    mms = vf.MmsSpec("separable_bump", "continuum")
    tab = vf.mms_run(
        mms, unit_problem(2.0, 3.0, 6, 6), params, levels=((6, 6), (12, 12)), jobs=2
    )
    assert len(tab.meta["orders"]) == 1
    errs = tab.column("error").astype(float)
    assert errs[1] < errs[0]


def test_mms_temporal_order_is_first_order():
    params = ca.CascadeParams(fp_tol=1e-9)
    mms = vf.MmsSpec("separable_bump", "continuum")
    tab = vf.mms_temporal_order(mms, unit_problem(2.0, 3.0, 8, 8), params)
    errs = tab.column("error").astype(float)
    assert np.all(errs[1:] < errs[:-1])
    assert tab.meta["slope"] >= 0.85

    with pytest.raises(ValueError, match="each N must divide N_ref"):
        vf.mms_temporal_order(mms, unit_problem(2.0, 3.0, 8, 8), params, Ns=(12,))


def test_mms_spatial_order_is_second_order():
    # the steady solution makes the time stepping exact, so refining M at a
    # fixed N isolates the spatial error
    params = ca.CascadeParams(fp_tol=1e-9)
    levels = ((8, 4), (16, 4), (32, 4))
    tab = vf.mms_run(
        vf.MmsSpec("steady_sin", "continuum"),
        unit_problem(2.0, 3.0, 8, 4),
        params,
        levels=levels,
    )
    dx = [1.0 / (M + 1) for M, _ in levels]
    assert vf.loglog_slope(dx, tab.column("error").astype(float)) >= 1.8


class TestInvariantSuite:
    NAMES = {
        "stationarity",
        "energy_inequality",
        "chain_rule_nonneg",
        "chain_rule_size",
        "dual_flow_windows",
        "dual_flow_size",
        "proximal_sandwich",
        "duality_identities",
        "fenchel_young_pairs",
        "gradient_monotonicity",
    }

    def test_converged_stage_passes_everything(self):
        prob = unit_problem(2.0, 3.0, 8, 8)
        params = ca.CascadeParams()
        final = ca.epsilon_continuation(prob, params)[-1]
        rep = vf.invariant_suite(final, prob, params)
        assert {c["name"] for c in rep["checks"]} == self.NAMES
        assert rep["all_passed"], [c for c in rep["checks"] if not c["passed"]]

    def test_corrupted_state_fails_stationarity(self):
        prob = unit_problem(2.0, 3.0, 8, 8)
        params = ca.CascadeParams()
        final = ca.epsilon_continuation(prob, params)[-1]
        bad = ca.StageResult(
            final.u + 0.05, 0.0, 0.0,
            dict(final.diagnostics),
        )
        rep = vf.invariant_suite(bad, prob, params)
        assert not rep["all_passed"]
        by_name = {c["name"]: c for c in rep["checks"]}
        assert not by_name["stationarity"]["passed"]


class TestMosco:
    def test_spec_validation(self):
        base = unit_problem(2.0, 3.0, 4, 4)
        with pytest.raises(ValueError, match="unknown sequence kind"):
            vf.MoscoSequenceSpec(kind="shear", base=base)
        with pytest.raises(ValueError, match="must be >= 1"):
            vf.MoscoSequenceSpec(kind="identity", base=base, index_set=(0, 1))

    def test_instance_perturbations(self):
        base = unit_problem(2.0, 3.0, 6, 6, diffusion=1.5)
        ident = vf.MoscoSequenceSpec(kind="identity", base=base).instance(3)
        assert np.array_equal(ident.f, base.f)
        assert np.array_equal(ident.a.midpoint_values, base.a.midpoint_values)
        dif = vf.MoscoSequenceSpec(kind="diffusion_perturbation", base=base).instance(2)
        mids = base.smesh.cell_midpoints
        assert np.allclose(
            dif.a.midpoint_values, 1.5 * (1.0 + np.sin(2 * mids) / 2.0)
        )
        # p = 2 power rate map perturbs to the exact linear slope 1 + 1/n
        nl = vf.MoscoSequenceSpec(
            kind="nonlinearity_perturbation", base=base
        ).instance(4)
        s = np.array([-2.0, 0.3, 5.0])
        assert np.allclose(nl.nl.alpha_eval(s), 1.25 * s, atol=1e-12)

    def test_identity_sequence_sits_at_noise_floor(self):
        base = unit_problem(2.0, 3.0, 12, 12)
        tab = vf.mosco_experiment(
            vf.MoscoSequenceSpec(kind="identity", base=base, index_set=(1, 2)),
            ca.CascadeParams(),
        )
        errs = tab.column("error").astype(float)
        assert np.all(errs <= tab.meta["noise_floor"])

    def test_base_solve_shares_the_instance_batch(self, monkeypatch):
        # one batch, so no worker idles while the base problem solves
        seq = vf.MoscoSequenceSpec(
            kind="identity", base=unit_problem(2.0, 3.0, 6, 6), index_set=(1, 2)
        )
        sizes = []
        batch = vf._solve_batch

        def spy(items, jobs):
            sizes.append(len(items))
            return batch(items, jobs)

        monkeypatch.setattr(vf, "_solve_batch", spy)
        vf.mosco_experiment(seq, ca.CascadeParams())
        assert sizes == [len(seq.index_set) + 1]

    @pytest.mark.parametrize(
        "kind",
        ["forcing_perturbation", "diffusion_perturbation", "nonlinearity_perturbation"],
    )
    def test_perturbed_solutions_converge_back(self, monkeypatch, kind):
        base = unit_problem(2.0, 3.0, 12, 12)
        seq = vf.MoscoSequenceSpec(kind=kind, base=base, index_set=(1, 2, 4))
        tab = vf.mosco_experiment(seq, ca.CascadeParams())
        assert all(tab.column("converged"))
        assert tab.meta["monotone_beyond_floor"]
        assert tab.meta["last_over_first"] <= 0.5
        # worker processes return the serial table, row for row, and leave
        # the caller's environment as it was
        monkeypatch.setattr(vf, "_WORKER_START_S", 0.0)
        env = dict(os.environ)
        par = vf.mosco_experiment(seq, ca.CascadeParams(), jobs=2)
        assert dict(os.environ) == env
        assert par.rows == tab.rows
        assert par.meta == tab.meta


class TestSolveBatch:
    """The caller is one of the jobs; it starts workers only when the solves
    left can pay for them, and they claim what it leaves."""

    def test_workers_solve_what_the_caller_leaves(self, monkeypatch):
        seq = vf.MoscoSequenceSpec(
            kind="diffusion_perturbation",
            base=unit_problem(2.0, 3.0, 6, 6),
            index_set=(1, 2, 4),
        )
        params = ca.CascadeParams()
        tab = vf.mosco_experiment(seq, params)
        monkeypatch.setattr(vf, "_WORKER_START_S", 0.0)
        calls = hold_first_pool_solve(monkeypatch.setattr, claimed=4)
        par = vf.mosco_experiment(seq, params, jobs=2)
        # the caller solved the base problem before the pool and the first
        # instance in it; the worker solved the other two
        assert len(calls) == 2
        assert repr(par.rows) == repr(tab.rows)
        assert par.meta == tab.meta
        assert multiprocessing.active_children() == []

    def test_a_batch_that_cannot_pay_for_a_worker_starts_no_process(
        self, monkeypatch
    ):
        seq = vf.MoscoSequenceSpec(
            kind="diffusion_perturbation",
            base=unit_problem(2.0, 3.0, 6, 6),
            index_set=(1, 2, 4),
        )
        params = ca.CascadeParams()
        tab = vf.mosco_experiment(seq, params)
        starts, start = [], multiprocessing.context.SpawnProcess.start

        def spy(p):
            starts.append(p)
            start(p)

        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", spy)
        par = vf.mosco_experiment(seq, params, jobs=2)
        assert starts == []
        assert multiprocessing.active_children() == []
        assert repr(par.rows) == repr(tab.rows)
        assert par.meta == tab.meta

    @pytest.mark.parametrize(
        "jobs, n, workers",
        [(1, 4, 0), (0, 4, 0), (2, 1, 0), (8, 0, 0), (2, 4, 1), (3, 5, 2), (64, 5, 4)],
    )
    def test_starts_at_most_jobs_minus_one_workers(self, monkeypatch, jobs, n, workers):
        # a spy that starts nothing, so the caller solves every item
        starts = []
        monkeypatch.setattr(
            multiprocessing.context.SpawnProcess, "start", lambda p: starts.append(p)
        )
        monkeypatch.setattr(vf, "_solve_one", lambda *item: item)
        items = [(k, None, None) for k in range(n)]
        assert vf._solve_pooled(items, 0, jobs) == items
        assert len(starts) == workers

    @pytest.mark.parametrize(
        "jobs, seconds, start_s, alone, workers",
        [
            (2, [1, 1, 1, 1, 1], 1.0, 1, 1),  # 4 s left against 2 s
            (2, [1, 1, 1, 1, 1], 2.0, 5, 0),  # 4 s left, never more than 4 s
            (4, [1, 1, 1, 1, 1, 1], 1.5, 1, 3),
            (2, [0.1, 3, 3, 3, 3], 1.0, 2, 1),  # 1.55 s a solve, 3 left
            (2, [9, 9], 0.0, 2, 0),  # one solve left needs no worker
            (1, [9, 9, 9], 0.0, 3, 0),  # jobs is a ceiling
        ],
    )
    def test_caller_starts_workers_once_the_solves_left_pay(
        self, monkeypatch, jobs, seconds, start_s, alone, workers
    ):
        # items take a known time on a fake clock; the caller solves the
        # first `alone` of them and hands exactly the rest to the pool
        now, starts, handed = [0.0], [], []
        pooled = vf._solve_pooled

        def solve(*item):
            now[0] += item[0]
            return item

        def pool(items, first, jobs):
            handed.append(items[first:])
            return pooled(items, first, jobs)

        monkeypatch.setattr(vf, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(vf, "_WORKER_START_S", start_s)
        monkeypatch.setattr(vf, "_solve_one", solve)
        monkeypatch.setattr(vf, "_solve_pooled", pool)
        monkeypatch.setattr(
            multiprocessing.context.SpawnProcess, "start", lambda p: starts.append(p)
        )
        items = [(s, None, None) for s in seconds]
        assert vf._solve_batch(items, jobs) == items
        assert handed == ([items[alone:]] if alone < len(items) else [])
        assert len(starts) == workers

    def test_claims_are_unique_across_processes(self):
        # more claimants than cores; a lost update would hand out an index twice
        ctx = multiprocessing.get_context("spawn")
        counter, out = ctx.Value("i", 0), ctx.Queue()
        procs = [
            ctx.Process(target=claim_into, args=(counter, 2000, out)) for _ in range(4)
        ]
        for p in procs:
            p.start()
        claimed = [i for _ in procs for i in out.get(timeout=120)]
        for p in procs:
            p.join(timeout=60)
            assert not p.is_alive()
        assert sorted(claimed) == list(range(8000))

    def test_a_failing_caller_solve_is_raised_and_no_worker_is_left(self):
        items = [(unit_problem(2.0, 3.0, 4, 4), ca.CascadeParams(), "bogus")] * 3
        with pytest.raises(ValueError, match="route must be"):
            vf._solve_pooled(items, 0, 2)
        assert multiprocessing.active_children() == []

    def test_a_failing_worker_solve_is_raised(self, monkeypatch):
        items = [(unit_problem(2.0, 3.0, 4, 4), ca.CascadeParams(), "bogus")] * 3
        calls = hold_first_pool_solve(
            monkeypatch.setattr, claimed=3, solve=lambda *item: None
        )
        with pytest.raises(ValueError, match="route must be"):
            vf._solve_pooled(items, 0, 2)
        assert len(calls) == 1
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_holding_an_item_raises(self, monkeypatch):
        items = [(None, None, ExitsInWorker())] * 3
        calls = hold_first_pool_solve(
            monkeypatch.setattr, claimed=2, solve=lambda *item: None
        )
        with pytest.raises(RuntimeError, match=r"batch items \[1\] were lost"):
            vf._solve_pooled(items, 0, 2)
        assert len(calls) == 2
        assert multiprocessing.active_children() == []


class TestGrowthAudit:
    def test_power_map_realizes_exact_ratios(self):
        tab = vf.growth_audit(unit_problem(2.5, 3.0, 16, 4), sample_count=12)
        assert len(tab.rows) == 50  # 10 inequalities x 5 decades
        ineq = tab.column("inequality")
        ratios = tab.column("homogeneous_ratio").astype(float)
        # psi(u) = |u|_V^p / p for the power rate map, so the state-to-
        # primitive ratio is exactly p; |alpha(u)|_*^p' telescopes back to
        # |u|_V^p, so the rate-gradient ratio is exactly 1
        assert np.allclose(ratios[ineq == "state_by_rate_primitive"], 2.5, rtol=1e-12)
        assert np.allclose(ratios[ineq == "rate_grad_by_state"], 1.0, rtol=1e-12)
        assert tab.meta["all_finite"]
        assert np.all(np.isfinite(tab.column("affine_constant").astype(float)))

    def test_non_power_map_omits_homogeneous_ratio(self):
        prob = unit_problem(2.0, 3.0, 12, 4)
        pw = cc.Nonlinearity.piecewise_linear(
            [(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5)], p_exponent=2.0
        )
        tab = vf.growth_audit(replace(prob, nl=pw), sample_count=8)
        ineq = tab.column("inequality")
        ratios = tab.column("homogeneous_ratio").astype(float)
        assert np.all(np.isnan(ratios[ineq == "state_by_rate_grad"]))
        assert np.all(np.isfinite(ratios[ineq == "grad_norm_by_energy"]))
        assert tab.meta["all_finite"]


def test_temporal_mesh_times_match_refit():
    # refits must keep period and length so exact samples line up
    prob = unit_problem(2.0, 3.0, 8, 8)
    out = vf.refit_problem(prob, 16, 4, np.zeros((4, 16)))
    assert out.tmesh.period == prob.tmesh.period
    assert isinstance(out.tmesh, TemporalMesh)
