"""Falsification harness: manufactured solutions, invariant suites,
structural-stability experiments, and growth-envelope audits.

Everything here either reconstructs a known answer and measures the distance
to it, or evaluates an inequality the solution must satisfy and reports the
margin.  Failures are data, not exceptions; only malformed inputs raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import convexcore as cc
from .cascade import (
    CascadeParams,
    StageResult,
    chain_rule_sum,
    energy_margin,
    lf_margin,
    solve_routed,
)
from .discretize import (
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    bochner_norm,
    cell_gradient,
    dual_bochner_norm,
    format_rows,
    norm_V,
    norm_X,
    pairing,
    write_csv,
    write_dat,
)
from .variational import DELTA, _StageAt, residual_AP

__all__ = [
    "Table",
    "MmsSpec",
    "MoscoSequenceSpec",
    "derived_forcing",
    "mms_level",
    "mms_run",
    "invariant_suite",
    "mosco_experiment",
    "growth_audit",
    "loglog_slope",
]


@dataclass
class Table:
    """Column-named result table, written as CSV and its gnuplot mirror."""

    columns: list[str]
    rows: list[list] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != column count {len(self.columns)}"
            )
        for v in values:  # the CSV writer quotes nothing
            if isinstance(v, str) and not set(v).isdisjoint(',"\r\n'):
                raise ValueError(f"string {v!r} holds a comma, quote or line break")
        self.rows.append(list(values))

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.asarray([row[j] for row in self.rows])

    def write(self, stem: str) -> None:
        """Write the table to stem.csv and stem.dat."""
        blocks = [format_rows(self.rows)]
        write_csv(f"{stem}.csv", self.columns, blocks)
        write_dat(f"{stem}.dat", self.columns, blocks)

    def as_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [
                [v if not isinstance(v, (np.floating, np.integer)) else v.item() for v in row]
                for row in self.rows
            ],
            "meta": self.meta,
        }


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x, by centred least squares."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    lx -= lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


# ---------------------------------------------------------------------------
# manufactured solutions


# u = sin(pi x/L) tau(t): per name, tau and dtau/ds in the phase s = 2 pi t/T
_PROFILES = {
    "separable_bump": (lambda s: 1.0 + 0.5 * np.sin(s), lambda s: 0.5 * np.cos(s)),
    "separable_sin": (np.sin, np.cos),
    "steady_sin": (np.ones_like, np.zeros_like),
    "zero": (np.zeros_like, np.zeros_like),
}


@dataclass(frozen=True)
class MmsSpec:
    """A named manufactured trajectory u = sin(pi x/L) tau(t) and the recipe
    for its forcing.  L and T are those of the meshes it is sampled on.

    "separable_bump": tau = 1 + sin(2 pi t/T)/2, good for discrete-exact
    recovery (no identically zero slice).
    "separable_sin": tau = sin(2 pi t/T), the linear-instance order study
    solution.
    "steady_sin": tau = 1, for spatial order studies.
    "zero": tau = 0, the zero trajectory.

    mode "discrete_exact" builds the forcing with the solver's own discrete
    operators (recovery then is limited only by solver tolerance);
    "continuum" evaluates the continuum equation at the nodes, which
    reintroduces discretization error and supports order studies.  It needs
    constant diffusion.
    """

    name: str
    mode: str = "discrete_exact"

    def __post_init__(self) -> None:
        if self.name not in _PROFILES:
            raise ValueError(f"unknown exact solution {self.name!r}")
        if self.mode not in ("discrete_exact", "continuum"):
            raise ValueError(f"unknown mms mode {self.mode!r}")


def _profile(mms: MmsSpec, smesh: SpatialMesh, tmesh: TemporalMesh):
    """sin(pi x/L) at the nodes, tau and its time derivative at the times."""
    tau, dtau = _PROFILES[mms.name]
    s = 2 * np.pi * tmesh.times / tmesh.period
    space = np.sin(np.pi * smesh.nodes / smesh.length)
    return space, tau(s), 2 * np.pi / tmesh.period * dtau(s)


def sample_exact(mms: MmsSpec, smesh: SpatialMesh, tmesh: TemporalMesh) -> np.ndarray:
    space, tau, _ = _profile(mms, smesh, tmesh)
    return np.outer(tau, space)


def _constant_diffusion(a: cc.DiffusionField) -> float:
    vals = a.midpoint_values
    if np.any(vals != vals[0]):
        raise ValueError("continuum mode needs constant diffusion")
    return float(vals[0])


def derived_forcing(mms: MmsSpec, prob: ProblemSpec) -> np.ndarray:
    """Forcing that makes mms the (discrete or continuum) solution of prob.

    The continuum forcing is alpha(u_t) - a (m-1) |u_x|^(m-2) u_xx for the
    constant diffusion a; the flux term is 0 where u_xx = 0.  At m < 2 it is
    unbounded at x = L/2, where u_x = 0, so a mesh with a node there (odd M)
    raises ValueError unless the solution is zero.
    """
    smesh, tmesh = prob.smesh, prob.tmesh
    if mms.mode == "discrete_exact":
        at = _StageAt(sample_exact(mms, smesh, tmesh), prob, 0.0)
        return at.xi + at.phi.grad
    a = _constant_diffusion(prob.a)
    k = np.pi / smesh.length
    space, tau, dtau = _profile(mms, smesh, tmesh)
    if prob.m < 2.0 and smesh.interior_count % 2 == 1 and np.any(tau):
        raise ValueError(
            f"the continuum forcing at m = {prob.m:g} < 2 is singular at the "
            f"node x = L/2 of M = {smesh.interior_count}; use an even M"
        )
    u_x = k * np.outer(tau, np.cos(k * smesh.nodes))
    u_xx = -k * k * np.outer(tau, space)
    with np.errstate(divide="ignore", invalid="ignore"):
        flux_x = a * (prob.m - 1) * np.abs(u_x) ** (prob.m - 2) * u_xx
    return prob.nl.alpha_eval(np.outer(dtau, space)) - np.where(
        u_xx == 0.0, 0.0, flux_x
    )


def mms_level(mms: MmsSpec, prob: ProblemSpec, M: int, N: int) -> ProblemSpec:
    """prob's physics on an M x N grid, forced so that mms is its solution.

    The diffusion coefficient is interpolated to the new cell midpoints; the
    length and period stay, so the exact trajectory samples line up.
    """
    # allocated first: a level too large to allocate then raises MemoryError
    # or ValueError here, not OverflowError in a mesh's np.arange
    f = np.zeros((N, M))
    smesh = SpatialMesh(prob.smesh.length, M)
    tmesh = TemporalMesh(prob.tmesh.period, N)
    a_vals = np.interp(
        smesh.cell_midpoints, prob.smesh.cell_midpoints, prob.a.midpoint_values
    )
    level = replace(prob, a=cc.DiffusionField(a_vals), f=f, smesh=smesh, tmesh=tmesh)
    return replace(level, f=derived_forcing(mms, level))


def mms_run(
    mms: MmsSpec,
    levels: list[ProblemSpec],
    params: CascadeParams,
) -> Table:
    """Solve the manufactured problem on each refinement level.

    Each level is a problem that mms_level built, so mms is its solution;
    the table reads M and N off its meshes.  Error column is the
    sup-in-time nodal L^p distance to the exact trajectory.  In
    discrete-exact mode the error is bounded by solver tolerance at every
    level; in continuum mode consecutive level ratios expose the
    convergence order (meta key "orders").  The steady solution makes the
    time stepping exact, so its levels isolate the second-order spatial
    error.
    """
    table = Table(["level", "M", "N", "error", "residual", "converged"])
    table.meta["mode"] = mms.mode
    table.meta["name"] = mms.name
    for lv, lp in enumerate(levels):
        final, _, _ = solve_routed(lp, params)
        U = sample_exact(mms, lp.smesh, lp.tmesh)
        err = bochner_norm(norm_V(final.u - U, lp.p, lp.smesh), np.inf, lp.tmesh)
        res = residual_AP(final.u, lp)
        M, N = lp.smesh.interior_count, lp.tmesh.step_count
        table.add(lv, M, N, float(err), float(res), final.converged)
    errs = table.column("error").astype(float)
    if mms.mode == "continuum" and len(errs) > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            orders = np.log2(errs[:-1] / errs[1:])
        table.meta["orders"] = [float(o) for o in orders]
    return table


# ---------------------------------------------------------------------------
# invariant suite


def _check(name: str, margin: float, tol: float) -> dict:
    return {
        "name": name,
        "margin": float(margin),
        "tolerance": float(tol),
        "passed": bool(margin >= -tol),
    }


def invariant_suite(
    result: StageResult,
    params: CascadeParams,
    rng: np.random.Generator | None = None,
) -> dict:
    """Evaluate the structural invariants on a limit stage and its prob.

    result is a limit stage (eps = mu = 0), as solve_routed's final stage
    always is: every check, stationarity included, reads the unperturbed
    limit equation at its u.  Each entry reports margin (how far inside the
    inequality the solution sits; negative means violated) and the
    tolerance used.  The report is data; nothing raises on failure.
    """
    rng = rng or np.random.default_rng(1234)
    u, prob = result.u, result.prob
    smesh, tmesh = prob.smesh, prob.tmesh
    scale = max(1.0, dual_bochner_norm(prob.f, prob))
    checks: list[dict] = []
    # the unperturbed limit equation at u, read by every check below
    at = _StageAt(u, prob, 0.0)
    du, xi = at.du, at.xi

    # stationarity: the converged fixed point solves the limit equation
    tol = 20.0 * params.fp_tol * scale
    checks.append(_check("stationarity", tol - at.residual_AP, tol))

    # periodic energy inequality: rate pairing cannot exceed forcing pairing
    gap = -energy_margin(at)
    checks.append(_check("energy_inequality", 1e-8 * scale - gap, 1e-8 * scale))

    # chain rule sum: nonnegative and O(dt)
    S = chain_rule_sum(at)
    ddu = cell_gradient(du, smesh)
    predicted = 0.5 * tmesh.dt * float(
        tmesh.dt * np.sum(smesh.dx * np.sum(at.phi.weights * ddu * ddu, axis=-1))
    )
    checks.append(_check("chain_rule_nonneg", S, 1e-10 * max(1.0, scale)))
    upper = max(4.0 * predicted, 1e-8 * scale)
    checks.append(_check("chain_rule_size", upper - S, upper))

    # dual flow inequality over every window: every window defect sum is
    # nonnegative (exact Fenchel-Young direction) and the full-period total
    # is O(dt), predicted by the Bregman gaps 0.5 <dxi, d du> (exact at p=2)
    lf_scale = max(1.0, float(np.max(np.abs(at.psi_star))))
    checks.append(_check("dual_flow_windows", lf_margin(at), 1e-8 * lf_scale))
    dxi = xi - np.roll(xi, 1, axis=0)
    defect_total = float(np.sum(pairing(dxi, du, smesh)))
    bregman = 0.5 * float(
        np.sum(pairing(dxi, du - np.roll(du, 1, axis=0), smesh))
    )
    lf_upper = max(4.0 * abs(bregman), 1e-8 * lf_scale)
    checks.append(_check("dual_flow_size", lf_upper - defect_total, lf_upper))

    # proximal sandwich and parameter monotonicity on sample slices
    def phi(v: np.ndarray) -> cc.PhiAt:
        return cc.PhiAt(v, prob.a, prob.m, DELTA, smesh)

    lams = (1.0, 0.1, 0.01)
    sandwich_margin = np.inf
    picks = sorted({0, tmesh.step_count // 2, tmesh.step_count - 1})
    env_tol = 1e-8 * max(1.0, abs(float(phi(u[picks[-1]]).value)))
    try:
        for n in picks:
            envs = []
            phu = float(phi(u[n]).value)
            for lam in lams:
                J, env, _ = cc.moreau_yosida(u[n], lam, prob, DELTA, tol=1e-11)
                phJ = float(phi(J).value)
                sandwich_margin = min(sandwich_margin, env - phJ, phu - env)
                envs.append(env)
            # the envelope grows as lam drops
            for a_, b_ in zip(envs, envs[1:]):
                sandwich_margin = min(sandwich_margin, b_ - a_)
        checks.append(_check("proximal_sandwich", sandwich_margin, env_tol))
    except RuntimeError as exc:  # a stalled proximal solve fails the check
        check = _check("proximal_sandwich", -np.inf, env_tol)
        checks.append({**check, "margin": None, "message": str(exc)})

    # duality map identities on the solution slices
    dev = 0.0
    for n in picks:
        v = u[n]
        nv = float(norm_V(v, prob.p, smesh))
        F = cc.duality_map(v, prob.p, smesh)
        dev = max(dev, abs(float(pairing(F, v, smesh)) - nv**2))
        dev = max(dev, abs(float(norm_V(F, prob.p_conj, smesh)) - nv))
    id_tol = 1e-10 * max(1.0, nv**2)
    checks.append(_check("duality_identities", id_tol - dev, id_tol))

    # Fenchel-Young equality on the rate pairs (du, xi)
    psi = np.asarray(cc.eval_psi(du, prob.nl, smesh))
    fy = np.abs(psi + at.psi_star - np.asarray(pairing(xi, du, smesh)))
    fy_scale = max(1.0, float(np.max(np.abs(psi))))
    fy_tol = 1e-8 * fy_scale
    checks.append(_check("fenchel_young_pairs", fy_tol - float(np.max(fy)), fy_tol))

    # monotonicity of the energy gradient on random pairs
    mono = np.inf
    for _ in range(5):
        v = rng.standard_normal(smesh.interior_count)
        w2 = rng.standard_normal(smesh.interior_count)
        gv = phi(v).grad
        gw = phi(w2).grad
        mono = min(mono, float(pairing(gv - gw, v - w2, smesh)))
    checks.append(_check("gradient_monotonicity", mono, 1e-12))

    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# structural stability (Mosco) experiments


@dataclass
class MoscoSequenceSpec:
    """A family of perturbed problems converging back to a base problem.

    Kinds: "diffusion_perturbation" scales the coefficient by
    1 + sin(n x)/n; "nonlinearity_perturbation" adds s/n to the rate map;
    "forcing_perturbation" adds g/n for the shift
    g = sin(2 pi x/L) cos(2 pi t/T); "combined" applies all three;
    "identity" perturbs nothing (noise-floor control).  The one structural
    bound checked is that every instance's diffusion coefficient is positive
    on every cell: DiffusionField rejects any other when instance(n) builds
    it.  The growth constants of the instances are not checked.

    The perturbed rate map is exact only for the p = 2 power map.  Any other
    base is tabulated as alpha + s/n on 4097 knots over [-64, 64], so as n
    grows instance n tends to that table of alpha, not to alpha: the drift
    from the base solution has a floor set by the knot count.  On
    unit_problem(2.5, 3, 12, 12) at n = 10^6 it reads 3.1e-4, 4.7e-5 and
    4.8e-6 with 1025, 4097 and 16385 knots, and at 4097 knots n = 256 reads
    9.4e-5 against 1.7e-4 at n = 128.  The default index set, n <= 8, stays
    far above the floor (2.4e-3 at n = 8).
    """

    kind: str
    base: ProblemSpec
    index_set: tuple[int, ...] = tuple(range(1, 9))

    _KINDS = (
        "diffusion_perturbation",
        "nonlinearity_perturbation",
        "forcing_perturbation",
        "combined",
        "identity",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if any(n < 1 for n in self.index_set):
            raise ValueError("index set entries must be >= 1")

    def instance(self, n: int) -> ProblemSpec:
        base = self.base
        a, nl, f = base.a, base.nl, base.f
        if self.kind in ("diffusion_perturbation", "combined"):
            mids = base.smesh.cell_midpoints
            a = cc.DiffusionField(a.midpoint_values * (1.0 + np.sin(n * mids) / n))
        if self.kind in ("nonlinearity_perturbation", "combined"):
            nl = self._perturbed_nl(n)
        if self.kind in ("forcing_perturbation", "combined"):
            smesh, tmesh = base.smesh, base.tmesh
            g = np.sin(2 * np.pi * smesh.nodes[None, :] / smesh.length) * np.cos(
                2 * np.pi * tmesh.times[:, None] / tmesh.period
            )
            f = f + g / n
        return replace(base, a=a, nl=nl, f=f)

    def _perturbed_nl(self, n: int) -> cc.Nonlinearity:
        base = self.base.nl
        p = base.p_exponent
        if base.kind == "power" and p == 2.0:
            # alpha_n(s) = (1 + 1/n) s exactly, as a two-knot segment with
            # matching end-slope extension
            slope = 1.0 + 1.0 / n
            return cc.Nonlinearity.piecewise_linear(
                [(-1.0, -slope), (1.0, slope)], p_exponent=2.0
            )
        s = np.linspace(-64.0, 64.0, 4097)
        return cc.Nonlinearity.piecewise_linear(
            np.column_stack([s, base.alpha_eval(s) + s / n]), p_exponent=p
        )


def mosco_experiment(
    seq: MoscoSequenceSpec,
    params: CascadeParams,
    jobs: int = 1,
) -> Table:
    """Solve each perturbed instance and measure drift from the base solution.

    Error is the sup-in-time nodal L^p distance, the discrete stand-in for
    uniform-in-time state-space convergence.  meta records the trailing to
    leading error ratio and whether errors decrease beyond the noise floor.
    Every solve runs in this process.  jobs is ignored; it remains only
    because the Mosco workload of bench/workloads.py still passes it.
    """
    ns = sorted(seq.index_set)
    probs = [seq.base] + [seq.instance(n) for n in ns]
    (base_final, _, _), *outs = [solve_routed(pr, params) for pr in probs]
    smesh, tmesh = seq.base.smesh, seq.base.tmesh
    table = Table(["n", "error", "converged", "residual"])
    for n, (final, _, _) in zip(ns, outs):
        err = bochner_norm(
            norm_V(final.u - base_final.u, seq.base.p, smesh), np.inf, tmesh
        )
        res = final.diagnostics.get("fixed_point_residual", np.nan)
        table.add(n, float(err), final.converged, float(res))
    errs = table.column("error").astype(float)
    floor = 2.0 * params.resolved_stage_tol()
    above = errs > floor
    monotone = all(
        b < a for a, b, fa, fb in zip(errs, errs[1:], above, above[1:]) if fa and fb
    )
    table.meta["monotone_beyond_floor"] = bool(monotone)
    table.meta["noise_floor"] = floor
    if errs.size >= 2:
        table.meta["last_over_first"] = float(errs[-1] / max(errs[0], 1e-300))
    if np.all(above) and errs.size >= 3:
        table.meta["slope"] = loglog_slope(ns, errs)
    return table


# ---------------------------------------------------------------------------
# growth-envelope audit


# inequality lhs <= C (rhs + 1) by name, as the keys of its two quantities:
# state |u|_V^p, primitive psi(u), rate_grad |d psi(u)|^p', grad_norm
# |u|_X^m, energy phi(u) and energy_grad |eta|^m'
_INEQUALITIES = {
    "state_by_rate_primitive": ("state", "primitive"),
    "rate_grad_by_state": ("rate_grad", "state"),
    "grad_norm_by_energy": ("grad_norm", "energy"),
    "energy_grad_by_grad_norm": ("energy_grad", "grad_norm"),
    "rate_grad_by_primitive": ("rate_grad", "primitive"),
    "primitive_by_state": ("primitive", "state"),
    "state_by_rate_grad": ("state", "rate_grad"),
    "energy_grad_by_energy": ("energy_grad", "energy"),
    "energy_by_grad_norm": ("energy", "grad_norm"),
    "grad_norm_by_energy_grad": ("grad_norm", "energy_grad"),
}
# the rate side's quantities: an inequality between two of them is exactly
# homogeneous only for a power rate map
_RATE_SIDE = {"state", "primitive", "rate_grad"}


def growth_audit(prob: ProblemSpec, sample_count: int, seed: int = 0) -> Table:
    """Empirically realized constants of the growth/coercivity envelope.

    Random fields are rescaled to nodal norms spanning five magnitude
    decades; per inequality and decade the audit reports the largest
    affine-form constant and, where the functional is exactly homogeneous,
    the homogeneous ratio (e.g. state-to-primitive realizes the exponent p
    itself for the power rate map).  Dual norms on the gradient-space side
    are measured in the nodal dual norm, a surrogate for the gradient-space
    dual.  All constants must be finite; there is no pass/fail here.
    """
    rng = np.random.default_rng(seed)
    smesh = prob.smesh
    p, pc, m = prob.p, prob.p_conj, prob.m
    mc = prob.m_conj
    decades = (-2, -1, 0, 1, 2)
    fields = rng.standard_normal((sample_count, smesh.interior_count))
    table = Table(["inequality", "decade", "affine_constant", "homogeneous_ratio"])
    power_kind = prob.nl.kind == "power"
    for dec in decades:
        target = 10.0**dec
        base_n = norm_V(fields, p, smesh)
        u = fields * (target / base_n)[:, None]
        psi = np.asarray(cc.eval_psi(u, prob.nl, smesh))
        dpsi = prob.nl.alpha_eval(u)
        dpsi_n = np.asarray(norm_V(dpsi, pc, smesh)) ** pc
        up = np.asarray(norm_V(u, p, smesh)) ** p
        energy = cc.PhiAt(u, prob.a, prob.m, 0.0, smesh)
        phi = np.asarray(energy.value)
        eta = energy.grad
        eta_n = np.asarray(norm_V(eta, mc, smesh)) ** mc
        xm = np.asarray(norm_X(u, m, smesh)) ** m
        quantity = {
            "state": up, "primitive": psi, "rate_grad": dpsi_n,
            "grad_norm": xm, "energy": phi, "energy_grad": eta_n,
        }
        for name, keys in _INEQUALITIES.items():
            lhs, rhs = (quantity[k] for k in keys)
            affine = float(np.max(lhs / (rhs + 1.0)))
            homog = float(np.max(lhs / np.maximum(rhs, 1e-300)))
            if not power_kind and _RATE_SIDE.issuperset(keys):
                homog = float("nan")  # only power maps are exactly homogeneous
            table.add(name, dec, affine, homog)
    finite = np.isfinite(table.column("affine_constant").astype(float))
    table.meta["all_finite"] = bool(np.all(finite))
    return table
