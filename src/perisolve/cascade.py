"""Regularization cascade for the periodic doubly nonlinear problem.

The target system couples the rate nonlinearity and the gradient energy:
alpha(du) + grad Phi(u) = f with one period of self-consistency.  It is
attacked in layers:

* stage equation: for a dual forcing h, the stationarity equation of the
  strictly convex space-time objective of the elliptic-regularized system
  at parameter eps;
* fixed point: h = -alpha(du) of the stage solution; substituted into the
  stage equation this is one equation in u, solved by Newton from the
  previous stage's solution;
* continuation: drive eps down a schedule with warm starts, finishing with
  an exact eps = 0 stage, and on the hard exponent branch drive a power
  perturbation of the energy down a mu schedule the same way.

solve_routed is the one walker of both routes: it returns every fixed point
stage in the order solved, each tagged with its (eps, mu).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import convexcore as cc
from .discretize import (
    ProblemSpec,
    dual_bochner_norm,
    norm_V,
    norm_Vstar,
    norm_X,
    pairing,
    time_derivative,
)
from .variational import ObjectiveConfig, newton_fixed_point, residual_AP

__all__ = [
    "CascadeParams",
    "StageResult",
    "default_epsilon_schedule",
    "fixed_point_solve",
    "epsilon_continuation",
    "solve_routed",
    "energy_margin",
    "chain_rule_sum",
    "lf_margin",
    "stage_audit",
]

DEFAULT_MU_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)

log = logging.getLogger(__name__)


def default_epsilon_schedule(
    start: float = 1.0, stop: float = 1e-4, factor: float = 0.5
) -> tuple[float, ...]:
    """Geometric ladder from start down to stop, clamping the last entry."""
    if not (0.0 < stop <= start and 0.0 < factor < 1.0):
        raise ValueError("need 0 < stop <= start and factor in (0, 1)")
    out = [start]
    while out[-1] * factor > stop * (1.0 + 1e-12):
        out.append(out[-1] * factor)
    if out[-1] > stop * (1.0 + 1e-12):
        out.append(stop)
    return tuple(out)


@dataclass(frozen=True)
class CascadeParams:
    """Tuning knobs of the cascade.

    A fixed point stage has converged when the Bochner dual norm of its
    equation residual is at most stage_tol * min(1, dt) * max(1,
    |f - alpha(du)|); stage_tol = None resolves to 0.05 * fp_tol.
    max_fp_iter bounds the Newton steps of one fixed point stage.
    exact_limit_stage appends a final
    eps = 0 stage to each epsilon walk and, on the mu route, a final mu = 0
    level.  mu_eps_truncate is how many trailing epsilon entries later mu
    levels reuse; the first mu level always walks the full ladder.  Every
    stage walked, on either route, is one StageResult tagged (eps, mu), so
    a schedule must walk at least one stage.
    """

    epsilon_schedule: tuple[float, ...] = default_epsilon_schedule()
    mu_schedule: tuple[float, ...] = ()
    alpha_exp: float | None = None
    delta: float = 1e-8
    fp_tol: float = 1e-10
    stage_tol: float | None = None
    max_fp_iter: int = 400
    exact_limit_stage: bool = True
    mu_eps_truncate: int = 4

    def __post_init__(self) -> None:
        eps = tuple(float(e) for e in self.epsilon_schedule)
        if not all(0.0 < e < math.inf for e in eps):
            raise ValueError("epsilon schedule entries must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if not eps and not self.exact_limit_stage:
            raise ValueError(
                "an empty epsilon schedule walks no stage without exact_limit_stage"
            )
        object.__setattr__(self, "epsilon_schedule", eps)
        mus = tuple(float(x) for x in self.mu_schedule)
        if any(not (0.0 < x < 1.0) for x in mus):
            raise ValueError("mu schedule entries must lie in (0, 1)")
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ValueError("mu schedule must be strictly decreasing")
        object.__setattr__(self, "mu_schedule", mus)
        for key in ("fp_tol", "stage_tol", "alpha_exp"):
            val = getattr(self, key)
            if val is not None and not 0.0 < val < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {val}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    def resolved_stage_tol(self) -> float:
        return 0.05 * self.fp_tol if self.stage_tol is None else self.stage_tol


@dataclass
class StageResult:
    """Solution of one fixed point stage plus its dual selections.

    xi = alpha(du) slicewise, eta the energy gradient at the stage smoothing
    (including the perturbation coefficient when present), h the converged
    dual forcing.  diagnostics is JSON-friendly throughout.
    """

    u: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    h: np.ndarray
    epsilon: float
    mu: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return bool(self.diagnostics.get("converged", False))


# ---------------------------------------------------------------------------
# single stage


def fixed_point_solve(
    prob: ProblemSpec,
    eps: float,
    params: CascadeParams,
    pf: cc.PerturbedFunctional | None = None,
    u0: np.ndarray | None = None,
) -> StageResult:
    """Fixed point h = -alpha(du) of one stage, by Newton on its equation in u.

    Newton (newton_fixed_point) starts from u0, zero when not given.  The
    stage's fixed point residual is the norm of its equation residual at
    the end, and the stage has converged when that norm is within the
    stage tolerance.  Non-convergence is reported, not raised.
    """
    u = np.zeros_like(prob.f) if u0 is None else u0
    scale = max(1.0, dual_bochner_norm(prob.f, prob))
    # h = -alpha(du) amplifies defects in u by the inverse time step, so the
    # stage tolerance is tightened by that factor
    st_tol = params.resolved_stage_tol() * min(1.0, prob.tmesh.dt)
    ocfg = ObjectiveConfig(prob, eps, params.delta, pf)
    u, history, converged = newton_fixed_point(u, ocfg, st_tol, params.max_fp_iter)
    xi = prob.nl.alpha_eval(time_derivative(u, prob.tmesh))
    h = -xi
    eta = cc._PhiAt(u, prob.a, prob.m, params.delta, prob.smesh, pf).grad
    mu = 0.0 if pf is None else pf.mu
    res = history[-1]
    diagnostics = {
        "converged": converged,
        "fixed_point_residual": float(res),
        "residual_scale": float(scale),
        "residual_history": [float(r) for r in history],
        "fixed_point_newton_steps": len(history) - 1,
        # no stage minimization is left; the two counts stay, at their true
        # value 0, because bench/workloads.py still reads them
        "beta_evaluations": 0,
        "stage_newton_iterations": 0,
        "energy_margin": energy_margin(u, prob),
        "audit": stage_audit(u, h, prob, eps, params.delta, pf),
    }
    if not converged:
        log.warning(
            "fixed point at eps=%.3e mu=%.3e stalled at residual %.3e",
            eps,
            mu,
            res,
        )
    return StageResult(u, xi, eta, h, float(eps), float(mu), diagnostics)


# ---------------------------------------------------------------------------
# invariants and audits


def energy_margin(u: np.ndarray, prob: ProblemSpec) -> float:
    """Periodic dissipation pairing sum_n dt <f_n - alpha(du_n), du_n>.

    Nonnegative up to the stage defect for any solution: the energy gradient
    pairs with du above the telescoping energy increments, which cancel over
    one period.
    """
    du = time_derivative(u, prob.tmesh)
    xi = prob.nl.alpha_eval(du)
    vals = pairing(prob.f - xi, du, prob.smesh)
    return float(prob.tmesh.dt * np.sum(vals))


def chain_rule_sum(u: np.ndarray, prob: ProblemSpec, delta: float = 0.0) -> float:
    """sum_n dt <eta_n, du_n> with eta the energy gradient.

    Equals the sum of per-step convexity gaps of the energy, hence is
    nonnegative and of size O(dt) for smooth trajectories.
    """
    du = time_derivative(u, prob.tmesh)
    eta = cc.grad_phi(u, prob.a, prob.m, delta, prob.smesh)
    return float(prob.tmesh.dt * np.sum(pairing(eta, du, prob.smesh)))


def lf_margin(u: np.ndarray, prob: ProblemSpec) -> float:
    """Worst-window margin of the dual flow inequality.

    With xi_n = alpha(du_n), every window (n1, n2] satisfies
    sum <xi_n - xi_{n-1}, du_n> >= psi*(xi_{n2}) - psi*(xi_{n1}): du_n is a
    subgradient of psi* at xi_n, so each per-step defect is a Fenchel-Young
    gap and nonnegative.  Returns the smallest window sum of the defects
    (windows wrap around the period), nonnegative up to roundoff.
    """
    du = time_derivative(u, prob.tmesh)
    xi = prob.nl.alpha_eval(du)
    psis = cc.fenchel_psi_star(xi, prob.nl, prob.smesh)
    lhs = pairing(xi - np.roll(xi, 1, axis=0), du, prob.smesh)
    d = np.asarray(lhs - (psis - np.roll(psis, 1)), dtype=float)
    # exact minimum over all nonempty circular windows via doubled prefix
    # sums; N is small enough that the quadratic sweep is immaterial
    N = d.size
    cs = np.concatenate(([0.0], np.cumsum(np.concatenate([d, d]))))
    starts = np.arange(N)
    worst = np.inf
    for length in range(1, N + 1):
        worst = min(worst, float(np.min(cs[starts + length] - cs[starts])))
    return worst


def stage_audit(
    u: np.ndarray,
    h: np.ndarray,
    prob: ProblemSpec,
    eps: float,
    delta: float,
    pf: cc.PerturbedFunctional | None = None,
) -> dict:
    """A priori quantities tracked along the continuation.

    The eps-weighted groups must stay bounded as eps decreases; the
    unweighted state energy and dual integrals must stay bounded on their
    own.  Gradient dual norms in the second-space scale are measured in the
    nodal dual norm (a surrogate for the gradient-space dual).
    """
    smesh, tmesh = prob.smesh, prob.tmesh
    dt = tmesh.dt
    p, pc, m = prob.p, prob.p_conj, prob.m
    mc = m / (m - 1.0)
    du = time_derivative(u, tmesh)
    xi = prob.nl.alpha_eval(du)
    phi = cc._PhiAt(u, prob.a, m, delta, smesh, pf)
    rate_p = float(dt * np.sum(norm_V(du, p, smesh) ** p))
    rate_dual = float(dt * np.sum(norm_Vstar(xi, pc, smesh) ** pc))
    rate_primitive = float(dt * np.sum(cc.eval_psi(du, prob.nl, smesh)))
    state_energy = float(dt * np.sum(norm_X(u, m, smesh) ** m))
    state_p = float(dt * np.sum(norm_V(u, p, smesh) ** p))
    state_sq = float(dt * np.sum(norm_V(u, 2.0, smesh) ** 2))
    eta_dual = float(dt * np.sum(norm_Vstar(phi.grad, mc, smesh) ** mc))
    psi_grad_dual = float(
        dt * np.sum(norm_Vstar(prob.nl.alpha_eval(u), pc, smesh) ** pc)
    )
    audit = {
        "eps_rate_group": eps * (rate_p + rate_dual + rate_primitive),
        "rate_p_integral": rate_p,
        "rate_dual_integral": rate_dual,
        "rate_primitive_integral": rate_primitive,
        "state_energy_integral": state_energy,
        "eps_state_p": eps * state_p,
        "eps_state_sq": eps * state_sq,
        "eta_dual_integral": eta_dual,
        "psi_grad_dual_integral": psi_grad_dual,
        "h_dual_norm": dual_bochner_norm(h, prob),
    }
    if phi.pf is not None:
        term = phi.mu_power[..., None] * phi.base_grad
        audit["mu_term_dual_norm"] = dual_bochner_norm(term, prob)
        audit["mu_phi_power_max"] = float(np.max(phi.mu_power))
    return audit


# ---------------------------------------------------------------------------
# continuation paths


def epsilon_continuation(
    prob: ProblemSpec,
    params: CascadeParams,
    pf: cc.PerturbedFunctional | None = None,
    u0: np.ndarray | None = None,
    schedule: tuple[float, ...] | None = None,
) -> list[StageResult]:
    """Walk the epsilon ladder with warm starts; optionally end at eps = 0.

    A stage that stalls short of tolerance still hands its best iterate to
    the next stage (the failure stays recorded in its diagnostics); only a
    wild divergence aborts the walk and returns the partial list.  The walk
    also stops early once residual_AP stagnates below the stage tolerance:
    the attainable residual is floor-limited, and further epsilon stages
    add nothing the exact-limit stage would not.
    """
    sched = params.epsilon_schedule if schedule is None else tuple(schedule)
    stages: list[StageResult] = []
    u = u0
    prev_ap = None

    def run(eps: float) -> StageResult:
        t0 = time.perf_counter()
        stage = fixed_point_solve(prob, eps, params, pf=pf, u0=u)
        d = stage.diagnostics
        d["wall_time"] = time.perf_counter() - t0
        d["residual_AP"] = residual_AP(stage.u, prob, delta=params.delta, pf=pf)
        stages.append(stage)
        log.info(
            "eps=%.3e fp_res=%.3e ap_res=%.3e newton=%d wall=%.3fs",
            eps,
            d["fixed_point_residual"],
            d["residual_AP"],
            d["fixed_point_newton_steps"],
            d["wall_time"],
        )
        return stage

    for eps in sched:
        stage = run(eps)
        diverged = stage.diagnostics["fixed_point_residual"] > stage.diagnostics[
            "residual_scale"
        ]
        if diverged:
            return stages
        u = stage.u
        ap = stage.diagnostics["residual_AP"]
        stagnated = (
            prev_ap is not None
            and ap <= params.resolved_stage_tol()
            and ap > 0.5 * prev_ap
        )
        if stagnated:
            break
        prev_ap = ap
    if params.exact_limit_stage:
        run(0.0)
    return stages


def solve_routed(
    prob: ProblemSpec, params: CascadeParams, route: str = "auto"
) -> tuple[StageResult, list[StageResult], str]:
    """Walk the cascade for the exponent pair in one continuation loop.

    m > p runs the plain epsilon ladder.  m <= p, or route="mu" for any pair
    (a consistency check against the plain route when m > p), walks the
    perturbation path: one epsilon continuation per mu level, each warm
    started from the last stage.  The first level walks the full ladder,
    later ones its last mu_eps_truncate entries, and exact_limit_stage adds a
    mu = 0 level on that tail.  A default mu schedule and a default exponent
    with m (1 + alpha_exp) > p fill in what the params leave unset; a set
    exponent must satisfy that bound too.  A level whose last stage diverges
    ends the walk.  Returns the final stage, every fixed point stage walked
    in order, each tagged with its (epsilon, mu), and the route name.
    """
    if route not in ("auto", "mu"):
        raise ValueError(f"route must be 'auto' or 'mu', got {route!r}")
    if route == "auto" and prob.m > prob.p:
        stages = epsilon_continuation(prob, params)
        return stages[-1], stages, "plain"
    alpha_exp = params.alpha_exp
    if alpha_exp is None:
        alpha_exp = max(prob.p / prob.m - 1.0, 0.0) + 0.5
    if prob.m * (1.0 + alpha_exp) <= prob.p:
        raise ValueError(
            "alpha_exp too small: need m (1 + alpha_exp) > p, got "
            f"m={prob.m}, alpha_exp={alpha_exp}, p={prob.p}"
        )
    tail = params.epsilon_schedule[-max(1, params.mu_eps_truncate):]
    levels = [
        (cc.PerturbedFunctional(mu, alpha_exp), tail if k else params.epsilon_schedule)
        for k, mu in enumerate(params.mu_schedule or DEFAULT_MU_SCHEDULE)
    ]
    if params.exact_limit_stage:
        levels.append((None, tail))
    stages: list[StageResult] = []
    for pf, sched in levels:
        u = stages[-1].u if stages else None
        stages += epsilon_continuation(prob, params, pf=pf, u0=u, schedule=sched)
        d = stages[-1].diagnostics
        if d["fixed_point_residual"] > d["residual_scale"]:
            break
    return stages[-1], stages, "mu"
