"""Regularization cascade for the periodic doubly nonlinear problem.

The target system couples the rate nonlinearity and the gradient energy:
alpha(du) + grad Phi(u) = f with one period of self-consistency.  It is
attacked in layers:

* stage equation: for a dual forcing h, the stationarity equation of the
  strictly convex space-time objective of the elliptic-regularized system
  at parameter eps;
* fixed point: h = -alpha(du) of the stage solution; substituted into the
  stage equation this is one equation in u, solved by Newton from a warm
  start;
* continuation: each epsilon walk first solves its target stage (the exact
  eps = 0 stage) from its warm start, and only when that fails drives eps
  down a schedule with warm starts; on the hard exponent branch a power
  perturbation of the energy is driven down a mu schedule, one epsilon
  walk per mu.  The default route solves that branch's unperturbed target
  first too, and walks the mu schedule only when that fails.

Every walk ends at its eps = 0 stage and every mu walk at its mu = 0
level, so a routed solve always ends at the limit stage eps = mu = 0, whose
equation is the finite problem itself, converged or not.

A stage's diagnostics are what its Newton solve measured: convergence,
the residual history, the residual scale and the step counts.  The report
fields of a stage (its energy margin, residual_AP and the a priori audit)
are computed only where a report is written, by stage_report.
solve_routed is the one walker of both routes: it returns every fixed point
stage in the order solved, each holding the equation it solved.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import convexcore as cc
from .discretize import ProblemSpec, dual_bochner_norm, pairing
from .variational import _StageAt, newton_fixed_point

__all__ = [
    "CascadeParams",
    "StageResult",
    "fixed_point_solve",
    "epsilon_continuation",
    "solve_routed",
    "stage_report",
    "energy_margin",
    "chain_rule_sum",
    "lf_margin",
]

# the epsilon ladder a failed eps = 0 target climbs: halvings from 1 to
# 2^-13, then 1e-4, 15 rungs in all
EPSILON_SCHEDULE = (*(0.5**k for k in range(14)), 1e-4)
# the mu levels of the power perturbation, one epsilon walk each before the
# mu = 0 level
MU_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
# Newton steps of one fixed point stage, the target attempt of a walk
# included, before the stage is reported unconverged
MAX_FP_ITER = 400

log = logging.getLogger(__name__)


def _perturbation_exponent(p: float, m: float) -> float:
    """Exponent a of the mu route's perturbed energy phi + mu/(1+a) phi^(1+a).

    a = max(p/m - 1, 0) + 1/2 meets the coercivity condition m (1 + a) > p
    for every p, m > 1: m (1 + a) = max(p, m) + m/2.
    """
    return max(p / m - 1.0, 0.0) + 0.5


def _perturbation(mu: float, prob: ProblemSpec) -> cc.PerturbedFunctional | None:
    """The mu route's perturbation of the energy at level mu; None at mu = 0."""
    if mu == 0.0:
        return None
    return cc.PerturbedFunctional(mu, _perturbation_exponent(prob.p, prob.m))


@dataclass(frozen=True)
class CascadeParams:
    """Tolerances of the cascade.

    A fixed point stage has converged when the Bochner dual norm of its
    equation residual is at most stage_tol * min(1, dt) * max(1, |f|), the
    last factor being the residual_scale its diagnostics report;
    stage_tol = None resolves to 0.05 * fp_tol.
    mu_eps_truncate is how many trailing entries of EPSILON_SCHEDULE the mu
    levels after the first, and the final mu = 0 level, climb when their
    target fails; the first mu level climbs the full ladder.
    """

    fp_tol: float = 1e-10
    stage_tol: float | None = None
    mu_eps_truncate: int = 4

    def __post_init__(self) -> None:
        for key in ("fp_tol", "stage_tol"):
            val = getattr(self, key)
            if val is not None and not 0.0 < val < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {val}")
        if self.mu_eps_truncate < 1:
            raise ValueError(
                f"mu_eps_truncate must be >= 1, got {self.mu_eps_truncate}"
            )

    def resolved_stage_tol(self) -> float:
        return 0.05 * self.fp_tol if self.stage_tol is None else self.stage_tol


@dataclass
class StageResult:
    """Solution u of one fixed point stage and the equation it solved: prob
    at epsilon, its energy perturbed by pf (None: not), held by reference.

    The converged dual forcing is h = -alpha(du), one line from u:
    -prob.nl.alpha_eval(time_derivative(u, prob.tmesh)).  diagnostics holds
    what the stage's Newton solve measured (convergence, the residual
    history, the residual scale and the step counts) and is JSON-friendly
    throughout; stage_report computes the fields a report adds.
    """

    u: np.ndarray
    prob: ProblemSpec
    epsilon: float
    pf: cc.PerturbedFunctional | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def mu(self) -> float:
        return 0.0 if self.pf is None else float(self.pf.mu)

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
    the end, and the stage has converged when that norm is at most the
    bound stage_tol * min(1, dt) * residual_scale, with residual_scale =
    max(1, |f|).  The bound is formed here, once, and Newton is handed the
    number.  The diagnostics hold what Newton measured and the scale; the
    energy margin, residual_AP and the audit are left to stage_report.
    Non-convergence is reported, not raised.  The stage logs one INFO line
    with its wall time, which the diagnostics do not hold.
    """
    t0 = time.perf_counter()
    u = np.zeros_like(prob.f) if u0 is None else u0
    scale = max(1.0, dual_bochner_norm(prob.f, prob))
    # min(1, dt) shrinks the bound with the time step below dt = 1, although
    # the roundoff floor of |F| does not shrink with dt (it grows with M)
    tol = params.resolved_stage_tol() * min(1.0, prob.tmesh.dt) * scale
    stage, history, converged, kinds = newton_fixed_point(
        u, prob, eps, pf, tol, MAX_FP_ITER
    )
    res = history[-1]
    diagnostics = {
        "converged": converged,
        "fixed_point_residual": float(res),
        "residual_scale": float(scale),
        "residual_history": [float(r) for r in history],
        "fixed_point_newton_steps": len(history) - 1,
        **kinds,
        # no stage minimization is left; the two counts stay, at their true
        # value 0, because bench/workloads.py still reads them
        "beta_evaluations": 0,
        "stage_newton_iterations": 0,
    }
    result = StageResult(stage.u, prob, float(eps), pf, diagnostics)
    if not converged:
        log.warning("fixed point at eps=%.3e mu=%.3e stalled at residual %.3e",
                    eps, result.mu, res)
    log.info("eps=%.3e fp_res=%.3e newton=%d wall=%.3fs", eps, res,
             len(history) - 1, time.perf_counter() - t0)
    return result


# ---------------------------------------------------------------------------
# invariants and audits


def stage_report(stage: StageResult) -> dict:
    """The report fields of a stage: energy_margin, residual_AP and audit.

    One evaluation of the stage's own equation (its problem, eps and
    perturbation) at the stage's u gives all three as Newton's last
    evaluation of the stage gave them.
    """
    at = _StageAt(stage.u, stage.prob, stage.epsilon, stage.pf)
    return {
        "energy_margin": energy_margin(at),
        "residual_AP": at.residual_AP,
        "audit": stage_audit(at),
    }


def energy_margin(stage: _StageAt) -> float:
    """Periodic dissipation pairing sum_n dt <f_n - alpha(du_n), du_n>.

    Nonnegative up to the stage defect for any solution: the energy gradient
    pairs with du above the telescoping energy increments, which cancel over
    one period.
    """
    prob = stage.prob
    return float(
        prob.tmesh.dt * np.sum(pairing(prob.f - stage.xi, stage.du, prob.smesh))
    )


def chain_rule_sum(stage: _StageAt) -> float:
    """sum_n dt <eta_n, du_n> with eta the stage's energy gradient.

    Equals the sum of per-step convexity gaps of the energy, hence is
    nonnegative and of size O(dt) for smooth trajectories.
    """
    prob = stage.prob
    return float(
        prob.tmesh.dt * np.sum(pairing(stage.phi.grad, stage.du, prob.smesh))
    )


def lf_margin(stage: _StageAt) -> float:
    """Worst-window margin of the dual flow inequality.

    With xi_n = alpha(du_n), every window (n1, n2] satisfies
    sum <xi_n - xi_{n-1}, du_n> >= psi*(xi_{n2}) - psi*(xi_{n1}): du_n is a
    subgradient of psi* at xi_n, so each per-step defect is a Fenchel-Young
    gap and nonnegative.  Returns the smallest window sum of the defects
    (windows wrap around the period), nonnegative up to roundoff.
    """
    du, xi, psis = stage.du, stage.xi, stage.psi_star
    lhs = pairing(xi - np.roll(xi, 1, axis=0), du, stage.prob.smesh)
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


def stage_audit(stage: _StageAt) -> dict:
    """A priori quantities tracked along the continuation, at one stage.

    The eps-weighted groups must stay bounded as eps decreases; the
    unweighted state energy and dual integrals must stay bounded on their
    own.  Gradient dual norms in the second-space scale are measured in the
    nodal dual norm (a surrogate for the gradient-space dual).  The dual
    forcing of a fixed point is h = -xi, so its norm is that of xi.
    """
    prob, u, du, xi, phi = stage.prob, stage.u, stage.du, stage.xi, stage.phi
    dx, dt, eps = prob.smesh.dx, prob.tmesh.dt, stage.eps
    p, pc, m, mc = prob.p, prob.p_conj, prob.m, prob.m_conj

    def integral(powers: np.ndarray) -> float:
        """sum_n dt sum_i dx of the pointwise powers |v|^r."""
        return float(dt * dx * np.sum(powers))

    rate_p = integral(np.abs(du) ** p)
    rate_primitive = float(dt * np.sum(cc.eval_psi(du, prob.nl, prob.smesh)))
    rate_dual = float(dt * np.sum(dx * np.sum(np.abs(xi) ** pc, axis=-1)))
    state_energy = integral(np.abs(phi.Du) ** m)
    state_p = integral(np.abs(u) ** p)
    state_sq = integral(u * u)
    eta_dual = integral(np.abs(phi.grad) ** mc)
    psi_grad_dual = integral(np.abs(prob.nl.alpha_eval(u)) ** pc)
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
        "h_dual_norm": dual_bochner_norm(xi, prob),
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
    """Solve the walk's eps = 0 target from u0; climb the ladder if that fails.

    Newton usually converges on the target straight from the warm start,
    and the walk then returns it as its only stage.  When it does not
    converge within MAX_FP_ITER steps, the failed attempt stays first in
    the returned list and the walk climbs the ladder from the same u0
    (_climb), not from the failed iterate.  With no rung to climb the walk
    is the failed attempt alone: another attempt from u0 would repeat it.
    """
    sched = EPSILON_SCHEDULE if schedule is None else tuple(schedule)
    target = fixed_point_solve(prob, 0.0, params, pf=pf, u0=u0)
    if target.converged or not sched:
        return [target]
    return [target, *_climb(prob, params, sched, pf, u0)]


def _climb(
    prob: ProblemSpec,
    params: CascadeParams,
    sched: tuple[float, ...],
    pf: cc.PerturbedFunctional | None,
    u0: np.ndarray | None,
) -> list[StageResult]:
    """Walk the epsilon ladder sched from u0 with warm starts, then solve
    the eps = 0 stage, which always ends the walk.

    A stage that stalls short of tolerance still hands its best iterate to
    the next stage (the failure stays recorded in its diagnostics): Newton
    accepts no step that raises the stage's residual, so that iterate is no
    worse for the stage than the start it was handed.  The ladder is left
    early once residual_AP stagnates below the stage tolerance: the
    attainable residual is floor-limited, and further epsilon stages add
    nothing the eps = 0 stage would not.
    """
    stages: list[StageResult] = []
    u = u0
    prev_ap = None
    for eps in sched:
        stage = fixed_point_solve(prob, eps, params, pf=pf, u0=u)
        stages.append(stage)
        u = stage.u
        # the rung's own residual_AP, the perturbed one on a mu level
        ap = _StageAt(u, prob, eps, pf).residual_AP
        stagnated = (
            prev_ap is not None
            and ap <= params.resolved_stage_tol()
            and ap > 0.5 * prev_ap
        )
        if stagnated:
            break
        prev_ap = ap
    stages.append(fixed_point_solve(prob, 0.0, params, pf=pf, u0=u))
    return stages


def solve_routed(
    prob: ProblemSpec, params: CascadeParams, route: str = "auto"
) -> tuple[StageResult, list[StageResult], str]:
    """Walk the cascade for the exponent pair in one continuation loop.

    m > p runs the plain route: one unperturbed epsilon continuation on the
    full ladder.  m <= p, or route="mu" for any pair (a consistency check
    against the plain route when m > p), takes the perturbation path: one
    level per mu of MU_SCHEDULE and then a mu = 0 level, each an epsilon
    continuation warm started from the last stage.  The first level climbs
    the full ladder when it has to, later ones its last mu_eps_truncate
    entries.  The perturbation's exponent is that of
    _perturbation_exponent.  Every level is walked, so the walk ends at
    the mu = 0 level's eps = 0 stage.

    route="auto" takes the shortest path there: it first solves the
    unperturbed eps = 0 stage from u = 0.  The perturbation is there for
    coercivity in the existence proof; at a fixed grid that stage is the
    finite equation F(u) = 0 that both routes converge to.  When it
    converges it is the whole walk.  When it does not, it stays first in
    the returned list, and the plain route climbs its ladder, or the mu
    levels are walked, from u = 0, not from the failed iterate, exactly as
    route="mu" walks them.  route="mu" always walks the mu levels.  Returns
    the final stage, every fixed point stage walked in order, each tagged
    with its (epsilon, mu), and the route name.  The final stage is the
    last one walked and the limit stage eps = mu = 0 on every route.
    """
    if route not in ("auto", "mu"):
        raise ValueError(f"route must be 'auto' or 'mu', got {route!r}")
    plain = route == "auto" and prob.m > prob.p
    stages: list[StageResult] = []
    if route == "auto":
        # the unperturbed target from u = 0; the plain route's continuation
        # climbs its ladder from there when the target fails
        stages = epsilon_continuation(prob, params, schedule=None if plain else ())
        if plain or stages[-1].converged:
            return stages[-1], stages, "plain" if plain else "mu"
    u = None
    for k, mu in enumerate((*MU_SCHEDULE, 0.0)):
        sched = EPSILON_SCHEDULE[-params.mu_eps_truncate:] if k else EPSILON_SCHEDULE
        walk = epsilon_continuation(
            prob, params, pf=_perturbation(mu, prob), u0=u, schedule=sched
        )
        stages += walk
        u = walk[-1].u
    return stages[-1], stages, "mu"
