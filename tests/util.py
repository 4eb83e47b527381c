"""Shared builders for the test suite."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np

import perisolve.convexcore as cc
from perisolve.discretize import (
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    bochner_norm,
    norm_V,
    time_derivative,
)
from perisolve.variational import _Stage
from perisolve.verify import MmsSpec, _claim, derived_forcing, sample_exact


def unit_problem(p, m, M, N, amp=1.0, diffusion=1.0):
    """Unit square, constant diffusion, sin-in-space forcing that never
    vanishes in time (the 1 + sin/2 modulation keeps every slice active)."""
    sm = SpatialMesh(1.0, M)
    tm = TemporalMesh(1.0, N)
    f = (
        amp
        * np.sin(np.pi * sm.nodes[None, :])
        * (1.0 + 0.5 * np.sin(2.0 * np.pi * tm.times[:, None]))
    )
    return ProblemSpec(
        p=p,
        m=m,
        nl=cc.Nonlinearity.power(p),
        a=cc.DiffusionField.constant(diffusion, sm),
        f=f,
        smesh=sm,
        tmesh=tm,
    )


class ExitsInWorker:
    """A solve route that ends a spawned worker comparing it, as a crash
    would.  In the main process it compares unequal to everything."""

    def __eq__(self, other):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return NotImplemented

    __hash__ = object.__hash__


def claim_into(counter, count, out):
    """Claim `count` batch indices from counter and send them to out."""
    out.put([_claim(counter) for _ in range(count)])


def bump_mms():
    return MmsSpec("separable_bump")


def mms_problem(p, m, M, N, delta):
    """Unit-square problem whose discrete-exact solution is the bump.

    Returns (problem, exact trajectory).  delta must match the smoothing the
    solver will use, otherwise recovery is only delta-accurate.
    """
    mms = bump_mms()
    prob = unit_problem(p, m, M, N)
    f = derived_forcing(mms, prob, delta)
    prob = replace(prob, f=f)
    return prob, sample_exact(mms, prob.smesh, prob.tmesh)


def stage_equation(ocfg):
    """F(u) = R(u) + alpha(du), the stage equation at h = -alpha(du)."""
    prob = ocfg.prob
    return lambda v: _Stage(ocfg).residual(v) + prob.nl.alpha_eval(
        time_derivative(v, prob.tmesh)
    )


def dense_affine_zero(F, shape):
    """Zero of an affine map F of a trajectory of the given shape, from its
    dense Jacobian assembled column by column."""
    F0 = F(np.zeros(shape)).ravel()
    A = np.zeros((F0.size, F0.size))
    for j in range(F0.size):
        e = np.zeros(F0.size)
        e[j] = 1.0
        A[:, j] = F(e.reshape(shape)).ravel() - F0
    return np.linalg.solve(A, -F0).reshape(shape)


def linf_l2(u, prob):
    return bochner_norm(
        u, lambda v: norm_V(v, 2.0, prob.smesh), np.inf, prob.tmesh
    )


def rel_linf_l2(u, u_ref, prob):
    return linf_l2(u - u_ref, prob) / linf_l2(u_ref, prob)
