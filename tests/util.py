"""Shared builders for the test suite."""

from dataclasses import replace

import numpy as np

import perisolve.convexcore as cc
from perisolve.discretize import (
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    bochner_norm,
    norm_V,
)
from perisolve.verify import MmsSpec, derived_forcing, sample_exact


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


def linf_l2(u, prob):
    return bochner_norm(
        u, lambda v: norm_V(v, 2.0, prob.smesh), np.inf, prob.tmesh
    )


def rel_linf_l2(u, u_ref, prob):
    return linf_l2(u - u_ref, prob) / linf_l2(u_ref, prob)
