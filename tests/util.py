"""Shared builders for the test suite."""

import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np

import perisolve.convexcore as cc
import perisolve.verify as vf
from perisolve.discretize import (
    ProblemSpec,
    SpatialMesh,
    TemporalMesh,
    bochner_norm,
    norm_V,
)
from perisolve.variational import _StageAt
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


def slice_problem(sm, m, p=2.0):
    """Problem on mesh sm with a = 1 and zero forcing, for the slice solves,
    which read only its energy, mesh and exponent p."""
    return ProblemSpec(
        p=p,
        m=m,
        nl=cc.Nonlinearity.power(p),
        a=cc.DiffusionField.constant(1.0, sm),
        f=np.zeros((2, sm.interior_count)),
        smesh=sm,
        tmesh=TemporalMesh(1.0, 2),
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


def hold_first_pool_solve(setattr, claimed, solve=None):
    """Patch the caller's side of a batch: record its solves and hold the
    solve of its first claim until the shared counter reads `claimed`.
    Spawned workers import the real functions, so the patch affects only
    the caller.  setattr is monkeypatch.setattr in a test and the builtin
    in a child interpreter."""
    counters, calls = [], []
    claim, one = vf._claim, solve or vf._solve_one

    def claim_spy(counter):
        counters.append(counter)
        return claim(counter)

    def held(*item):
        if len(counters) == 1:
            deadline = time.monotonic() + 60.0
            while counters[0].value < claimed and time.monotonic() < deadline:
                time.sleep(0.01)
        calls.append(item)
        return one(*item)

    setattr(vf, "_claim", claim_spy)
    setattr(vf, "_solve_one", held)
    return calls


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


def stage_equation(prob, eps, delta, pf=None):
    """F(u) = R(u) + alpha(du), the stage equation at h = -alpha(du)."""
    return lambda v: _StageAt(v, prob, eps, delta, pf).F


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
    return bochner_norm(norm_V(u, 2.0, prob.smesh), np.inf, prob.tmesh)


def rel_linf_l2(u, u_ref, prob):
    return linf_l2(u - u_ref, prob) / linf_l2(u_ref, prob)
