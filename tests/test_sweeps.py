import numpy as np
import pytest

import sweeps
from perisolve.cascade import CascadeParams, fixed_point_solve

# (family, index, p, m, M, N, f[0, 0], f[-1, -1], Frobenius norm of f):
# the first problem of every family and one more, a failed target where the
# family has one (seed 4's #32 is the one the mu walk rescues), else the last
DRAWS = [
    ("seed2027", 0, 1.2024016381217302, 2.078823826327627, 6, 3,
     -1.0108195383044927, 1.0108195383044911, 12.440372527041005),
    ("seed2027", 17, 1.2089031090523759, 2.004197923267631, 11, 9,
     6.2091454430664585, 14.163474474267915, 65.43888809371067),
    ("seed3", 0, 2.1712983342872487, 1.19472420263844, 5, 14,
     13.906564549439974, -10.335601452543523, 95.48096884673804),
    ("seed3", 12, 3.5482096326206367, 1.2574659171976745, 10, 12,
     -14.881738627591833, -7.440869313795903, 303.44054231447177),
    ("seed4", 0, 1.8686808580648022, 1.5090620422514893, 16, 16,
     -2.2082062705305687, 2.7276851164976113, 52.35824347981782),
    ("seed4", 32, 1.5292103778862116, 1.256248145219862, 3, 11,
     8.676766765543483, -5.217584632517782, 42.60722295444061),
    ("seed7", 0, 2.4376431999070007, 2.8458207014543633, 11, 13,
     -10.121707266760678, 4.867150381065547, 54.19719900609637),
    ("seed7", 59, 2.6515366890709835, 2.625387371539444, 11, 2,
     0.684416728783236, 0.6844167287832367, 9.160412034849191),
    ("seed2026", 0, 1.5894674068377181, 2.459869748572732, 8, 9,
     -1.8068408048327742, 0.3137546130934593, 14.341354284813937),
    ("seed2026", 59, 1.9125067339027888, 2.689925498009175, 12, 11,
     0.39311570073745306, -0.39311570073745217, 45.72679635713309),
    ("seed2028", 0, 2.5801284728450993, 2.388835085913403, 6, 13,
     6.59727505518658, -5.841596950506572, 40.24779916642695),
    ("seed2028", 59, 3.4595575338650244, 2.952181428769963, 15, 2,
     -7.2206056301613675, -2.4653280284550374, 42.81873244021804),
    ("seed1", 0, 1.7559108123501284, 2.905881023019277, 3, 4,
     28.976524347931708, -28.976524347931708, 103.07207301520019),
    ("seed1", 59, 1.864279173666937, 1.3482286080083776, 12, 6,
     134.18833071735457, -134.1883307173545, 1029.849302930782),
    ("seed5", 0, 2.70750438561807, 2.7119111846047406, 9, 9,
     -0.1694106623983126, -0.40891671527387263, 4.750400604678332),
    ("seed5", 39, 2.0044187210395954, 2.402259257964934, 15, 13,
     -4.525529690608008, 4.525529690608008, 44.01656779832991),
]

# (family, index): the knots and values of a table family's rate map
TABLES = {
    ("seed5", 0): (
        [-2.1239183866414084, -0.5204195821988638, 0.0, 2.7538483008699277,
         3.1814208648683904, 3.793489546074043],
        [-8.981804349722921, -2.592172409105568, 0.0, 18.724033065478856,
         19.024166283466336, 22.451996678996725],
    ),
    ("seed5", 39): (
        [-3.549419342498335, -3.3260138357486984, 0.0, 1.8586252901009397,
         3.18057104763934],
        [-27.93582426114891, -26.618638565171672, 0.0, 3.4237253626092077,
         8.160943175360359],
    ),
}


@pytest.mark.parametrize("name", list(sweeps.FAMILIES))
def test_sweep_families_draw_the_pinned_problems(name):
    # draws only: nothing is solved
    family = sweeps.FAMILIES[name]
    probs = dict(sweeps.problems(family))
    assert sorted(probs) == list(range(family.count))
    pinned = [d for d in DRAWS if d[0] == name]
    assert len(pinned) == 2
    for _, index, p, m, M, N, first, last, norm in pinned:
        prob = probs[index]
        assert (prob.p, prob.m) == (p, m)
        assert (prob.smesh.interior_count, prob.tmesh.step_count) == (M, N)
        assert prob.smesh.length == prob.tmesh.period == 1.0
        assert np.all(prob.a.midpoint_values == 1.0)
        if family.table:
            knots, values = TABLES[name, index]
            assert prob.nl.kind == "piecewise_linear"
            assert prob.nl._knots == pytest.approx(knots, rel=1e-12)
            assert prob.nl._values == pytest.approx(values, rel=1e-12)
        else:
            assert prob.nl.kind == "power"
        f = prob.f
        assert (f[0, 0], f[-1, -1]) == pytest.approx((first, last), rel=1e-12)
        assert np.linalg.norm(f) == pytest.approx(norm, rel=1e-12)


# family: (targets that converge from u = 0, the indices of those that fail)
VERDICTS = {
    "seed2027": (51, (17, 23, 29, 31, 32, 37, 45, 54, 57)),
    "seed3": (55, (21, 26, 37, 43, 59)),
    "seed4": (34, (1, 4, 6, 13, 32, 35)),
    "seed7": (60, ()),
    "seed2026": (59, (13,)),
    "seed2028": (60, ()),
    "seed1": (57, (6, 26, 29)),
    "seed5": (40, ()),
}


@pytest.mark.parametrize("name", list(sweeps.FAMILIES))
def test_sweep_family_verdicts_are_pinned(name):
    # the verdict ratchet: every target is solved as sweeps.run solves it,
    # and exactly the pinned ones fail; a change that converges one more
    # target moves its pin here
    params = CascadeParams()
    failed = tuple(
        index
        for index, prob in sweeps.problems(sweeps.FAMILIES[name])
        if not fixed_point_solve(prob, 0.0, params).converged
    )
    converged, pinned = VERDICTS[name]
    assert failed == pinned
    assert sweeps.FAMILIES[name].count - len(failed) == converged
