import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import canonical_problem, cyclic_heat_solve
from perisolve.cascade import CascadeParams, epsilon_continuation, solve_routed
from util import linf_l2, mms_problem

# One line per acceptance criterion, echoed in the terminal summary so the
# verdicts survive output capture.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, passed: bool, detail: str) -> bool:
    line = f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES, key=lambda s: s.split(":")[0]):
        terminalreporter.write_line(line)


MMS_PAIRS = ((2.0, 2.0), (2.0, 3.0), (2.5, 3.0), (3.0, 2.0), (2.0, 1.5))


@pytest.fixture(scope="session")
def mms_matrix():
    """Discrete-exact manufactured runs over the exponent matrix at 32x32.

    Shared by the recovery, energy-gap, and perturbation-trend criteria so
    the expensive solves happen once.
    """
    params = CascadeParams(fp_tol=1e-8, stage_tol=1e-8)
    out = {}
    for p, m in MMS_PAIRS:
        prob, exact = mms_problem(p, m, 32, 32)
        t0 = time.perf_counter()
        final, stages, route = solve_routed(prob, params, route="auto")
        wall = time.perf_counter() - t0
        out[(p, m)] = SimpleNamespace(
            prob=prob,
            exact=exact,
            final=final,
            stages=stages,
            route=route,
            wall=wall,
            err=linf_l2(final.u - exact, prob),
            params=params,
        )
    return out


@pytest.fixture(scope="session")
def linear_cascade_64():
    """Full default cascade on the linear instance at 64x64 plus the
    independent cyclic solve it is judged against."""
    prob = canonical_problem(M=64, N=64)
    t0 = time.perf_counter()
    stages = epsilon_continuation(prob, CascadeParams())
    wall = time.perf_counter() - t0
    u_ref = cyclic_heat_solve(prob)
    return SimpleNamespace(prob=prob, stages=stages, wall=wall, u_ref=u_ref)


@pytest.fixture(scope="session")
def bundled_config_dir():
    import perisolve

    return Path(perisolve.__file__).resolve().parent / "configs"


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
