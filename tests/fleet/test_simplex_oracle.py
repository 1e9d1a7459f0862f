"""The fleet's simplex against ``scipy.optimize.linprog`` (HiGHS).

scipy is a test-only dependency (the ``test`` extra), so without it
these tests skip.  :func:`repro.fleet.simplex.solve_lp` must report the
status ``linprog(method="highs")`` finds (see :func:`reference`), and
when optimal an objective within ``1e-9 * max(1, |f|)`` of HiGHS's,
on:

* generated LPs with 1-8 variables, up to four ``<=`` and four ``>=``
  rows and mixed-sign costs, so optimal, infeasible and unbounded
  programs all occur.  Coefficients sit on a quarter grid: ties and
  degenerate vertices are common, and no coefficient falls between the
  two solvers' pivot tolerances;
* the LP relaxations :func:`repro.fleet.solver._relaxation` builds for
  both shipped workloads under the end-to-end benchmark's three
  objective/budget variants.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")

from repro.fleet import solver  # noqa: E402
from repro.fleet.evaluate import evaluate_fleet  # noqa: E402
from repro.fleet.offers import default_offer  # noqa: E402
from repro.fleet.simplex import solve_lp  # noqa: E402
from repro.fleet.solver import FleetInstance  # noqa: E402
from repro.fleet.workload import WorkloadSpec  # noqa: E402
from repro.machine.platforms import PLATFORM_IDS, platform  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = {
    "examples": ROOT / "examples" / "fleet_workload.json",
    "e2ebench": ROOT / "e2ebench" / "fleet_workload.json",
}
#: e2ebench/fleet_solve.py's variants: (objective, power, cost budget).
VARIANTS = {
    "energy": ("energy", math.inf, math.inf),
    "energy-budgets": ("energy", 2000.0, 50000.0),
    "cost-power": ("cost", 1000.0, math.inf),
}


def _linprog(cost, rows, rhs):
    return scipy_optimize.linprog(
        cost,
        A_ub=rows if len(rows) else None,
        b_ub=rhs if len(rows) else None,
        bounds=(0, None),
        method="highs",
    )


def reference(cost, rows, rhs) -> tuple[str, float | None]:
    """The status and optimum ``linprog`` gives ``min cost . x`` over
    ``rows x <= rhs``, ``x >= 0``.

    HiGHS's own status is not trusted to tell infeasible from
    unbounded: its presolve calls some unbounded programs with
    redundant rows infeasible, and without presolve some read
    "unknown".  Two programs that always have an optimum decide
    instead: the zero-cost one is solved exactly when the program is
    feasible, and a feasible program is unbounded exactly when some
    ray ``d >= 0`` with ``rows d <= 0`` and ``sum(d) = 1`` lowers the
    cost.
    """
    n = len(cost)
    feasible = _linprog(np.zeros(n), rows, rhs)
    assert feasible.status in (0, 2), feasible.message
    if feasible.status == 2:
        return "infeasible", None
    ray = _linprog(
        cost,
        np.vstack([rows, np.ones((1, n))]),
        np.concatenate([np.zeros(len(rhs)), [1.0]]),
    )
    assert ray.status == 0, ray.message
    if ray.fun < -1e-9:
        return "unbounded", None
    optimum = _linprog(cost, rows, rhs)
    assert optimum.status == 0, optimum.message
    return "optimal", optimum.fun


def assert_agrees(cost, a_ub=(), b_ub=(), a_ge=(), b_ge=()):
    ours = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, a_ge=a_ge, b_ge=b_ge)
    # One "<=" block: a ">=" row is its negation.
    n = len(cost)
    rows = np.array(
        [*a_ub, *(-np.asarray(row, dtype=float) for row in a_ge)],
        dtype=float,
    ).reshape(-1, n)
    rhs = np.array([*b_ub, *(-float(b) for b in b_ge)], dtype=float)
    status, optimum = reference(np.asarray(cost, dtype=float), rows, rhs)
    assert ours.status == status
    if ours.optimal:
        assert abs(ours.objective - optimum) <= 1e-9 * max(1.0, abs(optimum))


quarter = st.integers(-40, 40).map(lambda k: k / 4)


@st.composite
def linear_programs(draw):
    n = draw(st.integers(1, 8))
    m_ub = draw(st.integers(0, 4))
    m_ge = draw(st.integers(0, 4))
    vector = st.lists(quarter, min_size=n, max_size=n)
    return dict(
        cost=draw(vector),
        a_ub=draw(st.lists(vector, min_size=m_ub, max_size=m_ub)),
        b_ub=draw(st.lists(quarter, min_size=m_ub, max_size=m_ub)),
        a_ge=draw(st.lists(vector, min_size=m_ge, max_size=m_ge)),
        b_ge=draw(st.lists(quarter, min_size=m_ge, max_size=m_ge)),
    )


@settings(max_examples=400, deadline=None)
@given(linear_programs())
def test_generated_programs_match_linprog(lp):
    assert_agrees(**lp)


def relaxation_lp(instance, monkeypatch) -> dict:
    """The arguments ``_relaxation`` hands to ``solve_lp``."""
    captured = {}

    def record(cost, **rows):
        captured.update(cost=cost, **rows)
        return solve_lp(cost, **rows)

    monkeypatch.setattr(solver, "solve_lp", record)
    solver._relaxation(instance)
    return captured


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_fleet_relaxations_match_linprog(workload_name, variant, monkeypatch):
    workload = WorkloadSpec.from_json(WORKLOADS[workload_name].read_text())
    objective, power_budget, cost_budget = VARIANTS[variant]
    platform_ids = sorted(PLATFORM_IDS)
    matrix = evaluate_fleet(
        workload, {pid: platform(pid) for pid in platform_ids}
    )
    instance = FleetInstance.from_matrix(
        matrix,
        workload,
        {pid: default_offer(pid) for pid in platform_ids},
        power_budget=power_budget,
        cost_budget=cost_budget,
        objective=objective,
    )
    lp = relaxation_lp(instance, monkeypatch)
    assert len(lp["cost"]) > 0 and len(lp["a_ge"]) == len(workload.bins)
    assert_agrees(**lp)
