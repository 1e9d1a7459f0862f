"""Fleet solvers: hand instances plus the hypothesis differential
suite (the scalable path must match the exact oracle on every small
instance), and an enumerator that shares no code with the exact
search, so a bound that prunes too much cannot pass by agreeing with
itself."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fleet import solver as fleet_solver
from repro.fleet import (
    FleetInstance,
    WorkloadSpec,
    allocations,
    default_offer,
    evaluate_fleet,
    solve,
    solve_exact,
)
from repro.machine.platforms import PLATFORM_IDS, platform
from repro.telemetry.recorder import TraceRecorder

#: The example workload: four algorithm bins and a custom kernel.
WORKLOAD_EXAMPLE = (
    Path(__file__).parent.parent.parent / "examples" / "fleet_workload.json"
)
#: The 8-bin histogram: the example workload's five bins plus triad,
#: mergesort and a small-matmul bin.
WORKLOAD_8BIN = Path(__file__).parent.parent / "data" / "fleet_workload_8bin.json"

_REL = 1e-9


def make_instance(
    demands,
    rates,
    powers,
    costs,
    *,
    max_nodes=None,
    power_budget=math.inf,
    cost_budget=math.inf,
    objective="energy",
    horizon=100.0,
):
    """Dense instance: rates[j][i], powers[j][i] per (bin j, platform i)."""
    n_bins = len(demands)
    n_plat = len(costs)
    pair_bin, pair_platform, pair_rate, pair_power = [], [], [], []
    for j in range(n_bins):
        for i in range(n_plat):
            if rates[j][i] is None:
                continue
            pair_bin.append(j)
            pair_platform.append(i)
            pair_rate.append(rates[j][i])
            pair_power.append(powers[j][i])
    return FleetInstance(
        bin_labels=tuple(f"bin{j}" for j in range(n_bins)),
        platform_ids=tuple(f"plat{i}" for i in range(n_plat)),
        demands=tuple(float(d) for d in demands),
        horizon=horizon,
        pair_bin=tuple(pair_bin),
        pair_platform=tuple(pair_platform),
        pair_rate=tuple(pair_rate),
        pair_power=tuple(pair_power),
        unit_costs=tuple(float(c) for c in costs),
        max_nodes=tuple(
            float(m) for m in (max_nodes or [math.inf] * n_plat)
        ),
        power_budget=power_budget,
        cost_budget=cost_budget,
        objective=objective,
    )


def assert_feasible(instance, solution):
    """Every constraint of the integer program holds."""
    nodes = solution.nodes
    assert all(isinstance(x, int) and x >= 0 for x in nodes)
    for j, group in enumerate(instance.bin_pairs()):
        covered = sum(instance.pair_rate[k] * nodes[k] for k in group)
        d = instance.demands[j]
        assert covered >= d - _REL * max(1.0, d), f"bin {j} uncovered"
    power = sum(p * x for p, x in zip(instance.pair_power, nodes))
    assert power <= instance.power_budget * (1 + 1e-6)
    cost = sum(
        instance.unit_costs[instance.pair_platform[k]] * x
        for k, x in enumerate(nodes)
    )
    assert cost <= instance.cost_budget * (1 + 1e-6)
    supply = [0] * len(instance.platform_ids)
    for k, x in enumerate(nodes):
        supply[instance.pair_platform[k]] += x
    for i, cap in enumerate(instance.max_nodes):
        assert supply[i] <= cap + 1e-9


class TestHandInstances:
    def test_single_bin_picks_cheapest_per_job(self):
        # plat0: 2 jobs/node at 10 W; plat1: 5 jobs/node at 20 W.
        # Energy per job: 10*100/2 = 500 vs 20*100/5 = 400 -> plat1.
        inst = make_instance(
            demands=[10],
            rates=[[2.0, 5.0]],
            powers=[[10.0, 20.0]],
            costs=[100.0, 100.0],
        )
        sol = solve_exact(inst)
        assert sol.status == "optimal"
        assert sol.nodes == (0, 2)
        assert sol.energy == pytest.approx(2 * 20.0 * 100.0)

    def test_energy_equals_power_times_horizon(self):
        inst = make_instance(
            demands=[7, 3],
            rates=[[2.0, 3.0], [1.0, 4.0]],
            powers=[[5.0, 9.0], [4.0, 11.0]],
            costs=[10.0, 30.0],
            horizon=250.0,
        )
        sol = solve_exact(inst)
        assert sol.solved
        assert sol.energy == pytest.approx(sol.power * 250.0)

    def test_power_budget_forces_different_mix(self):
        # Under min-cost, plat1 is cheapest (2 nodes * 90 = 180) but
        # draws 40 W; a 35 W rack cap forces the pricier, lower-draw
        # plat0 fleet.  (Under min-energy a power cap cannot change the
        # mix -- energy is power * horizon -- only feasibility.)
        kwargs = dict(
            demands=[10],
            rates=[[2.0, 5.0]],
            powers=[[6.0, 20.0]],
            costs=[60.0, 90.0],
            objective="cost",
        )
        free = solve_exact(make_instance(**kwargs))
        capped = solve_exact(make_instance(**kwargs, power_budget=35.0))
        assert free.nodes == (0, 2)
        assert free.power == pytest.approx(40.0)
        assert capped.status == "optimal"
        assert capped.nodes == (5, 0)
        assert capped.power <= 35.0
        assert capped.cost > free.cost

    def test_supply_cap_forces_mixing(self):
        inst = make_instance(
            demands=[10],
            rates=[[2.0, 5.0]],
            powers=[[10.0, 20.0]],
            costs=[100.0, 100.0],
            max_nodes=[math.inf, 1],
        )
        sol = solve_exact(inst)
        assert sol.status == "optimal"
        # One plat1 node covers 5 jobs; plat0 covers the rest.
        assert sol.nodes == (3, 1)

    def test_cost_objective(self):
        # Cheapest coverage, not cheapest energy.
        inst = make_instance(
            demands=[10],
            rates=[[2.0, 5.0]],
            powers=[[1.0, 100.0]],
            costs=[50.0, 90.0],
            objective="cost",
        )
        sol = solve_exact(inst)
        # plat0: 5 nodes * 50 = 250; plat1: 2 nodes * 90 = 180.
        assert sol.nodes == (0, 2)
        assert sol.cost == pytest.approx(180.0)

    def test_infeasible_power_budget(self):
        inst = make_instance(
            demands=[10],
            rates=[[1.0]],
            powers=[[10.0]],
            costs=[1.0],
            power_budget=50.0,  # needs 10 nodes * 10 W = 100 W
        )
        exact = solve_exact(inst)
        scalable = solve(inst)
        assert exact.status == "infeasible"
        assert scalable.status == "infeasible"
        assert not exact.solved

    def test_unservable_bin_is_infeasible(self):
        inst = make_instance(
            demands=[5, 5],
            rates=[[1.0], [None]],  # nobody serves bin1
            powers=[[1.0], [None]],
            costs=[1.0],
        )
        assert solve_exact(inst).status == "infeasible"
        assert solve(inst).status == "infeasible"

    def test_allocations_consistent_with_totals(self):
        inst = make_instance(
            demands=[7, 3],
            rates=[[2.0, 3.0], [1.0, 4.0]],
            powers=[[5.0, 9.0], [4.0, 11.0]],
            costs=[10.0, 30.0],
        )
        sol = solve(inst)
        assert sol.solved
        allocs = allocations(inst, sol)
        assert sum(a.power for a in allocs) == pytest.approx(sol.power)
        assert sum(a.energy for a in allocs) == pytest.approx(sol.energy)
        assert sum(a.cost for a in allocs) == pytest.approx(sol.cost)
        assert sum(a.nodes for a in allocs) == sol.total_nodes
        for a in allocs:
            assert a.nodes > 0

    def test_lp_bound_reported_and_valid(self):
        inst = make_instance(
            demands=[9],
            rates=[[2.0, 5.0]],
            powers=[[10.0, 20.0]],
            costs=[100.0, 100.0],
        )
        sol = solve(inst)
        assert sol.status == "optimal"
        assert math.isfinite(sol.lp_bound)
        assert sol.lp_bound <= sol.objective_value + 1e-9

    def test_deterministic_across_runs(self):
        inst = make_instance(
            demands=[8, 6, 4],
            rates=[[2, 3, 1], [1, 2, 5], [4, 1, 2]],
            powers=[[3, 7, 2], [4, 5, 9], [6, 2, 3]],
            costs=[10, 20, 15],
            power_budget=200.0,
        )
        first = solve(inst)
        for _ in range(3):
            assert solve(inst) == first

    def test_exact_tie_break_is_deterministic(self):
        # Two identical platforms: ties keep the first solution the
        # DFS finds (counts ascend, so the later pair fills first),
        # and that choice never varies between runs.
        inst = make_instance(
            demands=[4],
            rates=[[2.0, 2.0]],
            powers=[[5.0, 5.0]],
            costs=[10.0, 10.0],
        )
        sol = solve_exact(inst)
        assert sol.nodes == (0, 2)
        assert all(solve_exact(inst).nodes == sol.nodes for _ in range(3))

    def test_tied_mixes_are_pruned(self):
        # Four identical platforms: every split of a bin's nodes across
        # them ties.  A bound that only ties the incumbent must prune,
        # or the search walks all 57,750 tied mixes and the polish
        # stops at its cap instead of proving the first one optimal.
        inst = make_instance(
            demands=[1, 2, 4],
            rates=[[0.5] * 4] * 3,
            powers=[[0.5] * 4] * 3,
            costs=[1.0] * 4,
        )
        scalable = solve(inst)
        exact = solve_exact(inst)
        assert scalable.status == exact.status == "optimal"
        assert scalable.states_explored <= 100
        assert exact.states_explored <= 100
        assert exact.nodes == (0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 8)

    def test_truncated_search_reports_states(self):
        inst = make_instance(
            demands=[50, 50],
            rates=[[1.0, 1.1, 1.2], [1.0, 1.1, 1.2]],
            powers=[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
            costs=[1.0, 2.0, 3.0],
        )
        sol = solve_exact(inst, state_limit=10)
        assert sol.status in ("feasible", "unknown")
        assert sol.states_explored >= 10

    def test_incumbent_seeds_truncated_search(self):
        inst = make_instance(
            demands=[50],
            rates=[[1.0, 1.1]],
            powers=[[1.0, 2.0]],
            costs=[1.0, 2.0],
        )
        # A deliberately wasteful incumbent (one surplus node): the
        # bound cannot prune it, so the 2-state search truncates and
        # falls back to the seed.
        seed = (50, 1)
        sol = solve_exact(inst, state_limit=2, incumbent=seed)
        assert sol.status == "feasible"
        assert sol.nodes == seed
        assert sol.objective_value == pytest.approx(
            50 * 1.0 * 100.0 + 1 * 2.0 * 100.0
        )

    def test_solve_span_recorded_once(self):
        recorder = TraceRecorder()
        inst = make_instance(
            demands=[4], rates=[[2.0]], powers=[[5.0]], costs=[10.0]
        )
        solve(inst, recorder=recorder)
        spans = [s for s in recorder.records() if s.name == "fleet_solve"]
        assert len(spans) == 1
        assert spans[0].meta_dict()["method"] == "lp_greedy"

    def test_validation(self):
        with pytest.raises(ValueError, match="objective"):
            make_instance(
                demands=[1], rates=[[1.0]], powers=[[1.0]], costs=[1.0],
                objective="area",
            )
        with pytest.raises(ValueError, match="budgets"):
            make_instance(
                demands=[1], rates=[[1.0]], powers=[[1.0]], costs=[1.0],
                power_budget=0.0,
            )
        with pytest.raises(ValueError, match="rates"):
            make_instance(
                demands=[1], rates=[[0.0]], powers=[[1.0]], costs=[1.0],
            )


def _seed_instance(**kwargs):
    """Two bins at minimum cost, integral throughout.  Alone, each bin
    is covered cheapest by plat1 (18 per job against 30): two nodes on
    bin 0 and one on bin 1, which side by side draw 60 W and use three
    plat1 nodes.  The LP puts the same nodes there."""
    return make_instance(
        demands=[10, 5],
        rates=[[2.0, 5.0], [2.0, 5.0]],
        powers=[[6.0, 20.0], [6.0, 20.0]],
        costs=[60.0, 90.0],
        objective="cost",
        **kwargs,
    )


def _solve_counting_fills(monkeypatch, instance, **kwargs):
    """``solve`` on ``instance``, and how often it ran the greedy fill
    of the LP-rounded seed."""
    calls = []
    fill = fleet_solver._greedy_complete

    def counted(*args):
        calls.append(args)
        return fill(*args)

    monkeypatch.setattr(fleet_solver, "_greedy_complete", counted)
    return solve(instance, **kwargs), len(calls)


class TestSeed:
    """The polish starts from the bins' own optimal covers side by side
    when that mix keeps every budget and cap, and from the LP-rounded
    greedy fill otherwise; either way it reaches the oracle's optimum."""

    def test_side_by_side_covers_seed_the_polish(self, monkeypatch):
        instance = _seed_instance()
        solution, fills = _solve_counting_fills(monkeypatch, instance)
        assert fills == 0
        assert solution.status == "optimal"
        assert solution.nodes == (0, 2, 0, 1)
        assert solution.objective_value == solve_exact(instance).objective_value

    @pytest.mark.parametrize(
        "limits, polish_states",
        [
            # The side-by-side mix draws 60 W.
            (dict(power_budget=50.0), 200_000),
            # It uses three plat1 nodes.
            (dict(max_nodes=[math.inf, 2]), 200_000),
            # Bin 1's own search needs three states; the polish, seeded
            # with the LP's optimal nodes, prunes at its first.
            ({}, 3),
        ],
        ids=["power-budget", "supply-cap", "bin-search-capped"],
    )
    def test_greedy_seed_when_the_covers_cannot(
        self, monkeypatch, limits, polish_states
    ):
        instance = _seed_instance(**limits)
        solution, fills = _solve_counting_fills(
            monkeypatch, instance, polish_states=polish_states
        )
        exact = solve_exact(instance)
        assert fills == 1
        assert solution.status == exact.status == "optimal"
        assert_feasible(instance, solution)
        assert solution.objective_value == pytest.approx(
            exact.objective_value, rel=1e-12
        )


@st.composite
def fleet_instances(draw):
    """Random instances small enough for the oracle to finish."""
    n_bins = draw(st.integers(min_value=1, max_value=3))
    n_plat = draw(st.integers(min_value=1, max_value=6))
    demand = st.integers(min_value=1, max_value=12)
    rate = st.floats(min_value=0.5, max_value=6.0)
    power = st.floats(min_value=0.5, max_value=10.0)
    cost = st.floats(min_value=1.0, max_value=20.0)
    demands = [draw(demand) for _ in range(n_bins)]
    rates = [[draw(rate) for _ in range(n_plat)] for _ in range(n_bins)]
    powers = [[draw(power) for _ in range(n_plat)] for _ in range(n_bins)]
    costs = [draw(cost) for _ in range(n_plat)]
    # Budgets: unlimited, generous, or tight (sometimes infeasible).
    power_budget = draw(
        st.one_of(
            st.just(math.inf),
            st.floats(min_value=5.0, max_value=400.0),
        )
    )
    cost_budget = draw(
        st.one_of(
            st.just(math.inf),
            st.floats(min_value=10.0, max_value=2000.0),
        )
    )
    max_nodes = [
        draw(st.one_of(st.just(math.inf), st.integers(1, 20)))
        for _ in range(n_plat)
    ]
    objective = draw(st.sampled_from(["energy", "cost"]))
    return make_instance(
        demands,
        rates,
        powers,
        costs,
        max_nodes=max_nodes,
        power_budget=power_budget,
        cost_budget=cost_budget,
        objective=objective,
    )


@given(fleet_instances())
@settings(max_examples=80)
def test_differential_scalable_vs_oracle(instance):
    """ISSUE acceptance: on every instance small enough for the exact
    oracle, the greedy/LP path is feasible and matches the optimum."""
    oracle = solve_exact(instance, state_limit=5_000_000)
    assert oracle.status in ("optimal", "infeasible"), "oracle truncated"
    scalable = solve(instance)
    assert scalable.solved == oracle.solved
    if oracle.status == "infeasible":
        assert scalable.status == "infeasible"
        return
    assert_feasible(instance, oracle)
    assert_feasible(instance, scalable)
    assert scalable.objective_value == pytest.approx(
        oracle.objective_value, rel=1e-9, abs=1e-9
    )
    if math.isfinite(scalable.lp_bound):
        assert (
            scalable.lp_bound
            <= oracle.objective_value * (1 + 1e-9) + 1e-9
        )


@given(fleet_instances())
@settings(max_examples=40)
def test_exact_is_deterministic(instance):
    assert solve_exact(instance) == solve_exact(instance)


def _covers(rates, remaining, tol, counts=()):
    """Every count tuple over ``rates`` that covers ``remaining`` (to
    within ``tol``), in walk order; counts after the covering pair are 0."""
    t = len(counts)
    if remaining <= tol:
        return [counts + (0,) * (len(rates) - t)]
    if t == len(rates):
        return []
    out = []
    for count in range(math.ceil(remaining / rates[t]) + 1):
        out += _covers(rates, remaining - count * rates[t], tol, counts + (count,))
    return out


def enumerate_optimum(instance):
    """Tests-only oracle: every irreducible cover, no bound pruning.

    Walks bins in order, each bin's pairs in order and each pair's
    count from 0 up to ``ceil(remaining / rate)``, closing a bin as
    soon as it is covered.  Leaves that break a budget or a supply cap
    are dropped, and the first leaf better than the best so far by
    more than 1e-12 is kept -- the exact search's tie-break, reached
    without any of its code.  Returns ``(nodes, objective)``, or
    ``(None, inf)`` when no leaf is feasible.
    """
    n_pairs = len(instance.pair_bin)
    if instance.objective == "energy":
        weights = [instance.horizon * p for p in instance.pair_power]
    else:
        weights = [instance.unit_costs[i] for i in instance.pair_platform]
    bins = []
    for j, demand in enumerate(instance.demands):
        pairs = [k for k in range(n_pairs) if instance.pair_bin[k] == j]
        rates = [instance.pair_rate[k] for k in pairs]
        bins.append((pairs, _covers(rates, demand, 1e-9 * max(1.0, demand))))
    best, best_obj = None, math.inf
    for combo in itertools.product(*(covers for _, covers in bins)):
        x = [0] * n_pairs
        for (pairs, _), counts in zip(bins, combo):
            for k, count in zip(pairs, counts):
                x[k] = count
        power = sum(p * n for p, n in zip(instance.pair_power, x))
        cost = sum(
            instance.unit_costs[i] * n
            for i, n in zip(instance.pair_platform, x)
        )
        if power > instance.power_budget * (1 + 1e-9):
            continue
        if cost > instance.cost_budget * (1 + 1e-9):
            continue
        used = [0] * len(instance.platform_ids)
        for i, n in zip(instance.pair_platform, x):
            used[i] += n
        if any(u > cap for u, cap in zip(used, instance.max_nodes)):
            continue
        obj = sum(w * n for w, n in zip(weights, x))
        if obj < best_obj - 1e-12:
            best, best_obj = tuple(x), obj
    return best, best_obj


@st.composite
def tiny_instances(draw):
    """Instances small enough to enumerate: at most 3 bins x 4
    platforms, demands <= 8 and rates >= 2, so no pair takes more than
    four nodes and no instance has more than ~43k leaves.

    Half are drawn at the shipped workloads' scale: 5-300 W draws over
    a 3600 s horizon and catalogue-like integral unit costs, so energy
    objectives reach 1e7 J, where an ulp is far above the search's
    1e-12 tie tolerance.  There a platform may repeat an earlier one,
    so mixes tie in real arithmetic and differ, if at all, only by how
    their sums round: where a bound that sits an ulp high prunes the
    leaf the enumerator keeps."""
    n_bins = draw(st.integers(min_value=1, max_value=3))
    n_plat = draw(st.integers(min_value=1, max_value=4))
    shipped = draw(st.booleans())
    rate = st.floats(min_value=2.0, max_value=6.0)
    if shipped:
        power = st.floats(min_value=5.0, max_value=300.0)
        cost = st.integers(min_value=100, max_value=3000).map(float)
        power_budget = st.floats(min_value=20.0, max_value=4500.0)
        cost_budget = st.floats(min_value=500.0, max_value=45000.0)
    else:
        power = st.floats(min_value=0.5, max_value=10.0)
        cost = st.floats(min_value=1.0, max_value=20.0)
        power_budget = st.floats(min_value=2.0, max_value=150.0)
        cost_budget = st.floats(min_value=5.0, max_value=300.0)
    # One column per platform: its rate and draw on each bin, and its
    # unit cost.
    columns = []
    for i in range(n_plat):
        copy = draw(st.integers(min_value=0, max_value=i)) if shipped else i
        if copy < i:
            columns.append(columns[copy])
            continue
        columns.append(
            (
                [draw(rate) for _ in range(n_bins)],
                [draw(power) for _ in range(n_bins)],
                draw(cost),
            )
        )
    return make_instance(
        [draw(st.integers(min_value=1, max_value=8)) for _ in range(n_bins)],
        [[col[0][j] for col in columns] for j in range(n_bins)],
        [[col[1][j] for col in columns] for j in range(n_bins)],
        [col[2] for col in columns],
        max_nodes=[
            draw(st.one_of(st.just(math.inf), st.integers(1, 8)))
            for _ in range(n_plat)
        ],
        power_budget=draw(st.one_of(st.just(math.inf), power_budget)),
        cost_budget=draw(st.one_of(st.just(math.inf), cost_budget)),
        objective=draw(st.sampled_from(["energy", "cost"])),
        horizon=3600.0 if shipped else 100.0,
    )


#: Two identical platforms over three bins at the shipped scale.  Bins
#: 1 and 2 need two and four nodes, and every split across the twins
#: ties in real arithmetic.  The walk meets (0, 2), (0, 4) first; the
#: split (1, 1), (2, 2) adds the same terms in another order and lands
#: one ulp (9.3e-10 J) lower, so the enumerator keeps it.  Bin 2's
#: exact cover, summed onto the running total as one term, sits that
#: ulp above the split's sum: without the search's rounding margin the
#: bound prunes the split.
_ROUNDING_TIE = make_instance(
    demands=[5, 8, 7],
    rates=[[3.1436516814751427] * 2, [5.249223418477779] * 2, [2.2782253580120413] * 2],
    powers=[[180.82302956381136] * 2, [21.772203037617487] * 2, [297.53984258636376] * 2],
    costs=[1868.0, 1868.0],
    horizon=3600.0,
)


@given(tiny_instances())
@example(_ROUNDING_TIE)
@settings(max_examples=200, deadline=None)
def test_exact_and_scalable_match_enumerator(instance):
    """The exact search returns the enumerator's node vector (so its
    bound never prunes the leaf the tie-break keeps) and the scalable
    path its objective."""
    nodes, obj = enumerate_optimum(instance)
    exact = solve_exact(instance, state_limit=10_000_000)
    scalable = solve(instance)
    if nodes is None:
        assert exact.status == "infeasible"
        assert scalable.status == "infeasible"
        return
    assert exact.status == "optimal"
    assert exact.nodes == nodes
    assert exact.objective_value == pytest.approx(obj, rel=1e-9, abs=0)
    assert scalable.status == "optimal"
    assert scalable.objective_value == pytest.approx(obj, rel=1e-9, abs=0)


def test_enumerator_tie_break_matches_hand_instance():
    # The enumerator's own tie-break on the two-identical-platforms
    # instance: counts ascend, so the later pair fills first.
    inst = make_instance(
        demands=[4], rates=[[2.0, 2.0]], powers=[[5.0, 5.0]], costs=[10.0, 10.0]
    )
    assert enumerate_optimum(inst) == ((0, 2), 2 * 5.0 * 100.0)


def test_four_bin_budgeted_solve_finishes_optimal():
    """The example workload's four algorithm bins on all twelve
    platforms at truth theta, under a 2 kW rack and a 50,000 budget:
    optimal, in an exactly repeating number of states.  Neither budget
    binds (the mix draws 29 W and costs 890), so the bins' own covers
    side by side seed the polish, which only confirms them: 600 W,
    5,000 or no budget at all gives the same count."""
    workload = WorkloadSpec.from_json(WORKLOAD_EXAMPLE.read_text())
    workload = replace(workload, bins=workload.bins[:4])
    assert workload.horizon == 3600.0
    configs = {pid: platform(pid) for pid in PLATFORM_IDS}
    instance = FleetInstance.from_matrix(
        evaluate_fleet(workload, configs),
        workload,
        {pid: default_offer(pid) for pid in PLATFORM_IDS},
        power_budget=2000.0,
        cost_budget=50000.0,
    )
    solution = solve(instance)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(
        103423.77669236119, rel=1e-12
    )
    assert solution.states_explored == 219
    assert solution.total_nodes == 4
    assert len(instance.pair_bin) == 48


def _solve_eight_bin(tmp_path, *flags):
    """``archline fleet`` on the 8-bin histogram; its JSON solution."""
    out = tmp_path / "report.json"
    code = main(
        ["fleet", "--workload", str(WORKLOAD_8BIN), "--theta", "truth",
         *flags, "--json", str(out)]
    )
    assert code == 0
    return json.loads(out.read_text())["solution"]


def test_eight_bin_cost_solve_finishes_optimal(tmp_path):
    """The 8-bin histogram under a 1 kW rack at minimum cost: the
    polish must prove the 1,780-unit mix optimal inside its default
    200,000-state cap, not stop at the cap on a 4,030-unit mix.  The
    state count repeats exactly; a change to the bound moves it."""
    solution = _solve_eight_bin(
        tmp_path, "--objective", "cost", "--power-budget", "1000"
    )
    assert solution["status"] == "optimal"
    assert solution["objective_value"] == pytest.approx(1780.0, rel=1e-12)
    assert solution["states_explored"] == 69


@pytest.mark.parametrize(
    "flags, states",
    [
        ((), 631),
        (("--power-budget", "2000", "--cost-budget", "50000"), 631),
    ],
    ids=["no-budget", "2kW-50k"],
)
def test_eight_bin_energy_solves_finish_optimal(tmp_path, flags, states):
    """The other two settings the fleet benchmark solves on the 8-bin
    histogram, at minimum energy: optimal, in an exactly repeating
    number of states."""
    solution = _solve_eight_bin(tmp_path, "--objective", "energy", *flags)
    assert solution["status"] == "optimal"
    assert solution["objective_value"] == pytest.approx(
        197928.06995863302, rel=1e-12
    )
    assert solution["states_explored"] == states
