"""Fleet mix solvers: exact enumeration and LP-relaxation + greedy.

The procurement problem is the integer program

    minimize    sum_ij w_ij x_ij
    subject to  sum_i a_ij x_ij >= d_j      (cover each bin's demand)
                sum_ij p_ij x_ij <= P       (rack power budget)
                sum_ij c_i  x_ij <= C       (procurement cost budget)
                sum_j  x_ij <= m_i          (vendor supply per platform)
                x_ij in {0, 1, 2, ...}

where ``x_ij`` is the number of platform-``i`` nodes dedicated to bin
``j`` for the whole planning horizon ``H``; ``a_ij = H / t_ij`` is the
jobs one such node completes, ``p_ij`` the *capped* (governor-
consistent) node draw, and the objective weight is ``w_ij = H p_ij``
(energy-to-solution, since a dedicated node draws ``p_ij`` for the
whole horizon) or ``w_ij = c_i`` (procurement cost).  Dedicating
purchased nodes to one bin for the horizon is a deliberate
procurement-level simplification: it is a *conservative* bound -- a
real scheduler interleaving bins on shared nodes can only do better --
and it is what keeps the program linear.

Two solvers, intentionally independent implementations:

:func:`solve_exact`
    Depth-first enumeration of per-bin *irreducible covers* (no node
    can be removed without breaking coverage -- some optimal solution
    always is one, since weights and draws are non-negative), with
    budget and objective-bound pruning.  The bound is integrality
    aware.  The bin being covered costs at least the larger of its
    remaining demand times the best weight per job and the lightest
    single node among the pairs left, since it needs at least one more
    node.  Each untouched bin costs at least its exact minimum-weight
    cover, found once per instance by this same search on the bin
    alone with budgets and supply caps lifted (they only remove
    mixes); a bin whose own search hits the state cap keeps the
    fractional bound.  The untouched bins' sum is lowered by a
    rounding margin, zero when every weight is an integer, so that it
    bounds a leaf's running sum in floating point too.  A subtree is
    pruned only when it holds no leaf better than the incumbent, so
    the search keeps the leaf an unpruned walk would.  No LP
    involved; this is the test oracle.
:func:`solve`
    The scalable path: the LP relaxation (:mod:`repro.fleet.simplex`)
    for the lower bound and the infeasibility proof, then a
    state-capped run of the exact search (the polish).  Its seed is
    every bin's own exact cover, placed side by side: the polish
    searches those covers anyway for its untouched-bin bounds, and
    when the mix keeps every budget and supply cap it is optimal, so
    the polish only confirms it.  When it breaks one, or a bin's
    search hits the cap, the LP solution floor-rounded, greedy-filled
    and trimmed is the seed instead.  On small instances, and on the
    shipped workloads, the capped search completes and the answer is
    provably optimal (the differential tests assert it matches the
    oracle); when the cap cuts it short it returns the best incumbent
    plus the LP lower bound, so the optimality gap is always reported.

Everything is deterministic: platforms and bins are walked in the
instance's stored (sorted) order, ties keep the first solution found,
and the LP pivots by Bland's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .evaluate import EvaluationMatrix
from .offers import PlatformOffer
from .simplex import solve_lp
from .workload import WorkloadSpec

__all__ = [
    "FleetAllocation",
    "FleetInstance",
    "FleetSolution",
    "allocations",
    "solve",
    "solve_exact",
]

_REL_TOL = 1e-9
#: Unit roundoff of float64 (round to nearest).
_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class FleetInstance:
    """One procurement problem, flattened to aligned primitive tuples.

    The pair axis holds one entry per *feasible* (bin, platform)
    pairing, ordered by bin then platform id -- the order every solver
    walks, which is what makes tie-breaking deterministic.
    """

    bin_labels: tuple[str, ...]
    platform_ids: tuple[str, ...]
    demands: tuple[float, ...]  #: jobs required per bin.
    horizon: float  #: planning window, s.
    pair_bin: tuple[int, ...]  #: bin index of each pair.
    pair_platform: tuple[int, ...]  #: platform index of each pair.
    pair_rate: tuple[float, ...]  #: a_ij, jobs per node per horizon.
    pair_power: tuple[float, ...]  #: p_ij, capped node draw (W).
    unit_costs: tuple[float, ...]  #: c_i per platform.
    max_nodes: tuple[float, ...]  #: m_i per platform (inf = unlimited).
    power_budget: float = math.inf  #: P (W).
    cost_budget: float = math.inf  #: C.
    objective: str = "energy"  #: "energy" | "cost"

    def __post_init__(self) -> None:
        if self.objective not in ("energy", "cost"):
            raise ValueError(
                f"objective must be 'energy' or 'cost', "
                f"got {self.objective!r}"
            )
        n = len(self.pair_bin)
        if not (
            len(self.pair_platform)
            == len(self.pair_rate)
            == len(self.pair_power)
            == n
        ):
            raise ValueError("pair arrays must be aligned")
        if len(self.demands) != len(self.bin_labels):
            raise ValueError("one demand per bin required")
        if len(self.unit_costs) != len(self.platform_ids) or len(
            self.max_nodes
        ) != len(self.platform_ids):
            raise ValueError("one cost and supply cap per platform required")
        for budget in (self.power_budget, self.cost_budget):
            if math.isnan(budget) or budget <= 0:
                raise ValueError(
                    f"budgets must be positive (inf = none), got {budget!r}"
                )
        for rate in self.pair_rate:
            if not math.isfinite(rate) or rate <= 0:
                raise ValueError(f"pair rates must be finite positive, got {rate!r}")

    @classmethod
    def from_matrix(
        cls,
        matrix: EvaluationMatrix,
        workload: WorkloadSpec,
        offers: dict[str, PlatformOffer],
        *,
        power_budget: float = math.inf,
        cost_budget: float = math.inf,
        objective: str = "energy",
    ) -> "FleetInstance":
        missing = [p for p in matrix.platform_ids if p not in offers]
        if missing:
            raise ValueError(
                f"no offer (unit cost) for platform(s): {', '.join(missing)}"
            )
        if matrix.bin_labels != workload.labels:
            raise ValueError("matrix and workload bins disagree")
        bin_index = {lab: j for j, lab in enumerate(matrix.bin_labels)}
        plat_index = {pid: i for i, pid in enumerate(matrix.platform_ids)}
        # entries are already ordered bin-major, platform-id minor.
        pair_bin, pair_platform, pair_rate, pair_power = [], [], [], []
        for e in matrix.entries:
            pair_bin.append(bin_index[e.bin_label])
            pair_platform.append(plat_index[e.platform_id])
            pair_rate.append(e.jobs_per_node)
            pair_power.append(e.node_power)
        return cls(
            bin_labels=matrix.bin_labels,
            platform_ids=matrix.platform_ids,
            demands=tuple(b.jobs for b in workload.bins),
            horizon=matrix.horizon,
            pair_bin=tuple(pair_bin),
            pair_platform=tuple(pair_platform),
            pair_rate=tuple(pair_rate),
            pair_power=tuple(pair_power),
            unit_costs=tuple(
                offers[p].unit_cost for p in matrix.platform_ids
            ),
            max_nodes=tuple(
                float(offers[p].max_nodes) for p in matrix.platform_ids
            ),
            power_budget=power_budget,
            cost_budget=cost_budget,
            objective=objective,
        )

    def pair_weights(self) -> tuple[float, ...]:
        """The objective coefficient of one node on each pair."""
        if self.objective == "energy":
            return tuple(self.horizon * p for p in self.pair_power)
        return tuple(self.unit_costs[i] for i in self.pair_platform)

    def pair_costs(self) -> tuple[float, ...]:
        return tuple(self.unit_costs[i] for i in self.pair_platform)

    def bin_pairs(self) -> tuple[tuple[int, ...], ...]:
        """Pair indices grouped by bin, in pair order."""
        groups: list[list[int]] = [[] for _ in self.bin_labels]
        for k, j in enumerate(self.pair_bin):
            groups[j].append(k)
        return tuple(tuple(g) for g in groups)


@dataclass(frozen=True)
class FleetAllocation:
    """One line of a solution: nodes of one platform on one bin."""

    bin_label: str
    platform_id: str
    nodes: int
    jobs: float  #: jobs completed over the horizon (a_ij * nodes).
    power: float  #: W drawn by these nodes.
    energy: float  #: J over the horizon.
    cost: float


@dataclass(frozen=True)
class FleetSolution:
    """A solved (or diagnosed) procurement problem."""

    status: str  #: "optimal" | "feasible" | "infeasible" | "unknown"
    method: str  #: "exact" | "lp_greedy"
    objective: str
    nodes: tuple[int, ...]  #: per instance pair.
    objective_value: float
    energy: float  #: J over the horizon.
    power: float  #: W total rack draw.
    cost: float
    total_nodes: int
    lp_bound: float  #: LP relaxation lower bound (nan if not computed).
    states_explored: int

    @property
    def solved(self) -> bool:
        return self.status in ("optimal", "feasible")


def allocations(
    instance: FleetInstance, solution: FleetSolution
) -> tuple[FleetAllocation, ...]:
    """The solution's non-zero lines, in pair order."""
    out = []
    for k, x in enumerate(solution.nodes):
        if x <= 0:
            continue
        i = instance.pair_platform[k]
        power = instance.pair_power[k] * x
        out.append(
            FleetAllocation(
                bin_label=instance.bin_labels[instance.pair_bin[k]],
                platform_id=instance.platform_ids[i],
                nodes=x,
                jobs=instance.pair_rate[k] * x,
                power=power,
                energy=power * instance.horizon,
                cost=instance.unit_costs[i] * x,
            )
        )
    return tuple(out)


def _totals(
    instance: FleetInstance, nodes: tuple[int, ...] | list[int]
) -> tuple[float, float, float, int]:
    """(energy, power, cost, total_nodes) of a node vector."""
    power = sum(
        p * x for p, x in zip(instance.pair_power, nodes)
    )
    cost = sum(
        instance.unit_costs[instance.pair_platform[k]] * x
        for k, x in enumerate(nodes)
    )
    return power * instance.horizon, power, cost, int(sum(nodes))


def _solution(
    instance: FleetInstance,
    status: str,
    method: str,
    nodes: tuple[int, ...],
    *,
    lp_bound: float = math.nan,
    states: int = 0,
) -> FleetSolution:
    energy, power, cost, total = _totals(instance, nodes)
    weights = instance.pair_weights()
    objective_value = sum(w * x for w, x in zip(weights, nodes))
    if status == "infeasible" or status == "unknown":
        objective_value = math.inf
    return FleetSolution(
        status=status,
        method=method,
        objective=instance.objective,
        nodes=nodes,
        objective_value=objective_value,
        energy=energy,
        power=power,
        cost=cost,
        total_nodes=total,
        lp_bound=lp_bound,
        states_explored=states,
    )


def _ceil_div(demand: float, rate: float) -> int:
    """Nodes needed to cover ``demand`` at ``rate`` jobs/node."""
    return max(0, math.ceil(demand / rate - 1e-12))


#: One bin's minimum-weight cover with no budget or supply cap: its
#: objective and its node counts over the bin's pairs, in pair order.
_Cover = tuple[float, tuple[int, ...]]


class _ExactSearch:
    """DFS over per-bin irreducible covers with budget/bound pruning.

    ``covers[j]`` is bin ``j``'s own cover (:func:`_bin_covers`), or
    None when its search hit the cap; bin 0's is never read.  Without
    ``covers`` the search runs the bin searches itself.
    """

    def __init__(
        self,
        instance: FleetInstance,
        state_limit: int,
        incumbent: tuple[int, ...] | None,
        covers: list[_Cover | None] | None = None,
    ) -> None:
        self.inst = instance
        self.weights = instance.pair_weights()
        self.groups = instance.bin_pairs()
        self.state_limit = state_limit
        self.states = 0
        self.truncated = False
        self.best_nodes: tuple[int, ...] | None = None
        self.best_obj = math.inf
        if incumbent is not None:
            self.best_nodes = tuple(incumbent)
            self.best_obj = sum(
                w * x for w, x in zip(self.weights, incumbent)
            )
        # What _cover reads at every state: each pair's (platform,
        # rate, weight, draw, unit cost), each bin's cover tolerance and
        # the budgets with their slack (None = no budget).
        self.pairs = tuple(
            zip(
                instance.pair_platform,
                instance.pair_rate,
                self.weights,
                instance.pair_power,
                instance.pair_costs(),
            )
        )
        self.tols = tuple(_REL_TOL * max(1.0, d) for d in instance.demands)
        self.power_cap = (
            instance.power_budget * (1 + _REL_TOL)
            if math.isfinite(instance.power_budget)
            else None
        )
        self.cost_cap = (
            instance.cost_budget * (1 + _REL_TOL)
            if math.isfinite(instance.cost_budget)
            else None
        )
        # Suffix minima over each bin's pairs: ratio_min[j][t] is the
        # best weight per job and weight_min[j][t] the lightest node
        # among group[t:], so _finish_lb costs nothing per state.
        self.ratio_min: list[list[float]] = []
        self.weight_min: list[list[float]] = []
        for group in self.groups:
            ratios = [self.weights[k] / instance.pair_rate[k] for k in group]
            weights = [self.weights[k] for k in group]
            for t in range(len(group) - 2, -1, -1):
                ratios[t] = min(ratios[t], ratios[t + 1])
                weights[t] = min(weights[t], weights[t + 1])
            self.ratio_min.append(ratios)
            self.weight_min.append(weights)
        if covers is None:
            covers = _bin_covers(instance, state_limit)
        self.suffix_lb = self._untouched_bounds(covers)
        self.x = [0] * len(instance.pair_bin)
        self.supply = [0] * len(instance.platform_ids)

    def _untouched_bounds(self, covers: list[_Cover | None]) -> list[float]:
        """``suffix_lb[j]``: a lower bound on what bins ``j, j+1, ...``
        add to any leaf's objective.

        Each bin is bounded by its exact minimum-weight cover: this
        search run on the bin alone, with budgets and supply caps
        lifted, since those only remove mixes.  A one-bin instance
        reads no such bound, so the bin searches never recurse, and a
        bin whose own search hits the state cap keeps the fractional
        :meth:`_finish_lb`.  Bin 0 is never untouched, so its cover is
        not read.

        A leaf adds its per-pair terms to one running sum, in pair
        order; the bound adds per-bin optima, each summed on its own.
        The two orders round apart, so the bound could sit an ulp above
        a leaf that ties the incumbent in real arithmetic but beats it
        by an ulp, and prune the leaf an unpruned walk keeps.  So the
        sum is lowered by a margin: no leaf exceeds ``top`` (every pair
        at its largest count), a running sum of ``m`` non-negative
        terms below ``top`` is off by at most ``m`` roundoffs of
        ``top``, and each bin search keeps a leaf within 1e-12 of its
        optimum.  With integral weights and ``top`` below 2**53 every
        sum is exact and every leaf an integer, so the margin is zero
        and a bound that only ties the incumbent still prunes.
        """
        inst = self.inst
        n_bins = len(self.groups)
        bounds = [0.0] * n_bins
        for j in range(1, n_bins):
            if self.groups[j]:
                cover = covers[j]
                bounds[j] = (
                    self._finish_lb(j, 0, inst.demands[j])
                    if cover is None
                    else cover[0]
                )
        suffix = [0.0] * (n_bins + 1)
        for j in range(n_bins - 1, -1, -1):
            suffix[j] = suffix[j + 1] + bounds[j]
        top = sum(
            _ceil_div(inst.demands[inst.pair_bin[k]], inst.pair_rate[k]) * w
            for k, w in enumerate(self.weights)
        )
        if top < 2.0**53 and all(float(w).is_integer() for w in self.weights):
            return suffix
        margin = (
            4 * (len(self.weights) + n_bins) * _ROUNDOFF * top
            + n_bins * 1e-12
        )
        return [max(0.0, s - margin) for s in suffix]

    def run(self) -> None:
        if any(not g for g in self.groups):
            return  # a bin nobody can serve: trivially infeasible
        self._bin(0, 0.0, 0.0, 0.0)

    def _finish_lb(self, j: int, t: int, remaining: float) -> float:
        """A lower bound on the objective that covers ``remaining`` of
        bin ``j`` from pairs ``group[t:]``.

        Fractionally the cover costs ``remaining`` times the best
        weight per job; integrally an uncovered bin needs at least one
        more node, so it also costs the lightest node left.  Both hold,
        so the larger does.
        """
        if remaining <= self.tols[j]:
            return 0.0
        return max(remaining * self.ratio_min[j][t], self.weight_min[j][t])

    def _tick(self) -> bool:
        self.states += 1
        if self.states >= self.state_limit:
            self.truncated = True
            return False
        return True

    def _bin(self, j: int, obj: float, power: float, cost: float) -> None:
        if j == len(self.groups):
            if obj < self.best_obj - 1e-12:
                self.best_obj = obj
                self.best_nodes = tuple(self.x)
            return
        demand = self.inst.demands[j]
        self._cover(j, 0, demand, obj, power, cost)

    def _cover(
        self,
        j: int,
        t: int,
        remaining: float,
        obj: float,
        power: float,
        cost: float,
    ) -> None:
        """Choose counts for bin ``j``'s pairs from position ``t`` on,
        with ``remaining`` demand still uncovered."""
        if self.truncated or not self._tick():
            return
        if remaining <= self.tols[j]:
            self._bin(j + 1, obj, power, cost)
            return
        group = self.groups[j]
        if t == len(group):
            return  # ran out of platforms with demand uncovered
        # Prune when no leaf below can beat the incumbent by more than
        # 1e-12.  The bound is not shaded down beyond the rounding
        # margin of the untouched bins (see _untouched_bounds): a tie
        # prunes, so a subtree of mixes that only tie the incumbent
        # (identical platforms, equal unit costs) is not walked.
        bound = obj + self._finish_lb(j, t, remaining) + self.suffix_lb[j + 1]
        if bound >= self.best_obj - 1e-12:
            return
        k = group[t]
        i, rate, w, p, c = self.pairs[k]
        supply_left = self.inst.max_nodes[i] - self.supply[i]
        hi = min(
            _ceil_div(remaining, rate),
            int(supply_left) if math.isfinite(supply_left) else 10**18,
        )
        if self.power_cap is not None and p > 0:
            p_room = self.power_cap - power
            hi = min(hi, int(p_room // p) if p_room >= p else 0)
        if self.cost_cap is not None and c > 0:
            c_room = self.cost_cap - cost
            hi = min(hi, int(c_room // c) if c_room >= c else 0)
        for count in range(0, hi + 1):
            self.x[k] = count
            self.supply[i] += count
            self._cover(
                j,
                t + 1,
                remaining - count * rate,
                obj + count * w,
                power + count * p,
                cost + count * c,
            )
            self.supply[i] -= count
            self.x[k] = 0
            if self.truncated:
                return


def _bin_covers(
    instance: FleetInstance, state_limit: int
) -> list[_Cover | None]:
    """:func:`_bin_cover` of bins 1, 2, ...: what the exact search
    bounds its untouched bins with.  None for bin 0, which is never
    untouched, and for a bin no pair serves."""
    return [
        _bin_cover(instance, group, state_limit) if j and group else None
        for j, group in enumerate(instance.bin_pairs())
    ]


def _bin_cover(
    instance: FleetInstance, group: tuple[int, ...], state_limit: int
) -> _Cover | None:
    """The minimum-weight cover of one bin's demand from its pairs
    ``group`` with no budget or supply cap, or None if the search hits
    ``state_limit`` first."""
    j = instance.pair_bin[group[0]]
    alone = FleetInstance(
        bin_labels=(instance.bin_labels[j],),
        platform_ids=instance.platform_ids,
        demands=(instance.demands[j],),
        horizon=instance.horizon,
        pair_bin=(0,) * len(group),
        pair_platform=tuple(instance.pair_platform[k] for k in group),
        pair_rate=tuple(instance.pair_rate[k] for k in group),
        pair_power=tuple(instance.pair_power[k] for k in group),
        unit_costs=instance.unit_costs,
        max_nodes=(math.inf,) * len(instance.platform_ids),
        objective=instance.objective,
    )
    search = _ExactSearch(alone, state_limit, None)
    search.run()
    if search.truncated or search.best_nodes is None:
        return None
    return search.best_obj, search.best_nodes


def solve_exact(
    instance: FleetInstance,
    *,
    state_limit: int = 2_000_000,
    incumbent: tuple[int, ...] | None = None,
    recorder: TraceRecorder = NULL_RECORDER,
) -> FleetSolution:
    """Provably optimal mix by exhaustive irreducible-cover search.

    With the default ``state_limit`` this is the oracle for small
    instances; if the limit is hit the result degrades to the best
    incumbent (status ``"feasible"``/``"unknown"``) -- the scalable
    path runs the same search in that mode as its polish step.
    """
    with recorder.span(
        "fleet_solve",
        method="exact",
        bins=len(instance.bin_labels),
        platforms=len(instance.platform_ids),
        pairs=len(instance.pair_bin),
    ):
        search = _ExactSearch(instance, state_limit, incumbent)
        search.run()
    return _searched(search, "exact")


def _searched(
    search: _ExactSearch, method: str, lp_bound: float = math.nan
) -> FleetSolution:
    """The solution a finished (or truncated) search found."""
    if search.best_nodes is None:
        status = "unknown" if search.truncated else "infeasible"
        nodes = tuple(0 for _ in search.inst.pair_bin)
    else:
        status = "feasible" if search.truncated else "optimal"
        nodes = search.best_nodes
    return _solution(
        search.inst,
        status,
        method,
        nodes,
        lp_bound=lp_bound,
        states=search.states,
    )


def _relaxation(instance: FleetInstance):
    """The LP relaxation (drops integrality, keeps every constraint)."""
    n = len(instance.pair_bin)
    weights = instance.pair_weights()
    a_ge, b_ge, a_ub, b_ub = [], [], [], []
    for j, group in enumerate(instance.bin_pairs()):
        row = [0.0] * n
        for k in group:
            row[k] = instance.pair_rate[k]
        a_ge.append(row)
        b_ge.append(instance.demands[j])
    if math.isfinite(instance.power_budget):
        a_ub.append(list(instance.pair_power))
        b_ub.append(instance.power_budget)
    if math.isfinite(instance.cost_budget):
        a_ub.append(list(instance.pair_costs()))
        b_ub.append(instance.cost_budget)
    for i, cap in enumerate(instance.max_nodes):
        if math.isfinite(cap):
            row = [0.0] * n
            for k, plat in enumerate(instance.pair_platform):
                if plat == i:
                    row[k] = 1.0
            a_ub.append(row)
            b_ub.append(cap)
    return solve_lp(weights, a_ub=a_ub, b_ub=b_ub, a_ge=a_ge, b_ge=b_ge)


def _greedy_complete(
    instance: FleetInstance, x: list[int]
) -> list[int] | None:
    """Fill coverage deficits greedily within the budgets; None if the
    budgets leave no way to add a needed node."""
    weights = instance.pair_weights()
    costs = instance.pair_costs()
    _, power, cost, _ = _totals(instance, x)
    supply = [0] * len(instance.platform_ids)
    for k, count in enumerate(x):
        supply[instance.pair_platform[k]] += count
    for j, group in enumerate(instance.bin_pairs()):
        demand = instance.demands[j]
        tol = _REL_TOL * max(1.0, demand)
        covered = sum(instance.pair_rate[k] * x[k] for k in group)
        while covered < demand - tol:
            # Cheapest feasible jobs-per-weight pair, first index on ties.
            pick, pick_score = -1, math.inf
            for k in group:
                i = instance.pair_platform[k]
                if supply[i] + 1 > instance.max_nodes[i]:
                    continue
                if power + instance.pair_power[k] > instance.power_budget * (
                    1 + _REL_TOL
                ):
                    continue
                if cost + costs[k] > instance.cost_budget * (1 + _REL_TOL):
                    continue
                score = weights[k] / instance.pair_rate[k]
                if score < pick_score - 1e-15:
                    pick, pick_score = k, score
            if pick < 0:
                return None
            x[pick] += 1
            supply[instance.pair_platform[pick]] += 1
            power += instance.pair_power[pick]
            cost += costs[pick]
            covered += instance.pair_rate[pick]
    return x


def _trim(instance: FleetInstance, x: list[int]) -> list[int]:
    """Remove nodes whose coverage surplus allows it (heaviest first)."""
    weights = instance.pair_weights()
    for j, group in enumerate(instance.bin_pairs()):
        demand = instance.demands[j]
        tol = _REL_TOL * max(1.0, demand)
        covered = sum(instance.pair_rate[k] * x[k] for k in group)
        # Heaviest-per-node first so trimming favours the objective;
        # index tie-break keeps it deterministic.
        for k in sorted(group, key=lambda k: (-weights[k], k)):
            while x[k] > 0 and covered - instance.pair_rate[k] >= demand - tol:
                x[k] -= 1
                covered -= instance.pair_rate[k]
    return x


def _side_by_side(
    instance: FleetInstance, covers: list[_Cover | None]
) -> tuple[int, ...] | None:
    """Every bin's own optimal cover placed side by side, when every
    bin's search finished and the mix keeps the power and cost budgets
    and every supply cap; None otherwise.

    Such a mix is optimal in exact arithmetic.  Without budgets and
    caps the bins are independent, so no mix costs less than the sum of
    the per-bin optima; budgets and caps only remove mixes, and this
    one survives them.
    """
    found = [cover for cover in covers if cover is not None]
    if len(found) < len(covers):
        return None
    x = [0] * len(instance.pair_bin)
    supply = [0] * len(instance.platform_ids)
    for group, (_, counts) in zip(instance.bin_pairs(), found):
        for k, count in zip(group, counts):
            x[k] = count
            supply[instance.pair_platform[k]] += count
    _, power, cost, _ = _totals(instance, x)
    if (
        power > instance.power_budget * (1 + _REL_TOL)
        or cost > instance.cost_budget * (1 + _REL_TOL)
        or any(s > cap for s, cap in zip(supply, instance.max_nodes))
    ):
        return None
    return tuple(x)


def solve(
    instance: FleetInstance,
    *,
    polish_states: int = 200_000,
    recorder: TraceRecorder = NULL_RECORDER,
) -> FleetSolution:
    """The scalable path: LP bound, per-bin seed, capped polish.

    Always returns the LP lower bound alongside the integer solution,
    so callers see the worst-case optimality gap; an infeasible LP
    proves the instance infeasible.  The polish is the exact search
    capped at ``polish_states``, seeded with :func:`_side_by_side`
    (bin 0's own cover is searched only when every other bin's search
    finished) or, failing that, with the LP solution floor-rounded,
    greedy-filled and trimmed.  When it finishes inside the cap the
    result is provably optimal and the status says so.
    """
    with recorder.span(
        "fleet_solve",
        method="lp_greedy",
        bins=len(instance.bin_labels),
        platforms=len(instance.platform_ids),
        pairs=len(instance.pair_bin),
    ):
        zeros = tuple(0 for _ in instance.pair_bin)
        groups = instance.bin_pairs()
        if any(not g for g in groups):
            return _solution(instance, "infeasible", "lp_greedy", zeros)
        lp = _relaxation(instance)
        if lp.status == "infeasible":
            # The relaxation is a superset of the integer feasible set.
            return _solution(
                instance, "infeasible", "lp_greedy", zeros, lp_bound=math.inf
            )
        lp_bound = lp.objective if lp.status == "optimal" else math.nan
        covers = _bin_covers(instance, polish_states)
        if all(cover is not None for cover in covers[1:]):
            covers[0] = _bin_cover(instance, groups[0], polish_states)
        incumbent = _side_by_side(instance, covers)
        if incumbent is None and lp.status == "optimal":
            rounded = _greedy_complete(
                instance, [int(math.floor(v + _REL_TOL)) for v in lp.x]
            )
            if rounded is not None:
                incumbent = tuple(_trim(instance, rounded))
        search = _ExactSearch(instance, polish_states, incumbent, covers)
        search.run()
    return _searched(search, "lp_greedy", lp_bound)
