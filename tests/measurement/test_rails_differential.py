"""Differential tests: whole-array ``RailTopology.split`` vs the
per-segment loop it replaced.

The contract is *bit-identity*: every rail's power values must carry
exactly the IEEE-754 bits the per-segment loop produces, so these tests
compare ``tobytes()`` with no tolerance.  The loop below is the oracle;
it is the former implementation, kept verbatim.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.platforms import PLATFORM_IDS, platform
from repro.machine.power import PowerTrace
from repro.measurement.rails import RailTopology, topology_for


def split_per_segment(topology: RailTopology, trace: PowerTrace):
    """The oracle: one segment at a time."""
    totals = trace.values
    n_rails = len(topology.rails)
    alloc = np.empty((n_rails, len(totals)))
    fractions = np.asarray(topology.fractions)
    limits = np.asarray(topology.limits)
    for j, total in enumerate(totals):
        share = fractions * total
        over = np.maximum(share - limits, 0.0)
        share = np.minimum(share, limits)
        spill = float(np.sum(over))
        for _ in range(n_rails):
            if spill <= 1e-12:
                break
            headroom = limits - share
            open_rails = headroom > 1e-12
            if not np.any(open_rails):
                share = share + spill * fractions
                spill = 0.0
                break
            weights = np.where(open_rails, fractions, 0.0)
            if weights.sum() == 0.0:
                weights = open_rails.astype(float)
            weights = weights / weights.sum()
            add = np.minimum(spill * weights, headroom)
            share = share + add
            spill -= float(np.sum(add))
        alloc[:, j] = share
    return {
        rail: PowerTrace(trace.edges.copy(), alloc[k])
        for k, rail in enumerate(topology.rails)
    }


def assert_split_matches(topology: RailTopology, trace: PowerTrace) -> None:
    got = topology.split(trace)
    want = split_per_segment(topology, trace)
    assert list(got) == list(want)
    for rail, expected in want.items():
        assert got[rail].values.tobytes() == expected.values.tobytes(), rail
        assert got[rail].edges.tobytes() == expected.edges.tobytes(), rail


def make_trace(values) -> PowerTrace:
    values = np.asarray(values, dtype=float)
    return PowerTrace(np.arange(len(values) + 1, dtype=float), values)


limits_st = st.one_of(
    st.just(math.inf),
    st.just(0.0),
    st.floats(min_value=0.0, max_value=300.0),
)


@st.composite
def topologies(draw):
    n_rails = draw(st.integers(min_value=1, max_value=3))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=n_rails,
            max_size=n_rails,
        ).filter(lambda w: sum(w) > 0.0)
    )
    total = sum(weights)
    return RailTopology(
        name="drawn",
        rails=tuple(f"rail{k}" for k in range(n_rails)),
        fractions=tuple(w / total for w in weights),
        limits=tuple(draw(limits_st) for _ in range(n_rails)),
    )


powers_st = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=600.0)),
    min_size=1,
    max_size=40,
)

#: Powers as multiples of a topology's finite capacity: this is where
#: clipped rails spill, spill saturates a second rail, and rails brown out.
loads_st = st.lists(
    st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.5)),
    min_size=1,
    max_size=40,
)


class TestSplitDifferential:
    @given(topology=topologies(), powers=powers_st)
    def test_random_topologies_and_traces(self, topology, powers):
        assert_split_matches(topology, make_trace(powers))

    @settings(max_examples=300)
    @given(topology=topologies(), loads=loads_st)
    def test_loads_near_capacity(self, topology, loads):
        capacity = sum(limit for limit in topology.limits if math.isfinite(limit))
        assert_split_matches(
            topology, make_trace(np.asarray(loads) * max(capacity, 1.0))
        )

    @given(topology=topologies(), power=st.floats(min_value=0.0, max_value=600.0))
    def test_one_segment_traces(self, topology, power):
        assert_split_matches(topology, PowerTrace.constant(power, 0.5))

    @pytest.mark.parametrize(
        "fractions, limits",
        [
            ((0.5, 0.5), (10.0, 10.0)),
            ((0.3, 0.45, 0.25), (5.0, 5.0, 5.0)),
            ((0.5, 0.5), (0.0, 0.0)),
            ((1.0,), (20.0,)),
        ],
    )
    def test_no_headroom_brown_out(self, fractions, limits):
        topology = RailTopology(
            name="tight",
            rails=tuple(f"rail{k}" for k in range(len(fractions))),
            fractions=fractions,
            limits=limits,
        )
        assert_split_matches(topology, make_trace([100.0, 5.0, 30.0, 0.0, 12.5]))

    def test_spill_at_the_tolerance_and_infinite_power(self):
        """Spill just below, at and above the 1e-12 redistribution
        tolerance; and an infinite segment, whose spill on the unlimited
        rail is NaN, which the loop never lets settle."""
        topology = RailTopology(
            name="edge",
            rails=("slot", "aux"),
            fractions=(0.5, 0.5),
            limits=(10.0, math.inf),
        )
        over = [0.0, 1e-13, 2e-12, 4e-12, 1e-10, 1e-6]
        powers = [20.0 + 2.0 * x for x in over] + [math.inf]
        with np.errstate(invalid="ignore"):  # inf - inf, in both splits
            assert_split_matches(topology, make_trace(powers))

    def test_summation_order_of_three_spilling_rails(self):
        """Every rail over its limit: the spill is a three-term sum whose
        rounding depends on the order of its terms."""
        topology = RailTopology(
            name="overloaded",
            rails=("slot", "8pin", "6pin"),
            fractions=(0.3, 0.45, 0.25),
            limits=(1.0, 2.0, 3.0),
        )
        powers = np.random.default_rng(5).uniform(20.0, 1000.0, size=2000)
        assert_split_matches(topology, make_trace(powers))

    def test_zero_fraction_rails_take_spill_by_count(self):
        topology = RailTopology(
            name="zero",
            rails=("slot", "aux", "spare"),
            fractions=(1.0, 0.0, 0.0),
            limits=(75.0, 150.0, math.inf),
        )
        assert_split_matches(topology, make_trace([50.0, 80.0, 300.0, 75.0]))

    @pytest.mark.parametrize("platform_id", PLATFORM_IDS)
    def test_platform_topologies_at_max_model_power(self, platform_id):
        config = platform(platform_id)
        topology = topology_for(config)
        peak = config.max_model_power
        assert_split_matches(topology, PowerTrace.constant(peak, 0.5))
        # A ramp through every regime up to the peak, as a governor
        # sawtooth would visit them.
        assert_split_matches(topology, make_trace(np.linspace(0.0, peak, 257)))
