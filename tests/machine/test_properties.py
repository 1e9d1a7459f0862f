"""Property-based tests (hypothesis) on the machine substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheGeometry, CacheHierarchySim, CacheLevelSim
from repro.machine.noise import insert_stalls
from repro.machine.power import PowerTrace
from repro.machine.trace import chase_permutation


# ---------------------------------------------------------------------------
# PowerTrace algebra.
# ---------------------------------------------------------------------------

@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    durations = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=2.0),
            min_size=n,
            max_size=n,
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0),
            min_size=n,
            max_size=n,
        )
    )
    return PowerTrace.from_durations(np.array(durations), np.array(values))


@given(traces())
@settings(max_examples=100)
def test_energy_bounded_by_extremes(trace):
    assert (
        trace.values.min() * trace.duration - 1e-9
        <= trace.energy()
        <= trace.values.max() * trace.duration + 1e-9
    )


@given(traces(), st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=100)
def test_scaling_linearity(trace, factor):
    assert trace.scaled(factor).energy() == pytest.approx(
        factor * trace.energy(), abs=1e-9
    )


@given(
    traces(),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),
            st.floats(min_value=1e-4, max_value=0.5),
        ),
        max_size=5,
    ),
    st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=100)
def test_stall_insertion_conserves_active_energy(trace, stalls, stall_power):
    out = insert_stalls(trace, stalls, stall_power)
    total_stall = sum(length for _, length in stalls)
    assert out.duration == pytest.approx(trace.duration + total_stall, rel=1e-9)
    assert out.energy() == pytest.approx(
        trace.energy() + stall_power * total_stall, rel=1e-6, abs=1e-9
    )


@given(traces(), st.integers(min_value=1, max_value=2000))
@settings(max_examples=60)
def test_sampling_within_range(trace, n):
    times = np.linspace(
        float(trace.edges[0]), float(trace.edges[-1]), n
    )
    values = trace.sample(times)
    assert np.all(values >= trace.values.min() - 1e-12)
    assert np.all(values <= trace.values.max() + 1e-12)


# ---------------------------------------------------------------------------
# Cache simulator invariants.
# ---------------------------------------------------------------------------

@given(
    assoc=st.sampled_from([1, 2, 4, 8]),
    n_sets=st.sampled_from([1, 2, 8]),
    addresses=st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=300),
)
@settings(max_examples=100)
def test_cache_occupancy_and_counters(assoc, n_sets, addresses):
    line = 64
    geom = CacheGeometry("L", n_sets * assoc * line, line, assoc)
    sim = CacheLevelSim(geom)
    for addr in addresses:
        sim.access_line(addr // line)
    assert sim.hits + sim.misses == len(addresses)
    assert sim.occupancy <= geom.n_lines
    distinct = len({a // line for a in addresses})
    assert sim.occupancy <= distinct
    # Misses at least cover the distinct lines that fit nowhere twice.
    assert sim.misses >= min(distinct, 1) if addresses else True


@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=200
    )
)
@settings(max_examples=100)
def test_second_identical_access_always_hits_with_full_assoc(addresses):
    """A fully-associative cache larger than the trace never misses on
    a repeated access (LRU never evicts within capacity)."""
    line = 64
    n_lines = 512  # > max distinct lines in the trace (256)
    geom = CacheGeometry("L", n_lines * line, line, n_lines)
    sim = CacheLevelSim(geom)
    seen = set()
    for addr in addresses:
        tag = addr // line
        hit = sim.access_line(tag)
        assert hit == (tag in seen)
        seen.add(tag)


@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=200
    )
)
@settings(max_examples=60)
def test_hierarchy_serves_every_access_somewhere(addresses):
    h = CacheHierarchySim(
        [
            CacheGeometry("L1", 1024, 64, 4),
            CacheGeometry("L2", 8192, 64, 8),
        ]
    )
    stats = h.run_trace(addresses)
    assert stats.total == len(addresses)
    assert sum(stats.hits) + stats.dram == len(addresses)


@given(n=st.integers(min_value=2, max_value=500), seed=st.integers(0, 2 ** 31))
@settings(max_examples=100)
def test_chase_permutation_single_cycle(n, seed):
    rng = np.random.default_rng(seed)
    perm = chase_permutation(rng, n)
    slot = 0
    for step in range(1, n + 1):
        slot = int(perm[slot])
        if slot == 0:
            break
    assert step == n  # returns to start only after visiting all slots
