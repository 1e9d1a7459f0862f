"""``insert_stalls`` against the segment-list walk it replaced.

:func:`list_insert_stalls` is the oracle: it rebuilds the trace's
segment list once per stall, latest stall first, splitting the first
segment whose end (summed along the current list) reaches the stall's
time.  :func:`repro.machine.noise.insert_stalls` must return the same
edges and values bit for bit, including where rounding decides: tied
stall times, stalls at 0 and at or after the end (clamped), zero-length
stalls, slivers the 1e-12 rule drops, and traces that do not start at
0.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine.noise import insert_stalls, sample_stalls
from repro.machine.power import PowerTrace


def list_insert_stalls(trace, stalls, stall_power):
    """The segment-list version of ``insert_stalls``."""
    if not stalls:
        return trace
    segments = list(zip(trace.segment_durations, trace.values))
    total = trace.duration
    for time, length in sorted(stalls, reverse=True):
        if length <= 0.0:
            continue
        t = min(max(time - float(trace.edges[0]), 0.0), total)
        rebuilt = []
        elapsed = 0.0
        inserted = False
        for duration, value in segments:
            if not inserted and elapsed + duration >= t:
                left = t - elapsed
                if left > 0.0:
                    rebuilt.append((left, value))
                rebuilt.append((length, stall_power))
                right = duration - left
                if right > 0.0:
                    rebuilt.append((right, value))
                inserted = True
            else:
                rebuilt.append((duration, value))
            elapsed += duration
        if not inserted:
            rebuilt.append((length, stall_power))
        segments = rebuilt
    durations = np.array([d for d, _ in segments])
    values = np.array([p for _, p in segments])
    keep = durations > 1e-12 * max(float(np.sum(durations)), 1e-300)
    durations, values = durations[keep], values[keep]
    out = PowerTrace.from_durations(durations, values)
    return PowerTrace(out.edges + float(trace.edges[0]), out.values)


def assert_same_trace(trace, stalls, stall_power):
    try:
        want = list_insert_stalls(trace, stalls, stall_power)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            insert_stalls(trace, stalls, stall_power)
        return
    got = insert_stalls(trace, stalls, stall_power)
    assert got.edges.tobytes() == want.edges.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


@st.composite
def stall_cases(draw):
    """A 1-8 segment trace, possibly starting off 0, and up to 8
    stalls: anywhere from before the start to after the end, on and a
    hair off the segment edges, tied with each other, of zero,
    negative, tiny or ordinary length."""
    n = draw(st.integers(1, 8))
    # Decimal durations and starts round in the running sums.
    decimals = st.integers(1, 999).map(lambda k: k / 1000)
    durations = draw(
        st.lists(st.floats(1e-6, 10.0) | decimals, min_size=n, max_size=n)
    )
    start = draw(
        st.sampled_from([0.0, 0.1, 1e3])
        | st.integers(-999, 999).map(lambda k: k / 100)
        | st.floats(-10.0, 10.0)
    )
    edges = start + np.concatenate([[0.0], np.cumsum(durations)])
    assume(np.all(np.diff(edges) > 0))
    values = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    trace = PowerTrace(edges, np.asarray(values))
    end = float(edges[-1])
    marks = [*edges.tolist(), start - 1.0, end + 1.0]
    times = st.one_of(
        st.floats(start - 1.0, end + 1.0),
        st.sampled_from(marks),
        st.tuples(st.sampled_from(marks), st.floats(-1e-13, 1e-13)).map(sum),
    )
    lengths = st.one_of(
        st.floats(1e-6, 2.0),
        st.sampled_from([0.0, -0.5]),
        st.floats(1e-18, 1e-13),
    )
    stalls = draw(st.lists(st.tuples(times, lengths), max_size=8))
    if stalls and draw(st.booleans()):
        # Ties: reuse drawn times with fresh lengths.
        tied = draw(st.lists(st.sampled_from([t for t, _ in stalls]), max_size=4))
        stalls += [(t, draw(lengths)) for t in tied]
    return trace, stalls, draw(st.floats(0.0, 50.0))


@given(stall_cases())
@settings(max_examples=1000)
def test_insert_stalls_matches_list_walk(case):
    assert_same_trace(*case)


@pytest.mark.parametrize("seed", range(20))
def test_sampled_stalls_match_list_walk(seed):
    # Stalls as the engine draws them, on a sawtooth-like trace.
    rng = np.random.default_rng(seed)
    durations = rng.uniform(1e-4, 5e-3, size=rng.integers(1, 200))
    trace = PowerTrace.from_durations(durations, rng.uniform(1.0, 50.0, len(durations)))
    stalls = sample_stalls(rng, trace.duration, 400.0, 1e-3)
    assert_same_trace(trace, stalls, 7.5)


def test_tied_stalls_past_a_rounded_piece():
    # 0.321 + (0.91 - 0.321) rounds below 0.91: the second stall at
    # 0.91 walks past the piece the first left and splits that stall.
    trace = PowerTrace(np.array([0.0, 0.321, 1.0]), np.array([5.0, 6.0]))
    stalls = [(0.91, 0.25), (0.91, 0.5)]
    assert_same_trace(trace, stalls, 2.0)
    assert insert_stalls(trace, stalls, 2.0).values.tolist() == [5, 6, 2, 2, 6]


def test_at_end_stalls_split_each_other():
    # Summed segment by segment the trace ends a hair before its
    # duration, so stalls clamped to the end are appended, and each
    # later one splits the stall appended before it.
    trace = PowerTrace(np.array([0.1, 0.2, 0.9]), np.array([1.0, 2.0]))
    assert np.cumsum(trace.segment_durations)[-1] < trace.duration
    stalls = [(5.0, 0.2), (9.0, 0.3), (9.0, 0.1)]
    assert_same_trace(trace, stalls, 4.0)
    # Each split leaves a sliver of stall, which the 1e-12 rule drops.
    assert insert_stalls(trace, stalls, 4.0).values.tolist() == [1, 2, 4, 4, 4]
