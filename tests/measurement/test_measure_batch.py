"""``MeasurementRig.measure_batch`` ≡ per-run ``MeasurementRig.measure``.

The batch path splits every segment of a sweep over the rails in one
pass, samples runs in groups that share a sample count and takes each
channel's mean as a row reduction.  For every run, wall time, energy
and average power must be bit-identical to measuring its trace alone:
1-3 rails with finite and infinite limits (spill and brown-out),
multi-segment traces, runs shorter than one sampling period, traces
that start off zero, and non-default PowerMon rates and resolutions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.machine.platforms import platform
from repro.machine.power import PowerTrace, RaggedTraces
from repro.measurement.energy import MeasurementRig
from repro.measurement.powermon import PowerMon
from repro.measurement.rails import RailTopology

CONFIG = platform("gtx-titan")


def assert_batch_equals_per_run(rig, traces):
    batch = rig.measure_batch(RaggedTraces.from_traces(traces))
    for i, trace in enumerate(traces):
        alone = rig.measure(trace)
        assert batch.wall_times[i].hex() == alone.wall_time.hex(), i
        assert batch.energies[i].hex() == alone.energy.hex(), i
        assert batch.avg_powers[i].hex() == alone.avg_power.hex(), i


@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    weights = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(n)]
    if sum(weights) == 0.0:
        weights[0] = 1.0
    fractions = [w / sum(weights) for w in weights]
    # Renormalise the last rail so the fractions sum to 1 within 1e-9.
    fractions[-1] = 1.0 - sum(fractions[:-1])
    finite = st.floats(min_value=1.0, max_value=150.0)
    limits = [draw(st.one_of(st.just(np.inf), finite)) for _ in range(n)]
    return RailTopology(
        name="drawn",
        rails=tuple(f"r{k}" for k in range(n)),
        fractions=tuple(fractions),
        limits=tuple(limits),
    )


@st.composite
def traces(draw):
    n_segments = draw(st.integers(min_value=1, max_value=12))
    # From well under one 1024 Hz period to a few hundred samples.
    durations = [
        draw(st.floats(min_value=1e-5, max_value=0.05)) for _ in range(n_segments)
    ]
    powers = [
        draw(st.floats(min_value=0.0, max_value=400.0)) for _ in range(n_segments)
    ]
    trace = PowerTrace.from_durations(np.array(durations), np.array(powers))
    start = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)))
    return PowerTrace(trace.edges + start, trace.values)


@st.composite
def powermons(draw):
    rate = st.floats(min_value=20.0, max_value=8000.0)
    limit = st.floats(min_value=50.0, max_value=9000.0)
    return PowerMon(
        sample_rate=draw(st.one_of(st.just(1024.0), rate)),
        aggregate_limit=draw(st.one_of(st.just(3072.0), limit)),
        resolution=draw(st.sampled_from([0.01, 0.0, 0.25, 1e-4])),
    )


@given(
    topology=topologies(),
    mon=powermons(),
    runs=st.lists(traces(), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_measure_batch_is_bit_identical_to_per_run(topology, mon, runs):
    rig = MeasurementRig(CONFIG, mon, topology)
    assert_batch_equals_per_run(rig, runs)


@pytest.mark.parametrize(
    "pid", ["gtx-titan", "xeon-phi", "desktop-cpu", "arndale-gpu", "gtx-580"]
)
def test_platform_topologies_with_spill(pid):
    """The real topologies, loaded past their rail limits so power
    spills over and browns out, with runs of many sample counts."""
    config = platform(pid)
    rig = MeasurementRig(config)
    rng = np.random.default_rng(7)
    peak = 1.5 * config.max_model_power
    runs = []
    for _ in range(40):
        n = int(rng.integers(1, 300))
        durations = rng.uniform(1e-4, 2e-3, n)
        powers = rng.uniform(0.0, peak, n)
        runs.append(PowerTrace.from_durations(durations, powers))
    assert_batch_equals_per_run(rig, runs)


def test_shared_sample_counts_form_one_group():
    """Identical durations share a sample count, so they go through one
    ``(runs x samples)`` matrix; each row still equals its run alone."""
    rig = MeasurementRig(platform("gtx-titan"))
    rng = np.random.default_rng(3)
    runs = [
        PowerTrace.from_durations(np.full(25, 0.01), rng.uniform(50, 250, 25))
        for _ in range(6)
    ]
    assert_batch_equals_per_run(rig, runs)


def test_active_fault_plan_measures_per_run():
    rig = MeasurementRig(
        CONFIG, PowerMon(faults=FaultPlan(seed=1, sample_dropout=0.1))
    )
    trace = PowerTrace.constant(100.0, 0.1)
    with pytest.raises(ValueError, match="one run at a time"):
        rig.measure_batch(RaggedTraces.from_traces([trace]))
