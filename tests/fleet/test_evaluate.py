"""The fleet evaluation matrix, including the governor-aware rack
power fix: node draw is the *capped* per-node draw, never the nominal
demand."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps.algorithms import Algorithm
from repro.apps.analysis import evaluate, exclusion_reason
from repro.experiments.common import run_all_fits
from repro.fleet import WorkloadBin, WorkloadSpec, evaluate_fleet
from repro.fleet.evaluate import BinOnPlatform
from repro.fleet.workload import algorithm_by_name
from repro.machine.governor import run_governor
from repro.machine.platforms import all_platforms, platform
from repro.telemetry.recorder import TraceRecorder

_ROOT = Path(__file__).parent.parent.parent
#: Both shipped workloads: the example and the 8-bin histogram.
WORKLOADS = {
    "example": _ROOT / "examples" / "fleet_workload.json",
    "8bin": _ROOT / "tests" / "data" / "fleet_workload_8bin.json",
}


def _spec(*bins):
    return WorkloadSpec(bins=tuple(bins), horizon=3600.0)


class TestMatrixShape:
    def test_full_matrix_over_twelve_platforms(self):
        spec = _spec(
            WorkloadBin(jobs=10, algorithm="matmul", n=4096),
            WorkloadBin(jobs=10, flops=1e12, bytes_moved=1e10),
        )
        matrix = evaluate_fleet(spec, all_platforms())
        assert matrix.platform_ids == tuple(sorted(all_platforms()))
        assert matrix.bin_labels == spec.labels
        assert len(matrix.entries) + len(matrix.exclusions) == 2 * 12

    def test_deterministic_of_dict_order(self):
        spec = _spec(WorkloadBin(jobs=1, algorithm="fft", n=2 ** 20))
        configs = all_platforms()
        forward = evaluate_fleet(spec, dict(configs))
        backward = evaluate_fleet(
            spec, dict(reversed(list(configs.items())))
        )
        assert forward == backward

    def test_entry_fields_consistent(self):
        spec = _spec(WorkloadBin(jobs=7, algorithm="stencil", n=1e8))
        matrix = evaluate_fleet(spec, {"gtx-titan": platform("gtx-titan")})
        (e,) = matrix.entries
        assert e.jobs_per_node == pytest.approx(3600.0 / e.time)
        assert e.node_power == pytest.approx(e.energy / e.time)

    def test_double_precision_exclusions(self):
        spec = _spec(
            WorkloadBin(jobs=1, algorithm="matmul", n=2048, precision="double")
        )
        matrix = evaluate_fleet(spec, all_platforms())
        assert matrix.entries  # some platforms support double
        assert matrix.exclusions  # several Table I platforms do not
        served = {e.platform_id for e in matrix.entries}
        assert served.isdisjoint(x.platform_id for x in matrix.exclusions)

    def test_residency_exclusion(self):
        spec = _spec(
            WorkloadBin(jobs=1, algorithm="matmul", n=8192, resident=True)
        )
        matrix = evaluate_fleet(spec, all_platforms())
        assert not matrix.entries
        assert all("working set" in x.reason for x in matrix.exclusions)

    def test_span_recorded(self):
        recorder = TraceRecorder()
        spec = _spec(WorkloadBin(jobs=1, algorithm="triad", n=1e8))
        evaluate_fleet(
            spec, {"nuc-cpu": platform("nuc-cpu")}, recorder=recorder
        )
        names = [s.name for s in recorder.records()]
        assert "fleet_evaluate" in names


class TestGovernorAwarePower:
    """Satellite fix: rack power must sum min(demand, pi1+delta_pi),
    not the nominal draw -- differentially checked against the
    governor simulation itself."""

    # fft on gtx-580 is power-bound: nominal draw exceeds the cap.
    PLATFORM = "gtx-580"
    BIN = WorkloadBin(jobs=1, algorithm="fft", n=2 ** 24)

    def _entry(self):
        matrix = evaluate_fleet(
            _spec(self.BIN), {self.PLATFORM: platform(self.PLATFORM)}
        )
        (entry,) = matrix.entries
        return entry, platform(self.PLATFORM)

    def test_fixture_is_power_bound(self):
        entry, config = self._entry()
        assert entry.uncapped_node_power > config.max_model_power

    def test_capped_draw_never_exceeds_rail(self):
        entry, config = self._entry()
        assert entry.node_power <= config.max_model_power * (1 + 1e-9)

    def test_nominal_draw_would_overcommit_the_budget(self):
        """Pre-fix accounting: budgeting the nominal draw rejects a
        rack that the governor would in fact keep under the cap."""
        entry, config = self._entry()
        budget = 10 * config.max_model_power  # room for exactly 10 nodes
        nodes_capped = int(budget / entry.node_power)
        nodes_nominal = int(budget / entry.uncapped_node_power)
        assert nodes_capped == 10
        assert nodes_nominal < nodes_capped

    def test_differential_against_run_governor(self):
        """The closed-form capped draw equals pi1 + the governor's
        mean dynamic power (within the loop's documented ramp-up
        overshoot)."""
        entry, config = self._entry()
        truth = config.truth
        inst = self.BIN
        from repro.apps import fast_memory_capacity
        from repro.fleet.workload import algorithm_by_name

        algorithm = algorithm_by_name("fft")
        instance = algorithm.instance(2 ** 24, fast_memory_capacity(config))
        w, q = instance.flops, instance.bytes_moved
        t_nominal = max(w * truth.tau_flop, q * truth.tau_mem)
        demand = (w * truth.eps_flop + q * truth.eps_mem) / t_nominal
        assert demand > truth.delta_pi  # genuinely throttled
        # A fleet node runs its bin back-to-back for the whole horizon,
        # so the governed execution to compare against is many jobs
        # long -- long enough for the control loop to settle past its
        # documented initial ramp-up overshoot.
        jobs = max(1, math.ceil(2.0 / t_nominal))
        result = run_governor(jobs * t_nominal, demand, truth.delta_pi)
        assert result.throttled
        durations = result.durations
        mean_dynamic = float(
            sum(f * demand * d for f, d in zip(result.frequencies, durations))
            / sum(durations)
        )
        governor_draw = truth.pi1 + mean_dynamic
        assert entry.node_power == pytest.approx(governor_draw, rel=0.02)
        assert mean_dynamic <= truth.delta_pi * 1.02


class TestRawBins:
    def test_raw_bin_uses_model_directly(self):
        from repro.core import model

        spec = _spec(WorkloadBin(jobs=2, flops=1e12, bytes_moved=1e10))
        matrix = evaluate_fleet(spec, {"gtx-titan": platform("gtx-titan")})
        (e,) = matrix.entries
        truth = platform("gtx-titan").truth
        assert e.time == pytest.approx(
            model.time(truth, 1e12, 1e10, capped=True)
        )
        assert e.energy == pytest.approx(
            model.energy(truth, 1e12, 1e10, capped=True)
        )

    def test_empty_platforms_rejected(self):
        spec = _spec(WorkloadBin(jobs=1, flops=1e9, bytes_moved=1e8))
        with pytest.raises(ValueError):
            evaluate_fleet(spec, {})

    def test_matrix_lookup_helpers(self):
        spec = _spec(WorkloadBin(jobs=1, algorithm="triad", n=1e8))
        matrix = evaluate_fleet(spec, all_platforms())
        label = spec.labels[0]
        assert matrix.entry(label, "gtx-titan") is not None
        assert matrix.entry(label, "no-such") is None
        assert "gtx-titan" in matrix.feasible_platforms(label)


def _pair_oracle(bin_, platform_id, config, horizon):
    """One pair the per-pair way: :func:`repro.apps.analysis.evaluate`,
    capped and uncapped, and :func:`~repro.apps.analysis.
    exclusion_reason`.  A raw bin is an algorithm whose work and
    traffic are its ``(W, Q)`` whatever ``n`` and ``Z``, and, as
    before, demands no residency."""
    if bin_.is_raw:
        algorithm = Algorithm(
            bin_.label,
            work=lambda n: bin_.flops,
            traffic=lambda n, z: bin_.bytes_moved,
        )
        n, resident = 1.0, False
    else:
        algorithm = algorithm_by_name(bin_.algorithm)
        n, resident = bin_.n, bin_.resident
    try:
        capped = evaluate(
            algorithm, n, config, capped=True, precision=bin_.precision
        )
    except ValueError as err:
        return str(err)
    reason = exclusion_reason(capped, config, require_resident=resident)
    if reason is not None:
        return reason
    uncapped = evaluate(
        algorithm, n, config, capped=False, precision=bin_.precision
    )
    cap = config.max_model_power
    assert capped.power <= cap * (1 + 1e-9)
    return BinOnPlatform(
        bin_label=bin_.label,
        platform_id=platform_id,
        time=capped.time,
        energy=capped.energy,
        node_power=capped.power,
        uncapped_node_power=uncapped.power,
        jobs_per_node=horizon / capped.time,
    )


def _assert_matches_pair_oracle(spec, configs):
    matrix = evaluate_fleet(spec, configs)
    entries = {(e.bin_label, e.platform_id): e for e in matrix.entries}
    reasons = {(x.bin_label, x.platform_id): x.reason for x in matrix.exclusions}
    for bin_ in spec.bins:
        for pid in sorted(configs):
            oracle = _pair_oracle(bin_, pid, configs[pid], spec.horizon)
            key = (bin_.label, pid)
            if isinstance(oracle, str):
                assert reasons.get(key) == oracle, key
            else:
                # Dataclass equality compares every float field with
                # ==: bit for bit for these finite, non-zero values.
                assert entries.get(key) == oracle, key
    return matrix


@pytest.fixture(scope="module")
def quick_fitted_configs(quick_settings):
    """Every platform with θ̂ fitted from a scaled-down campaign."""
    fits = run_all_fits(quick_settings)
    return {
        pid: replace(config, truth=fits[pid].fitted_params)
        for pid, config in all_platforms().items()
    }


class TestArrayEvaluationMatchesPairs:
    """The per-platform array evaluation equals the per-pair path,
    field for field and bit for bit, exclusion reasons included."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_shipped_workloads_truth(self, workload):
        spec = WorkloadSpec.from_json(WORKLOADS[workload].read_text())
        matrix = _assert_matches_pair_oracle(spec, all_platforms())
        assert len(matrix.entries) == len(spec.bins) * 12

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_shipped_workloads_quick_fitted(
        self, workload, quick_fitted_configs
    ):
        spec = WorkloadSpec.from_json(WORKLOADS[workload].read_text())
        truth = evaluate_fleet(spec, all_platforms())
        fitted = _assert_matches_pair_oracle(spec, quick_fitted_configs)
        assert fitted.entries != truth.entries  # θ̂ really differs

    def test_exclusion_reasons(self):
        """Double precision and residency, on algorithm and raw bins,
        mixed with single-precision bins on the same platforms."""
        spec = _spec(
            WorkloadBin(jobs=1, algorithm="matmul", n=2048, precision="double"),
            WorkloadBin(jobs=1, algorithm="matmul", n=8192, resident=True),
            WorkloadBin(jobs=1, algorithm="triad", n=1e3, resident=True),
            WorkloadBin(jobs=1, algorithm="fft", n=2 ** 20),
            WorkloadBin(
                jobs=1, flops=1e12, bytes_moved=1e10, precision="double"
            ),
            WorkloadBin(jobs=1, flops=1e12, bytes_moved=0.0, resident=True),
        )
        matrix = _assert_matches_pair_oracle(spec, all_platforms())
        reasons = {x.reason for x in matrix.exclusions}
        assert any("no double-precision parameters" in r for r in reasons)
        assert any(r.startswith("working set ") for r in reasons)
        served = {e.bin_label for e in matrix.entries}
        assert spec.bins[2].label in served  # a resident working set fits
