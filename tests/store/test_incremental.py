"""Incremental campaigns: cold/warm equivalence, invalidation, contention.

The store's core guarantee is differential: a warm replay must be
bit-identical to the cold computation it stands in for, with faults on
or off.  ``Campaign`` objects compare value-wise (``Observation`` holds
only scalars), and fits compare on their pickled parameter sets --
whole-object pickle bytes are NOT compared because pickle memo indices
legitimately differ between live and unpickled object graphs.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.machine.engine as engine_module
from repro.experiments.common import CampaignSettings
from repro.faults.plan import FaultPlan
from repro.machine.platforms import platform
from repro.microbench.campaign import CampaignRunner, fit_platform
from repro.store import CampaignStore

#: The smallest campaign the store tests run.
TINY = CampaignSettings(
    replicates=1,
    points_per_octave=1,
    target_duration=0.05,
    include_double=False,
)


def quick_fit(store, *, seed, faults=None, refresh=False):
    return fit_platform(
        "pandaboard-es",
        replace(TINY, seed=seed, faults=faults),
        store=store,
        refresh=refresh,
    )


def assert_same_fit(a, b):
    assert a.campaign == b.campaign
    assert pickle.dumps(a.fitted_params) == pickle.dumps(b.fitted_params)
    assert a.uncapped.params == b.uncapped.params


class TestColdWarmDifferential:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        faulted=st.booleans(),
    )
    def test_warm_campaign_replays_bit_identical(
        self, tmp_path_factory, seed, faulted
    ):
        """A warm ``fit_platform`` replays both its campaign and its fit
        entries and lands on the cold campaign and theta-hat."""
        store = CampaignStore(
            tmp_path_factory.mktemp("cache") / f"s{seed}-{faulted}"
        )
        plan = (
            FaultPlan(seed=seed, sample_dropout=0.02, nan_rate=0.01)
            if faulted
            else None
        )
        cold = quick_fit(store, seed=seed, faults=plan)
        assert (store.hits, store.misses) == (0, 2)  # campaign + fit.
        warm = quick_fit(store, seed=seed, faults=plan)
        assert (store.hits, store.misses) == (2, 2)
        assert_same_fit(warm, cold)

    def test_warm_fit_replays_bit_identical(self, tmp_path):
        """The fit entry a warm run replays is the theta-hat an uncached
        ``fit_platform`` computes: caching changes nothing fitted."""
        store = CampaignStore(tmp_path)
        quick_fit(store, seed=3)
        warm = quick_fit(store, seed=3)
        assert (store.hits, store.misses) == (2, 2)
        assert_same_fit(warm, quick_fit(None, seed=3))

    def test_refresh_recomputes_but_matches(self, tmp_path):
        store = CampaignStore(tmp_path)
        cold = quick_fit(store, seed=9)
        refreshed = quick_fit(store, seed=9, refresh=True)
        # Refresh skips the lookups, so only the cold run misses -- but
        # both runs published both entries.
        assert store.hits == 0
        assert (store.misses, store.puts) == (2, 4)
        assert_same_fit(refreshed, cold)

    def test_different_seed_misses(self, tmp_path):
        store = CampaignStore(tmp_path)
        quick_fit(store, seed=1)
        quick_fit(store, seed=2)
        assert (store.hits, store.misses) == (0, 4)


class TestRunnerInvalidation:
    def runner(self, cache_dir):
        return CampaignRunner(
            ("pandaboard-es",), TINY, cache_dir=cache_dir
        )

    def test_engine_version_bump_misses_warm_cache(
        self, tmp_path, monkeypatch
    ):
        """Bumping ENGINE_FINGERPRINT_VERSION must invalidate every
        cell written under the old engine (satellite regression)."""
        self.runner(tmp_path).run()
        warm = self.runner(tmp_path)
        warm.run()
        assert warm.report.cache_hits == 1
        monkeypatch.setattr(
            engine_module,
            "ENGINE_FINGERPRINT_VERSION",
            engine_module.ENGINE_FINGERPRINT_VERSION + 1,
        )
        bumped = self.runner(tmp_path)
        bumped.run()
        assert bumped.report.cache_hits == 0
        assert bumped.report.cache_misses == 1

    def test_warm_runner_matches_cold_fits(self, tmp_path):
        cold = self.runner(tmp_path)
        cold_fits = cold.run()
        assert cold.report.cache_misses == 1
        warm = self.runner(tmp_path)
        warm_fits = warm.run()
        assert warm.report.cache_hits == 1
        assert warm.report.cache_hit_rate == 1.0
        (pid,) = cold_fits
        assert warm_fits[pid].campaign == cold_fits[pid].campaign
        assert pickle.dumps(warm_fits[pid].fitted_params) == pickle.dumps(
            cold_fits[pid].fitted_params
        )

    def test_cache_refresh_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache_refresh requires"):
            CampaignRunner(("pandaboard-es",), cache_refresh=True)


class TestGuardRails:
    def test_store_rejects_preconstructed_runner(self, tmp_path):
        from repro.microbench.runner import BenchmarkRunner

        with pytest.raises(ValueError, match="preconstructed runner"):
            fit_platform(
                "pandaboard-es",
                TINY,
                runner=BenchmarkRunner(platform("pandaboard-es")),
                store=CampaignStore(tmp_path),
            )


class TestContention:
    def test_concurrent_publication_never_corrupts(self, tmp_path):
        """Many writers racing on overlapping keys: the store must end
        verifiably intact with every entry readable (last-writer-wins
        is safe because equal keys imply bit-identical payloads)."""
        store = CampaignStore(tmp_path)
        keys = [hashlib.sha1(f"k{i}".encode()).hexdigest() for i in range(4)]
        payloads = {k: ("payload", k, list(range(50))) for k in keys}

        def hammer(worker: int) -> None:
            for round_ in range(10):
                key = keys[(worker + round_) % len(keys)]
                store.put(key, payloads[key], kind="shard")

        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(hammer, w) for w in range(8)]:
                future.result()

        assert store.verify() == []
        for key in keys:
            assert store.get(key) == payloads[key]


class TestAcceptance:
    def test_warm_campaign_is_5x_faster(self, tmp_path):
        """Four platforms run cold into an empty store, then warm from
        it: the replay is bit-identical, all hits and 5x faster."""

        def run():
            runner = CampaignRunner(
                ("gtx-titan", "xeon-phi", "arndale-gpu", "nuc-gpu"),
                replace(
                    CampaignSettings(seed=2014).scaled_down(),
                    points_per_octave=1,
                ),
                cache_dir=tmp_path,
            )
            return runner.run(), runner.report

        cold_fits, cold = run()
        warm_fits, warm = run()
        assert set(warm_fits) == set(cold_fits)
        for pid in cold_fits:
            assert_same_fit(cold_fits[pid], warm_fits[pid])
        assert warm.cache_hits == 4
        assert warm.cache_misses == 0
        assert cold.cache_misses == 4
        assert cold.wall_seconds >= 5.0 * warm.wall_seconds

    def test_golden_fits_reproduce_from_warm_cache(self):
        """The warm path must land on the committed golden numbers --
        the cache can never change what a campaign computes."""
        import json
        from pathlib import Path

        golden_path = (
            Path(__file__).parent.parent / "data" / "golden_fits.json"
        )
        golden = json.loads(golden_path.read_text())
        cfg = CampaignSettings().scaled_down()

        def fit_with(store):
            return fit_platform("gtx-titan", cfg, store=store)

        import tempfile

        with tempfile.TemporaryDirectory() as d:
            store = CampaignStore(d)
            fit_with(store)
            assert store.misses == 2  # campaign + fit.
            warm = fit_with(store)
            assert store.hits == 2
        expected = golden["fits"]["gtx-titan"]
        params = warm.capped.params
        rtol = golden["_meta"]["rtol"]
        for name in (
            "tau_flop",
            "tau_mem",
            "eps_flop",
            "eps_mem",
            "pi1",
            "delta_pi",
        ):
            assert getattr(params, name) == pytest.approx(
                expected[name], rel=rtol
            )
