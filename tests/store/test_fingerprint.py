"""Canonical encoding and cell-key construction."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

import repro.machine.engine as engine_module
from repro.faults.plan import FaultPlan
from repro.machine.platforms import platform
from repro.microbench.campaign import CampaignSettings, ShardSpec
from repro.store import (
    campaign_key,
    canonical,
    engine_fingerprint_version,
    fingerprint,
    fit_key,
    platform_fingerprint,
    shard_key,
)


class TestCanonical:
    def test_floats_encode_bit_exact(self):
        assert canonical(0.1) == (0.1).hex()
        # repr rounding would collapse these; hex() keeps them apart.
        assert canonical(0.1 + 0.2) != canonical(0.3)

    def test_signed_zeros_are_distinct(self):
        assert canonical(0.0) != canonical(-0.0)

    def test_int_and_float_do_not_collide(self):
        assert canonical(1) != canonical(1.0)

    def test_mapping_insertion_order_is_not_content(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_mapping_rejects_non_string_keys(self):
        with pytest.raises(TypeError, match="non-string key"):
            canonical({1: "x"})

    def test_rejects_sets(self):
        with pytest.raises(TypeError, match="unordered"):
            canonical({"items": {1, 2, 3}})

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError, match="no stable canonical form"):
            canonical(object())

    def test_numpy_scalars_normalise_to_python(self):
        assert canonical(np.float64(0.5)) == canonical(0.5)
        assert canonical(np.int64(7)) == canonical(7)

    def test_ndarray_hashed_by_content(self):
        a = np.arange(4.0)
        b = np.arange(4.0)
        assert canonical(a) == canonical(b)
        assert canonical(a) != canonical(a[::-1].copy())

    def test_dataclass_type_name_participates(self):
        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        assert canonical(A(1)) != canonical(B(1))
        assert canonical(A(1)) == canonical(A(1))


def spec(
    platform_id="gtx-titan",
    trace=False,
    cache_dir=None,
    cache_refresh=False,
    **settings,
) -> ShardSpec:
    return ShardSpec(
        platform_id,
        CampaignSettings(**{"seed": 7, **settings}),
        trace,
        cache_dir,
        cache_refresh,
    )


class TestShardKey:
    def test_stable_across_calls(self):
        config = platform("gtx-titan")
        assert shard_key(config, spec()) == shard_key(config, spec())

    def test_seed_changes_key(self):
        config = platform("gtx-titan")
        assert shard_key(config, spec()) != shard_key(config, spec(seed=8))

    def test_trace_and_cache_fields_do_not_change_key(self):
        """Telemetry and cache control must never dirty a cell."""
        config = platform("gtx-titan")
        base = shard_key(config, spec())
        assert base == shard_key(config, spec(trace=True))
        assert base == shard_key(
            config, spec(cache_dir="/elsewhere", cache_refresh=True)
        )

    def test_platform_config_edit_changes_key(self):
        config = platform("gtx-titan")
        edited = replace(config, idle_power=config.idle_power * 1.01)
        assert shard_key(config, spec()) != shard_key(edited, spec())
        assert platform_fingerprint(config) != platform_fingerprint(edited)

    def test_other_platforms_unaffected_by_one_edit(self):
        """Editing one platform's config dirties only its own cells."""
        titan = platform("gtx-titan")
        phi = platform("xeon-phi")
        phi_key = shard_key(phi, spec(platform_id="xeon-phi"))
        edited_titan = replace(titan, idle_power=titan.idle_power * 2)
        assert shard_key(titan, spec()) != shard_key(edited_titan, spec())
        assert phi_key == shard_key(phi, spec(platform_id="xeon-phi"))

    def test_fault_plan_changes_key(self):
        config = platform("gtx-titan")
        plan = FaultPlan(seed=3, run_failure_rate=0.1)
        assert shard_key(config, spec()) != shard_key(
            config, spec(faults=plan)
        )
        # None and the all-zero plan behave identically but are
        # distinct configurations -- distinct cells.
        assert shard_key(config, spec()) != shard_key(
            config, spec(faults=FaultPlan.zero(seed=0))
        )

    def test_engine_version_changes_key(self, monkeypatch):
        config = platform("gtx-titan")
        before = shard_key(config, spec())
        monkeypatch.setattr(
            engine_module,
            "ENGINE_FINGERPRINT_VERSION",
            engine_module.ENGINE_FINGERPRINT_VERSION + 1,
        )
        assert engine_fingerprint_version() == (
            engine_module.ENGINE_FINGERPRINT_VERSION
        )
        assert shard_key(config, spec()) != before


#: One changed value per ``CampaignSettings`` field.
CHANGED_SETTINGS = {
    "seed": 8,
    "replicates": 3,
    "points_per_octave": 4,
    "target_duration": 0.5,
    "include_double": False,
    "faults": FaultPlan(seed=3, run_failure_rate=0.1),
    "max_retries": 0,
}


class TestCampaignAndFitKeys:
    def test_campaign_key_covers_knobs(self):
        config = platform("gtx-titan")
        settings = CampaignSettings(seed=0, replicates=1, target_duration=0.1)

        def key(**overrides):
            return campaign_key(config, replace(settings, **overrides))

        assert key() == key()
        assert key() != key(seed=1)
        assert key() != key(replicates=2)
        assert key() != key(points_per_octave=2)
        assert key(faults=FaultPlan(seed=1)) == key(faults=FaultPlan(seed=1))

    @pytest.mark.parametrize("name", [f.name for f in fields(CampaignSettings)])
    def test_campaign_key_changes_with_every_settings_field(self, name):
        config = platform("gtx-titan")
        base = CampaignSettings(seed=7)
        changed = replace(base, **{name: CHANGED_SETTINGS[name]})
        assert campaign_key(config, base) != campaign_key(config, changed)

    def test_fit_key_covers_rng_state(self, quick_settings):
        from repro.machine.platforms import platform as plat
        from repro.microbench.suite import run_campaign

        campaign = run_campaign(plat("pandaboard-es"), quick_settings)
        same_a = fit_key(campaign, rng=np.random.default_rng(1))
        same_b = fit_key(campaign, rng=np.random.default_rng(1))
        assert same_a == same_b
        assert same_a != fit_key(campaign, rng=np.random.default_rng(2))
        # A consumed generator is a different optimiser input.
        rng = np.random.default_rng(1)
        rng.random()
        assert same_a != fit_key(campaign, rng=rng)
        assert same_a != fit_key(campaign, rng=None)
