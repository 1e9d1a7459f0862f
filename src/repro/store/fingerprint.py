"""Stable content fingerprints for campaign-store keys.

A cell key must satisfy one property above all others: *two inputs
that can produce different observations must never share a key*.  The
fingerprint therefore covers everything the campaign pipeline reads --
the full platform config (physics **and** second-order effects), the
campaign-size knobs, the seed, the fault plan, and the engine's
semantic version (:data:`~repro.machine.engine.ENGINE_FINGERPRINT_VERSION`)
-- and encodes it *exactly*:

* floats are hashed via ``float.hex()`` (bit-exact, no repr rounding);
* mappings are hashed in sorted key order (insertion order is an
  implementation detail, not content);
* dataclasses are hashed as ``(class name, sorted fields)`` so two
  different config types with coincidentally equal fields cannot
  collide;
* unordered collections (sets) and other surprising types are
  **rejected** rather than guessed at -- a key that silently depends on
  iteration order is a cache-corruption bug waiting to happen (the
  ARCH007 lint rule enforces the same discipline statically on the
  store's own dataclasses).

The idiom follows the lint subsystem's finding fingerprints
(:meth:`repro.lint.findings.Finding.fingerprint`): join the canonical
parts, sha1 the payload, use the hex digest as identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..machine.config import PlatformConfig

__all__ = [
    "canonical",
    "fingerprint",
    "sha1_hex",
    "engine_fingerprint_version",
    "platform_fingerprint",
    "shard_key",
    "campaign_key",
    "campaign_content_fingerprint",
    "fit_key",
]


def sha1_hex(data: bytes) -> str:
    """sha1 hex digest of raw bytes (entry-integrity checks)."""
    return hashlib.sha1(data).hexdigest()


def engine_fingerprint_version() -> int:
    """The engine's current semantic version (read at call time, so a
    monkeypatched bump in tests -- or a real bump in a commit --
    immediately changes every key built afterwards).  The engine is
    imported here, not at module top: ``repro.store`` binds this
    module eagerly, and a command that builds no key needs no engine."""
    from ..machine import engine

    return int(engine.ENGINE_FINGERPRINT_VERSION)


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-able structure.

    Raises ``TypeError`` for types without a stable canonical form
    (sets, callables, arbitrary objects) -- refusing to guess is what
    keeps equal content mapping to equal keys.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # hex() is bit-exact and total: distinct doubles (including
        # signed zeros) get distinct encodings, and nan/inf round-trip.
        return value.hex()
    if isinstance(value, np.floating):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": str(value.dtype),
            "shape": list(value.shape),
            "sha1": hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest(),
        }
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in sorted(fields(value), key=lambda f: f.name)
            },
        }
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot fingerprint mapping with non-string key "
                    f"{key!r} ({type(key).__name__})"
                )
            out[key] = canonical(value[key])
        return out
    if isinstance(value, (set, frozenset)):
        raise TypeError(
            "refusing to fingerprint an unordered collection "
            f"({type(value).__name__}); sort it into a sequence first"
        )
    if isinstance(value, Sequence):
        return [canonical(v) for v in value]
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r} value {value!r}: "
        f"no stable canonical form"
    )


def fingerprint(parts: Mapping[str, Any]) -> str:
    """sha1 hex digest of the canonical encoding of ``parts``."""
    payload = json.dumps(
        canonical(parts), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def platform_fingerprint(config: PlatformConfig) -> str:
    """Content fingerprint of one platform config.

    Covers the *entire* config -- truth physics, vendor peaks,
    second-order effects, rail/line/idle details -- so editing any
    field of one platform dirties that platform's cells and no others.
    """
    return fingerprint({"platform_config": config})


def shard_key(config: PlatformConfig, spec: Any) -> str:
    """The store key of one campaign shard (``run_shard``'s unit).

    ``spec`` is a :class:`~repro.microbench.campaign.ShardSpec`; the
    key covers its platform and every field of its campaign settings
    (seed, size, fault plan, max retries) -- and deliberately
    **excludes** ``trace`` (telemetry never perturbs results; traced
    and untraced shards are bit-identical) and the cache-control fields
    themselves.
    """
    parts = {
        "kind": "shard",
        "engine": engine_fingerprint_version(),
        "platform": platform_fingerprint(config),
        "platform_id": spec.platform_id,
        "settings": spec.settings,
    }
    assert "engine" in parts  # the engine version must key every cell.
    return fingerprint(parts)


def campaign_key(config: PlatformConfig, settings: Any) -> str:
    """The store key of one :func:`~repro.microbench.suite.run_campaign`.

    ``settings`` is a :class:`~repro.microbench.suite.CampaignSettings`;
    the key covers the platform and every settings field (seed, size,
    fault plan, max retries), as :func:`shard_key` does.  A ``None``
    and an all-zero fault plan are bit-identical in effect but distinct
    configs, so their keys differ.
    """
    parts = {
        "kind": "campaign",
        "engine": engine_fingerprint_version(),
        "platform": platform_fingerprint(config),
        "settings": settings,
    }
    assert "engine" in parts  # the engine version must key every cell.
    return fingerprint(parts)


def campaign_content_fingerprint(campaign: Any) -> str:
    """Content fingerprint of a measured campaign (the fit-cache input).

    Hashes the config plus every observation (benchmark, full kernel
    spec, measured time/energy/power, throttle flag, replicate) and the
    quarantine record, in suite order -- so a fit key addresses the
    *measurements*, not how they were produced.
    """
    obs_parts = [
        {
            "benchmark": o.benchmark,
            "kernel": o.kernel,
            "wall_time": o.wall_time,
            "energy": o.energy,
            "avg_power": o.avg_power,
            "throttled": o.throttled,
            "replicate": o.replicate,
        }
        for o in campaign.all_observations
    ]
    return fingerprint(
        {
            "platform": platform_fingerprint(campaign.config),
            "observations": obs_parts,
            "quarantined": list(campaign.quarantined),
        }
    )


def _rng_part(rng: np.random.Generator | None) -> Any:
    if rng is None:
        return None
    # bit_generator.state is a plain dict of builtins/numpy integers --
    # exactly the generator's reproducible identity.
    return canonical(
        {"state": rng.bit_generator.state}
    )


def fit_key(campaign: Any, *, rng: np.random.Generator | None) -> str:
    """The store key of one :func:`~repro.microbench.suite.fit_campaign`.

    Keyed on the campaign's *content* (not its provenance), the
    optimiser's RNG state, and the engine version.
    """
    parts = {
        "kind": "fit",
        "engine": engine_fingerprint_version(),
        "campaign": campaign_content_fingerprint(campaign),
        "rng": _rng_part(rng),
    }
    assert "engine" in parts  # the engine version must key every cell.
    return fingerprint(parts)
