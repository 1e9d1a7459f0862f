"""Content-addressed observation/fit cache for incremental campaigns.

Campaigns are deterministic functions of their inputs -- platform
config, campaign-size knobs, seed, fault plan, engine version.  This
package keys each campaign cell on a sha1 fingerprint of exactly those
inputs (:mod:`repro.store.fingerprint`) and caches the computed results
on disk (:mod:`repro.store.store`), so re-running a campaign after
editing one platform recomputes only that platform's cells and replays
the rest bit-identically from the store.  See ``docs/CACHE.md`` for the
key schema, invalidation rules, atomicity guarantees and maintenance
commands (``archline cache stats|gc|verify``).
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".atomic": ("atomic_write_bytes", "atomic_write_text"),
        ".fingerprint": (
            "campaign_content_fingerprint",
            "campaign_key",
            "canonical",
            "engine_fingerprint_version",
            "fingerprint",
            "fit_key",
            "platform_fingerprint",
            "shard_key",
        ),
        ".store": ("CampaignStore", "GcResult", "StoreEntryInfo", "StoreStats"),
    },
)

# ``fingerprint`` names both a function and the submodule defining it.
# Importing a submodule sets it as a package attribute, which would
# shadow a lazily bound function; bound here, the function wins, as it
# did when every export was eager.
from .fingerprint import fingerprint  # noqa: E402
