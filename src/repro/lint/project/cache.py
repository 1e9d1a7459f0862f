"""Content-addressed per-file summary cache for ``--project`` runs.

One JSON entry per source file, named by
:func:`repro.store.fingerprint.fingerprint` over the file's path and
the analysis version, holding the sha1 of the source bytes it was
computed from plus the full per-file payload (findings, module
summary, suppressions).  A warm run re-reads the source, compares the
content hash, and replays the payload without parsing -- the same
discipline as the campaign store: the *content* is the key, mtimes are
never trusted.

Entries are published with :func:`repro.store.atomic.atomic_write_text`
so a crashed or concurrent run can never leave a truncated entry; a
corrupt or version-skewed entry reads as a miss and is overwritten.
"""

from __future__ import annotations

import json
from pathlib import Path

from ...store.atomic import atomic_write_text
from ...store.fingerprint import fingerprint, sha1_hex

__all__ = ["ANALYSIS_VERSION", "SummaryCache"]

#: Bump whenever the summary IR, the per-file rules, or the finding
#: payload schema changes shape -- stale entries then miss on version
#: instead of replaying wrong analysis.
ANALYSIS_VERSION = 2


class SummaryCache:
    """Load/store per-file analysis payloads keyed on content."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _entry_path(self, path: str) -> Path:
        name = fingerprint({"path": path, "version": ANALYSIS_VERSION})
        return self.root / f"{name}.json"

    def load(self, path: str, source_bytes: bytes) -> dict | None:
        """The cached payload for ``path`` iff it still matches the
        given source bytes; ``None`` (a miss) otherwise."""
        entry = self._entry_path(path)
        try:
            raw = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            return None
        if (
            not isinstance(raw, dict)
            or raw.get("version") != ANALYSIS_VERSION
            or raw.get("content") != sha1_hex(source_bytes)
        ):
            self.misses += 1
            return None
        payload = raw.get("payload")
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, path: str, source_bytes: bytes, payload: dict) -> None:
        """Publish a freshly computed payload for ``path``."""
        entry = {
            "version": ANALYSIS_VERSION,
            "path": path,
            "content": sha1_hex(source_bytes),
            "payload": payload,
        }
        atomic_write_text(
            self._entry_path(path),
            json.dumps(entry, sort_keys=True, indent=None),
        )
