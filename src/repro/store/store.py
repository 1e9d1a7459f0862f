"""The content-addressed on-disk campaign store.

Layout: one file per entry under ``<root>/objects/<k[:2]>/<k[2:]>.entry``
where ``k`` is the 40-hex-digit cell key (:mod:`repro.store.fingerprint`).
An entry file is::

    <one JSON header line>\\n<raw pickle payload bytes>

The header carries everything ``stats`` and ``gc`` need (kind,
platform, engine version, payload sha1/size, creation time), so they
read header lines only; the payload holds the cached object itself,
pickled.  ``get`` and ``verify`` read whole entries through one
checker, so a lookup evicts every readable entry ``verify`` would
name, plus those of another kind or engine version.  A shard entry is the
``(FittedPlatform, ShardReport)`` pair that
:func:`~repro.microbench.campaign.run_shard` returns, whose types
archlint holds to frozen, picklable dataclasses (ARCH002, ARCH011).

Guarantees
----------
* **Atomic publish.**  Entries are written to a same-directory temp
  file and ``os.replace``d into place
  (:func:`repro.store.atomic.atomic_write_bytes`): a reader sees a
  complete entry or none, and a crash mid-write never corrupts the
  store.
* **Last-writer-wins.**  Concurrent shards computing the same key each
  publish a complete entry; whichever rename lands last stays.  Safe
  because equal keys imply bit-identical payloads by construction.
* **Fail-stale, never fail-wrong.**  A corrupt, truncated, foreign or
  version-mismatched entry is counted ``stale``, evicted, and treated
  as a miss -- the cell recomputes.  The store never returns bytes it
  cannot prove belong to the requested key.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .atomic import atomic_write_bytes
from .fingerprint import engine_fingerprint_version, sha1_hex

__all__ = ["StoreEntryInfo", "StoreStats", "GcResult", "CampaignStore"]

#: On-disk entry format version (bump on incompatible layout changes;
#: old-schema entries are evicted as stale, never misread).
STORE_SCHEMA = 1

_KEY_LEN = 40  # sha1 hex digest.


def _is_key(key: object) -> bool:
    return (
        isinstance(key, str)
        and len(key) == _KEY_LEN
        and all(c in "0123456789abcdef" for c in key)
    )


@dataclass(frozen=True)
class StoreEntryInfo:
    """One entry's header, as read by the maintenance commands."""

    key: str
    kind: str  #: "shard" | "campaign" | "fit".
    platform: str  #: platform id/name, informational.
    engine_version: int
    created: float  #: unix timestamp of publication.
    payload_bytes: int
    path: str


@dataclass(frozen=True)
class StoreStats:
    """Aggregate of one store directory (``archline cache stats``)."""

    root: str
    entries: int
    payload_bytes: int
    by_kind: dict[str, int] = field(default_factory=dict)
    by_engine_version: dict[str, int] = field(default_factory=dict)
    platforms: tuple[str, ...] = ()
    stale_engine_entries: int = 0  #: entries from other engine versions.

    def describe(self) -> str:
        lines = [
            f"store {self.root}: {self.entries} entries, "
            f"{self.payload_bytes / 1024:.1f} KiB payload",
        ]
        for kind in sorted(self.by_kind):
            lines.append(f"  kind {kind}: {self.by_kind[kind]}")
        for version in sorted(self.by_engine_version):
            lines.append(
                f"  engine v{version}: {self.by_engine_version[version]}"
            )
        if self.platforms:
            lines.append(f"  platforms: {', '.join(self.platforms)}")
        if self.stale_engine_entries:
            lines.append(
                f"  {self.stale_engine_entries} entries from other engine "
                f"versions (reclaim with 'archline cache gc')"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class GcResult:
    """Outcome of one ``gc`` pass."""

    removed: int
    kept: int
    reclaimed_bytes: int

    def describe(self) -> str:
        return (
            f"removed {self.removed} entries "
            f"({self.reclaimed_bytes / 1024:.1f} KiB), kept {self.kept}"
        )


class CampaignStore:
    """Content-addressed cache of campaign cells and fitted parameters.

    One instance per process/shard is the intended usage -- instances
    share nothing but the directory, and every cross-process interaction
    happens through atomic whole-file publication, so any number of
    concurrent processes may read and write one store safely.

    Counters (``hits``/``misses``/``stale``/``puts``) account for this
    instance's lookups only; campaign shards ship them back inside
    :class:`~repro.microbench.campaign.ShardReport`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stale = 0  #: corrupt/foreign entries evicted on lookup.
        self.puts = 0

    # -- keyed access ---------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        if not _is_key(key):
            raise ValueError(f"malformed store key {key!r}")
        return self.root / "objects" / key[:2] / f"{key[2:]}.entry"

    def get(self, key: str, *, kind: str | None = None) -> Any | None:
        """Return the cached payload for ``key``, or ``None``.

        A missing or unreadable file is a miss; a corrupt, mismatched
        or stale-engine entry is evicted, counted on :attr:`stale`, and
        reported as a miss -- the caller recomputes either way.
        """
        path = self._entry_path(key)
        try:
            header, payload = self._read_entry(path)
        except OSError:
            self.misses += 1
            return None
        # The engine version participates in every key, so a mismatch
        # here means a broken key builder -- evict rather than serve.
        if (
            isinstance(header, str)
            or (kind is not None and header.get("kind") != kind)
            or header.get("engine_version") != engine_fingerprint_version()
        ):
            self.stale += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return payload

    def _check_header(self, line: bytes, path: Path) -> dict[str, Any] | str:
        """The header line of the entry file at ``path``, parsed, or the
        problem that makes it unusable."""
        try:
            header = json.loads(line)
        except ValueError:
            return "header is not JSON"
        if not isinstance(header, dict):
            return "header is not a JSON object"
        if header.get("schema") != STORE_SCHEMA:
            return f"unsupported schema {header.get('schema')!r}"
        key = header.get("key")
        if not _is_key(key) or self._entry_path(key) != path:
            return f"key {key!r} does not address this path"
        return header

    def _read_entry(self, path: Path) -> tuple[dict[str, Any] | str, Any]:
        """Read and check the entry file at ``path``: its header and
        unpickled payload, or the problem found and ``None``.

        The one reader of entry files, for both :meth:`get` and
        :meth:`verify`; raises ``OSError`` when the file cannot be read.
        """
        header_line, sep, body = path.read_bytes().partition(b"\n")
        if not sep:
            return "no header line", None
        header = self._check_header(header_line, path)
        if isinstance(header, str):
            return header, None
        if header.get("payload_bytes") != len(body):
            return (
                f"payload is {len(body)} bytes, header says "
                f"{header.get('payload_bytes')!r} (truncated write?)"
            ), None
        if header.get("payload_sha1") != sha1_hex(body):
            return "payload sha1 mismatch (corrupt body)", None
        try:
            return header, pickle.loads(body)
        # The sha1 already matched, so a failure here is code drift (a
        # payload class moved or changed shape), not file corruption --
        # still a problem: get evicts it and the cell recomputes.
        except Exception as err:
            return (
                f"payload does not unpickle ({type(err).__name__}: {err})"
            ), None

    def put(
        self,
        key: str,
        payload: Any,
        *,
        kind: str,
        platform: str = "",
    ) -> Path:
        """Publish ``payload`` under ``key`` (atomic, last-writer-wins)."""
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "schema": STORE_SCHEMA,
            "key": key,
            "kind": kind,
            "platform": platform,
            "engine_version": engine_fingerprint_version(),
            # Deliberately wall-clock: ``created`` is gc-age metadata
            # (compared against file mtimes at sweep time), never part
            # of the content key or any measurement.
            # archlint: disable=ARCH008
            "created": time.time(),
            "payload_sha1": sha1_hex(body),
            "payload_bytes": len(body),
        }
        raw = json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + body
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, raw)
        self.puts += 1
        return path

    # -- maintenance ----------------------------------------------------

    def _entry_files(self) -> Iterator[Path]:
        yield from sorted((self.root / "objects").glob("??/*.entry"))

    def entries(self) -> Iterator[StoreEntryInfo]:
        """Iterate every readable entry header (corrupt files skipped;
        ``verify`` is the command that names them)."""
        for path in self._entry_files():
            header = self._read_header(path)
            if header is not None:
                yield header

    def _read_header(self, path: Path) -> StoreEntryInfo | None:
        try:
            with open(path, "rb") as fh:
                header = self._check_header(fh.readline(), path)
            if isinstance(header, str):
                return None
            return StoreEntryInfo(
                key=str(header["key"]),
                kind=str(header["kind"]),
                platform=str(header.get("platform", "")),
                engine_version=int(header["engine_version"]),
                created=float(header["created"]),
                payload_bytes=int(header["payload_bytes"]),
                path=str(path),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def stats(self) -> StoreStats:
        by_kind: dict[str, int] = {}
        by_version: dict[str, int] = {}
        platforms: set[str] = set()
        entries = 0
        payload_bytes = 0
        stale_engine = 0
        current = engine_fingerprint_version()
        for info in self.entries():
            entries += 1
            payload_bytes += info.payload_bytes
            by_kind[info.kind] = by_kind.get(info.kind, 0) + 1
            version = str(info.engine_version)
            by_version[version] = by_version.get(version, 0) + 1
            if info.engine_version != current:
                stale_engine += 1
            if info.platform:
                platforms.add(info.platform)
        return StoreStats(
            root=str(self.root),
            entries=entries,
            payload_bytes=payload_bytes,
            by_kind=by_kind,
            by_engine_version=by_version,
            platforms=tuple(sorted(platforms)),
            stale_engine_entries=stale_engine,
        )

    def gc(self, *, max_age_seconds: float | None = None) -> GcResult:
        """Reclaim dead entries.

        Always removes entries published under a different engine
        version (their keys can never be looked up again) and files too
        corrupt to carry a header; ``max_age_seconds`` additionally
        retires entries older than that age.
        """
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ValueError("max_age_seconds must be non-negative")
        now = time.time()
        current = engine_fingerprint_version()
        removed = kept = reclaimed = 0
        for path in self._entry_files():
            info = self._read_header(path)
            dead = (
                info is None
                or info.engine_version != current
                or (
                    max_age_seconds is not None
                    and now - info.created > max_age_seconds
                )
            )
            if not dead:
                kept += 1
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                kept += 1
                continue
            removed += 1
            reclaimed += size
        return GcResult(removed=removed, kept=kept, reclaimed_bytes=reclaimed)

    def verify(self, *, delete: bool = False) -> list[str]:
        """Integrity-check every entry; return problem descriptions.

        Each entry must parse, sit at the path its key addresses, match
        its recorded payload size and sha1, and unpickle.  ``delete``
        evicts the failures.
        """
        problems: list[str] = []
        for path in self._entry_files():
            try:
                found, _ = self._read_entry(path)
            except OSError as err:
                found = f"unreadable ({err})"
            if not isinstance(found, str):
                continue
            problems.append(f"{path}: {found}")
            if delete:
                try:
                    path.unlink()
                except OSError:
                    pass
        return problems
