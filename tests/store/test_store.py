"""CampaignStore: round-trips, atomicity, eviction, maintenance."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro.machine.engine as engine_module
import repro.store.atomic as atomic_module
from repro.cli import main
from repro.store import CampaignStore, atomic_write_bytes

KEY = hashlib.sha1(b"cell-one").hexdigest()
OTHER = hashlib.sha1(b"cell-two").hexdigest()


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "cache")


class TestRoundTrip:
    def test_put_then_get(self, store):
        payload = {"observations": [1.5, 2.5], "name": "titan"}
        store.put(KEY, payload, kind="shard", platform="gtx-titan")
        assert store.get(KEY, kind="shard") == payload
        assert (store.hits, store.misses, store.puts) == (1, 0, 1)

    def test_missing_key_is_a_miss(self, store):
        assert store.get(KEY) is None
        assert (store.hits, store.misses, store.stale) == (0, 1, 0)

    def test_keys_are_independent(self, store):
        store.put(KEY, "a", kind="shard")
        store.put(OTHER, "b", kind="shard")
        assert store.get(KEY) == "a"
        assert store.get(OTHER) == "b"

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ValueError, match="malformed store key"):
            store.get("not-a-sha1")
        with pytest.raises(ValueError, match="malformed store key"):
            store.put("ABC", 1, kind="shard")  # uppercase/short

    def test_last_writer_wins(self, store):
        """Equal keys imply equal payloads; a republish is harmless."""
        store.put(KEY, "payload", kind="shard")
        store.put(KEY, "payload", kind="shard")
        assert store.get(KEY) == "payload"
        assert store.stats().entries == 1


class TestFailStale:
    def test_kind_mismatch_evicts(self, store):
        store.put(KEY, "campaign-payload", kind="campaign")
        assert store.get(KEY, kind="fit") is None
        assert store.stale == 1
        # Evicted: the entry is gone even for the right kind.
        assert store.get(KEY, kind="campaign") is None
        assert store.misses == 1

    def test_truncated_entry_evicts(self, store):
        path = store.put(KEY, list(range(100)), kind="shard")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.get(KEY) is None
        assert store.stale == 1
        assert not path.exists()

    def test_tampered_payload_evicts(self, store):
        path = store.put(KEY, "honest", kind="shard")
        header, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n" + b"x" * len(body))
        assert store.get(KEY) is None
        assert store.stale == 1

    def test_garbage_header_evicts(self, store):
        path = store.put(KEY, 1, kind="shard")
        path.write_bytes(b"not json\n" + b"body")
        assert store.get(KEY) is None
        assert store.stale == 1

    def test_foreign_engine_version_evicts(self, store, monkeypatch):
        store.put(KEY, "old-world", kind="shard")
        monkeypatch.setattr(
            engine_module,
            "ENGINE_FINGERPRINT_VERSION",
            engine_module.ENGINE_FINGERPRINT_VERSION + 1,
        )
        assert store.get(KEY) is None
        assert store.stale == 1


def _rewrite(header=None, body=None):
    """An entry corruption that rewrites the header fields or the body
    of a good entry, leaving the rest as ``put`` wrote it."""

    def corrupt(raw_header, raw_body):
        fields = {**json.loads(raw_header), **(header or {})}
        return (
            json.dumps(fields).encode()
            + b"\n"
            + (raw_body if body is None else body(raw_body))
        )

    return corrupt


def _unpicklable_body(raw_header, raw_body):
    """Bytes that are not a pickle, under a header whose size and sha1
    match them: what a moved payload class looks like to the store."""
    body = b"not a pickle"
    fields = {
        **json.loads(raw_header),
        "payload_sha1": hashlib.sha1(body).hexdigest(),
        "payload_bytes": len(body),
    }
    return json.dumps(fields).encode() + b"\n" + body


#: Ways an entry file can be unusable; ``corrupt(header, body)`` turns a
#: good entry's header line and payload into the bytes of a bad one.
CORRUPT_ENTRIES = {
    "no-newline": lambda header, body: b"junk with no header separator",
    "header-not-json": lambda header, body: b"not json\n" + body,
    "header-json-array": lambda header, body: b'["schema", 1]\n' + body,
    "wrong-schema": _rewrite({"schema": 99}),
    "key-not-hex": _rewrite({"key": "not-a-sha1"}),
    "key-of-other-path": _rewrite({"key": OTHER}),
    "short-payload": _rewrite(body=lambda body: body[:-1]),
    "sha1-mismatch": _rewrite(body=lambda body: b"?" * len(body)),
    "sha1-ok-no-unpickle": _unpicklable_body,
}
#: Entries that are intact on disk but that a lookup must not serve:
#: ``verify`` passes them, ``get`` evicts them.
UNSERVABLE_ENTRIES = {
    "kind-mismatch": _rewrite({"kind": "fit"}),
    "foreign-engine-version": _rewrite({"engine_version": -1}),
}


def _corrupted(store, corrupt):
    path = store.put(KEY, {"fit": [1.5, 2.5]}, kind="shard")
    header, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(corrupt(header, body))
    return path


class TestCorruptEntries:
    """One table of bad entries, read through both ``get`` and
    ``verify``: a lookup evicts what verify names, and neither raises."""

    @pytest.mark.parametrize(
        "corrupt",
        [*CORRUPT_ENTRIES.values(), *UNSERVABLE_ENTRIES.values()],
        ids=[*CORRUPT_ENTRIES, *UNSERVABLE_ENTRIES],
    )
    def test_get_evicts_as_stale(self, store, corrupt):
        path = _corrupted(store, corrupt)
        assert store.get(KEY, kind="shard") is None
        assert (store.hits, store.misses, store.stale) == (0, 0, 1)
        assert not path.exists()

    @pytest.mark.parametrize(
        "corrupt", CORRUPT_ENTRIES.values(), ids=list(CORRUPT_ENTRIES)
    )
    def test_verify_names_the_entry(self, store, corrupt, capsys):
        path = _corrupted(store, corrupt)
        [problem] = store.verify()
        assert problem.startswith(f"{path}: ")
        assert main(["cache", "verify", "--dir", str(store.root)]) == 1
        assert f"{path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt", UNSERVABLE_ENTRIES.values(), ids=list(UNSERVABLE_ENTRIES)
    )
    def test_verify_passes_intact_entries(self, store, corrupt):
        _corrupted(store, corrupt)
        assert store.verify() == []


class TestAtomicWrite:
    def test_failed_replace_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "data.bin"
        target.write_bytes(b"original")

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic_module.os, "replace", explode)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(target, b"partial garbage")
        assert target.read_bytes() == b"original"
        # The temp file was cleaned up, not leaked.
        assert list(tmp_path.iterdir()) == [target]

    def test_interrupted_write_never_registers_entry(
        self, store, monkeypatch
    ):
        store.put(KEY, "good", kind="shard")

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic_module.os, "replace", explode)
        with pytest.raises(OSError):
            store.put(KEY, "good", kind="shard")
        monkeypatch.undo()
        assert store.get(KEY) == "good"  # old entry intact.
        assert store.verify() == []


class TestMaintenance:
    def test_stats(self, store):
        store.put(KEY, "a" * 100, kind="shard", platform="gtx-titan")
        store.put(OTHER, "b", kind="fit", platform="xeon-phi")
        stats = store.stats()
        assert stats.entries == 2
        assert stats.by_kind == {"shard": 1, "fit": 1}
        assert stats.platforms == ("gtx-titan", "xeon-phi")
        assert stats.stale_engine_entries == 0
        assert stats.payload_bytes > 100
        assert "2 entries" in stats.describe()

    def test_gc_reclaims_foreign_engine_entries(self, store, monkeypatch):
        store.put(KEY, "old", kind="shard")
        monkeypatch.setattr(
            engine_module,
            "ENGINE_FINGERPRINT_VERSION",
            engine_module.ENGINE_FINGERPRINT_VERSION + 1,
        )
        store.put(OTHER, "new", kind="shard")
        assert store.stats().stale_engine_entries == 1
        result = store.gc()
        assert (result.removed, result.kept) == (1, 1)
        assert result.reclaimed_bytes > 0
        assert store.get(OTHER) == "new"

    def test_gc_max_age(self, store):
        path = store.put(KEY, "ancient", kind="shard")
        header, _, body = path.read_bytes().partition(b"\n")
        obj = json.loads(header)
        obj["created"] -= 1e6
        path.write_bytes(json.dumps(obj).encode() + b"\n" + body)
        store.put(OTHER, "fresh", kind="shard")
        result = store.gc(max_age_seconds=3600.0)
        assert (result.removed, result.kept) == (1, 1)

    def test_gc_rejects_negative_age(self, store):
        with pytest.raises(ValueError, match="non-negative"):
            store.gc(max_age_seconds=-1.0)

    def test_verify_clean(self, store):
        store.put(KEY, list(range(10)), kind="shard")
        assert store.verify() == []

    def test_verify_names_corruption(self, store):
        path = store.put(KEY, "x", kind="shard")
        header, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n" + b"?" * len(body))
        problems = store.verify()
        assert len(problems) == 1
        assert "sha1 mismatch" in problems[0]
        assert path.exists()  # verify without delete reports only.

    def test_verify_detects_misplaced_entry(self, store):
        path = store.put(KEY, "x", kind="shard")
        wrong = store._entry_path(OTHER)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        os.rename(path, wrong)
        problems = store.verify()
        assert len(problems) == 1
        assert "does not address this path" in problems[0]

    def test_verify_delete_evicts(self, store):
        path = store.put(KEY, "x", kind="shard")
        path.write_bytes(b"junk with no header separator")
        problems = store.verify(delete=True)
        assert len(problems) == 1
        assert not path.exists()
        assert store.stats().entries == 0
