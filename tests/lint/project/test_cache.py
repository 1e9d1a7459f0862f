"""The content-addressed summary cache: warm replay, invalidation."""

from __future__ import annotations

import json

from repro.lint.project import lint_project
from repro.lint.project.cache import ANALYSIS_VERSION, SummaryCache

from .conftest import build_tree

TREE = {
    "repro/microbench/campaign.py": """
        from repro.store.store import save_entry

        def run_shard(spec):
            return save_entry(spec)
        """,
    "repro/store/store.py": """
        import time

        def save_entry(spec):
            return {"created": time.time(), "spec": spec}
        """,
}


def run(tmp_path, cache_dir, **kwargs):
    return lint_project(
        [str(tmp_path / "repro")], cache_dir=cache_dir, **kwargs
    )


class TestCache:
    def test_warm_run_reanalyzes_nothing(self, tmp_path):
        build_tree(tmp_path, TREE)
        cache = tmp_path / "cache"
        cold, cold_stats = run(tmp_path, cache)
        warm, warm_stats = run(tmp_path, cache)
        assert cold_stats.analyzed == cold_stats.files > 0
        assert warm_stats.analyzed == 0
        assert warm_stats.cache_hits == warm_stats.files
        assert warm_stats.hit_rate == 1.0

    def test_warm_findings_are_identical(self, tmp_path):
        build_tree(tmp_path, TREE)
        cache = tmp_path / "cache"
        cold, _ = run(tmp_path, cache)
        warm, _ = run(tmp_path, cache)
        assert [f.to_dict() for f in cold] == [f.to_dict() for f in warm]

    def test_content_change_invalidates_one_file(self, tmp_path):
        build_tree(tmp_path, TREE)
        cache = tmp_path / "cache"
        run(tmp_path, cache)
        store = tmp_path / "repro/store/store.py"
        store.write_text(store.read_text() + "\nEXTRA = 1\n")
        _, stats = run(tmp_path, cache)
        assert stats.analyzed == 1
        assert stats.cache_hits == stats.files - 1

    def test_touch_without_change_still_hits(self, tmp_path):
        # Content-addressed, not mtime-addressed.
        build_tree(tmp_path, TREE)
        cache = tmp_path / "cache"
        run(tmp_path, cache)
        store = tmp_path / "repro/store/store.py"
        store.write_text(store.read_text())
        _, stats = run(tmp_path, cache)
        assert stats.analyzed == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        build_tree(tmp_path, TREE)
        cache = tmp_path / "cache"
        run(tmp_path, cache)
        for entry in (cache).glob("*.json"):
            entry.write_text("{not json")
        findings, stats = run(tmp_path, cache)
        assert stats.analyzed == stats.files
        assert [f.code for f in findings] == ["ARCH008"]

    def test_version_skew_reads_as_miss(self, tmp_path):
        build_tree(tmp_path, TREE)
        cache = tmp_path / "cache"
        run(tmp_path, cache)
        for entry in cache.glob("*.json"):
            payload = json.loads(entry.read_text())
            payload["version"] = ANALYSIS_VERSION + 1
            entry.write_text(json.dumps(payload))
        _, stats = run(tmp_path, cache)
        assert stats.analyzed == stats.files

    def test_cache_object_counts_hits_and_misses(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        assert cache.load("a.py", b"x = 1\n") is None
        cache.store("a.py", b"x = 1\n", {"findings": []})
        assert cache.load("a.py", b"x = 1\n") == {"findings": []}
        assert cache.load("a.py", b"x = 2\n") is None  # content moved.
        assert cache.hits == 1
        assert cache.misses == 2

    def test_parallel_jobs_match_serial(self, tmp_path):
        build_tree(tmp_path, TREE)
        serial, _ = lint_project([str(tmp_path / "repro")], jobs=1)
        parallel, _ = lint_project([str(tmp_path / "repro")], jobs=2)
        assert [f.to_dict() for f in serial] == [
            f.to_dict() for f in parallel
        ]
