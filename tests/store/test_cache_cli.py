"""``archline cache`` and the campaign ``--cache`` flags."""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.store import CampaignStore
from repro.store.cli import CACHE_DIR_ENV

KEY = hashlib.sha1(b"cli-entry").hexdigest()


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """Tests control the cache dir explicitly; ignore the user's env."""
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)


class TestCacheSubcommand:
    def test_stats(self, tmp_path, capsys):
        CampaignStore(tmp_path).put(KEY, "x", kind="shard")
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "1 entries" in capsys.readouterr().out

    def test_no_dir_anywhere_is_usage_error(self, capsys):
        assert main(["cache", "stats"]) == 2
        assert CACHE_DIR_ENV in capsys.readouterr().err

    def test_env_var_supplies_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        CampaignStore(tmp_path).put(KEY, "x", kind="fit")
        assert main(["cache", "stats"]) == 0
        assert "1 entries" in capsys.readouterr().out

    def test_verify_clean_store(self, tmp_path, capsys):
        CampaignStore(tmp_path).put(KEY, "x", kind="shard")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert "all entries verify" in capsys.readouterr().out

    def test_verify_reports_corruption(self, tmp_path, capsys):
        path = CampaignStore(tmp_path).put(KEY, "x", kind="shard")
        path.write_bytes(b"garbage")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_gc(self, tmp_path, capsys):
        CampaignStore(tmp_path).put(KEY, "x", kind="shard")
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out

    def test_gc_bad_age(self, tmp_path, capsys):
        # The shared strict validator now rejects this at parse time
        # (argparse exits 2) instead of deep in the gc handler.
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "cache",
                    "gc",
                    "--dir",
                    str(tmp_path),
                    "--max-age-days",
                    "-1",
                ]
            )
        assert err.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_gc_rejects_nan_age(self, tmp_path, capsys):
        # Pre-fix, type=float accepted "nan", and a NaN age compares
        # false against every mtime -- gc would silently keep all.
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "cache",
                    "gc",
                    "--dir",
                    str(tmp_path),
                    "--max-age-days",
                    "nan",
                ]
            )
        assert err.value.code == 2
        assert "finite" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["stats", "gc", "verify"])
    @pytest.mark.parametrize("target", ["missing", "file"])
    def test_path_without_a_store_is_usage_error(
        self, tmp_path, capsys, command, target
    ):
        """A mistyped --dir is refused, and nothing is created there."""
        path = tmp_path / "typo"
        if target == "file":
            path.write_text("not a store")
        assert main(["cache", command, "--dir", str(path)]) == 2
        assert f"no store at {path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == ([path] if target == "file" else [])


class TestCampaignFlags:
    def test_cache_and_no_cache_conflict(self, tmp_path, capsys):
        argv = [
            "campaign",
            "pandaboard-es",
            "--quick",
            "--cache",
            str(tmp_path),
            "--no-cache",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "archline campaign: --cache and --no-cache are mutually" in err

    def test_refresh_needs_a_cache(self, capsys):
        assert main(["campaign", "pandaboard-es", "--quick", "--refresh"]) == 2
        err = capsys.readouterr().err
        assert "archline campaign: --refresh needs a cache" in err

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_unusable_cache_path_is_usage_error(
        self, tmp_path, capsys, where
    ):
        """Refused before any shard runs, instead of every shard
        failing with NotADirectoryError and the campaign exiting 0."""
        afile = tmp_path / "README.md"
        afile.write_text("not a store")
        path = afile if where == "file" else afile / "cache"
        argv = ["campaign", "pandaboard-es", "--quick", "--cache", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("archline campaign: ") and str(path) in err

    def test_cold_then_warm_run(self, tmp_path, capsys):
        argv = [
            "campaign",
            "pandaboard-es",
            "--quick",
            "--workers",
            "1",
            "--cache",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 misses" in cold and "0 hits" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 hits" in warm and "0 misses" in warm
        assert "hit rate 100" in warm

    def test_refresh_recomputes(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = [
            "campaign",
            "pandaboard-es",
            "--quick",
            "--workers",
            "1",
            "--cache",
            cache,
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main([*base, "--refresh"]) == 0
        out = capsys.readouterr().out
        assert "0 hits" in out and "1 misses" in out
