"""CLI surface of the project mode: --project/--jobs/--cache,
--include-tests, --changed, and the flag-combination contract."""

from __future__ import annotations

import json
import subprocess
import textwrap

import pytest

from repro.lint.cli import main as lint_main

from .conftest import build_tree

DIRTY_TREE = {
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


@pytest.fixture()
def dirty(tmp_path):
    build_tree(tmp_path, DIRTY_TREE)
    return tmp_path / "repro"


class TestProjectFlag:
    def test_project_mode_finds_cross_module_violation(self, dirty, capsys):
        assert lint_main([str(dirty)]) == 0  # per-file mode: clean.
        capsys.readouterr()
        assert lint_main([str(dirty), "--project"]) == 1
        captured = capsys.readouterr()
        assert "ARCH008" in captured.out
        assert "archlint project:" in captured.err

    def test_stats_line_reports_cache_hits(self, dirty, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert lint_main([str(dirty), "--project", "--cache", cache]) == 1
        assert "cache_hits=0" in capsys.readouterr().err
        assert lint_main([str(dirty), "--project", "--cache", cache]) == 1
        err = capsys.readouterr().err
        assert "analyzed=0" in err
        assert "hit_rate=1.00" in err

    def test_cold_and_warm_json_are_identical(self, dirty, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = [str(dirty), "--project", "--cache", cache, "--format", "json"]
        lint_main(args)
        cold = capsys.readouterr().out
        lint_main(args)
        warm = capsys.readouterr().out
        assert cold == warm
        assert json.loads(cold)["total"] == 1

    def test_jobs_flag(self, dirty, capsys):
        assert lint_main([str(dirty), "--project", "--jobs", "2"]) == 1
        assert "jobs=2" in capsys.readouterr().err

    def test_select_project_rule_only(self, dirty, capsys):
        assert (
            lint_main([str(dirty), "--project", "--select", "ARCH011"]) == 0
        )

    def test_list_rules_includes_project_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("ARCH008", "ARCH009", "ARCH010", "ARCH011"):
            assert code in out
        assert "[project]" in out


class TestFlagContract:
    def test_jobs_without_project_is_usage_error(self, dirty, capsys):
        assert lint_main([str(dirty), "--jobs", "2"]) == 2
        assert "--project" in capsys.readouterr().err

    def test_cache_without_project_is_usage_error(self, dirty, capsys):
        assert lint_main([str(dirty), "--cache", "/tmp/x"]) == 2

    def test_zero_jobs_is_usage_error(self, dirty, capsys):
        assert lint_main([str(dirty), "--project", "--jobs", "0"]) == 2

    def test_changed_with_project_is_usage_error(self, dirty, capsys):
        assert lint_main([str(dirty), "--project", "--changed"]) == 2


class TestIncludeTests:
    def test_relaxed_pass_over_tests_dir(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "src"
        (src).mkdir()
        (src / "clean.py").write_text("def f(x):\n    return x\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "helper.py").write_text(
            textwrap.dedent(
                """
                def run(step):
                    try:
                        step()
                    except:
                        pass
                """
            )
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src"]) == 0
        capsys.readouterr()
        assert lint_main(["src", "--include-tests"]) == 1
        out = capsys.readouterr().out
        assert "ARCH003" in out
        assert "helper.py" in out

    def test_telemetry_rule_not_in_relaxed_subset(
        self, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        (src / "clean.py").write_text("X = 1\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        # A span-site recorder parameter without a NULL_RECORDER
        # default would trip ARCH006 in src; test doubles are exempt.
        (tests / "fake.py").write_text(
            "def probe(recorder):\n    return recorder\n"
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src", "--include-tests"]) == 0


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


class TestChanged:
    def test_changed_limits_to_worktree_diff(
        self, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        committed = src / "dirty_committed.py"
        committed.write_text(
            "def run(step):\n    try:\n        step()\n"
            "    except:\n        pass\n"
        )
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        monkeypatch.chdir(tmp_path)
        # Nothing changed: clean exit without linting the dirty file.
        assert lint_main(["src", "--changed"]) == 0
        assert "no changed files" in capsys.readouterr().err
        # An untracked dirty file is picked up.
        (src / "fresh.py").write_text(
            "def run(step):\n    try:\n        step()\n"
            "    except:\n        pass\n"
        )
        assert lint_main(["src", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "dirty_committed.py" not in out

    def test_changed_outside_git_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("X = 1\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nonexistent"))
        assert lint_main(["src", "--changed"]) == 2
        assert "git" in capsys.readouterr().err
