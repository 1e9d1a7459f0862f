"""``archline lint`` exit-code contract: 0 clean, 1 findings, 2 usage."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main as archline_main
from repro.lint.cli import main as lint_main

CLEAN = "def double(x):\n    return 2 * x\n"

DIRTY = textwrap.dedent(
    """
    def run(step):
        try:
            step()
        except:
            pass
    """
)


@pytest.fixture()
def tree(tmp_path):
    """A tiny package with one clean and one dirty module."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "dirty.py").write_text(DIRTY)
    return pkg


def test_exit_zero_on_clean_file(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN)
    assert lint_main([str(target)]) == 0
    assert "archlint: clean" in capsys.readouterr().out


def test_exit_one_on_findings(tree, capsys):
    assert lint_main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "ARCH003" in out
    assert "dirty.py" in out


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_exit_two_on_unknown_rule_code(tree, capsys):
    assert lint_main([str(tree), "--select", "ARCH999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_select_narrows_rules(tree):
    # The only violation is ARCH003; selecting a different rule is clean.
    assert lint_main([str(tree), "--select", "ARCH004"]) == 0


def test_json_format_flag(tree, capsys):
    assert lint_main([str(tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] >= 1


def test_github_format_flag(tree, capsys):
    assert lint_main([str(tree), "--format", "github"]) == 1
    assert "::error file=" in capsys.readouterr().out


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("ARCH001", "ARCH002", "ARCH003", "ARCH004", "ARCH005", "ARCH006"):
        assert code in out


def test_syntax_error_reported_as_finding(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    assert lint_main([str(bad)]) == 1
    assert "ARCH000" in capsys.readouterr().out


@pytest.mark.parametrize("mode", [[], ["--project"]], ids=["per-file", "project"])
def test_non_utf8_file_reported_as_finding(tmp_path, capsys, mode):
    # Latin-1 bytes in a string literal: not UTF-8, so not Python source.
    (tmp_path / "latin1.py").write_bytes(b'x = "\xff\xfe"\n')
    assert lint_main([str(tmp_path), *mode]) == 1
    out = capsys.readouterr().out
    assert "latin1.py:1:1: ARCH000 file does not parse" in out


def test_archline_lint_subcommand(tree, capsys):
    # The rig CLI front door dispatches to the same implementation.
    assert archline_main(["lint", str(tree)]) == 1
    assert "ARCH003" in capsys.readouterr().out
    assert archline_main(["lint", str(tree), "--select", "ARCH004"]) == 0
