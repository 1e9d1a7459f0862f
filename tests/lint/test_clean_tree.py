"""The shipped source tree must lint clean.

Every real violation was either fixed or carries an inline justified
suppression, so ``archline lint src/`` reports nothing.  If a future
change introduces a violation, this test fails alongside CI.
"""

from __future__ import annotations

import pathlib

from repro.lint import lint_paths
from repro.lint.project import lint_project

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_src_tree_is_archlint_clean():
    findings = lint_paths([REPO_ROOT / "src"])
    assert findings == [], "\n".join(f.render_text() for f in findings)


def test_src_tree_is_archlint_clean_in_project_mode():
    """The whole-program rules (ARCH008-011) also hold on the shipped
    tree: every real cross-module violation was fixed or carries an
    inline justified suppression."""
    findings, stats = lint_project([str(REPO_ROOT / "src")])
    assert findings == [], "\n".join(f.render_text() for f in findings)
    assert stats.files > 100  # the whole tree was actually analyzed.


def test_tests_and_benchmarks_pass_relaxed_subset():
    from repro.lint.cli import RELAXED_TEST_CODES

    findings = lint_paths(
        [REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
        list(RELAXED_TEST_CODES),
    )
    assert findings == [], "\n".join(f.render_text() for f in findings)
