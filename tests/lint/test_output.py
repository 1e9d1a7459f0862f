"""Text / JSON / GitHub-annotation rendering, with schema validation."""

from __future__ import annotations

import json
import textwrap

from repro.lint import lint_source, render
from repro.lint.output import FORMATS, render_github, render_json, render_text

MODULE = "repro.machine.fake"

DIRTY = textwrap.dedent(
    """
    import random

    def check(sigma):
        return random.random() == sigma
    """
)


def findings():
    return lint_source(DIRTY, module=MODULE, path="src/repro/machine/fake.py")


# Hand-rolled schema check: {field: (required type(s), required?)}.
_FINDING_SCHEMA = {
    "path": str,
    "line": int,
    "col": int,
    "code": str,
    "message": str,
    "rule": str,
}


def test_json_output_matches_schema():
    payload = json.loads(render_json(findings()))
    assert set(payload) == {"version", "findings", "counts", "total"}
    assert payload["version"] == 2
    assert payload["total"] == len(payload["findings"]) > 0
    assert sum(payload["counts"].values()) == payload["total"]
    for item in payload["findings"]:
        assert set(item) == set(_FINDING_SCHEMA)
        for field, typ in _FINDING_SCHEMA.items():
            assert isinstance(item[field], typ), field
        assert item["code"].startswith("ARCH")
        assert item["line"] >= 1 and item["col"] >= 0


def test_json_output_is_deterministic():
    assert render_json(findings()) == render_json(findings())


def test_text_output_lists_findings_and_summary():
    text = render_text(findings())
    assert "src/repro/machine/fake.py:" in text
    assert "ARCH001" in text
    assert "archlint:" in text.splitlines()[-1]


def test_text_output_clean():
    assert render_text([]) == "archlint: clean"


def test_github_annotations_format():
    *annotations, summary = render_github(findings()).splitlines()
    assert annotations, "expected at least one annotation"
    for line in annotations:
        assert line.startswith("::error ")
        assert "file=src/repro/machine/fake.py" in line
        assert line.split(",title=")[1].startswith("ARCH")
    assert summary.startswith("archlint:")


def test_github_escapes_newlines_and_percent():
    from repro.lint.findings import Finding

    finding = Finding(
        path="f.py",
        line=1,
        col=0,
        code="ARCH999",
        message="100% bad\nsecond line",
        rule="fake",
    )
    annotation = render_github([finding]).splitlines()[0]
    assert "%25" in annotation and "%0A" in annotation


def test_render_dispatch_covers_all_formats():
    for fmt in FORMATS:
        assert isinstance(render(findings(), fmt), str)
