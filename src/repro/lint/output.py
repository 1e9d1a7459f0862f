"""Finding renderers: human text, machine JSON, GitHub annotations.

The JSON schema (validated by ``tests/lint``) is::

    {
      "version": 1,
      "findings": [
        {"path": str, "line": int, "col": int, "code": str,
         "severity": "error"|"warning", "message": str, "rule": str,
         "fingerprint": str},
        ...
      ],
      "counts": {"ARCH004": 3, ...},
      "total": int
    }

The GitHub mode emits one ``::error``/``::warning`` workflow command
per finding, which the Actions runner turns into inline PR annotations.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from .baseline import assign_fingerprints
from .findings import Finding, Severity
from .options import FORMATS

JSON_VERSION = 1


def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "archlint: clean"
    lines = [finding.render_text() for finding in findings]
    counts = Counter(finding.code for finding in findings)
    summary = ", ".join(
        f"{code} x{count}" for code, count in sorted(counts.items())
    )
    lines.append(
        f"archlint: {len(findings)} finding"
        f"{'s' if len(findings) != 1 else ''} ({summary})"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    entries = []
    for finding, fingerprint in assign_fingerprints(findings):
        entry = finding.to_dict()
        entry["fingerprint"] = fingerprint
        entries.append(entry)
    payload = {
        "version": JSON_VERSION,
        "findings": entries,
        "counts": dict(
            sorted(Counter(f.code for f in findings).items())
        ),
        "total": len(findings),
    }
    return json.dumps(payload, indent=2)


def _escape_github(value: str) -> str:
    """Escape data for a GitHub workflow-command message."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(findings: Sequence[Finding]) -> str:
    """``::error file=...`` workflow commands, one per finding."""
    lines = []
    for finding in findings:
        level = "error" if finding.severity is Severity.ERROR else "warning"
        lines.append(
            f"::{level} file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title={finding.code}::"
            f"{_escape_github(finding.message)}"
        )
    lines.append(
        f"archlint: {len(findings)} finding"
        f"{'s' if len(findings) != 1 else ''}"
        if findings
        else "archlint: clean"
    )
    return "\n".join(lines)


def render(findings: Sequence[Finding], fmt: str) -> str:
    if fmt == "text":
        return render_text(findings)
    if fmt == "json":
        return render_json(findings)
    if fmt == "github":
        return render_github(findings)
    raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
