"""Committed-baseline support: grandfather findings without losing them.

A baseline is a JSON file listing finding fingerprints that existed
when the linter was introduced.  ``archline lint`` subtracts baselined
findings from its output, so the gate only fails on *new* violations;
``--update-baseline`` rewrites the file from the current findings.
The repo's policy (docs/LINT.md) is that the committed baseline stays
*empty* -- every grandfathered finding gets fixed or an inline
suppression with a justification -- but the mechanism exists so the
gate can land before the cleanup does on a bigger tree.

Fingerprints hash the rule code, file path and stripped source-line
text (plus an index among identical lines), not line numbers, so
edits elsewhere in a file do not invalidate the baseline.  Cross-module
findings substitute their sorted ``path::symbol`` anchor for the source
line (see :mod:`repro.lint.findings`), with the same stability
guarantee across both endpoint files.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Sequence

from .findings import Finding

BASELINE_VERSION = 1


def assign_fingerprints(
    findings: Sequence[Finding],
) -> list[tuple[Finding, str]]:
    """Duplicate-aware fingerprints, in the findings' given order."""
    counts: Counter[tuple[str, str, str]] = Counter()
    out = []
    for finding in findings:
        key = (finding.code, finding.path, finding.identity())
        out.append((finding, finding.fingerprint(counts[key])))
        counts[key] += 1
    return out


def write_baseline(path: Path, findings: Sequence[Finding]) -> int:
    """Serialise the findings as the new baseline; returns the count."""
    entries = [
        {
            "fingerprint": fingerprint,
            "code": finding.code,
            "path": finding.path,
            "message": finding.message,
        }
        for finding, fingerprint in assign_fingerprints(findings)
    ]
    payload = {"version": BASELINE_VERSION, "findings": entries}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return len(entries)


def load_baseline(path: Path) -> set[str]:
    """The fingerprint set of a baseline file.

    Raises ``ValueError`` on a malformed file -- a corrupt baseline
    silently matching nothing would resurface hundreds of grandfathered
    findings and bury the new one that matters.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"baseline {path} is not valid JSON: {err}")
    if not isinstance(payload, dict) or "findings" not in payload:
        raise ValueError(f"baseline {path} has no 'findings' list")
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {version!r}; this archlint "
            f"reads version {BASELINE_VERSION}"
        )
    fingerprints = set()
    for entry in payload["findings"]:
        if not isinstance(entry, dict) or "fingerprint" not in entry:
            raise ValueError(
                f"baseline {path}: every finding needs a 'fingerprint'"
            )
        fingerprints.add(entry["fingerprint"])
    return fingerprints


def filter_baselined(
    findings: Sequence[Finding], fingerprints: set[str]
) -> tuple[list[Finding], int]:
    """Split findings into (new, matched-count) against a baseline."""
    fresh = []
    matched = 0
    for finding, fingerprint in assign_fingerprints(findings):
        if fingerprint in fingerprints:
            matched += 1
        else:
            fresh.append(finding)
    return fresh, matched
