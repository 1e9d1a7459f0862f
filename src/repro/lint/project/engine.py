"""The ``--project`` driver: analyze, cache, fan out, converge, report.

Per-file work (parse + per-file rules + module summary) is pure: a
function of the file's path and bytes.  That purity is what makes the
other two features safe:

* **incrementality** -- payloads are replayed from the content-addressed
  :class:`~repro.lint.project.cache.SummaryCache` when the source bytes
  are unchanged, and a warm run's report is byte-identical to a cold
  run's because the payload round-trips every field a finding or
  summary carries;
* **parallelism** -- uncached files fan out over a process pool
  (``--jobs N``); workers receive ``(path, bytes)`` and return JSON
  payloads, so results are independent of scheduling order.

The whole-program phase (graph build, fixed points, ARCH008-ARCH011)
always runs in-process on the merged summaries: it is cheap relative
to parsing and must see every module at once.

Per-file findings are cached for *all* rules and filtered by
``--select`` at report time, so changing the selection never misses
the cache.  A project finding is dropped when an inline
``# archlint: disable=CODE`` sits on **either** endpoint of its
cross-module path (the suppression index is rebuilt from payloads, so
it works identically from cache).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..engine import collect_files, lint_context, parse_file
from ..findings import Finding
from ..rules import load_builtin_rules
from ..rules.base import rules_for
from .cache import SummaryCache
from .graph import ProjectGraph
from .rules import PROJECT_RULE_IMPLS, run_project_rules
from .summaries import ModuleSummary, summarize_module

__all__ = ["ProjectStats", "analyze_file_payload", "lint_project"]

#: Suppression comments that silence every code.
_ALL = "all"


@dataclass
class ProjectStats:
    """What a project run did (rendered on stderr, greppable in CI)."""

    files: int = 0
    cache_hits: int = 0
    analyzed: int = 0
    jobs: int = 1

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.files if self.files else 0.0

    def render(self) -> str:
        return (
            f"archlint project: files={self.files} "
            f"cache_hits={self.cache_hits} analyzed={self.analyzed} "
            f"hit_rate={self.hit_rate:.2f} jobs={self.jobs}"
        )


def analyze_file_payload(path: str, source_bytes: bytes) -> dict:
    """The pure per-file unit of work: parse, per-file rules, summary.

    Returns a JSON-able payload -- the exact shape the summary cache
    stores and a pool worker ships back:
    ``{"findings": [...], "summary": {...}|None, "suppressions": ...}``.
    Findings cover *all* per-file rules (selection happens at report
    time); a file that does not parse yields its ARCH000 finding
    (:func:`repro.lint.engine.parse_file`) and no summary.
    """
    load_builtin_rules()
    ctx = parse_file(path, source_bytes)
    if isinstance(ctx, Finding):
        return {
            "findings": [ctx.to_dict()],
            "summary": None,
            "suppressions": {"file": [], "lines": {}},
        }
    per_file = [cls for cls in rules_for() if not cls.project]
    findings = lint_context(ctx, per_file)
    return {
        "findings": [finding.to_dict() for finding in findings],
        "summary": summarize_module(ctx).to_dict(),
        "suppressions": {
            "file": sorted(ctx.file_suppressions),
            "lines": {
                str(line): sorted(codes)
                for line, codes in sorted(ctx.line_suppressions.items())
            },
        },
    }


def _pool_worker(item: tuple[str, bytes]) -> tuple[str, dict]:
    """Module-level so ProcessPoolExecutor can pickle it."""
    path, source_bytes = item
    return path, analyze_file_payload(path, source_bytes)


class _SuppressionIndex:
    """Project-wide inline-suppression lookup, rebuilt from payloads."""

    def __init__(self) -> None:
        self._file: dict[str, set[str]] = {}
        self._line: dict[str, dict[int, set[str]]] = {}

    def add(self, path: str, suppressions: dict) -> None:
        self._file[path] = set(suppressions.get("file", ()))
        self._line[path] = {
            int(line): set(codes)
            for line, codes in suppressions.get("lines", {}).items()
        }

    def is_suppressed(self, code: str, path: str, line: int) -> bool:
        file_codes = self._file.get(path, set())
        if code in file_codes or _ALL in file_codes:
            return True
        line_codes = self._line.get(path, {}).get(line, set())
        return code in line_codes or _ALL in line_codes


def lint_project(
    paths: Sequence[str],
    codes: Sequence[str] | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> tuple[list[Finding], ProjectStats]:
    """Whole-program lint over every ``.py`` file under ``paths``.

    Returns ``(findings, stats)``: per-file findings (filtered to
    ``codes`` when given; ARCH000 always survives) merged with the
    project-rule findings, sorted by location.  Raises ``KeyError``
    for an unknown code in ``codes`` (same contract as
    :func:`repro.lint.engine.lint_paths`).
    """
    load_builtin_rules()
    selected: set[str] | None = None
    if codes is not None:
        selected = {cls.code for cls in rules_for(codes)}
    files = collect_files(paths)
    cache = SummaryCache(cache_dir) if cache_dir is not None else None

    sources: dict[str, bytes] = {}
    payloads: dict[str, dict] = {}
    pending: list[str] = []
    for file_path in files:
        path = str(file_path)
        data = file_path.read_bytes()
        sources[path] = data
        cached = cache.load(path, data) if cache is not None else None
        if cached is not None:
            payloads[path] = cached
        else:
            pending.append(path)

    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for path, payload in pool.map(
                _pool_worker, [(path, sources[path]) for path in pending]
            ):
                payloads[path] = payload
    else:
        for path in pending:
            payloads[path] = analyze_file_payload(path, sources[path])
    if cache is not None:
        for path in pending:
            cache.store(path, sources[path], payloads[path])

    stats = ProjectStats(
        files=len(files),
        cache_hits=len(files) - len(pending),
        analyzed=len(pending),
        jobs=jobs,
    )

    findings: list[Finding] = []
    summaries: list[ModuleSummary] = []
    suppressions = _SuppressionIndex()
    for path in sorted(payloads):
        payload = payloads[path]
        suppressions.add(path, payload.get("suppressions", {}))
        for raw in payload["findings"]:
            finding = Finding.from_dict(raw)
            if (
                selected is None
                or finding.code in selected
                or finding.code == "ARCH000"
            ):
                findings.append(finding)
        if payload.get("summary") is not None:
            summaries.append(ModuleSummary.from_dict(payload["summary"]))

    project_codes = set(PROJECT_RULE_IMPLS)
    if selected is not None:
        project_codes &= selected
    if project_codes:
        graph = ProjectGraph(summaries)
        for finding, endpoints in run_project_rules(graph, project_codes):
            if any(
                suppressions.is_suppressed(finding.code, path, line)
                for path, line in endpoints
            ):
                continue
            findings.append(finding)
    return sorted(findings), stats
