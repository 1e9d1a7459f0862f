"""The lint driver: collect files, dispatch rules, apply suppressions.

One :class:`ModuleContext` is built per file and the AST is walked
*once*; each node is dispatched to the rules that declared interest in
its type (see :mod:`repro.lint.rules.base`).  Findings suppressed
inline are dropped here.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence, Type

from .context import ModuleContext, module_name_for
from .findings import Finding
from .rules import load_builtin_rules
from .rules.base import Rule, rules_for


def _dedupe(findings: Iterable[Finding]) -> list[Finding]:
    """Drop same-rule duplicates at one location (an attribute chain
    can dispatch both the chain and its root to one rule)."""
    seen: set[tuple[str, int, int, str]] = set()
    out = []
    for finding in findings:
        key = (finding.path, finding.line, finding.col, finding.code)
        if key in seen:
            continue
        seen.add(key)
        out.append(finding)
    return out


def lint_context(
    ctx: ModuleContext, rule_classes: Sequence[Type[Rule]] | None = None
) -> list[Finding]:
    """Run rules over one parsed module; returns unsuppressed findings
    sorted by location."""
    if rule_classes is None:
        rule_classes = list(rules_for())
    instances = (cls() for cls in rule_classes)
    rules = [rule for rule in instances if rule.applies(ctx)]
    if not rules:
        return []
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.start(ctx))
    interested = [(rule, rule.interests) for rule in rules if rule.interests]
    for node in ast.walk(ctx.tree):
        for rule, interests in interested:
            if isinstance(node, interests):
                findings.extend(rule.visit(node, ctx))
    for rule in rules:
        findings.extend(rule.finish(ctx))
    live = [
        finding
        for finding in _dedupe(findings)
        if not ctx.is_suppressed(finding.code, finding.line)
    ]
    return sorted(live)


def lint_source(
    source: str,
    *,
    module: str = "",
    path: str = "<string>",
    codes: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint a source string as if it were the named module.

    The fixture entry point: tests pass ``module="repro.machine.x"`` to
    land inside a scoped rule's territory without touching disk.
    """
    load_builtin_rules()
    ctx = ModuleContext.from_source(source, path=path, module=module)
    return lint_context(ctx, list(rules_for(codes)))


def collect_files(paths: Sequence[str]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py list.

    Raises ``FileNotFoundError`` for a path that does not exist (the
    CLI reports it and exits 2).
    """
    out: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for item in sorted(path.rglob("*.py")):
                out[item] = None
        elif path.is_file():
            out[path] = None
        else:
            raise FileNotFoundError(raw)
    return list(out)


def parse_file(path: str, source_bytes: bytes) -> ModuleContext | Finding:
    """One file's context, or the ARCH000 finding when its bytes are
    not UTF-8 Python.

    Both drivers parse through here (:func:`lint_paths`, and
    :func:`repro.lint.project.engine.analyze_file_payload`), so either
    reports a file that does not parse the same way.
    """
    try:
        return ModuleContext.from_source(
            source_bytes.decode("utf-8"),
            path=path,
            module=module_name_for(Path(path)),
        )
    except SyntaxError as err:
        line, col, reason = err.lineno or 1, (err.offset or 1) - 1, err.msg
    except UnicodeDecodeError as err:
        line, col, reason = 1, 0, str(err)
    return Finding(
        path=path,
        line=line,
        col=col,
        code="ARCH000",
        message=f"file does not parse: {reason}",
        rule="syntax",
    )


def lint_paths(
    paths: Sequence[str], codes: Sequence[str] | None = None
) -> list[Finding]:
    """Lint every ``.py`` file under the given paths."""
    load_builtin_rules()
    rule_classes = list(rules_for(codes))
    findings: list[Finding] = []
    for file_path in collect_files(paths):
        parsed = parse_file(str(file_path), file_path.read_bytes())
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            findings.extend(lint_context(parsed, rule_classes))
    return sorted(findings)
