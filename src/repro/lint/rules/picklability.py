"""ARCH002: shard-payload dataclasses must be frozen and picklable.

:func:`~repro.microbench.campaign.run_shard` takes a
:class:`~repro.microbench.campaign.ShardSpec` and returns
``(FittedPlatform, ShardReport)``, and the campaign store pickles that
pair so a replay can hand it back bit-identically (docs/CACHE.md).  A
mutable dataclass invites aliasing bugs between the computed and the
replayed copy, and a field holding a callable, iterator or lock dies
inside ``pickle`` with a message far from the declaration.  In the
modules whose dataclasses make up that payload, this rule requires
``@dataclass(frozen=True)`` and flags field annotations that name
known-unpicklable types.  (The rule's name dates from when shards ran
on a process pool, which pickled the same payload.)

A type with a custom ``__getstate__``/``__setstate__`` pair (the
``KernelSpec`` trick for its ``MappingProxyType`` traffic view) is fine
-- the rule checks declared *annotations*, and an annotation like
``Mapping[str, float]`` stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding
from .base import Rule, register

#: Modules whose dataclasses make up the shard payload (ShardSpec,
#: ShardReport, FittedPlatform and everything reachable from them).
POOL_MODULES = (
    "repro.microbench.campaign",
    "repro.microbench.runner",
    "repro.microbench.suite",
    "repro.telemetry.recorder",
    "repro.faults.plan",
    "repro.machine.kernel",
    # Fleet instances/solutions are solver inputs/outputs that a
    # parallel solver would pickle; hold them to the same
    # frozen-primitive discipline now.
    "repro.fleet.workload",
    "repro.fleet.evaluate",
    "repro.fleet.solver",
)

#: Simple names that make a pickled field blow up (or silently alias).
_UNPICKLABLE_NAMES = frozenset(
    {
        "Callable",
        "Iterator",
        "Generator",  # typing.Generator: a live generator object.
        "IO",
        "TextIO",
        "BinaryIO",
        "Lock",
        "RLock",
        "Condition",
        "Thread",
        "MappingProxyType",
        "module",
        "ModuleType",
    }
)


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _frozen_true(node: ast.expr) -> bool:
    """Whether a dataclass decorator passes ``frozen=True``."""
    if not isinstance(node, ast.Call):
        return False  # bare @dataclass: frozen defaults to False.
    for keyword in node.keywords:
        if keyword.arg == "frozen":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _annotation_names(annotation: ast.expr) -> Iterable[str]:
    """Every simple/attribute name mentioned in an annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations: parse and recurse so quoting a type
            # does not hide it.
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


@register
class PicklabilityRule(Rule):
    code = "ARCH002"
    name = "pool-picklability"
    description = (
        "dataclasses in shard-payload modules must be frozen=True with "
        "picklable field annotations"
    )
    scope = POOL_MODULES
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.ClassDef)
        decorators = [
            d for d in node.decorator_list if _is_dataclass_decorator(d)
        ]
        if not decorators:
            return
        if not any(_frozen_true(d) for d in decorators):
            yield self.finding(
                ctx,
                node,
                f"dataclass {node.name!r} is part of the shard payload "
                f"the campaign store pickles and must be declared "
                f"@dataclass(frozen=True)",
            )
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or stmt.annotation is None:
                continue
            names = set(_annotation_names(stmt.annotation))
            if "ClassVar" in names:
                continue  # not a field; never pickled.
            bad = sorted(names & _UNPICKLABLE_NAMES)
            if bad:
                target = (
                    stmt.target.id
                    if isinstance(stmt.target, ast.Name)
                    else ast.unparse(stmt.target)
                )
                yield self.finding(
                    ctx,
                    stmt,
                    f"field {node.name}.{target} is annotated with "
                    f"unpicklable type(s) {', '.join(bad)}: the campaign "
                    f"store cannot pickle it",
                )
