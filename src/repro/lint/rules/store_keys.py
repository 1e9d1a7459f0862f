"""ARCH007: store dataclasses must be frozen and hash-stable.

The content-addressed campaign store (:mod:`repro.store`) keys every
entry on a canonical fingerprint and records entry metadata in frozen
value objects.  Two properties keep that trustworthy:

* **Frozen.**  A mutable header/stats/result object invites in-place
  edits after publication -- the recorded facts must be immutable
  snapshots, exactly like the shard payloads (ARCH002).
* **Hash-stable fields.**  A field annotated as an unordered
  collection (``set``, ``frozenset``, ``Set``...) has no stable
  iteration order, so any fingerprint or serialisation derived from it
  can differ between runs with equal content -- the canonical encoder
  (:func:`repro.store.fingerprint.canonical`) rejects such values at
  runtime, and this rule rejects the *declarations* statically, before
  a key ever gets built.  ``Callable`` fields are flagged too: a
  function has no content fingerprint at all.

Mappings stay legal -- the canonical encoder sorts them by key.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding
from .base import Rule, register
from .picklability import (
    _annotation_names,
    _frozen_true,
    _is_dataclass_decorator,
)

#: Annotation names with no stable iteration order (or no content
#: fingerprint at all, for Callable).
_UNSTABLE_NAMES = frozenset(
    {
        "set",
        "frozenset",
        "Set",
        "FrozenSet",
        "MutableSet",
        "AbstractSet",
        "Callable",
    }
)


@register
class StoreKeyStabilityRule(Rule):
    code = "ARCH007"
    name = "store-key-stability"
    description = (
        "dataclasses in repro.store must be frozen=True and must not "
        "declare unordered-collection or callable fields"
    )
    # repro.fleet dataclasses feed report hashing and (via fitted
    # theta) store keys, so they obey the same stability rules.
    scope = ("repro.store", "repro.fleet")
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
                f"store dataclass {node.name!r} must be declared "
                f"@dataclass(frozen=True): published store records are "
                f"immutable snapshots",
            )
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or stmt.annotation is None:
                continue
            names = set(_annotation_names(stmt.annotation))
            if "ClassVar" in names:
                continue  # not a field; never fingerprinted.
            bad = sorted(names & _UNSTABLE_NAMES)
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
                    f"{', '.join(bad)}: unordered/callable fields have no "
                    f"stable content fingerprint (sort into a tuple "
                    f"instead)",
                )
