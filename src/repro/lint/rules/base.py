"""Rule protocol and registry.

A rule is a class with a stable ``code`` (``ARCH001``...), a short
registry ``name``, an optional module ``scope`` (dotted prefixes the
rule applies to; ``None`` means everywhere), and a set of AST node
types it wants to see (``interests``).  The engine instantiates every
applicable rule once per file and performs a *single* walk of the
module AST, dispatching each node to the rules interested in its type
-- rules never walk the tree themselves, which keeps a lint pass O(nodes)
regardless of how many rules are registered.

Per-node state lives on the rule instance (fresh per file); whole-file
checks go in :meth:`Rule.finish`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Type

from ..context import ModuleContext
from ..findings import Finding


class Rule:
    """Base class for archlint rules; subclass and register."""

    #: Stable public code, e.g. ``"ARCH004"``.  Never reuse a code.
    code: str = ""
    #: Registry name, e.g. ``"float-equality"``.
    name: str = ""
    #: One-line description for ``--list-rules`` and docs.
    description: str = ""
    #: Dotted module prefixes this rule applies to (None = all files).
    scope: tuple[str, ...] | None = None
    #: AST node types dispatched to :meth:`visit`.
    interests: tuple[Type[ast.AST], ...] = ()
    #: Whole-program rules only produce findings under ``--project``;
    #: their registry entries here exist for ``--list-rules`` and
    #: ``--select`` validation (see :mod:`repro.lint.project`).
    project: bool = False

    def applies(self, ctx: ModuleContext) -> bool:
        return self.scope is None or ctx.in_module(*self.scope)

    def start(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Called once before the walk; may yield findings."""
        return ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        """Called for every node whose type is in ``interests``."""
        return ()

    def finish(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Called once after the walk; may yield findings."""
        return ()

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            rule=self.name,
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry.

    Codes and names must be unique -- a collision is a programming
    error in the rule pack, not a user mistake.
    """
    if not rule_cls.code or not rule_cls.name:
        raise ValueError(f"{rule_cls.__name__} must define code and name")
    for existing in _REGISTRY.values():
        if existing.code == rule_cls.code or existing.name == rule_cls.name:
            raise ValueError(
                f"duplicate rule code/name: {rule_cls.code} ({rule_cls.name})"
            )
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> dict[str, Type[Rule]]:
    """The registry, keyed by code in code order."""
    return dict(sorted(_REGISTRY.items()))


def rules_for(codes: Iterable[str] | None = None) -> Iterator[Type[Rule]]:
    """Registered rule classes, optionally restricted to ``codes``.

    Raises ``KeyError`` naming the unknown code when a selection does
    not exist (the CLI turns that into exit code 2).
    """
    registry = all_rules()
    if codes is None:
        yield from registry.values()
        return
    for code in codes:
        if code not in registry:
            raise KeyError(code)
        yield registry[code]
