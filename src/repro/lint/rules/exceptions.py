"""ARCH003: broad handlers must not swallow rig faults silently.

The resilient campaign path leans on :class:`RigFaultError` reaching
the retry/quarantine machinery.  A bare ``except:`` (or a broad
``except Exception`` that neither re-raises nor even looks at the
error) can eat a fault -- or a ``KeyboardInterrupt``-adjacent bug --
without a trace, which turns "cell quarantined, accounted" into
"observation silently missing".  This rule flags:

* bare ``except:`` -- always;
* ``except Exception``/``except BaseException`` handlers that neither
  contain a ``raise`` nor bind *and use* the caught error (binding it
  and recording/formatting it counts as accounting);
* handlers that name a ``RigFaultError`` class but whose body is only
  ``pass``/``...``/``continue`` -- the one way to lose a fault while
  looking like you handled it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding
from .base import Rule, register

_BROAD = frozenset({"Exception", "BaseException"})

#: The RigFaultError hierarchy of repro.faults.errors (matching is by
#: class name so the rule stays dependency-free;
#: tests/faults/test_faults.py holds the two equal).
_FAULT_CLASSES = frozenset(
    {
        "RigFaultError",
        "InjectedRunFailureError",
        "EmptyChannelError",
        "CorruptObservationError",
    }
)


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    """Leaf class names this handler catches ('' for bare except)."""
    if handler.type is None:
        return {""}
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = set()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _contains_raise(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


def _uses_name(body: list[ast.stmt], name: str) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name:
                return True
    return False


def _body_is_noop(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a docstring or bare ``...``.
        return False
    return True


@register
class ExceptionHygieneRule(Rule):
    code = "ARCH003"
    name = "fault-exception-hygiene"
    description = (
        "no bare/broad except that can swallow RigFaultError without "
        "re-raising or accounting"
    )
    interests = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        caught = _caught_names(node)
        if "" in caught:
            yield self.finding(
                ctx,
                node,
                "bare 'except:' swallows everything, RigFaultError and "
                "KeyboardInterrupt included: name the exception class",
            )
            return
        if caught & _BROAD:
            accounted = node.name is not None and (
                _uses_name(node.body, node.name)
            )
            if not accounted and not _contains_raise(node.body):
                label = "/".join(sorted(caught & _BROAD))
                yield self.finding(
                    ctx,
                    node,
                    f"broad 'except {label}' neither re-raises nor records "
                    f"the error: a swallowed RigFaultError here never "
                    f"reaches the retry/quarantine accounting",
                )
        if caught & _FAULT_CLASSES and _body_is_noop(node.body):
            label = "/".join(sorted(caught & _FAULT_CLASSES))
            yield self.finding(
                ctx,
                node,
                f"'except {label}: pass' drops a rig fault on the floor: "
                f"re-raise it or record it in the fault accounting",
            )
