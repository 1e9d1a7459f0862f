"""The archlint rule pack.

Importing this package registers nothing by itself;
:func:`load_builtin_rules` imports every built-in rule module exactly
once, which registers them via the :func:`~repro.lint.rules.base.register`
decorator.  Third-party or experiment-local rules can call ``register``
directly.
"""

from __future__ import annotations

from ..._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".base": ("Rule", "all_rules", "register", "rules_for"),
    },
)
__all__ += ["load_builtin_rules"]


_LOADED = False


def load_builtin_rules() -> None:
    """Import (and thereby register) the built-in rule modules."""
    global _LOADED
    if _LOADED:
        return
    from . import (  # noqa: F401  (imported for registration side effect)
        determinism,
        exceptions,
        floateq,
        picklability,
        project_rules,
        store_keys,
        telemetry_hygiene,
        unit_discipline,
    )

    _LOADED = True
