"""archlint: repo-specific static analysis over the Python AST.

Generic linters cannot see this repo's load-bearing invariants --
bit-identical replays from explicitly passed generators, frozen
picklable dataclasses in the stored shard payload, rig-fault
exceptions that must never be silently swallowed, and the physical-unit
bookkeeping mirroring the paper's theta = (tau, eps, pi1, delta_pi)
vector.  This package enforces them with a dependency-free rule pack
(``ARCH001``-``ARCH007``, plus the whole-program ``ARCH008``-``ARCH011``
under ``--project``), inline ``# archlint: disable=CODE`` suppressions,
and text/JSON/GitHub-annotation output.  Run it as ``archline lint``
(see docs/LINT.md for the rule catalog).
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".context": ("ModuleContext",),
        ".engine": ("lint_paths", "lint_source"),
        ".findings": ("Finding",),
        ".output": ("render",),
        ".rules": ("load_builtin_rules",),
        ".rules.base": ("Rule", "all_rules", "register"),
    },
)
