"""Whole-program analysis for archlint (``archline lint --project``).

The per-file engine (:mod:`repro.lint.engine`) sees one module at a
time; the rules in this package see the whole ``src/repro`` tree at
once.  The pipeline is:

1. **Summaries** (:mod:`~repro.lint.project.summaries`) -- every file
   is parsed once and reduced to a JSON-able :class:`ModuleSummary`:
   absolutized imports, per-function call sites (with exception guards
   and argument unit suffixes), RNG/wall-clock sink uses, raise sites,
   return-unit evidence, and per-class field/decorator shape.
2. **Graph** (:mod:`~repro.lint.project.graph`) -- the summaries are
   indexed into a cross-module symbol table; call sites and annotation
   references resolve through each module's import table, including
   package ``__init__`` re-export chains.
3. **Analysis** (:mod:`~repro.lint.project.analysis`) -- reachable
   sinks, transitive fault raising (guard-aware), and return units are
   propagated to a fixed point over the call graph.
4. **Rules** (:mod:`~repro.lint.project.rules`) -- ARCH008 (RNG/clock
   taint), ARCH009 (unit dataflow), ARCH010 (fault exception flow) and
   ARCH011 (shard-payload escape) read the fixed points and emit
   findings with the ``(path, line)`` endpoints of their cross-module
   path; an inline suppression on *either* endpoint drops the finding.
5. **Cache + fan-out** (:mod:`~repro.lint.project.cache`,
   :mod:`~repro.lint.project.engine`) -- per-file summaries and
   findings are cached on content sha1 (``--cache DIR``), and cache
   misses parse in parallel across a process pool (``--jobs N``), so a
   warm whole-repo lint re-analyzes only changed files and produces
   byte-identical output to a cold run.
"""

from __future__ import annotations

from ..._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".engine": ("ProjectStats", "lint_project"),
        ".graph": ("ProjectGraph",),
        ".summaries": ("ModuleSummary", "summarize_module"),
    },
)
