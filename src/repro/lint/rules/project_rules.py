"""Registry entries for the whole-program rules (ARCH008-ARCH011).

These classes carry the stable codes, names and descriptions so
``--list-rules`` and ``--select`` treat project rules exactly like
per-file rules.  They emit nothing during a per-file walk (no
``interests``); the implementations live in
:mod:`repro.lint.project.rules` and run only under
``archline lint --project``, where the whole-module-graph context they
need exists.
"""

from __future__ import annotations

from .base import Rule, register


@register
class RngClockTaintRule(Rule):
    code = "ARCH008"
    name = "rng-clock-taint"
    description = (
        "no call path from a shard entry (run_shard, "
        "run_campaign, Engine.run_batch) to a global-state RNG or "
        "wall-clock sink [project]"
    )
    project = True


@register
class UnitDataflowRule(Rule):
    code = "ARCH009"
    name = "unit-dataflow"
    description = (
        "unit suffixes must agree across call boundaries, returns and "
        "assignments (_joules into a _seconds parameter is a finding) "
        "[project]"
    )
    project = True


@register
class FaultFlowRule(Rule):
    code = "ARCH010"
    name = "fault-exception-flow"
    description = (
        "RigFaultError raised under the measurement layer must reach "
        "BenchmarkRunner's retry loop; no intermediate broad except may "
        "swallow it [project]"
    )
    project = True


@register
class PoolEscapeRule(Rule):
    code = "ARCH011"
    name = "pool-boundary-escape"
    description = (
        "types transitively reachable from the shard payload "
        "(ShardSpec/ShardReport/FittedPlatform) must be picklable "
        "frozen dataclasses [project]"
    )
    project = True
