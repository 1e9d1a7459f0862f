"""The whole-program rules: ARCH008-ARCH011.

Each rule reads the converged :class:`~repro.lint.project.analysis.
ProjectAnalysis` and yields ``(finding, endpoints)`` pairs.  The
*endpoints* are the ``(path, line)`` locations on both ends of the
cross-module path; the project engine drops a finding when an inline
``# archlint: disable=CODE`` sits on *either* endpoint, so a
justification can live wherever it reads best.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..findings import Finding
from ..rules.picklability import _UNPICKLABLE_NAMES
from .analysis import ProjectAnalysis, analyze
from .graph import ProjectGraph
from .summaries import unit_suffix

__all__ = [
    "POOL_ROOTS",
    "PROJECT_RULE_IMPLS",
    "RETRY_LOOP_ENTRY",
    "TAINT_ENTRIES",
    "run_project_rules",
]

#: (path, line) pairs a suppression on either of which kills a finding.
Endpoints = tuple[tuple[str, int], ...]
ProjectFinding = tuple[Finding, Endpoints]

#: Shard entries for the RNG/wall-clock taint rule: a shard's result
#: must depend only on its inputs, so nothing below them may read a
#: global RNG or the wall clock.
TAINT_ENTRIES = (
    "repro.microbench.campaign.run_shard",
    "repro.microbench.suite.run_campaign",
    "repro.machine.engine.Engine.run_batch",
)

#: The retry loop's protected call: faults raised anywhere below this
#: must unwind to :meth:`BenchmarkRunner.execute_resilient` unharmed.
RETRY_LOOP_ENTRY = "repro.microbench.runner.BenchmarkRunner.execute"

#: The shard payload: ``run_shard``'s argument and return types (the
#: store pickles the returned pair).
POOL_ROOTS = (
    "repro.microbench.campaign.ShardSpec",
    "repro.microbench.campaign.ShardReport",
    "repro.microbench.suite.FittedPlatform",
)


def check_taint(
    graph: ProjectGraph, analysis: ProjectAnalysis
) -> list[ProjectFinding]:
    """ARCH008: entry -> global RNG/clock sink call paths."""
    out: list[ProjectFinding] = []
    for entry in TAINT_ENTRIES:
        resolved = graph.resolve(entry)
        if resolved is None or resolved[0] != "func":
            continue
        qname = resolved[1]
        entry_func = graph.functions[qname]
        entry_path = graph.path_of(qname)
        for sid in sorted(analysis.sink_reach.get(qname, ())):
            sink_path, line, col, kind, name = sid
            chain = " -> ".join(analysis.sink_path(qname, sid))
            label = (
                "global-state RNG" if kind == "rng" else "wall-clock"
            )
            remedy = (
                "pass an explicit numpy.random.Generator"
                if kind == "rng"
                else "use time.perf_counter or thread a timestamp in"
            )
            finding = Finding(
                path=sink_path,
                line=line,
                col=col,
                code="ARCH008",
                message=(
                    f"shard entry {qname} reaches {label} sink "
                    f"{name!r} via {chain}: {remedy}"
                ),
                rule="rng-clock-taint",
            )
            out.append(
                (
                    finding,
                    ((entry_path, entry_func.line), (sink_path, line)),
                )
            )
    return out


def _callable_slots(
    graph: ProjectGraph, kind: str, target: str
) -> tuple[Sequence[str], set[str], str, int, str] | None:
    """(positional param names, kw-capable names, path, line, label)
    of a call target; dataclass constructors map to their fields."""
    if kind == "func":
        func = graph.functions[target]
        params = func.params[1:] if func.is_method else func.params
        return (
            params,
            set(func.params) | set(func.kwonly),
            graph.path_of(target),
            func.line,
            target,
        )
    init = graph.resolve_method(target, "__init__")
    if init is not None:
        func = graph.functions[init]
        return (
            func.params[1:],
            set(func.params) | set(func.kwonly),
            graph.path_of(init),
            func.line,
            init,
        )
    cls = graph.classes[target]
    if not cls.is_dataclass:
        return None
    names = [field.name for field in cls.fields]
    return (names, set(names), graph.path_of(target), cls.line, target)


def check_units(
    graph: ProjectGraph, analysis: ProjectAnalysis
) -> list[ProjectFinding]:
    """ARCH009: unit suffixes across call/return/assignment boundaries."""
    out: list[ProjectFinding] = []
    for qname in sorted(graph.functions):
        func = graph.functions[qname]
        caller_path = graph.path_of(qname)

        # Call boundaries: argument unit vs parameter-name suffix.
        for call in func.calls:
            for kind, target in graph.call_targets(call):
                slots = _callable_slots(graph, kind, target)
                if slots is None:
                    continue
                params, kw_names, t_path, t_line, label = slots
                checks: list[tuple[str, str, str]] = []
                for i, ref in enumerate(call.arg_units):
                    if i >= len(params):
                        break
                    checks.append((params[i], ref, "argument"))
                for kw, ref in call.kw_units:
                    if kw in kw_names:
                        checks.append((kw, ref, "keyword"))
                for param, ref, how in checks:
                    param_unit = unit_suffix(param)
                    arg_unit = analysis.ref_unit(ref)
                    if param_unit and arg_unit and param_unit != arg_unit:
                        finding = Finding(
                            path=caller_path,
                            line=call.line,
                            col=call.col,
                            code="ARCH009",
                            message=(
                                f"{how} carrying {arg_unit} flows into "
                                f"parameter {param!r} of {label} which "
                                f"expects {param_unit}: convert through "
                                f"repro.units first"
                            ),
                            rule="unit-dataflow",
                        )
                        out.append(
                            (
                                finding,
                                (
                                    (caller_path, call.line),
                                    (t_path, t_line),
                                ),
                            )
                        )

        # Return boundaries: ``x_seconds = f()`` vs f's return unit.
        for target_unit, ref, line in func.unit_assigns:
            value_unit = analysis.ref_unit(ref)
            if not value_unit or value_unit == target_unit:
                continue
            dotted = ref[2:]
            resolved = graph.resolve(dotted)
            if resolved is not None and resolved[0] == "func":
                t_path = graph.path_of(resolved[1])
                t_line = graph.functions[resolved[1]].line
                label = resolved[1]
            else:
                t_path, t_line, label = caller_path, line, dotted
            finding = Finding(
                path=caller_path,
                line=line,
                col=0,
                code="ARCH009",
                message=(
                    f"assignment target carries {target_unit} but "
                    f"{label} returns {value_unit}: convert through "
                    f"repro.units first"
                ),
                rule="unit-dataflow",
            )
            out.append(
                (finding, ((caller_path, line), (t_path, t_line)))
            )

        # Declared return unit vs evidence.
        declared = func.return_unit_declared
        if declared:
            seen: set[tuple[str, str]] = set()
            for ref in func.return_refs:
                value_unit = analysis.ref_unit(ref)
                if not value_unit or value_unit == declared:
                    continue
                key = (value_unit, ref)
                if key in seen:
                    continue
                seen.add(key)
                finding = Finding(
                    path=caller_path,
                    line=func.line,
                    col=0,
                    code="ARCH009",
                    message=(
                        f"{qname} is named as {declared} but returns a "
                        f"value carrying {value_unit}"
                    ),
                    rule="unit-dataflow",
                )
                out.append(
                    (
                        finding,
                        ((caller_path, func.line),),
                    )
                )
    return out


def check_fault_flow(
    graph: ProjectGraph, analysis: ProjectAnalysis
) -> list[ProjectFinding]:
    """ARCH010: broad handlers under the retry loop swallowing faults."""
    resolved = graph.resolve(RETRY_LOOP_ENTRY)
    if resolved is None or resolved[0] != "func":
        return []
    scope = analysis.descendants(resolved[1])
    out: list[ProjectFinding] = []
    for swallow in analysis.iter_swallows(scope):
        caller_path = graph.path_of(swallow.func)
        origin_path = graph.path_of(swallow.origin)
        caught = "/".join(name or "bare" for name in swallow.guard.caught)
        finding = Finding(
            path=caller_path,
            line=swallow.guard.line,
            col=swallow.guard.col,
            code="ARCH010",
            message=(
                f"broad 'except {caught}' in {swallow.func} swallows "
                f"{swallow.fault} raised in {swallow.origin} (reached "
                f"via {swallow.callee}): the fault never unwinds to "
                f"BenchmarkRunner's retry loop -- re-raise or narrow "
                f"the handler"
            ),
            rule="fault-exception-flow",
        )
        out.append(
            (
                finding,
                (
                    (caller_path, swallow.guard.line),
                    (origin_path, swallow.origin_line),
                ),
            )
        )
    return out


def check_pool_escape(
    graph: ProjectGraph, analysis: ProjectAnalysis
) -> list[ProjectFinding]:
    """ARCH011: everything reachable from the shard payload pickles."""
    out: list[ProjectFinding] = []
    for root in POOL_ROOTS:
        resolved = graph.resolve(root)
        if resolved is None or resolved[0] != "class":
            continue
        root_qname = resolved[1]
        root_cls = graph.classes[root_qname]
        root_path = graph.path_of(root_qname)
        root_end = (root_path, root_cls.line)
        visited = {root_qname}
        queue: list[tuple[str, tuple[str, ...]]] = [
            (root_qname, (root_cls.name,))
        ]
        while queue:
            class_qname, chain = queue.pop(0)
            cls = graph.classes[class_qname]
            if graph.is_inert_class(cls):
                continue
            cls_path = graph.path_of(class_qname)
            via = " -> ".join(chain)

            def emit(line: int, message: str) -> None:
                finding = Finding(
                    path=cls_path,
                    line=line,
                    col=0,
                    code="ARCH011",
                    message=message,
                    rule="pool-boundary-escape",
                )
                out.append(
                    (finding, (root_end, (cls_path, line)))
                )

            if cls.is_dataclass:
                if not cls.frozen:
                    emit(
                        cls.line,
                        f"dataclass {cls.name!r} is in the shard payload "
                        f"(reachable from {root_cls.name} via {via}) "
                        f"and must be @dataclass(frozen=True)",
                    )
                for fld in cls.fields:
                    bad = sorted(
                        set(fld.simple_names) & _UNPICKLABLE_NAMES
                    )
                    if bad:
                        emit(
                            fld.line,
                            f"field {cls.name}.{fld.name} (reachable "
                            f"from {root_cls.name} via {via}) is "
                            f"annotated with unpicklable type(s) "
                            f"{', '.join(bad)}",
                        )
            elif not graph.has_pickle_protocol(cls):
                emit(
                    cls.line,
                    f"plain class {cls.name!r} is in the shard payload "
                    f"(reachable from {root_cls.name} via {via}): make "
                    f"it a frozen dataclass or define "
                    f"__getstate__/__setstate__",
                )

            for fld in cls.fields:
                for ref in fld.refs:
                    child = graph.resolve(ref)
                    if child is None or child[0] != "class":
                        continue
                    child_qname = child[1]
                    if child_qname in visited:
                        continue
                    child_cls = graph.classes[child_qname]
                    if graph.is_inert_class(child_cls):
                        continue
                    visited.add(child_qname)
                    queue.append(
                        (child_qname, chain + (child_cls.name,))
                    )
    return out


PROJECT_RULE_IMPLS: dict[
    str, Callable[[ProjectGraph, ProjectAnalysis], list[ProjectFinding]]
] = {
    "ARCH008": check_taint,
    "ARCH009": check_units,
    "ARCH010": check_fault_flow,
    "ARCH011": check_pool_escape,
}


def run_project_rules(
    graph: ProjectGraph, codes: Iterable[str] | None = None
) -> list[ProjectFinding]:
    """Run the selected project rules over a built graph."""
    selected = None if codes is None else set(codes)
    analysis = analyze(graph)
    out: list[ProjectFinding] = []
    for code in sorted(PROJECT_RULE_IMPLS):
        if selected is not None and code not in selected:
            continue
        out.extend(PROJECT_RULE_IMPLS[code](graph, analysis))
    return out
