"""Fixed-point dataflow over the project call graph.

Three independent propagations, each iterated to a fixed point over
the (small, acyclic-in-practice) call graph:

* **Sink reachability** (ARCH008): which global-RNG/wall-clock sinks
  each function can reach, with a *via* pointer per (function, sink)
  so the offending call path can be reconstructed for the message.
* **Fault flow** (ARCH010): which ``RigFaultError`` subclasses each
  function can let escape, simulated through the exception guards at
  every call site.  A broad (``Exception``/``BaseException``/bare)
  handler that stops a fault *without re-raising* is a swallow event;
  a fault-specific handler stops propagation legitimately.  Catching
  ``ValueError`` is deliberately *not* fault-catching, even though two
  fault classes multiply inherit from it for backward compatibility.
* **Return units** (ARCH009): the physical unit a function returns,
  from its own name suffix (declared intent, which wins), returned
  identifier suffixes, and returned call results chained through the
  fixed point.  Conflicting evidence yields *unknown*, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..rules.exceptions import _BROAD, _FAULT_CLASSES
from .graph import ProjectGraph
from .summaries import CallSite, Guard, SinkSite

__all__ = [
    "EXTERNAL_RETURN_UNITS",
    "FaultSwallow",
    "ProjectAnalysis",
    "SinkId",
    "analyze",
]

#: Stdlib callables with a known return unit (the monotonic clocks the
#: repo's timing convention is built on).
EXTERNAL_RETURN_UNITS: Mapping[str, str] = {
    "time.perf_counter": "seconds",
    "time.monotonic": "seconds",
}

#: (path, line, col, kind, name) of one sink use.
SinkId = tuple[str, int, int, str, str]


@dataclass(frozen=True)
class FaultSwallow:
    """A broad handler eating a transitively raised fault."""

    func: str  #: qname of the function owning the handler.
    guard: Guard
    call: CallSite
    callee: str  #: qname the guarded call lands on.
    fault: str  #: fault class name being swallowed.
    origin: str  #: qname of the function that raises the fault.
    origin_line: int


# Guard-simulation outcomes.
_ESCAPES = "escapes"
_HANDLED = "handled"


def _guard_outcome(
    guards: tuple[tuple[Guard, ...], ...], fault: str
) -> tuple[str, Guard | None]:
    """Simulate a fault unwinding through a call site's guards.

    Returns ``(outcome, guard)``: ``escapes`` (fault leaves the
    function), ``handled`` (a fault-aware handler consumed it), or the
    swallowing broad guard.
    """
    catchers = {fault, "RigFaultError"}
    for level in guards:  # innermost try first.
        for guard in level:  # handlers in source order.
            caught = set(guard.caught)
            if caught & catchers:
                if guard.reraises:
                    break  # re-raised: escapes this try, go outward.
                return (_HANDLED, guard)
            if ("" in caught) or (caught & _BROAD):
                if guard.reraises:
                    break
                return ("swallowed", guard)
        # No handler in this try matches: unwind to the next one.
    return (_ESCAPES, None)


class ProjectAnalysis:
    """The converged fixed points, queried by the project rules."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        #: func qname -> sink id -> (next-hop qname, call line), or
        #: ``None`` when the sink is the function's own.
        self.sink_reach: dict[str, dict[SinkId, tuple[str, int] | None]] = {}
        #: func qname -> fault name -> (origin qname, origin line).
        self.fault_out: dict[str, dict[str, tuple[str, int]]] = {}
        #: func qname -> return unit.
        self.return_units: dict[str, str] = {}
        self._compute_sinks()
        self._compute_faults()
        self._compute_return_units()

    # -- sink reachability --------------------------------------------

    @staticmethod
    def _sink_id(path: str, sink: SinkSite) -> SinkId:
        return (path, sink.line, sink.col, sink.kind, sink.name)

    def _compute_sinks(self) -> None:
        graph = self.graph
        for qname, func in graph.functions.items():
            own: dict[SinkId, tuple[str, int] | None] = {}
            path = graph.path_of(qname)
            for sink in func.sinks:
                sid = self._sink_id(path, sink)
                own[sid] = None
            self.sink_reach[qname] = own
        changed = True
        while changed:
            changed = False
            for qname, func in graph.functions.items():
                reach = self.sink_reach[qname]
                for call in func.calls:
                    for callee in graph.callee_functions(call):
                        if callee == qname:
                            continue
                        for sid in self.sink_reach.get(callee, ()):
                            if sid not in reach:
                                reach[sid] = (callee, call.line)
                                changed = True

    def sink_path(self, entry: str, sid: SinkId) -> list[str]:
        """The call chain from ``entry`` down to the sink's owner."""
        chain = [entry]
        current = entry
        seen = {entry}
        while True:
            via = self.sink_reach.get(current, {}).get(sid)
            if via is None:
                return chain
            nxt = via[0]
            if nxt in seen:  # defensive: recursive call chains.
                return chain
            chain.append(nxt)
            seen.add(nxt)
            current = nxt

    # -- fault flow ---------------------------------------------------

    def _compute_faults(self) -> None:
        graph = self.graph
        for qname, func in graph.functions.items():
            out: dict[str, tuple[str, int]] = {}
            for site in func.raises:
                if site.exc in _FAULT_CLASSES:
                    out.setdefault(site.exc, (qname, site.line))
            self.fault_out[qname] = out
        changed = True
        while changed:
            changed = False
            for qname, func in graph.functions.items():
                out = self.fault_out[qname]
                for call in func.calls:
                    for callee in graph.callee_functions(call):
                        if callee == qname:
                            continue
                        for fault, origin in self.fault_out.get(
                            callee, {}
                        ).items():
                            if fault in out:
                                continue
                            outcome, _ = _guard_outcome(call.guards, fault)
                            if outcome == _ESCAPES:
                                out[fault] = origin
                                changed = True

    def iter_swallows(self, scope: set[str]) -> Iterator[FaultSwallow]:
        """Swallow events inside ``scope`` (a set of function qnames)."""
        graph = self.graph
        for qname in sorted(scope):
            func = graph.functions.get(qname)
            if func is None:
                continue
            seen: set[tuple[int, int, str, str]] = set()
            for call in func.calls:
                for callee in graph.callee_functions(call):
                    for fault, (origin, origin_line) in self.fault_out.get(
                        callee, {}
                    ).items():
                        outcome, guard = _guard_outcome(call.guards, fault)
                        if outcome != "swallowed" or guard is None:
                            continue
                        key = (guard.line, guard.col, fault, origin)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield FaultSwallow(
                            func=qname,
                            guard=guard,
                            call=call,
                            callee=callee,
                            fault=fault,
                            origin=origin,
                            origin_line=origin_line,
                        )

    def descendants(self, entry: str) -> set[str]:
        """``entry`` plus every function transitively callable from it."""
        graph = self.graph
        out: set[str] = set()
        stack = [entry]
        while stack:
            qname = stack.pop()
            if qname in out:
                continue
            out.add(qname)
            func = graph.functions.get(qname)
            if func is None:
                continue
            for call in func.calls:
                for callee in graph.callee_functions(call):
                    if callee not in out:
                        stack.append(callee)
        return out

    # -- return units -------------------------------------------------

    def ref_unit(self, ref: str) -> str:
        """The unit a summary ref resolves to ('' unknown)."""
        if ref.startswith("u:"):
            return ref[2:]
        if ref.startswith("c:"):
            dotted = ref[2:]
            external = EXTERNAL_RETURN_UNITS.get(dotted)
            if external is not None:
                return external
            resolved = self.graph.resolve(dotted)
            if resolved is None or resolved[0] != "func":
                return ""
            return self.return_units.get(resolved[1], "")
        return ""

    def _compute_return_units(self) -> None:
        graph = self.graph
        for qname, func in graph.functions.items():
            if func.return_unit_declared:
                self.return_units[qname] = func.return_unit_declared
        changed = True
        while changed:
            changed = False
            for qname, func in graph.functions.items():
                if qname in self.return_units:
                    continue
                units = {
                    unit
                    for unit in (
                        self.ref_unit(ref) for ref in func.return_refs
                    )
                    if unit
                }
                if len(units) == 1:
                    self.return_units[qname] = units.pop()
                    changed = True


def analyze(graph: ProjectGraph) -> ProjectAnalysis:
    """Run every propagation to its fixed point."""
    return ProjectAnalysis(graph)
