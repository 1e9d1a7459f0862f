"""Cross-module symbol table and call-reference resolution.

A :class:`ProjectGraph` indexes every :class:`ModuleSummary` by module
name and every function/class by qualified name, then resolves the
dotted references recorded in summaries:

* direct hits (``repro.microbench.suite.run_campaign``);
* methods through class qnames, walking project base classes
  (``Engine.run_batch`` found on a subclass resolves on its base);
* package re-exports: ``repro.microbench.ShardSpec`` follows the
  ``__init__`` import table to ``repro.microbench.campaign.ShardSpec``,
  chained to a bounded depth;
* one-hop attribute calls (``self.engine.run``) through the owning
  class's recorded attribute types.

Resolution is *best effort and conservative*: an unresolvable
reference produces no call edge (never a spurious finding).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .summaries import CallSite, ClassSummary, FunctionSummary, ModuleSummary

__all__ = ["ProjectGraph", "ResolvedTarget"]

#: Bases whose subclasses pickle fine without dataclass machinery.
_INERT_BASES = frozenset(
    {
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "NamedTuple",
        "TypedDict",
        "Protocol",
    }
)

#: Maximum re-export hops to follow (cycles and pathological chains).
_MAX_REBASE = 10

ResolvedTarget = tuple[str, str]  #: ("func" | "class", qname)


class ProjectGraph:
    """The whole-program index built from per-file summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}
        self._imports: dict[str, dict[str, str]] = {}
        self._paths: dict[str, str] = {}  #: qname/module -> file path.
        for summary in summaries:
            self.modules[summary.module] = summary
            self._imports[summary.module] = dict(summary.imports)
            self._paths[summary.module] = summary.path
            for func in summary.functions:
                self.functions[func.qname] = func
                self._paths[func.qname] = summary.path
            for cls in summary.classes:
                self.classes[cls.qname] = cls
                self._paths[cls.qname] = summary.path

    # -- lookups ------------------------------------------------------

    def path_of(self, qname: str) -> str:
        """File path that defines a known qname ('' if unknown)."""
        return self._paths.get(qname, "")

    # -- resolution ---------------------------------------------------

    def resolve(self, dotted: str) -> ResolvedTarget | None:
        """Resolve a dotted reference to a known function or class.

        Follows package re-export chains and project class hierarchies;
        returns ``None`` for external or unresolvable references.
        """
        current = dotted
        for _ in range(_MAX_REBASE):
            if current in self.functions:
                return ("func", current)
            if current in self.classes:
                return ("class", current)
            prefix, _, leaf = current.rpartition(".")
            if prefix in self.classes:
                method = self.resolve_method(prefix, leaf)
                if method is not None:
                    return ("func", method)
                return None
            rebased = self._rebase(current)
            if rebased is None or rebased == current:
                return None
            current = rebased
        return None

    def resolve_method(
        self, class_qname: str, method: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """A method's defining qname, walking project base classes."""
        if class_qname in _seen:
            return None
        qname = f"{class_qname}.{method}"
        if qname in self.functions:
            return qname
        cls = self.classes.get(class_qname)
        if cls is None:
            return None
        seen = _seen | {class_qname}
        for base in cls.bases:
            resolved = self.resolve(base)
            if resolved is None or resolved[0] != "class":
                continue
            found = self.resolve_method(resolved[1], method, seen)
            if found is not None:
                return found
        return None

    def _rebase(self, dotted: str) -> str | None:
        """One re-export hop: rewrite ``pkg.local.rest`` through the
        longest known module prefix's import table."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            imports = self._imports.get(module)
            if imports is None:
                continue
            target = imports.get(parts[i])
            if target is None:
                return None
            rest = ".".join(parts[i + 1 :])
            return f"{target}.{rest}" if rest else target
        return None

    # -- call-edge expansion ------------------------------------------

    def _expand_ref(self, ref: str) -> Iterator[ResolvedTarget]:
        """Resolved targets of one callee reference (handles the
        ``class#attr#method`` attribute-hop form)."""
        if "#" in ref:
            class_qname, attr, method = ref.split("#", 2)
            cls = self.classes.get(class_qname)
            if cls is None:
                return
            attr_refs = dict(cls.attr_refs).get(attr, ())
            for type_ref in attr_refs:
                resolved = self.resolve(type_ref)
                if resolved is None or resolved[0] != "class":
                    continue
                found = self.resolve_method(resolved[1], method)
                if found is not None:
                    yield ("func", found)
            return
        resolved = self.resolve(ref)
        if resolved is not None:
            yield resolved

    def call_targets(self, call: CallSite) -> list[ResolvedTarget]:
        """Every resolved target of a call site, deduplicated."""
        out: dict[ResolvedTarget, None] = {}
        for ref in call.callees:
            for target in self._expand_ref(ref):
                out[target] = None
        return list(out)

    def callee_functions(self, call: CallSite) -> list[str]:
        """Function qnames a call can land on; class targets expand to
        their ``__init__`` when one is defined in the project."""
        out: dict[str, None] = {}
        for kind, qname in self.call_targets(call):
            if kind == "func":
                out[qname] = None
            else:
                init = self.resolve_method(qname, "__init__")
                if init is not None:
                    out[init] = None
        return list(out)

    # -- class shape helpers ------------------------------------------

    def is_inert_class(self, cls: ClassSummary) -> bool:
        """Enums, NamedTuples, exceptions: picklable without dataclass
        machinery, and terminal for reachability."""
        for base in cls.bases:
            leaf = base.rsplit(".", 1)[-1]
            if leaf in _INERT_BASES:
                return True
            if leaf.endswith(("Error", "Exception", "Warning")):
                return True
        return False

    def has_pickle_protocol(self, cls: ClassSummary) -> bool:
        methods = set(cls.methods)
        return (
            {"__getstate__", "__setstate__"} <= methods
            or "__reduce__" in methods
            or "__reduce_ex__" in methods
        )
