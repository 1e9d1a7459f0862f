"""Per-file analysis context shared by every rule.

One :class:`ModuleContext` is built per linted file: the parsed AST,
the source lines, the module's dotted name (inferred from the package
layout on disk), the resolved import table, and the inline suppression
comments.  Rules receive the context alongside each dispatched node and
use it to resolve names (``np.random.rand`` -> ``numpy.random.rand``)
and to emit findings.

Suppressions
------------
``# archlint: disable=ARCH004`` at the end of a line suppresses the
named code(s) on that physical line (comma-separated codes, or
``all``).  On a comment-only line the directive applies to the *next*
line instead, so a justification can sit above the code it excuses.
``# archlint: disable-file=ARCH002`` anywhere in the file suppresses
the code for the whole file.  An inline suppression is the one way to
silence a finding, so write the justification next to it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

_SUPPRESS_RE = re.compile(
    r"#\s*archlint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<codes>all|[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
)

#: Matches ``all`` in a suppression comment.
ALL_CODES = "all"


def module_name_for(path: Path) -> str:
    """Infer a file's dotted module name from ``__init__.py`` markers.

    ``src/repro/machine/engine.py`` -> ``repro.machine.engine``; a file
    outside any package is just its stem.  Scoped rules key off this,
    so fixtures fed through :func:`repro.lint.engine.lint_source` pass
    an explicit module name instead.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleContext:
    """Everything the rules know about one file under analysis."""

    path: str
    module: str  #: dotted module name, e.g. ``"repro.machine.engine"``.
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: local name -> fully qualified name, from import statements.
    imports: dict[str, str] = field(default_factory=dict)
    #: line number -> set of suppressed codes (or {"all"}).
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: codes suppressed for the whole file.
    file_suppressions: set[str] = field(default_factory=set)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module: str = ""
    ) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(
            path=path,
            module=module or Path(path).stem,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        ctx._scan_imports()
        ctx._scan_suppressions()
        return ctx

    # -- name resolution ----------------------------------------------

    def _scan_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import numpy.random`` binds ``numpy``; only an
                    # asname binds the full dotted path.
                    target = alias.name if alias.asname else local
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import: keep it package-local.
                    base = "." * node.level + node.module
                else:
                    base = node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}"

    def dotted_name(self, node: ast.expr) -> str | None:
        """The ``a.b.c`` chain of a Name/Attribute node, or ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolve(self, node: ast.expr) -> str | None:
        """Fully qualified dotted name of a Name/Attribute chain.

        The chain's root is looked up in the import table, so with
        ``import numpy as np`` the node ``np.random.rand`` resolves to
        ``numpy.random.rand``; an unimported root resolves to itself.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        resolved_root = self.imports.get(root, root)
        return f"{resolved_root}.{rest}" if rest else resolved_root

    def in_module(self, *prefixes: str) -> bool:
        """Whether this file lies under any of the dotted prefixes."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    # -- suppressions -------------------------------------------------

    def _scan_suppressions(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            codes = {
                code.strip() for code in match.group("codes").split(",")
            }
            if match.group("scope"):
                self.file_suppressions |= codes
                continue
            # A comment-only line shields the next line, so the
            # justification can sit above the code it excuses.
            comment_only = text.lstrip().startswith("#")
            target = lineno + 1 if comment_only else lineno
            self.line_suppressions.setdefault(target, set()).update(codes)

    def is_suppressed(self, code: str, line: int) -> bool:
        if code in self.file_suppressions or ALL_CODES in self.file_suppressions:
            return True
        codes = self.line_suppressions.get(line, ())
        return code in codes or ALL_CODES in codes
