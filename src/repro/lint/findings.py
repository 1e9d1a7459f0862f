"""Finding records: what a lint rule reports.

A :class:`Finding` pins one violation to a file, line and column with a
stable rule code (``ARCH001``...), the registry name of the rule that
raised it, and a human message.  Those six fields are everything a
report prints, and :meth:`Finding.to_dict` / :meth:`Finding.from_dict`
round-trip them, so one form serves both ``--format json`` and the
``--project`` summary cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: file path as given to the linter (repo-relative in CI).
    line: int  #: 1-based line of the offending node.
    col: int  #: 0-based column of the offending node.
    code: str  #: stable rule code, e.g. ``"ARCH004"``.
    message: str  #: human explanation, names the offending construct.
    rule: str = ""  #: registry name of the rule, e.g. ``"float-equality"``.

    def render_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """JSON form (see ``docs/LINT.md``), also the cache's form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)
