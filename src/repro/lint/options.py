"""Option values the ``archline lint`` parser offers.

Every ``archline`` process builds the lint parser, so these live apart
from the modules that implement them (:mod:`.output`, :mod:`.baseline`):
building the parser imports neither.
"""

from __future__ import annotations

__all__ = ["DEFAULT_BASELINE_NAME", "FORMATS"]

#: Output formats :func:`repro.lint.output.render` knows.
FORMATS = ("text", "json", "github")

#: The committed baseline ``archline lint`` reads when it exists.
DEFAULT_BASELINE_NAME = "archlint.baseline.json"
