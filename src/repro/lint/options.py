"""Option values the ``archline lint`` parser offers.

Every ``archline`` process builds the lint parser, so these live apart
from the module that implements them (:mod:`.output`): building the
parser does not import it.
"""

from __future__ import annotations

__all__ = ["FORMATS"]

#: Output formats :func:`repro.lint.output.render` knows.
FORMATS = ("text", "json", "github")
