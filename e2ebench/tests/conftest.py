"""Make ``e2ebench`` and the program's ``repro`` package importable.

Run from the root of a checkout::

    python3 -m pytest -q e2ebench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
