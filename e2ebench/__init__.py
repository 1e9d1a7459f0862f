"""End-to-end benchmark of the ``archline`` CLI, with per-layer traces.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload campaign_cold --seed 1 --seconds 40 --trace 0

See ``e2ebench/README.md`` for the workloads, the metrics and the map
from each per-layer metric to the end-to-end metric it should move.
"""
