"""Why both tiers: each per-file rule catches what its whole-program
successor cannot see.

A successor (ARCH008-ARCH011) checks only what is reachable from the
shard entries, the retry loop or the shard payload; its per-file rule
(ARCH001, ARCH002, ARCH003, ARCH005) checks every module in its scope.
Each tree below holds one violation that no entry or payload type
reaches, so ``--project`` reports the per-file code and not the
successor's -- deleting a per-file rule in favour of its successor
would lose it.
"""

from __future__ import annotations

import pytest

TREES = {
    # ARCH009 propagates units across boundaries, but a mixed ``+``
    # carries no unit, so the sum reaching the shard entry is unknown.
    ("ARCH005", "ARCH009"): {
        "repro/microbench/campaign.py": """
            from repro.core.energy import total

            def run_shard(spec, run_joules, run_seconds):
                return total(run_joules, run_seconds)
            """,
        "repro/core/energy.py": """
            def total(run_joules, run_seconds):
                return run_joules + run_seconds
            """,
    },
    # A global-RNG draw in a model-path module that no shard entry calls.
    ("ARCH001", "ARCH008"): {
        "repro/microbench/campaign.py": """
            def run_shard(spec):
                return spec
            """,
        "repro/machine/x.py": """
            import random

            def jitter():
                return random.random()
            """,
    },
    # A bare ``except:`` outside the retry loop's call tree.
    ("ARCH003", "ARCH010"): {
        "repro/microbench/runner.py": """
            class BenchmarkRunner:
                def execute(self, kernel):
                    return kernel.run()
            """,
        "repro/serve/x.py": """
            def handle(step):
                try:
                    return step()
                except:
                    return None
            """,
    },
    # A mutable dataclass in a payload module that no payload type
    # references.
    ("ARCH002", "ARCH011"): {
        "repro/microbench/campaign.py": """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ShardSpec:
                platform_id: str

            @dataclass
            class Progress:
                done: int = 0
            """,
    },
}


@pytest.mark.parametrize(
    "per_file, successor",
    list(TREES),
    ids=[f"{a}-not-{b}" for a, b in TREES],
)
def test_per_file_rule_catches_what_successor_cannot(
    project, per_file, successor
):
    findings, _ = project(
        TREES[per_file, successor], codes=[per_file, successor]
    )
    assert [f.code for f in findings] == [per_file]
