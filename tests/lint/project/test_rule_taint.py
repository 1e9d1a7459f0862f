"""ARCH008: call paths from shard entries to RNG/clock sinks."""

from __future__ import annotations


TAINTED = {
    "repro/microbench/campaign.py": """
        from repro.store.store import save_entry

        def run_shard(spec):
            return save_entry(spec)
        """,
    "repro/store/store.py": """
        import time

        def save_entry(spec):
            return {"created": time.time(), "spec": spec}
        """,
}


def codes(findings):
    return [f.code for f in findings]


class TestTaint:
    def test_wall_clock_sink_reached_from_run_shard(self, project):
        findings, _ = project(TAINTED, codes=["ARCH008"])
        assert codes(findings) == ["ARCH008"]
        (finding,) = findings
        assert finding.path.endswith("repro/store/store.py")
        assert "run_shard" in finding.message
        assert "time.time" in finding.message
        assert "save_entry" in finding.message  # the call chain.

    def test_multi_hop_chain(self, project):
        files = {
            "repro/microbench/campaign.py": """
                from repro.store.store import save_entry

                def run_shard(spec):
                    return save_entry(spec)
                """,
            "repro/store/store.py": """
                from repro.store.clockutil import stamp

                def save_entry(spec):
                    return stamp()
                """,
            "repro/store/clockutil.py": """
                import time

                def stamp():
                    return time.time()
                """,
        }
        findings, _ = project(files, codes=["ARCH008"])
        assert codes(findings) == ["ARCH008"]
        assert "save_entry" in findings[0].message
        assert "stamp" in findings[0].message

    def test_global_rng_sink(self, project):
        files = {
            "repro/microbench/campaign.py": """
                import numpy as np

                def run_shard(spec):
                    return np.random.rand(3)
                """,
        }
        findings, _ = project(files, codes=["ARCH008"])
        assert codes(findings) == ["ARCH008"]
        assert "numpy.random.rand" in findings[0].message

    def test_explicit_generator_and_perf_counter_are_clean(self, project):
        files = {
            "repro/microbench/campaign.py": """
                import time
                import numpy as np

                def run_shard(spec):
                    rng = np.random.default_rng(spec)
                    start = time.perf_counter()
                    return rng.normal(), time.perf_counter() - start
                """,
        }
        findings, _ = project(files, codes=["ARCH008"])
        assert findings == []

    def test_sink_outside_entry_reachability_is_clean(self, project):
        files = {
            "repro/microbench/campaign.py": """
                def run_shard(spec):
                    return spec
                """,
            "repro/store/store.py": """
                import time

                def unrelated():
                    return time.time()
                """,
        }
        findings, _ = project(files, codes=["ARCH008"])
        assert findings == []

    def test_suppression_at_sink_endpoint(self, project):
        files = dict(TAINTED)
        files["repro/store/store.py"] = """
            import time

            def save_entry(spec):
                # gc-age metadata, not measurement time.
                # archlint: disable=ARCH008
                return {"created": time.time(), "spec": spec}
            """
        findings, _ = project(files, codes=["ARCH008"])
        assert findings == []

    def test_suppression_at_entry_endpoint(self, project):
        files = dict(TAINTED)
        files["repro/microbench/campaign.py"] = """
            from repro.store.store import save_entry

            # archlint: disable=ARCH008
            def run_shard(spec):
                return save_entry(spec)
            """
        findings, _ = project(files, codes=["ARCH008"])
        assert findings == []
