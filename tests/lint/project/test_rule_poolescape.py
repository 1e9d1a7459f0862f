"""ARCH011: transitive picklability of the shard payload."""

from __future__ import annotations


SPEC = """
    from dataclasses import dataclass
    from repro.core.fit import Fit

    @dataclass(frozen=True)
    class ShardSpec:
        fit: Fit
        n: int
    """


def files_with_fit(fit_source: str) -> dict[str, str]:
    return {
        "repro/microbench/campaign.py": SPEC,
        "repro/core/fit.py": fit_source,
    }


class TestPoolEscape:
    def test_plain_mutable_class_is_flagged(self, project):
        files = files_with_fit(
            """
            class Fit:
                def __init__(self, params):
                    self.params = params
            """
        )
        findings, _ = project(files, codes=["ARCH011"])
        assert [f.code for f in findings] == ["ARCH011"]
        (finding,) = findings
        assert finding.path.endswith("repro/core/fit.py")
        assert "ShardSpec -> Fit" in finding.message

    def test_frozen_dataclass_is_clean(self, project):
        files = files_with_fit(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Fit:
                params: tuple
            """
        )
        findings, _ = project(files, codes=["ARCH011"])
        assert findings == []

    def test_unfrozen_dataclass_is_flagged(self, project):
        files = files_with_fit(
            """
            from dataclasses import dataclass

            @dataclass
            class Fit:
                params: tuple
            """
        )
        findings, _ = project(files, codes=["ARCH011"])
        assert [f.code for f in findings] == ["ARCH011"]
        assert "frozen=True" in findings[0].message

    def test_pickle_protocol_excuses_plain_class(self, project):
        files = files_with_fit(
            """
            class Fit:
                def __init__(self, params):
                    self.params = params

                def __getstate__(self):
                    return self.params

                def __setstate__(self, state):
                    self.params = state
            """
        )
        findings, _ = project(files, codes=["ARCH011"])
        assert findings == []

    def test_enum_and_exception_classes_are_inert(self, project):
        files = {
            "repro/microbench/campaign.py": """
                from dataclasses import dataclass
                from repro.core.fit import Mode, FitError

                @dataclass(frozen=True)
                class ShardSpec:
                    mode: Mode
                    error: FitError
                """,
            "repro/core/fit.py": """
                import enum

                class Mode(enum.Enum):
                    FAST = "fast"

                class FitError(ValueError):
                    pass
                """,
        }
        findings, _ = project(files, codes=["ARCH011"])
        assert findings == []

    def test_unpicklable_field_annotation_is_flagged(self, project):
        files = files_with_fit(
            """
            from dataclasses import dataclass
            from threading import Lock

            @dataclass(frozen=True)
            class Fit:
                guard: Lock
            """
        )
        findings, _ = project(files, codes=["ARCH011"])
        assert [f.code for f in findings] == ["ARCH011"]
        assert "Lock" in findings[0].message

    def test_two_hop_reachability(self, project):
        files = {
            "repro/microbench/campaign.py": SPEC,
            "repro/core/fit.py": """
                from dataclasses import dataclass
                from repro.core.theta import Theta

                @dataclass(frozen=True)
                class Fit:
                    theta: Theta
                """,
            "repro/core/theta.py": """
                class Theta:
                    def __init__(self):
                        self.values = []
                """,
        }
        findings, _ = project(files, codes=["ARCH011"])
        assert [f.code for f in findings] == ["ARCH011"]
        assert findings[0].path.endswith("repro/core/theta.py")
        assert "ShardSpec -> Fit -> Theta" in findings[0].message

    def test_unreachable_mutable_class_is_clean(self, project):
        files = {
            "repro/microbench/campaign.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class ShardSpec:
                    n: int
                """,
            "repro/core/fit.py": """
                class Fit:
                    def __init__(self):
                        self.x = 1
                """,
        }
        findings, _ = project(files, codes=["ARCH011"])
        assert findings == []

    def test_suppression_at_reached_class(self, project):
        files = files_with_fit(
            """
            # archlint: disable=ARCH011
            class Fit:
                def __init__(self, params):
                    self.params = params
            """
        )
        findings, _ = project(files, codes=["ARCH011"])
        assert findings == []
