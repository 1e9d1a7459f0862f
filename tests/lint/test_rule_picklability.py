"""ARCH002: positive and negative fixtures for shard-payload picklability."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source

POOL_MODULE = "repro.microbench.campaign"


def lint(source: str, module: str = POOL_MODULE):
    return lint_source(textwrap.dedent(source), module=module, codes=["ARCH002"])


def test_flags_unfrozen_dataclass():
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass
        class ShardThing:
            n: int
        """
    )
    assert [f.code for f in findings] == ["ARCH002"]
    assert "frozen=True" in findings[0].message


def test_flags_frozen_false():
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass(frozen=False)
        class ShardThing:
            n: int
        """
    )
    assert [f.code for f in findings] == ["ARCH002"]


def test_accepts_frozen_dataclass():
    assert (
        lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ShardThing:
                n: int
                label: str = "x"
            """
        )
        == []
    )


def test_flags_unpicklable_field_annotation():
    findings = lint(
        """
        from dataclasses import dataclass
        from typing import Callable

        @dataclass(frozen=True)
        class ShardThing:
            hook: Callable[[int], int]
        """
    )
    assert [f.code for f in findings] == ["ARCH002"]
    assert "Callable" in findings[0].message


def test_flags_string_annotation_too():
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ShardThing:
            hook: "Callable[[int], int]"
        """
    )
    assert [f.code for f in findings] == ["ARCH002"]


def test_classvar_fields_are_exempt():
    assert (
        lint(
            """
            from dataclasses import dataclass
            from typing import Callable, ClassVar

            @dataclass(frozen=True)
            class ShardThing:
                registry: ClassVar[Callable[[], None]] = None
                n: int = 0
            """
        )
        == []
    )


def test_non_dataclass_classes_are_ignored():
    assert (
        lint(
            """
            from typing import Callable

            class Helper:
                hook: Callable[[int], int]
            """
        )
        == []
    )


def test_rule_scoped_to_pool_modules():
    source = textwrap.dedent(
        """
        from dataclasses import dataclass

        @dataclass
        class Mutable:
            n: int
        """
    )
    assert lint_source(source, module="repro.stats.fake", codes=["ARCH002"]) == []
    assert len(lint_source(source, module="repro.machine.kernel", codes=["ARCH002"])) == 1
