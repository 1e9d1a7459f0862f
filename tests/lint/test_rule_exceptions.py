"""ARCH003: positive and negative fixtures for fault-exception hygiene."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source


def lint(source: str, module: str = "repro.anywhere.fake"):
    return lint_source(textwrap.dedent(source), module=module, codes=["ARCH003"])


def test_flags_bare_except():
    findings = lint(
        """
        def run(step):
            try:
                step()
            except:
                pass
        """
    )
    assert [f.code for f in findings] == ["ARCH003"]
    assert "bare" in findings[0].message


def test_flags_broad_except_that_discards_error():
    findings = lint(
        """
        def run(step):
            try:
                step()
            except Exception:
                return None
        """
    )
    assert [f.code for f in findings] == ["ARCH003"]
    assert "retry/quarantine" in findings[0].message


def test_broad_except_with_reraise_is_fine():
    assert (
        lint(
            """
            def run(step):
                try:
                    step()
                except Exception:
                    cleanup()
                    raise
            """
        )
        == []
    )


def test_broad_except_that_records_the_error_is_fine():
    assert (
        lint(
            """
            def run(step, log):
                try:
                    step()
                except Exception as exc:
                    log.append(str(exc))
            """
        )
        == []
    )


def test_broad_except_binding_but_ignoring_error_is_flagged():
    findings = lint(
        """
        def run(step):
            try:
                step()
            except Exception as exc:
                return None
        """
    )
    assert [f.code for f in findings] == ["ARCH003"]


def test_flags_noop_rig_fault_handler():
    findings = lint(
        """
        from repro.faults.errors import RigFaultError

        def run(step):
            try:
                step()
            except RigFaultError:
                pass
        """
    )
    assert [f.code for f in findings] == ["ARCH003"]
    assert "drops a rig fault" in findings[0].message


def test_flags_noop_fault_subclass_in_tuple():
    findings = lint(
        """
        def run(step):
            try:
                step()
            except (ValueError, EmptyChannelError):
                ...
        """
    )
    assert [f.code for f in findings] == ["ARCH003"]


def test_fault_handler_with_accounting_is_fine():
    assert (
        lint(
            """
            def run(step, report):
                try:
                    step()
                except RigFaultError as fault:
                    report.record(fault)
            """
        )
        == []
    )


def test_narrow_handlers_are_fine():
    assert (
        lint(
            """
            def parse(text):
                try:
                    return float(text)
                except ValueError:
                    return None
            """
        )
        == []
    )
