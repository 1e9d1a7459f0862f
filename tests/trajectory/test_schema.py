"""Report schema: validation, environment fingerprint, round-trip."""

import json

import pytest

from repro.trajectory import (
    REPORT_KIND,
    SCHEMA_VERSION,
    SUITE_CAMPAIGNS,
    environment_fingerprint,
    load_report,
    validate_report,
    write_report,
)


def minimal_report():
    return {
        "schema": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "environment": environment_fingerprint(),
        "campaigns": {
            name: {"wall_seconds": 0.1, "n_runs": 10}
            for name in SUITE_CAMPAIGNS
        },
    }


class TestFingerprint:
    def test_has_all_fields(self):
        env = environment_fingerprint()
        assert set(env) == {
            "python", "numpy", "platform", "machine", "cpu_count",
        }
        assert isinstance(env["cpu_count"], int)
        assert env["cpu_count"] >= 1

    def test_json_serialisable(self):
        json.dumps(environment_fingerprint())


class TestValidate:
    def test_minimal_report_valid(self):
        validate_report(minimal_report())

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be an object"):
            validate_report([1, 2])

    def test_rejects_wrong_schema_version(self):
        report = minimal_report()
        report["schema"] = 99
        with pytest.raises(ValueError, match="schema version"):
            validate_report(report)

    def test_rejects_wrong_kind(self):
        report = minimal_report()
        report["kind"] = "something_else"
        with pytest.raises(ValueError, match="kind"):
            validate_report(report)

    def test_rejects_missing_environment_field(self):
        report = minimal_report()
        del report["environment"]["numpy"]
        with pytest.raises(ValueError, match="numpy"):
            validate_report(report)

    def test_rejects_missing_suite_campaign(self):
        report = minimal_report()
        del report["campaigns"]["capped_sweep"]
        with pytest.raises(ValueError, match="capped_sweep"):
            validate_report(report)

    def test_rejects_missing_wall_seconds(self):
        report = minimal_report()
        del report["campaigns"]["cached_campaign"]["wall_seconds"]
        with pytest.raises(ValueError, match="wall_seconds"):
            validate_report(report)

    def test_rejects_non_numeric_metric(self):
        report = minimal_report()
        report["campaigns"]["capped_sweep"]["n_runs"] = "many"
        with pytest.raises(ValueError, match="must be a number"):
            validate_report(report)

    def test_rejects_bool_metric(self):
        report = minimal_report()
        report["campaigns"]["capped_sweep"]["n_throttled"] = True
        with pytest.raises(ValueError, match="must be a number"):
            validate_report(report)

    def test_rejects_non_finite_metric(self):
        report = minimal_report()
        report["campaigns"]["uncapped_sweep"]["runs_per_second"] = float(
            "inf"
        )
        with pytest.raises(ValueError, match="finite"):
            validate_report(report)

    def test_rejects_negative_wall_seconds(self):
        report = minimal_report()
        report["campaigns"]["uncapped_sweep"]["wall_seconds"] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            validate_report(report)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "BENCH_campaign.json"
        write_report(path, minimal_report())
        loaded = load_report(path)
        assert loaded["schema"] == SCHEMA_VERSION
        assert set(loaded["campaigns"]) == set(SUITE_CAMPAIGNS)

    def test_output_is_stable(self, tmp_path):
        """Same report, same bytes: the committed file must not churn."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_report(a, minimal_report())
        write_report(b, minimal_report())
        assert a.read_bytes() == b.read_bytes()

    def test_floats_rounded_on_disk(self, tmp_path):
        report = minimal_report()
        report["campaigns"]["uncapped_sweep"]["wall_seconds"] = (
            0.12345678901234567
        )
        path = tmp_path / "r.json"
        write_report(path, report)
        assert "0.123457" in path.read_text()

    def test_partial_write_never_replaces_baseline(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write must leave the committed baseline intact
        (the write goes through a temp file + ``os.replace``)."""
        import repro.store.atomic as atomic_module

        path = tmp_path / "BENCH_campaign.json"
        write_report(path, minimal_report())
        baseline = path.read_bytes()

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic_module.os, "replace", explode)
        broken = minimal_report()
        broken["campaigns"]["uncapped_sweep"]["wall_seconds"] = 999.0
        with pytest.raises(OSError, match="disk full"):
            write_report(path, broken)
        assert path.read_bytes() == baseline
        # No stray temp files alongside the baseline either.
        assert list(tmp_path.iterdir()) == [path]

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not JSON"):
            load_report(path)

    def test_load_rejects_invalid_report(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_report(path)

    def test_write_rejects_invalid_report(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "r.json", {"schema": 1})
