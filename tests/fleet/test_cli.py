"""The ``archline fleet`` subcommand: argument validation (the shared
finite-positive validators), usage-error exits, the golden end-to-end
fixture over the Table I dozen, bit-determinism of the JSON report,
and the fitted-theta store counters.

Regenerate the golden report deliberately with::

    PYTHONPATH=src python -m pytest tests/fleet/test_cli.py --update-golden
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.flags import nonnegative_float, positive_float, positive_int

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_fleet.json"

WORKLOAD = {
    "horizon": 3600.0,
    "bins": [
        {"algorithm": "matmul", "n": 8192, "jobs": 400},
        {"algorithm": "fft", "n": 16777216, "jobs": 1200},
        {"algorithm": "stencil", "n": 1e8, "jobs": 900},
        {"algorithm": "spmv", "n": 1e7, "jobs": 600},
        {"W": 2e12, "Q": 4e10, "jobs": 150, "label": "custom-kernel"},
    ],
}


@pytest.fixture
def workload_path(tmp_path):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(WORKLOAD))
    return str(path)


class TestSharedValidators:
    """Satellite 2: one strict numeric validator set for every
    subcommand, so NaN/inf/negative budgets die at parse time."""

    def test_positive_float_accepts(self):
        assert positive_float("2.5") == 2.5
        assert positive_float("1e-9") == 1e-9

    @pytest.mark.parametrize(
        "bad", ["0", "-1", "nan", "NaN", "inf", "-inf", "abc", ""]
    )
    def test_positive_float_rejects(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_float(bad)

    def test_nonnegative_float_accepts_zero(self):
        assert nonnegative_float("0") == 0.0
        assert nonnegative_float("3") == 3.0

    @pytest.mark.parametrize("bad", ["-0.5", "nan", "inf", "x"])
    def test_nonnegative_float_rejects(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            nonnegative_float(bad)

    @pytest.mark.parametrize("bad", ["0", "-2", "1.5", "nan", "x"])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_int(bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--workload", "w.json", "--power-budget", "nan"],
            ["fleet", "--workload", "w.json", "--power-budget", "-5"],
            ["fleet", "--workload", "w.json", "--cost-budget", "inf"],
            ["fleet", "--workload", "w.json", "--horizon", "0"],
            ["fleet", "--workload", "w.json", "--states", "0"],
            ["campaign", "--workers", "2"],
            ["serve", "--max-batch", "0"],
            ["serve", "--max-body-bytes", "-1"],
        ],
    )
    def test_bad_flag_values_exit_2_at_parse(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2

    def test_fleet_flags_parse(self, workload_path):
        args = build_parser().parse_args(
            [
                "fleet",
                "--workload", workload_path,
                "--power-budget", "2000",
                "--cost-budget", "50000",
                "--objective", "cost",
                "--platforms", "gtx-titan", "nuc-cpu",
                "--exact",
            ]
        )
        assert args.command == "fleet"
        assert args.power_budget == 2000.0
        assert args.objective == "cost"
        assert args.platforms == ["gtx-titan", "nuc-cpu"]

    def test_unknown_platform_rejected_at_parse(self, workload_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "--workload", workload_path,
                 "--platforms", "cray-1"]
            )


class TestUsageErrors:
    def test_missing_workload_file(self, capsys):
        assert main(["fleet", "--workload", "/no/such/file.json"]) == 2
        assert "cannot read --workload" in capsys.readouterr().err

    def test_bad_workload_spec(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"bins": []}')
        assert main(["fleet", "--workload", str(path)]) == 2
        assert "bad workload spec" in capsys.readouterr().err

    def test_cache_and_no_cache_conflict(self, workload_path, capsys):
        code = main(
            ["fleet", "--workload", workload_path,
             "--cache", "/tmp/x", "--no-cache"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_refresh_without_cache(self, workload_path, capsys, monkeypatch):
        monkeypatch.delenv("ARCHLINE_CACHE", raising=False)
        assert main(
            ["fleet", "--workload", workload_path, "--refresh"]
        ) == 2
        assert "--refresh needs a cache" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_unusable_cache_path(self, workload_path, tmp_path, capsys, where):
        """Refused before any campaign runs, instead of a traceback."""
        afile = tmp_path / "README.md"
        afile.write_text("not a store")
        path = afile if where == "file" else afile / "cache"
        code = main(
            ["fleet", "--workload", workload_path, "--theta", "fitted",
             "--cache", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("archline fleet: ") and str(path) in err

    def test_truth_theta_creates_no_store(self, workload_path, tmp_path):
        cache = tmp_path / "cache"
        code = main(
            ["fleet", "--workload", workload_path, "--cache", str(cache)]
        )
        assert code == 0
        assert not cache.exists()

    def test_unknown_costs_platform(self, workload_path, tmp_path, capsys):
        costs = tmp_path / "costs.json"
        costs.write_text('{"cray-1": 1000}')
        code = main(
            ["fleet", "--workload", workload_path, "--costs", str(costs)]
        )
        assert code == 2
        assert "unknown platform" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, field, value, message",
        [
            pytest.param(
                where, field, value, message,
                id=f"{field or 'cost'}-{type(value).__name__}",
            )
            for where, field, values, message in [
                ("spec", "horizon", ("3600", True), "horizon must be"),
                # An int beyond the float range is a number, but not a
                # finite one.
                ("bin", "jobs", ("400", True, 10**400), "jobs must be"),
                ("bin", "n", ("8192", True), "n must be"),
                ("bin", "algorithm", (["matmul"],), "algorithm must be"),
                ("raw", "W", ("2e12", True), "W must be"),
                ("raw", "Q", ("4e10", True), "Q must be"),
                # A JSON boolean is the one valid resident, a string the
                # one valid label: each takes a number as its other row.
                ("bin", "resident", ("false", 1), "resident must be"),
                ("raw", "label", (True, 7), "label must be"),
                # A bare entry is a unit cost: a bool is not one.
                ("costs", None, (True,), "unit_cost for nuc-gpu"),
                (
                    "costs", "unit_cost", ("350", True, 10**400),
                    "unit_cost for nuc-gpu",
                ),
                ("costs", "max_nodes", ("8", True), "max_nodes for nuc-gpu"),
            ]
            for value in values
        ],
    )
    def test_bad_json_field_is_a_usage_error(
        self, tmp_path, capsys, where, field, value, message
    ):
        """A string or a bool where a number belongs, a number beyond
        the float range, a non-bool resident or a non-string label or
        algorithm is a usage error naming the field, not a traceback, a
        garbled message or a silent 1."""
        spec = json.loads(json.dumps(WORKLOAD))
        costs = None
        if where == "spec":
            spec[field] = value
        elif where in ("bin", "raw"):
            spec["bins"][0 if where == "bin" else 4][field] = value
        elif field is None:
            costs = {"nuc-gpu": value}
        else:
            costs = {"nuc-gpu": {"unit_cost": 350, "max_nodes": 8, field: value}}
        workload = tmp_path / "w.json"
        workload.write_text(json.dumps(spec))
        argv = ["fleet", "--workload", str(workload)]
        if costs is not None:
            (tmp_path / "costs.json").write_text(json.dumps(costs))
            argv += ["--costs", str(tmp_path / "costs.json")]
        assert main(argv) == 2
        kind = "bad costs document" if where == "costs" else "bad workload spec"
        assert f"archline fleet: {kind}: {message}" in capsys.readouterr().err

    def test_infeasible_exits_1(self, workload_path, capsys):
        code = main(
            ["fleet", "--workload", workload_path,
             "--power-budget", "1e-6"]
        )
        assert code == 1
        assert "No node mix" in capsys.readouterr().out


def run_fleet_report(tmp_path, *extra):
    """Run the subcommand end-to-end; return (exit code, report dict)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps(WORKLOAD))
    out = tmp_path / "report.json"
    code = main(
        ["fleet", "--workload", str(workload), "--json", str(out), *extra]
    )
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """The Table-I-dozen solve the golden file pins: all twelve
    platforms, both budgets binding, theta truth."""
    code, report = run_fleet_report(
        tmp_path_factory.mktemp("golden"),
        "--power-budget", "2000",
        "--cost-budget", "50000",
    )
    assert code == 0
    return report


@pytest.fixture(scope="module", autouse=True)
def maybe_update(request, computed):
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(computed, indent=2) + "\n")


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} is missing; generate it with "
            f"pytest tests/fleet/test_cli.py --update-golden"
        )
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenEndToEnd:
    def test_report_matches_golden(self, computed, golden):
        assert computed == golden

    def test_solution_is_optimal(self, computed):
        assert computed["solution"]["status"] == "optimal"
        assert computed["solution"]["total_nodes"] > 0
        assert computed["solution"]["power_watts"] <= 2000
        assert computed["solution"]["cost"] <= 50000

    def test_every_bin_covered(self, computed):
        covered = {}
        for a in computed["allocations"]:
            covered[a["bin"]] = covered.get(a["bin"], 0) + a["jobs"]
        for b in computed["workload"]["bins"]:
            label = b.get("label") or (
                f"{b['algorithm']}(n={b['n']:g})"
            )
            assert covered[label] >= b["jobs"] - 1e-6

    def test_twelve_platforms_considered(self, computed):
        assert len(computed["platforms"]) == 12

    def test_store_block_null_for_truth(self, computed):
        assert computed["store"] is None


class TestDeterminism:
    def test_json_bit_identical_across_runs(self, tmp_path):
        """ISSUE acceptance: byte-identical reports for fixed inputs."""
        outs = []
        for run in ("a", "b"):
            workload = tmp_path / f"w{run}.json"
            workload.write_text(json.dumps(WORKLOAD))
            out = tmp_path / f"r{run}.json"
            assert main(
                ["fleet", "--workload", str(workload),
                 "--power-budget", "2000", "--json", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_exact_matches_scalable_objective(self, tmp_path):
        _, scalable = run_fleet_report(tmp_path, "--power-budget", "2000")
        _, exact = run_fleet_report(
            tmp_path, "--power-budget", "2000", "--exact"
        )
        assert (
            exact["solution"]["objective_value"]
            == scalable["solution"]["objective_value"]
        )


class TestTraceExport:
    def test_trace_validates_and_has_fleet_spans(self, tmp_path):
        from repro.telemetry.jsonl import read_spans, validate_trace_file

        workload = tmp_path / "w.json"
        workload.write_text(json.dumps(WORKLOAD))
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["fleet", "--workload", str(workload), "--trace", str(trace)]
        ) == 0
        assert validate_trace_file(trace) > 0  # raises on schema breaks
        grouped = read_spans(trace)
        assert set(grouped) == {"fleet"}
        names = {s.name for s in grouped["fleet"]}
        assert {"fleet_evaluate", "fleet_solve"} <= names


class TestFittedTheta:
    """The fitted path resolves theta-hat through the PR-7 store; the
    counters in the report prove the cache actually served."""

    ARGS = (
        "--theta", "fitted",
        "--quick-fit",
        "--platforms", "gtx-titan", "nuc-cpu",
    )

    def test_cold_then_warm_counters(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ARCHLINE_CACHE", raising=False)
        cache = tmp_path / "cache"
        code, cold = run_fleet_report(
            tmp_path / "run1", *self.ARGS, "--cache", str(cache)
        )
        assert code == 0
        assert cold["store"]["hits"] == 0
        assert cold["store"]["misses"] > 0
        assert cold["store"]["puts"] == cold["store"]["misses"]

        code, warm = run_fleet_report(
            tmp_path / "run2", *self.ARGS, "--cache", str(cache)
        )
        assert code == 0
        assert warm["store"]["misses"] == 0
        assert warm["store"]["puts"] == 0
        assert warm["store"]["hits"] == cold["store"]["misses"]
        # Identical semantics modulo the counters.
        cold["store"] = warm["store"] = None
        assert cold == warm
