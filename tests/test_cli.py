"""Tests for the archline CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def _subprocess_env() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("ARCHLINE_CACHE", None)  # a warm store would skip the fit
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


FLEET_WORKLOAD = str(
    Path(__file__).parent.parent / "examples" / "fleet_workload.json"
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_experiment_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_platform_validates_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["platform", "cray-1"])

    def test_quick_flag(self):
        args = build_parser().parse_args(["run", "vd", "--quick"])
        assert args.quick


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gtx-titan" in out
        assert "table1" in out

    def test_platform(self, capsys):
        assert main(["platform", "xeon-phi"]) == 0
        out = capsys.readouterr().out
        assert "time balance" in out
        assert "Xeon Phi" in out

    def test_run_cheap_experiment(self, capsys):
        code = main(["run", "vd"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Power throttling" in out
        assert "PASS" in out

    def test_run_multiple(self, capsys):
        code = main(["run", "vc", "vd"])
        out = capsys.readouterr().out
        assert code == 0
        assert "vc:" in out and "vd:" in out

    def test_bench_platform(self, capsys):
        assert main(["bench", "arndale-gpu", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "delta_pi" in out
        assert "Arndale GPU" in out

    def test_audit(self, capsys):
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "internal-consistency audit" in out
        assert "INCONSISTENT" in out

    def test_export(self, capsys, tmp_path):
        assert main(["export", "--outdir", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "claims.csv" in out
        assert (tmp_path / "a" / "fig1.csv").exists()

    def test_roofline_and_compare_registered(self):
        parser = build_parser()
        args = parser.parse_args(["roofline", "gtx-titan"])
        assert args.metric == "performance"
        args = parser.parse_args(["compare", "gtx-titan", "arndale-gpu"])
        assert args.metric == "flops_per_joule"

    def test_algorithms(self, capsys):
        assert main(["algorithms", "--platform", "xeon-phi"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "best platform" in out

    def test_uncertainty(self, capsys):
        assert main(["uncertainty", "arndale-gpu", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fit uncertainty" in out
        assert "delta_pi" in out


class TestCampaignFaults:
    @pytest.mark.parametrize("spec", ["bogus=1", "truncation=0.9"])
    def test_unusable_plan_is_a_usage_error(self, capsys, spec):
        """An unknown fault kind (a campaign never truncates a run, so
        ``truncation`` is not one) is refused instead of running clean."""
        argv = ["campaign", "pandaboard-es", "--quick", "--faults", spec]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("archline campaign: bad --faults spec: ")


class TestCampaignPlatforms:
    @pytest.mark.parametrize(
        "platforms, message",
        [
            (["gtx-titan", "gtx-titan"], "duplicate platform ids"),
            (["gtx-titan", "cray-1"], "unknown platform(s) cray-1; choose from"),
        ],
        ids=["duplicate", "unknown"],
    )
    def test_bad_platform_list_is_a_usage_error(
        self, capsys, tmp_path, platforms, message
    ):
        """A refused campaign creates no store at its ``--cache``."""
        store = tmp_path / "store"
        argv = ["campaign", *platforms, "--quick", "--cache", str(store)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"archline campaign: {message}")
        assert not store.exists()


class TestClosedPipe:
    """``archline list | head -1``: a reader that closes stdout early
    ends the process quietly, without a ``BrokenPipeError`` traceback."""

    @pytest.mark.parametrize("command", ["list", "audit"])
    def test_reader_gone_before_first_write(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", command],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_subprocess_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


#: What a campaign, a replay of one, ``list`` and a bare import must not
#: load: the other commands' engines, every experiment, process pools,
#: which no campaign starts, and ``numpy.ma``, which ``np.median``
#: imports (the fit seeds its energies with its own).
NOT_FOR_CAMPAIGN = (
    "asyncio",
    "numpy.ma",
    "multiprocessing",
    "concurrent.futures.process",
    "repro.serve.server",
    "repro.fleet.solver",
    "repro.lint.engine",
    "repro.lint.output",
    "repro.lint.findings",
    "repro.experiments.fig1",
)
#: A truth-theta fleet solve fits nothing and reads no store.
NOT_FOR_FLEET = (
    "asyncio",
    "repro.microbench.campaign",
    "repro.core.fitting",
    "repro.store.store",
    "repro.lint.engine",
    "repro.lint.output",
    "repro.lint.findings",
)
NOT_FOR_LINT = ("asyncio", "repro.microbench.campaign")
CAMPAIGN = ["campaign", "gtx-titan", "--quick", "--workers", "1"]


class TestNoScipy:
    """Each command imports only what it runs (DESIGN.md, "Import
    conventions").  No command imports scipy, not even one that fits:
    the fit's solvers are numpy ports and scipy is a test-only
    dependency."""

    PROBE = (
        "import json, sys\n"
        "forbidden = json.loads(sys.argv[1])\n"
        "from repro.cli import main\n"
        "code = main(sys.argv[2:]) if sys.argv[2:] else 0\n"
        "loaded = [name for name in forbidden if name in sys.modules]\n"
        "sys.stderr.write(f'loaded: {loaded}\\n')\n"
        "raise SystemExit(code)\n"
    )

    def probe(self, argv, forbidden):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                self.PROBE,
                json.dumps(["scipy", *forbidden]),
                *argv,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=_subprocess_env(),
            timeout=120,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "loaded: []"

    @pytest.mark.parametrize(
        "argv, forbidden",
        [
            ([], NOT_FOR_CAMPAIGN),
            (["list"], NOT_FOR_CAMPAIGN),
            (["platform", "gtx-titan"], ()),
            (["audit"], ()),
            (["fleet", "--workload", FLEET_WORKLOAD], NOT_FOR_FLEET),
            (CAMPAIGN, ()),
            (["uncertainty", "gtx-titan", "--seeds", "2"], ()),
            (
                ["fleet", "--workload", FLEET_WORKLOAD, "--theta", "fitted"],
                ("numpy.ma",),
            ),
            (
                ["lint", str(Path(repro.__file__).parent / "units.py")],
                NOT_FOR_LINT,
            ),
        ],
        ids=[
            "import",
            "list",
            "platform",
            "audit",
            "fleet",
            "campaign",
            "uncertainty",
            "fleet-fitted",
            "lint",
        ],
    )
    def test_scipy_not_imported(self, argv, forbidden):
        self.probe(argv, forbidden)

    def test_campaign_and_its_replay_load_only_the_campaign(self, tmp_path):
        argv = [*CAMPAIGN, "--cache", str(tmp_path / "store")]
        self.probe(argv, NOT_FOR_CAMPAIGN)  # cold: fills the store.
        self.probe(argv, NOT_FOR_CAMPAIGN)  # replay: every shard hits.


class TestModuleMain:
    """``python -m repro.cli`` runs the CLI module once, as ``__main__``:
    no subcommand parser imports it again as ``repro.cli``."""

    def test_cli_module_is_not_imported_twice(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro.cli", *CAMPAIGN],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=_subprocess_env(),
            timeout=120,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = [
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "repro.microbench.campaign" in imported
        assert "repro.cli" not in imported


class TestIntegerFlags:
    """Integer flags are checked where they are parsed: a bad value is
    a usage error (exit 2) naming the flag, not a traceback, a failed
    shard or a server that starts.  So is a flag that no longer
    exists."""

    @staticmethod
    def usage_error(argv):
        """Run ``archline ARGV``, check that it is a usage error and
        return its stderr."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_subprocess_env(),
            timeout=60,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        return proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table1", "--quick", "--seed", "-1"],
            ["bench", "gtx-titan", "--seed", "-1"],
            ["campaign", "gtx-titan", "--quick", "--seed", "-1"],
            ["campaign", "gtx-titan", "--quick", "--max-retries", "-1"],
            ["campaign", "gtx-titan", "--quick", "--workers", "2"],
            [
                "fleet", "--workload", FLEET_WORKLOAD,
                "--theta", "fitted", "--seed", "-1",
            ],
            ["serve", "--port", "0", "--seed", "-1"],
            ["serve", "--port", "-1"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "0", "--linger-us", "-5"],
            ["uncertainty", "gtx-titan", "--seeds", "1"],
        ],
        ids=[
            "run-seed",
            "bench-seed",
            "campaign-seed",
            "campaign-max-retries",
            "campaign-workers",
            "fleet-seed",
            "serve-seed",
            "serve-port-negative",
            "serve-port-too-large",
            "serve-linger-us",
            "uncertainty-seeds",
        ],
    )
    def test_bad_value_is_a_usage_error(self, argv):
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert f"argument {flag}" in self.usage_error(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "gtx-titan", "--quick", "--shard-timeout", "5"],
            ["run", "table1", "--quick", "--workers", "2"],
            ["bench", "gtx-titan", "--quick", "--trajectory"],
        ],
        ids=["campaign-shard-timeout", "run-workers", "bench-trajectory"],
    )
    def test_removed_flag_is_a_usage_error(self, argv):
        """Campaigns run shard by shard in one process, so the process
        pool's flags are gone (``campaign --workers 1`` still parses).
        ``bench`` runs one platform's microbenchmark campaign and has
        no ``--trajectory`` flag: ``e2ebench/`` measures speed."""
        stderr = self.usage_error(argv)
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in stderr


class TestOutputPaths:
    """Files a command writes when it finishes (``--trace``, ``--json``)
    are checked where they are parsed: a path in a missing directory,
    or one that is a directory, is a usage error before any work, store
    or socket -- not a traceback after all of it."""

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "gtx-titan", "--quick", "--trace"],
            ["fleet", "--workload", FLEET_WORKLOAD, "--json"],
            ["fleet", "--workload", FLEET_WORKLOAD, "--trace"],
            ["serve", "--port", "0", "--trace"],
        ],
        ids=["campaign-trace", "fleet-json", "fleet-trace", "serve-trace"],
    )
    def test_unwritable_output_is_a_usage_error(self, tmp_path, argv, where):
        out = tmp_path / "nodir" / "out" if where == "missing-parent" else tmp_path
        store = tmp_path / "store"
        full = [*argv, str(out)]
        if argv[0] == "campaign":
            full += ["--cache", str(store)]
        stderr = TestIntegerFlags.usage_error(full)
        assert f"argument {argv[-1]}" in stderr
        assert not store.exists()


class TestServeParser:
    """``archline serve`` argument surface (the service itself is
    load-tested in tests/serve/)."""

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.max_batch == 32
        assert args.linger_us == 1000
        assert args.trace is None
        assert not args.refresh
        assert not args.quick_fit

    def test_all_knobs(self):
        args = build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "0",
                "--max-batch", "8", "--linger-us", "500",
                "--max-body-bytes", "1024", "--trace", "t.jsonl",
                "--cache", "/tmp/c", "--refresh", "--quick-fit",
                "--seed", "7",
            ]
        )
        assert args.port == 0
        assert args.max_batch == 8
        assert args.linger_us == 500
        assert args.max_body_bytes == 1024
        assert args.trace == "t.jsonl"
        assert args.cache_dir == "/tmp/c"
        assert args.refresh
        assert args.quick_fit
        assert args.seed == 7

    def test_cache_flags_mutually_exclusive(self, capsys):
        assert main(["serve", "--cache", "/tmp/c", "--no-cache"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_refresh_requires_cache(self, capsys, monkeypatch):
        monkeypatch.delenv("ARCHLINE_CACHE", raising=False)
        assert main(["serve", "--refresh"]) == 2
        assert "needs a cache" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_unusable_cache_path_is_usage_error(self, tmp_path, capsys, where):
        """Refused before the server starts, instead of a traceback."""
        afile = tmp_path / "README.md"
        afile.write_text("not a store")
        path = afile if where == "file" else afile / "cache"
        assert main(["serve", "--port", "0", "--cache", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("archline serve: ") and str(path) in err


class TestLoadgenCli:
    def test_port_is_required(self):
        from repro.serve.loadgen import main as loadgen_main

        with pytest.raises(SystemExit) as err:
            loadgen_main([])
        assert err.value.code == 2  # argparse usage error
