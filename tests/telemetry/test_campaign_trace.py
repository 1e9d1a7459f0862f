"""Integration: telemetry threaded through shards, pools and the CLI.

The two acceptance properties: (1) the default no-op recorder leaves
campaign results bit-for-bit identical to a traced run -- tracing is
pure observation; (2) a traced campaign's spans survive the
process-pool boundary, serialise to valid JSONL, and account for the
shard's wall time (root span duration never exceeds the reported
``wall_seconds``).
"""

from dataclasses import replace

from repro.microbench.campaign import (
    CampaignRunner,
    CampaignSettings,
    ShardSpec,
    run_shard,
)
from repro.telemetry.jsonl import read_spans, validate_trace_file, write_trace
from repro.telemetry.summary import render_summary

QUICK = CampaignSettings(
    replicates=1,
    points_per_octave=2,
    target_duration=0.1,
    include_double=False,
)


def _spec(platform_id="gtx-titan", trace=False, **overrides):
    return ShardSpec(
        platform_id, replace(QUICK, seed=99, **overrides), trace=trace
    )


class TestTraceParity:
    def test_tracing_is_bit_identical(self):
        """Spans observe; they must never perturb the physics or the
        noise streams."""
        fit_off, report_off = run_shard(_spec(trace=False))
        fit_on, report_on = run_shard(_spec(trace=True))
        assert (
            fit_off.campaign.all_observations
            == fit_on.campaign.all_observations
        )
        assert (
            fit_off.capped.params.tau_flop == fit_on.capped.params.tau_flop
        )
        assert fit_off.capped.params.pi1 == fit_on.capped.params.pi1
        assert report_off.n_runs == report_on.n_runs

    def test_untraced_shard_ships_no_spans(self):
        _, report = run_shard(_spec(trace=False))
        assert report.spans == ()
        assert report.trace_bytes == 0

    def test_traced_shard_ships_spans(self):
        _, report = run_shard(_spec(trace=True))
        assert report.spans
        assert report.trace_bytes > 0
        names = {span.name for span in report.spans}
        # The full instrumented stack, root to leaf.
        assert {"shard", "campaign", "sweep", "run", "calibrate",
                "engine", "measure", "fit"} <= names

    def test_root_span_within_reported_wall(self):
        _, report = run_shard(_spec(trace=True))
        roots = [span for span in report.spans if span.parent == -1]
        assert len(roots) == 1
        assert roots[0].name == "shard"
        assert 0.0 < roots[0].duration <= report.wall_seconds

    def test_children_nest_within_root(self):
        _, report = run_shard(_spec(trace=True))
        (root,) = [span for span in report.spans if span.parent == -1]
        children = [
            span for span in report.spans if span.parent == root.index
        ]
        assert children
        assert sum(span.duration for span in children) <= root.duration
        for span in children:
            assert span.start >= root.start
            assert span.end <= root.end + 1e-9


class TestPoolMerge:
    def test_spans_cross_the_pool_boundary(self, tmp_path):
        ids = ("gtx-titan", "nuc-gpu")
        runner = CampaignRunner(ids, QUICK, max_workers=2, trace=True)
        fits = runner.run()
        report = runner.report
        assert set(fits) == set(ids)
        assert report.traced
        assert report.trace_bytes > 0
        for shard in report.shards:
            assert shard.spans, f"{shard.platform_id} shipped no spans"
            (root,) = [s for s in shard.spans if s.parent == -1]
            assert root.duration <= shard.wall_seconds

        path = tmp_path / "trace.jsonl"
        lines = write_trace(path, report)
        assert validate_trace_file(path) == lines
        by_shard = read_spans(path)
        assert set(by_shard) == set(ids)
        for shard in report.shards:
            assert tuple(by_shard[shard.platform_id]) == tuple(
                sorted(shard.spans, key=lambda s: (s.start, s.index))
            )

    def test_trace_off_by_default(self):
        runner = CampaignRunner(("gtx-titan",), QUICK, max_workers=1)
        runner.run()
        assert not runner.report.traced
        assert runner.report.trace_bytes == 0

    def test_summary_renders_traced_campaign(self):
        runner = CampaignRunner(
            ("gtx-titan",), QUICK, max_workers=1, trace=True
        )
        runner.run()
        out = render_summary(runner.report)
        assert "shard gtx-titan" in out
        assert "campaign" in out
        assert "fit" in out


class TestCampaignCli:
    def test_trace_and_progress_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        code = main(
            [
                "campaign", "gtx-titan", "nuc-gpu", "--quick",
                "--workers", "2", "--trace", str(path), "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.out
        assert "parallel efficiency" in captured.out
        # Progress lines go to stderr, one per shard, numbered.
        assert "[1/2]" in captured.err
        assert "[2/2]" in captured.err
        assert validate_trace_file(path) > 0
