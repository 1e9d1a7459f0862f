"""CSV export of the regenerated tables and figure series.

Figures in the paper are curves over intensity; the portable artifact
a reproduction can ship is the underlying data.  ``export_all`` writes
one CSV per paper artifact into a directory:

* ``table1.csv`` -- fitted vs paper constants per platform;
* ``fig1.csv`` -- the three Fig. 1 panels for Titan/Arndale/ensemble;
* ``fig4.csv`` -- per-platform error-distribution summaries;
* ``fig5.csv`` -- normalised power curves and dots per platform;
* ``fig6.csv`` / ``fig7.csv`` -- throttled power/performance/efficiency
  per cap factor;
* ``claims.csv`` -- every paper-vs-reproduction claim with its status.

All writers emit deterministic, RFC-4180-ish CSV (comma separated,
header row, ``.`` decimal point) without any third-party dependency.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["rows_to_csv", "write_csv", "export_all"]


def rows_to_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Serialise rows as CSV text (header first)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buffer.getvalue()


def write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> Path:
    """Write rows as CSV to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rows_to_csv(header, rows))
    return path


def export_all(outdir: Path) -> list[Path]:
    """Run every experiment and export its data as CSV files.

    Returns the written paths.  Imports are local so this heavyweight
    path does not slow down ``import repro.report``.
    """
    from ..core import model
    from ..core.rooflines import intensity_grid
    from ..experiments import fig1, fig4, fig5, fig6, table1
    from ..experiments.common import run_all_fits
    from ..experiments.registry import EXPERIMENTS, run_experiment
    from ..experiments.table1 import _fitted_values, _paper_values

    outdir = Path(outdir)
    written: list[Path] = []
    fits = run_all_fits()

    # table1.csv -------------------------------------------------------
    keys = [
        "sust_single_gflops", "sust_bw_gbps", "eps_s_pj", "eps_d_pj",
        "eps_mem_pj", "pi1_w", "delta_pi_w", "eps_l1_pj", "eps_l2_pj",
        "eps_rand_nj",
    ]
    rows = []
    for pid, fit in fits.items():
        ours = _fitted_values(fit)
        paper = _paper_values(pid)
        for key in keys:
            rows.append((pid, key, ours.get(key), paper.get(key)))
    written.append(
        write_csv(
            outdir / "table1.csv",
            ["platform", "parameter", "fitted", "paper"],
            rows,
        )
    )

    # fig1.csv ---------------------------------------------------------
    result1 = fig1.run(include_measurements=False)
    comparison = result1.comparison
    grid = intensity_grid(1 / 8, 256.0, 2)
    rows = []
    for label, p in (
        ("gtx-titan", comparison.reference),
        ("arndale-gpu", comparison.block),
        ("ensemble", comparison.aggregate),
    ):
        perf = model.performance(p, grid)
        eff = model.flops_per_joule(p, grid)
        power = model.power_curve(p, grid)
        for k, i_val in enumerate(grid):
            rows.append(
                (label, float(i_val), float(perf[k]), float(eff[k]), float(power[k]))
            )
    written.append(
        write_csv(
            outdir / "fig1.csv",
            ["platform", "intensity", "flops", "flops_per_joule", "power_w"],
            rows,
        )
    )

    # fig4.csv ---------------------------------------------------------
    result4 = fig4.run(fits=fits)
    rows = []
    for pid in result4.ordering:
        cmp = result4.comparisons[pid]
        rows.append(
            (
                pid,
                cmp.uncapped.median,
                cmp.capped.median,
                cmp.uncapped.stats.iqr,
                cmp.capped.stats.iqr,
                cmp.ks.statistic,
                cmp.ks.pvalue,
                int(cmp.distributions_differ),
            )
        )
    written.append(
        write_csv(
            outdir / "fig4.csv",
            [
                "platform", "uncapped_median", "capped_median",
                "uncapped_iqr", "capped_iqr", "ks_d", "ks_p", "flagged",
            ],
            rows,
        )
    )

    # fig5.csv ---------------------------------------------------------
    result5 = fig5.run(include_measurements=False)
    rows = []
    for pid, panel in result5.panels.items():
        for k, i_val in enumerate(panel.intensity):
            rows.append(
                (
                    pid,
                    float(i_val),
                    float(panel.power[k]),
                    float(panel.normalised[k]),
                    int(panel.regimes[k]),
                )
            )
    written.append(
        write_csv(
            outdir / "fig5.csv",
            ["platform", "intensity", "power_w", "normalised", "regime"],
            rows,
        )
    )

    # fig6.csv / fig7.csv ----------------------------------------------
    result6 = fig6.run()
    rows6, rows7 = [], []
    for pid, scenario in result6.scenarios.items():
        for curve in scenario.curves:
            for k, i_val in enumerate(curve.intensity):
                rows6.append(
                    (pid, curve.factor, float(i_val), float(curve.power[k]))
                )
                rows7.append(
                    (
                        pid,
                        curve.factor,
                        float(i_val),
                        float(curve.performance[k]),
                        float(curve.flops_per_joule[k]),
                    )
                )
    written.append(
        write_csv(
            outdir / "fig6.csv",
            ["platform", "cap_factor", "intensity", "power_w"],
            rows6,
        )
    )
    written.append(
        write_csv(
            outdir / "fig7.csv",
            ["platform", "cap_factor", "intensity", "flops", "flops_per_joule"],
            rows7,
        )
    )

    # claims.csv -------------------------------------------------------
    # Reuse what we already computed where possible; run the rest.
    results = {}
    for eid in EXPERIMENTS:
        if eid == "table1":
            results[eid] = table1.run(fits=fits)
        elif eid == "fig4":
            results[eid] = result4
        elif eid == "fig1":
            results[eid] = fig1.run()
        elif eid == "fig5":
            results[eid] = fig5.run()
        elif eid == "fig6":
            results[eid] = result6
        else:
            results[eid] = run_experiment(eid, fits=fits)
    rows = [
        (eid, c.name, c.paper, c.ours, int(c.ok), c.detail)
        for eid, result in results.items()
        for c in result.claims
    ]
    written.append(
        write_csv(
            outdir / "claims.csv",
            ["experiment", "claim", "paper", "reproduction", "ok", "criterion"],
            rows,
        )
    )
    return written
