"""Plain-text reporting: tables, series rendering, paper-vs-measured."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".compare": (
            "Claim",
            "claim_close",
            "claim_true",
            "fraction_passing",
            "rel_deviation",
            "render_claims",
        ),
        ".export": ("export_all", "rows_to_csv", "write_csv"),
        ".series": ("log2_label", "series_table", "sparkline"),
        ".tables": ("Table", "fmt_num", "fmt_pct", "fmt_si"),
    },
)
