"""Statistics utilities: K-S test, descriptive stats, bootstrap, NLS."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".bootstrap": ("BootstrapCI", "bootstrap_paired_ci"),
        ".descriptive": (
            "BoxplotStats",
            "boxplot_stats",
            "pearson",
            "quantile",
        ),
        ".ks": ("KSResult", "kolmogorov_sf", "ks_2sample", "ks_statistic"),
        ".regression": ("LogFitResult", "fit_log_params", "nonnegative_lstsq"),
    },
)
