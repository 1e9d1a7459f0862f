"""Abstract algorithm models (W(n), Q(n; Z)) and machine analysis."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".algorithms": (
            "Algorithm",
            "AlgorithmInstance",
            "fft",
            "matrix_multiply",
            "sort_mergesort",
            "spmv_csr",
            "stencil",
            "stream_triad",
        ),
        ".analysis": (
            "AlgorithmOnMachine",
            "PlatformExclusion",
            "best_platform",
            "evaluate",
            "exclusion_reason",
            "fast_memory_capacity",
            "rank_platforms",
            "regime_transition_size",
        ),
    },
)
