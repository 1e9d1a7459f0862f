"""The :class:`FaultPlan`: a declarative, seeded description of rig faults.

A plan is pure configuration -- rates and magnitudes for each fault
model plus one seed.  It never touches ground truth: faults are applied
at the *measurement boundary* (sampled channels, run bookkeeping), so
the simulated platform's physics stay exact and every corrupted
campaign can be reproduced from ``(plan, seed)`` alone.

The fault taxonomy mirrors what the paper's physical rig (PowerMon 2 at
1024 Hz plus a PCIe interposer) actually does in the field -- see
``docs/FAULTS.md`` for the mapping:

=====================  ==================================================
field                  real-rig failure mode
=====================  ==================================================
``sample_dropout``     USB frames lost between device and host
``timestamp_jitter``   host-side timestamping noise on received samples
``channel_desync``     per-channel clock skew (channels share no clock)
``saturation_power``   ADC full-scale clipping on over-range draws
``nan_rate``           ADC glitch words decoded as invalid readings
``run_failure_rate``   whole run lost (rig hang, host crash, bad sync)
=====================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["FaultPlan"]

#: CLI spelling -> dataclass field, for :meth:`FaultPlan.parse`.
_PARSE_ALIASES = {
    "dropout": "sample_dropout",
    "jitter": "timestamp_jitter",
    "desync": "channel_desync",
    "desync_prob": "desync_probability",
    "saturation": "saturation_power",
    "nan": "nan_rate",
    "run_failure": "run_failure_rate",
}

_RATE_FIELDS = (
    "sample_dropout",
    "desync_probability",
    "nan_rate",
    "run_failure_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded configuration of every fault model (all off by default)."""

    seed: int = 0
    sample_dropout: float = 0.0  #: per-sample drop probability.
    timestamp_jitter: float = 0.0  #: stddev of timestamp noise, seconds.
    channel_desync: float = 0.0  #: max |clock skew| per channel, seconds.
    desync_probability: float = 0.0  #: probability a channel is skewed.
    saturation_power: float | None = None  #: ADC full scale, W (None = off).
    nan_rate: float = 0.0  #: per-sample invalid-reading probability.
    run_failure_rate: float = 0.0  #: per-run whole-run-loss probability.

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.timestamp_jitter < 0:
            raise ValueError("timestamp_jitter must be non-negative")
        if self.channel_desync < 0:
            raise ValueError("channel_desync must be non-negative")
        if self.saturation_power is not None and not self.saturation_power > 0:
            raise ValueError("saturation_power must be positive (or None)")

    @classmethod
    def zero(cls, seed: int = 0) -> "FaultPlan":
        """An all-zero-rate plan: the differential-test identity case."""
        return cls(seed=seed)

    @property
    def is_zero(self) -> bool:
        """Whether this plan can never corrupt anything."""
        return (
            all(
                getattr(self, name) == 0.0
                for name in _RATE_FIELDS
                if name != "desync_probability"
            )
            and self.timestamp_jitter == 0.0
            # Desync needs both a probability and a magnitude to fire.
            and (self.channel_desync == 0.0 or self.desync_probability == 0.0)
            and self.saturation_power is None
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same fault rates under a different seed."""
        return replace(self, seed=seed)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec like
        ``"dropout=0.05,run_failure=0.1,seed=7"``.

        Keys are either dataclass field names or the short aliases
        above; values are parsed as ``int`` for ``seed`` and ``float``
        otherwise.  An empty spec is the zero plan.
        """
        values: dict[str, object] = {}
        known = {f.name for f in fields(cls)}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ValueError(
                    f"bad fault spec item {part!r}: expected key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            field_name = _PARSE_ALIASES.get(key, key)
            if field_name not in known:
                choices = sorted(known | set(_PARSE_ALIASES))
                raise ValueError(
                    f"unknown fault {key!r}; choose from {', '.join(choices)}"
                )
            values[field_name] = (
                int(raw) if field_name == "seed" else float(raw)
            )
        return cls(**values)

    def describe(self) -> str:
        """Compact one-line summary of the non-default knobs."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return ", ".join(parts) if parts else "no faults"
