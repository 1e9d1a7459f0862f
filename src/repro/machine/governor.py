"""A DVFS-style power-cap governor.

Real platforms do not enforce their power budget with the closed-form
``max()`` of eq. (3); they run a discrete control loop (RAPL, on-die
microcontrollers, driver governors) that measures power each interval
and nudges the clock up or down.  The simulated governor reproduces
that behaviour: multiplicative frequency steps with hysteresis, which
yields the characteristic sawtooth oscillation around the cap and an
*average* throughput close to -- but not exactly -- the model's ideal
``delta_pi / P_demand``.

The governor works in normalised units: the kernel needs ``work``
seconds of execution at full speed, and at full speed draws
``demand_power`` Watts of dynamic power.  At relative frequency ``f``
the dynamic power is ``f * demand_power`` and progress accrues at rate
``f`` (energy per operation held constant, the paper's assumption --
utilisation-dependent energy scaling is layered on by the engine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GovernorSettings",
    "GovernorResult",
    "GovernorBatchResult",
    "run_governor",
    "run_governor_batch",
]


@dataclass(frozen=True)
class GovernorSettings:
    """Control-loop characteristics of a platform's cap enforcement."""

    period: float = 1e-3  #: control interval, seconds.
    hysteresis: float = 0.03  #: dead band around the cap (relative).
    gain: float = 0.10  #: multiplicative frequency step per interval.
    f_min: float = 0.05  #: lowest relative frequency the loop allows.
    max_segments: int = 20_000  #: safety bound on trace length.

    def __post_init__(self) -> None:
        if not self.period > 0:
            raise ValueError("period must be positive")
        if not 0 <= self.hysteresis < 1:
            raise ValueError("hysteresis must be in [0, 1)")
        if not 0 < self.gain < 1:
            raise ValueError("gain must be in (0, 1)")
        if not 0 < self.f_min <= 1:
            raise ValueError("f_min must be in (0, 1]")
        if self.max_segments < 1:
            raise ValueError("max_segments must be >= 1")


@dataclass(frozen=True)
class GovernorResult:
    """Outcome of one governed execution.

    ``durations[k]`` seconds were spent at relative frequency
    ``frequencies[k]``; dynamic power during that segment is
    ``frequencies[k] * demand_power``.
    """

    durations: np.ndarray
    frequencies: np.ndarray
    throttled: bool

    @property
    def wall_time(self) -> float:
        """Total execution time, seconds."""
        return float(np.sum(self.durations))

    @property
    def mean_frequency(self) -> float:
        """Time-weighted mean relative frequency."""
        return float(np.dot(self.durations, self.frequencies) / self.wall_time)


def run_governor(
    work: float,
    demand_power: float,
    cap: float,
    settings: GovernorSettings | None = None,
) -> GovernorResult:
    """Execute ``work`` full-speed-seconds under a dynamic-power cap.

    Parameters
    ----------
    work:
        Seconds of execution required at full frequency.
    demand_power:
        Dynamic power at full frequency, Watts.
    cap:
        Dynamic power budget (``delta_pi``), Watts.  ``inf`` disables
        throttling.
    settings:
        Control-loop characteristics; defaults are typical of RAPL-class
        governors (1 ms interval, 3 % dead band).

    Returns the per-segment schedule.  The loop starts optimistically at
    full frequency (devices ramp up first and throttle on the first
    over-budget reading), so a throttled run's average power slightly
    overshoots the cap early on -- visible in real traces too.
    """
    if not work > 0:
        raise ValueError(f"work must be positive, got {work!r}")
    if demand_power < 0:
        raise ValueError("demand_power must be non-negative")
    if not cap > 0:
        raise ValueError("cap must be positive")
    settings = settings or GovernorSettings()

    if demand_power <= cap:
        return GovernorResult(
            durations=np.array([work]),
            frequencies=np.array([1.0]),
            throttled=False,
        )

    target = cap / demand_power  # steady-state frequency the loop hunts for
    f = 1.0
    remaining = work
    elapsed = 0.0  # running cumsum of appended durations (trace timeline)
    durations: list[float] = []
    frequencies: list[float] = []
    for _ in range(settings.max_segments):
        step = settings.period
        progress = f * step
        if progress >= remaining:
            tail = remaining / f
            # A residual below the timeline's floating-point resolution
            # would emit a trailing segment of (effectively) zero width
            # -- its edge collapses onto the previous one and the run's
            # PowerTrace rejects the schedule.  Exact consumption of the
            # work drops the degenerate tail instead.
            if elapsed + tail > elapsed:
                durations.append(tail)
                frequencies.append(f)
            remaining = 0.0
            break
        durations.append(step)
        frequencies.append(f)
        elapsed += step
        remaining -= progress
        power = f * demand_power
        # One-sided enforcement: throttle the moment the budget is
        # exceeded, but only boost once comfortably below it -- the
        # loop settles slightly *under* the cap, as real controllers do.
        if power > cap:
            f = max(settings.f_min, f * (1.0 - settings.gain))
        elif power < cap * (1.0 - 2.0 * settings.hysteresis):
            f = min(1.0, f * (1.0 + settings.gain))
    else:
        # Work did not finish within the segment budget; finish the
        # remainder at the steady-state target frequency in one segment.
        tail_f = max(target, settings.f_min)
        tail = remaining / tail_f
        if elapsed + tail > elapsed:
            durations.append(tail)
            frequencies.append(tail_f)

    return GovernorResult(
        durations=np.asarray(durations),
        frequencies=np.asarray(frequencies),
        throttled=True,
    )


@dataclass(frozen=True)
class GovernorBatchResult:
    """Per-kernel schedules of one lockstep batch execution.

    Storage is ragged -- kernel ``i``'s schedule is
    ``(durations[i], frequencies[i])`` -- because throttled runs finish
    at different control-loop iterations.  :meth:`result` materialises
    the per-kernel :class:`GovernorResult`, bit-identical to what
    :func:`run_governor` returns for the same ``(work, demand, cap,
    settings)``.

    ``trace_wall_times`` and ``trace_segment_durations`` carry the
    trace geometry a ``PowerTrace`` built from kernel ``i``'s schedule
    would expose (``duration`` and ``segment_durations``), computed
    here through the same cumulative-sum/difference chain
    ``PowerTrace.from_durations`` runs -- bit-for-bit equal to building
    the trace, without paying for per-kernel trace construction on the
    batch hot path.
    """

    durations: tuple[np.ndarray, ...]
    frequencies: tuple[np.ndarray, ...]
    throttled: np.ndarray  #: bool per kernel.
    trace_wall_times: np.ndarray  #: PowerTrace.duration per kernel.
    trace_segment_durations: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.durations)

    def result(self, i: int) -> GovernorResult:
        """The i-th kernel's schedule as a :class:`GovernorResult`."""
        return GovernorResult(
            durations=self.durations[i],
            frequencies=self.frequencies[i],
            throttled=bool(self.throttled[i]),
        )

    def results(self) -> list[GovernorResult]:
        return [self.result(i) for i in range(len(self))]


def run_governor_batch(
    work: np.ndarray,
    demand_power: np.ndarray,
    cap: float | np.ndarray,
    settings: GovernorSettings | None = None,
) -> GovernorBatchResult:
    """Vectorised :func:`run_governor` over a whole batch of kernels.

    Every kernel's sawtooth control loop advances in lockstep: one
    control interval per iteration, with per-kernel frequency and
    remaining-work vectors updated as whole-array NumPy operations.
    Each lane performs exactly the floating-point operations of the
    scalar loop, in the same order, so the returned schedules are
    bit-for-bit identical to calling :func:`run_governor` per kernel
    -- the property ``tests/machine/test_governor_batch.py`` asserts
    differentially.

    ``cap`` may be a scalar (one budget for the whole batch, the
    engine's case) or a per-kernel array.  Kernels whose demand does
    not exceed their cap come back as the unthrottled single-segment
    schedule, exactly as the scalar path returns them, and so do
    throttled kernels whose work fits in one control interval; only
    the rest enter the lockstep loop.
    """
    work = np.asarray(work, dtype=float)
    demand = np.asarray(demand_power, dtype=float)
    if work.ndim != 1:
        raise ValueError("work must be a 1-D array")
    if demand.shape != work.shape:
        raise ValueError(
            f"demand_power shape {demand.shape} != work shape {work.shape}"
        )
    cap_arr = np.broadcast_to(np.asarray(cap, dtype=float), work.shape)
    if not np.all(work > 0):
        raise ValueError("work must be positive for every kernel")
    if np.any(demand < 0):
        raise ValueError("demand_power must be non-negative")
    if not np.all(cap_arr > 0):
        raise ValueError("cap must be positive")
    settings = settings or GovernorSettings()

    n = len(work)
    durations: list[np.ndarray | None] = [None] * n
    frequencies: list[np.ndarray | None] = [None] * n
    seg_durs: list[np.ndarray | None] = [None] * n
    walls = np.empty(n)
    throttled = demand > cap_arr
    # A throttled run whose work fits in one control interval finishes
    # in the loop's first, at f = 1.0 (progress ``period`` covers it),
    # with the tail ``work / 1.0 == work``: the unthrottled schedule,
    # though the run still counts as throttled.
    single = ~throttled | (work <= settings.period)

    for i in np.flatnonzero(single):
        # A one-segment trace has a single edge at ``work``; its
        # geometry is the schedule itself.
        durations[i] = np.array([work[i]])
        frequencies[i] = np.array([1.0])
        seg_durs[i] = np.array([work[i]])
        walls[i] = work[i]

    idx = np.flatnonzero(~single)
    if idx.size:
        step = settings.period
        F, full_segs, tails, tail_freqs = _lockstep(
            work[idx], demand[idx], cap_arr[idx], settings
        )
        # Every full segment lasts exactly ``period``, so all lanes
        # share one elapsed-time chain: E[k] is the trace timeline
        # after k full segments, accumulated by the same sequential
        # additions ``PowerTrace.from_durations`` (np.cumsum) performs.
        kmax = int(full_segs.max())
        E = np.empty(kmax + 1)
        E[0] = 0.0
        if kmax:
            np.cumsum(np.full(kmax, step), out=E[1:])
        dE = np.diff(E)  # shared per-segment trace durations
        elapsed = E[full_segs]
        wall_with_tail = elapsed + tails
        # Scalar degenerate-tail rule: drop a trailing segment whose
        # residual cannot advance the trace timeline.
        kept = wall_with_tail > elapsed
        lane_walls = np.where(kept, wall_with_tail, elapsed)
        last_seg = lane_walls - elapsed  # trace's diff() of the tail edge
        walls[idx] = lane_walls
        rows = len(F)
        for j, i in enumerate(idx):
            k = int(full_segs[j])
            n_seg = k + 1 if kept[j] else k
            d = np.full(n_seg, step)
            fr = np.empty(n_seg)
            sd = np.empty(n_seg)
            head = min(k, rows)
            fr[:head] = F[:head, j]
            # Past its fixed point a lane runs at its last frequency.
            fr[head:k] = F[rows - 1, j]
            sd[:k] = dE[:k]
            if kept[j]:
                d[k] = tails[j]
                fr[k] = tail_freqs[j]
                sd[k] = last_seg[j]
            durations[i] = d
            frequencies[i] = fr
            seg_durs[i] = sd

    return GovernorBatchResult(
        durations=tuple(durations),  # type: ignore[arg-type]
        frequencies=tuple(frequencies),  # type: ignore[arg-type]
        throttled=throttled,
        trace_wall_times=walls,
        trace_segment_durations=tuple(seg_durs),  # type: ignore[arg-type]
    )


def _lockstep(
    work: np.ndarray,
    demand: np.ndarray,
    cap: np.ndarray,
    settings: GovernorSettings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All throttled lanes' control loops, advanced in lockstep.

    Returns ``(F, full_segs, tails, tail_freqs)``: ``F`` is an
    ``(rows, lanes)`` matrix whose row ``t`` holds every lane's
    frequency at the start of control interval ``t``; a lane that ran
    past ``rows`` intervals kept the frequency of the last row (rows
    past a lane's finish are unused).  ``full_segs[j]`` is the number
    of full-period segments lane ``j`` ran before finishing (equal to
    ``max_segments`` when its budget ran out), and ``tails``/
    ``tail_freqs`` describe its trailing partial segment.

    Bit-identity with the scalar loop rests on three facts.  First,
    each per-lane operation here is the same floating-point operation
    the scalar loop performs, in the same order, just evaluated across
    lanes at once.  Second, the scalar chain ``remaining -= progress``
    is tracked as its negation ``c += progress`` (one in-place add per
    interval): IEEE-754 rounding is sign-symmetric, so
    ``fl(c + p) == -fl(r - p)`` exactly and the finish test
    ``progress >= -c`` reproduces the scalar comparison bit-for-bit.
    Frequency updates never depend on remaining work, so lanes that
    already finished can keep updating harmlessly -- no masked
    arithmetic is needed anywhere in the loop body.  Third, a lane's
    next frequency depends only on its current one, so once no
    unfinished lane's frequency changed in an interval, none ever
    changes again: the loop stops there and :func:`_finish_chains`
    completes the remaining-work chains at constant progress.
    """
    m = len(work)
    step = settings.period
    down = 1.0 - settings.gain
    up = 1.0 + settings.gain
    f_min = settings.f_min
    boost_below = cap * (1.0 - 2.0 * settings.hysteresis)

    f = np.ones(m)
    c = np.negative(work)  # == -remaining, exactly, for unfinished lanes
    done = np.zeros(m, dtype=bool)
    full_segs = np.full(m, settings.max_segments, dtype=np.int64)
    tails = np.zeros(m)
    tail_freqs = np.zeros(m)

    F = np.empty((min(settings.max_segments, 1024), m))
    # Buffers reused across iterations: the loop body allocates nothing.
    progress = np.empty(m)
    remaining = np.empty(m)
    fin = np.empty(m, dtype=bool)
    notdone = np.ones(m, dtype=bool)
    power = np.empty(m)
    throttle = np.empty(m, dtype=bool)
    boost = np.empty(m, dtype=bool)
    scratch = np.empty(m)
    previous = np.empty(m)
    changed = np.empty(m, dtype=bool)

    for t in range(settings.max_segments):
        if t == len(F):
            F = np.vstack([F, np.empty_like(F)])
        F[t] = f
        np.multiply(f, step, out=progress)
        np.negative(c, out=remaining)
        np.greater_equal(progress, remaining, out=fin)
        np.logical_and(fin, notdone, out=fin)
        if fin.any():
            full_segs[fin] = t
            tails[fin] = remaining[fin] / f[fin]
            tail_freqs[fin] = f[fin]
            np.logical_or(done, fin, out=done)
            if done.all():
                return F[: t + 1], full_segs, tails, tail_freqs
            np.logical_not(done, out=notdone)
        np.add(c, progress, out=c)
        np.multiply(f, demand, out=power)
        np.greater(power, cap, out=throttle)
        np.less(power, boost_below, out=boost)
        np.copyto(previous, f)
        # throttle and boost are disjoint (power cannot be both above
        # the cap and below the boost band), so updating f in two
        # masked copies reads each lane's pre-update frequency.
        np.multiply(f, down, out=scratch)
        np.maximum(scratch, f_min, out=scratch)
        np.copyto(f, scratch, where=throttle)
        np.multiply(f, up, out=scratch)
        np.minimum(scratch, 1.0, out=scratch)
        np.copyto(f, scratch, where=boost)
        np.not_equal(f, previous, out=changed)
        np.logical_and(changed, notdone, out=changed)
        if not changed.any():
            lanes = np.flatnonzero(notdone)
            exhausted = _finish_chains(
                lanes, f, c, t + 1, settings, full_segs, tails, tail_freqs
            )
            notdone[:] = False
            notdone[exhausted] = True
            break
    if notdone.any():
        # Segment budget exhausted: finish each unfinished lane at
        # its steady-state target frequency in one segment.
        np.negative(c, out=remaining)
        target = np.maximum(cap / demand, f_min)
        tails[notdone] = remaining[notdone] / target[notdone]
        tail_freqs[notdone] = target[notdone]
    return F[: t + 1], full_segs, tails, tail_freqs


def _finish_chains(
    lanes: np.ndarray,
    f: np.ndarray,
    c: np.ndarray,
    start: int,
    settings: GovernorSettings,
    full_segs: np.ndarray,
    tails: np.ndarray,
    tail_freqs: np.ndarray,
) -> np.ndarray:
    """Finish ``lanes`` at constant frequency from interval ``start``.

    Each lane now adds the same progress ``f * period`` every interval,
    so its remaining-work chain is one ``np.add.accumulate`` row: the
    same sequential additions the loop makes, in the same order.  The
    first interval whose progress covers the remaining work finishes
    the lane, exactly as in the loop.  Fills ``full_segs``, ``tails``
    and ``tail_freqs`` for the lanes that finish within the budget,
    leaves each other lane's final chain value in ``c`` and returns
    those lanes.
    """
    progress = f[lanes] * settings.period
    chain_end = c[lanes]
    while lanes.size:
        left = settings.max_segments - start
        if left == 0:
            break
        # The finish interval is about remaining / progress away; two
        # more cover rounding, and a short horizon just goes round again.
        horizon = int(min(left, np.max(-chain_end / progress) + 2))
        chain = np.empty((lanes.size, horizon + 1))
        chain[:, 0] = chain_end
        chain[:, 1:] = progress[:, None]
        np.add.accumulate(chain, axis=1, out=chain)
        remaining = np.negative(chain[:, :horizon])
        hit = progress[:, None] >= remaining
        found = hit.any(axis=1)
        first = hit.argmax(axis=1)
        done = lanes[found]
        full_segs[done] = start + first[found]
        rem = remaining[found, first[found]]
        tails[done] = rem / f[done]
        tail_freqs[done] = f[done]
        lanes = lanes[~found]
        progress = progress[~found]
        chain_end = chain[~found, horizon]
        start += horizon
    c[lanes] = chain_end
    return lanes
