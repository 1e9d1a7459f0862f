"""Child processes of the ``archline`` CLI: wall time, rusage, deadlines.

Every program process the benchmark times is a fresh interpreter
spawned here, reaped with ``os.wait4`` so its CPU time and peak RSS come
from the kernel's accounting rather than from the child.  A deadline is
enforced with ``SIGALRM`` in the calling thread, so waiting adds no
thread of its own.

Process times, and calls the benchmark times in its own interpreter,
are reported in *reference seconds*: the wall time scaled by how fast
the host ran a fixed pure-Python loop on the same CPU just before and
just after.  On a shared host the same code's wall time drifts by a
quarter from minute to minute; the loop drifts with it, and no change
to the program changes the loop.
"""

from __future__ import annotations

import dataclasses
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .result import Run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
T = TypeVar("T")

#: A fresh interpreter importing the CLI: the set-up cost every
#: ``archline`` command pays before it does any work.
IMPORT_CLI = (sys.executable, "-c", "import repro.cli")


#: Nominal time of the reference loop: a process time scaled by
#: ``REFERENCE_S / measured loop time`` reads in seconds on a host that
#: runs the loop in exactly this long (about the host these bounds were
#: chosen on).
REFERENCE_S = 0.025
_REFERENCE_ITERATIONS = 300_000


def reference_s() -> float:
    """How long a fixed pure-Python loop takes on this CPU now."""
    started = time.perf_counter()
    total = 0
    for i in range(_REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


@contextmanager
def pinned() -> Iterator[None]:
    """Keep this process, and the children it spawns meanwhile, on one
    CPU, so the reference loop runs where the timed child runs."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def child_env() -> dict[str, str]:
    """The environment of every spawned program process.

    Bytecode writing is forced on so imports read cached ``.pyc`` files
    as an installed program would, and ``$ARCHLINE_CACHE`` is dropped so
    only the stores the benchmark names are used.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("ARCHLINE_CACHE", None)
    return env


def cli(*args: str) -> list[str]:
    """The argv of ``archline ARGS...`` run from source."""
    return [sys.executable, "-m", "repro.cli", *args]


@dataclass(frozen=True)
class Proc:
    """One finished child process."""

    argv: tuple[str, ...]
    returncode: int
    timed_out: bool
    wall_s: float  #: spawn to reaped exit.
    cpu_s: float  #: user + system.
    max_rss_mb: float
    stdout: str
    stderr: str
    scale: float = 1.0  #: REFERENCE_S over the measured reference time.

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out

    @property
    def scaled_s(self) -> float:
        """``wall_s`` in reference seconds."""
        return self.wall_s * self.scale

    def describe(self) -> str:
        state = "timed out" if self.timed_out else f"exit {self.returncode}"
        tail = self.stderr.strip().splitlines()[-3:]
        return f"{' '.join(self.argv[2:5])}...: {state} {' | '.join(tail)}"


def spawn(argv: Sequence[str], out_dir: Path) -> tuple[subprocess.Popen, Path, Path]:
    """Start ``argv`` with stdout/stderr sent to files in ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n = len(list(out_dir.glob("*.out")))
    out_path, err_path = out_dir / f"{n}.out", out_dir / f"{n}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
    return proc, out_path, err_path


def reap(
    proc: subprocess.Popen,
    out_path: Path,
    err_path: Path,
    started: float,
    timeout: float,
) -> Proc:
    """Wait for ``proc`` (killing it at ``timeout`` seconds after
    ``started``) and collect its rusage and output."""
    timed_out = False

    def on_alarm(signum, frame) -> None:
        nonlocal timed_out
        timed_out = True
        proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(
        signal.ITIMER_REAL, max(timeout - (time.perf_counter() - started), 1e-3)
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        argv=tuple(proc.args),
        returncode=proc.returncode,
        timed_out=timed_out,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def kill(proc: subprocess.Popen) -> None:
    """Kill and reap ``proc`` if it is still running."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def run(argv: Sequence[str], out_dir: Path, timeout: float = 120.0) -> Proc:
    """Run ``argv`` to completion; wall time spans spawn to exit, and
    the reference loop runs just before and just after."""
    before = reference_s()
    started = time.perf_counter()
    proc, out_path, err_path = spawn(argv, out_dir)
    try:
        done = reap(proc, out_path, err_path, started, timeout)
    finally:
        kill(proc)
    scale = 2 * REFERENCE_S / (before + reference_s())
    return dataclasses.replace(done, scale=scale)


def timed_call(fn: Callable[[], T]) -> tuple[T, float]:
    """``fn()``'s result and its wall time in reference seconds, for a
    call the benchmark makes into the program's own code."""
    before = reference_s()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    return result, wall * 2 * REFERENCE_S / (before + reference_s())


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def import_cumulative(stderr: str, prefix: str) -> float:
    """Seconds spent importing the outermost modules named ``prefix``
    or ``prefix.*``, from ``python -X importtime`` output.

    Only modules whose importer is not itself under ``prefix`` count,
    so nested submodules are not added twice.  Lines arrive children
    first, so a line's importer is the next line that is less deeply
    indented.
    """
    entries = []
    for match in _IMPORT_LINE.finditer(stderr):
        cumulative_us, indent, name = match.groups()
        entries.append((len(indent), name, int(cumulative_us)))

    def under(name: str) -> bool:
        return name == prefix or name.startswith(prefix + ".")

    total_us = 0
    for i, (depth, name, cumulative_us) in enumerate(entries):
        if not under(name):
            continue
        importer = next(
            (e[1] for e in entries[i + 1:] if e[0] < depth), None
        )
        if importer is None or not under(importer):
            total_us += cumulative_us
    return total_us / 1e6


def setup_sample(record: Run, out_dir: Path) -> None:
    """One ``setup_s`` sample: a fresh interpreter importing the CLI,
    from spawn to exit."""
    proc = run(IMPORT_CLI, out_dir)
    if record.op(proc.ok, proc.describe()):
        record.add("setup_s", proc.scaled_s, "s")


def import_layers(record: Run, out_dir: Path) -> None:
    """``cli.import_s`` and ``cli.import_scipy_s`` from one fresh
    ``python -X importtime -c "import repro.cli"``."""
    proc = run((IMPORT_CLI[0], "-X", "importtime", *IMPORT_CLI[1:]), out_dir)
    if record.op(proc.ok, proc.describe()):
        record.add("cli.import_s", import_cumulative(proc.stderr, "repro"), "s")
        record.add("cli.import_scipy_s", import_cumulative(proc.stderr, "scipy"), "s")
