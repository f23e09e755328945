"""Shared pieces of the orbdim benchmark: loading the program, checks, statistics.

The program under test is the `orbdim` package in the checkout's `src/`.  It is
imported afresh for every measured cycle: all `orbdim` modules are dropped from
`sys.modules` and imported again, so every module-level cache (whatever its
kind) starts empty, exactly as in a new interpreter.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = SRC / "orbdim" / "data" / "goldens"
MODULES = ("cases", "cli", "kacaut", "liealg", "modcurve", "orbifold", "qseries")
# the speed probe: best of PROBE_SHOTS Fraction loops of PROBE_ITERATIONS steps,
# run every PROBE_EVERY_S of a measured batch.  REFERENCE_PROBE_MS is its
# reading on a quiet 2-core x86-64 Linux VM with Python 3.11.
PROBE_ITERATIONS = 400
PROBE_SHOTS = 3
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_MS = 1.7


class ProgramMissing(RuntimeError):
    """The checkout holds no importable orbdim package under src/."""


@dataclass
class Program:
    """One fresh import of orbdim plus the two data files it loaded."""

    package: object
    mods: dict
    cases: list
    table: list

    @property
    def cases_mod(self):
        return self.mods["cases"]

    def __getattr__(self, name):
        try:
            return self.mods[name]
        except KeyError:
            raise AttributeError(name) from None


def fresh_import() -> tuple[Program, float]:
    """Import orbdim from the checkout and load both data files.

    Returns the program and the set-up time: import plus loading and
    validating `cases.json` and `schellekens.json`.
    """
    if not (SRC / "orbdim" / "__init__.py").is_file():
        raise ProgramMissing(f"no orbdim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "orbdim" or n.startswith("orbdim.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    package = importlib.import_module("orbdim")
    mods = {name: importlib.import_module(f"orbdim.{name}") for name in MODULES}
    cases = mods["cases"].load_cases()
    table = mods["cases"].load_schellekens()
    setup = time.perf_counter() - start
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"orbdim was imported from {origin}, not from {SRC}")
    return Program(package, mods, cases, table), setup


@dataclass
class Checker:
    """Counts checked answers; a failed or raised answer is recorded, never fatal."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(what)
        return ok

    def raised(self, what: str, err: BaseException):
        self(False, f"{what}: raised {type(err).__name__}: {err}")


class Speed:
    """A timeline of the machine's speed, read with a short stdlib probe.

    The shared machine changes speed every second or so, by up to ~60 %
    (another tenant on the same cores); the program and a Fraction loop slow
    down together.  The probe does not touch orbdim.  tick() runs it now;
    inside `sampling()` a timer signal also runs it every PROBE_EVERY_S, in
    the middle of whatever the program is doing.  scaled() takes a timed
    interval, removes the probes run inside it and scales the rest by
    REFERENCE_PROBE_MS over the mean reading from the last probe before the
    interval to the first one after it.  The result is the time the work
    takes on the reference machine.
    """

    def __init__(self):
        self.ends, self.durations, self.readings = [], [], []

    def tick(self, *_signal_args):
        start = time.perf_counter()
        reading = probe_ms()
        end = time.perf_counter()
        self.readings.append(reading)
        self.durations.append(end - start)
        self.ends.append(end)

    @contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY_S while the block runs, and once after it."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()

    def scaled(self, start: float, end: float) -> float:
        """Seconds from `start` to `end` without probes, on the reference machine."""
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = min(bisect.bisect_left(self.ends, end), len(self.ends) - 1)
        inside = sum(self.durations[first + 1:last])
        reading = statistics.fmean(self.readings[first:last + 1])
        return (end - start - inside) * REFERENCE_PROBE_MS / reading


@dataclass
class Ops:
    """Latency of every timed program operation of one batch, in call order."""

    speed: Speed
    samples: list = field(default_factory=list)     # (kind, start, end)

    def time(self, kind: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.samples.append((kind, start, time.perf_counter()))
        return result

    def scaled(self) -> list[tuple[str, float]]:
        return [(kind, self.speed.scaled(start, end)) for kind, start, end in self.samples]


def per_op_median(batches) -> list[tuple[str, float]]:
    """Per operation (its position in the batch), its median over the batches."""
    if not batches:
        return []
    count = min(len(b) for b in batches)
    return [(batches[0][i][0], statistics.median(b[i][1] for b in batches))
            for i in range(count)]


def p95(values) -> float:
    """95th percentile (inclusive interpolation); the median for one sample."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def jsonable_str(value) -> str:
    """One spelling for a rational whether the program wrote it as int, str or Fraction."""
    return str(Fraction(value)) if isinstance(value, (int, Fraction)) else str(value)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fraction_loop(iterations: int) -> float:
    """Milliseconds for a fixed stdlib Fraction loop; does not touch orbdim."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations):
        acc += Fraction(i % 97, i) * Fraction(3, 7)
    return (time.perf_counter() - start) * 1000.0


def probe_ms() -> float:
    """The speed probe: the best of a few short loops, so a lone stall is ignored."""
    return min(_fraction_loop(PROBE_ITERATIONS) for _ in range(PROBE_SHOTS))


def calibrate() -> float:
    """Median milliseconds of three 6000-step Fraction loops; does not touch orbdim.

    Run at the start and end of every measurement so that drift of the
    shared machine shows next to the program's own numbers.
    """
    return statistics.median(_fraction_loop(6000) for _ in range(3))


def git_commit() -> str:
    """The checked-out commit, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(seed: int) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "nproc": cpus,
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
    }
