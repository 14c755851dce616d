"""Closed-loop timing session, correctness checks and metric records.

One caller runs every operation, and each call waits for the previous one;
circuq is a library, so no request arrives while another is running.  A
session records the wall time of every named operation and stage, counts
attempted and failed operations, and keeps a speed monitor that scales each
sample to reference seconds; ``Checks`` collects the correctness checks.  In
the traced phase the operation names become ``bench.*`` spans, the parents of
the library spans below them.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def rel_err(a, b, floor: float = 1e-300) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int  # how many measurements the value summarizes (1 for a count)
    note: str = ""


# Seconds the probe takes on the reference machine, and how often it runs.
# Every timing is also kept scaled to that machine: seconds x
# REFERENCE_PROBE_S / the mean probe time in and next to the timed interval.
REFERENCE_PROBE_S = 3e-4
PROBE_INTERVAL_S = 0.05


class SpeedMonitor:
    """Times a fixed probe, a little interpreter and small-array numpy work
    that does not touch circuq, every ``PROBE_INTERVAL_S`` from a timer signal.

    The machines this runs on change speed by up to 2x over seconds to minutes
    as other tenants load the host, and the probe slows down with them.  An
    operation's time over the probe times during it is steady where its own
    time is not: the quartile spread of 30-second run medians across seeds
    fell from 10-48% to 1-7%.  The signal handler runs between bytecodes of
    the main thread, so a probe inside an operation is subtracted from that
    operation's time.
    """

    def __init__(self):
        self._data = np.random.default_rng(0).normal(size=(40, 8, 16))
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = False
        self._previous_handler = None

    def probe(self, *_signal) -> None:
        if self._busy:  # a tick that lands inside a probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        acc = np.zeros(16)
        for t in self._data:
            m = t.max(axis=0)
            acc += m + np.log(np.exp(t - m).sum(axis=0))
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.probe()

    @property
    def speed(self) -> float:
        """Reference probe time over the mean probe time."""
        return REFERENCE_PROBE_S / float(np.mean(self.seconds))

    def correct(self, t0: float, t1: float) -> tuple[float, float]:
        """Seconds from t0 to t1 less the probes run inside, as measured and
        scaled by the probes inside and on either side of the interval."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        seconds = t1 - t0 - sum(self.seconds[lo:hi])
        near = self.seconds[max(lo - 1, 0) : hi + 1]
        return seconds, seconds * REFERENCE_PROBE_S / float(np.mean(near))


class Session:
    """Timed operations, failures and the speed monitor of one phase of a run.

    Run the phase inside ``with session.monitor:`` and call ``finish`` after
    it; ``times`` then holds seconds as measured per sample and ``scaled`` the
    same samples in reference seconds.
    """

    def __init__(self, setup, setup_every: int, recorder=None):
        self.recorder = recorder
        # Set-up runs again after every ``setup_every`` operations, so its
        # samples spread across the run like the operations' samples.
        self.setup = setup
        self.setup_every = setup_every
        self.monitor = SpeedMonitor()
        self.rows: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._intervals: dict[str, list] = defaultdict(list)
        self._stages: dict[str, list] = defaultdict(list)
        self._ops = 0

    def _span(self, name: str, rows: int = 0):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(f"bench.{name}", rows)

    @contextmanager
    def stage(self, name: str):
        """One sample of ``name``: the time of the operations run inside it,
        without the set-ups interleaved with them."""
        t0 = time.perf_counter()
        with self._span(name):
            yield
        self._stages[name].append((t0, time.perf_counter()))

    def run_setup(self):
        return self._timed("setup", 0, self.setup)

    def op(self, name: str, rows: int, fn, *args, **kwargs):
        """Runs one operation; a raised error counts as a failed operation."""
        out = self._timed(name, rows, fn, *args, **kwargs)
        self._ops += 1
        if self._ops % self.setup_every == 0:
            self.run_setup()
        return out

    def _timed(self, name: str, rows: int, fn, *args, **kwargs):
        self.attempted += 1
        self.rows[name] = rows
        t0 = time.perf_counter()
        try:
            with self._span(name, rows):
                out = fn(*args, **kwargs)
        except Exception:  # the loop must keep running; the failure is counted and shown
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        self._intervals[name].append((t0, time.perf_counter()))
        return out

    def finish(self) -> None:
        ops = []
        for name, intervals in self._intervals.items():
            pairs = [self.monitor.correct(t0, t1) for t0, t1 in intervals]
            self.times[name] = [p[0] for p in pairs]
            self.scaled[name] = [p[1] for p in pairs]
            if name != "setup":
                ops += [(t0, *p) for (t0, _), p in zip(intervals, pairs)]
        ops.sort()
        starts = [o[0] for o in ops]
        for name, intervals in self._stages.items():
            inside = [ops[bisect.bisect_left(starts, t0) : bisect.bisect_left(starts, t1)]
                      for t0, t1 in intervals]
            self.times[name] = [sum(o[1] for o in group) for group in inside]
            self.scaled[name] = [sum(o[2] for o in group) for group in inside]


class Checks:
    """Correctness checks; each one counts as an attempted operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def run(self, name: str, fn) -> None:
        """``fn`` returns (ok, detail); an exception fails the check."""
        try:
            ok, detail = fn()
        except Exception:  # a crash inside a check is a failed check, not a crashed run
            ok, detail = False, traceback.format_exc(limit=3)
        self.add(name, ok, detail)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)
