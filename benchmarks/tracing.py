"""Span recorder for the traced benchmark run.

The recorder wraps circuq's public functions from the outside, at every name
a caller binds them to (the defining module, the ``circuq`` package, and any
module that imported the function by name), so a call made from inside the
library is recorded as well.  Each call becomes one span: name, start, end,
parent span, the number of input rows and optional counts read from the
result.  Spans stay in memory and are summarized when the phase ends.

The wrappers are installed only for the traced phase of a run and removed
afterwards, so the untraced phase runs the library exactly as users do.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    rows: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rows: int = 0):
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1,
                    rows=rows)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()


def _rows(args) -> int:
    """Rows in the first array-like argument: a 2-D batch, a 1-D row, a Dataset."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            return arg.shape[0] if arg.ndim == 2 else 1
        features = getattr(arg, "features", None)
        if isinstance(features, np.ndarray):
            return features.shape[0]
    return 0


def _mcd_counts(result) -> dict:
    meta = result.metadata
    return {"passes": meta["num_passes"], "degenerate": meta["degenerate_passes"]}


# Functions traced per module, by the name they are defined under.  Everything
# the workloads call, and the library calls between layers, is listed here;
# ``enumeration`` is only the correctness oracle and ``cli`` is not timed.
TRACED = {
    "structures": ["build_rat"],
    "datasets": ["synth_blobs", "corrupt", "rotate"],
    "circuit": ["log_likelihood", "log_likelihood_batch", "forward_log_values",
                "serialize", "deserialize"],
    "moments": ["tdi_pass", "tdi_pass_batch", "posterior_moments", "posterior_moments_batch"],
    "mcd": ["mcd_infer"],
    "train": ["fit", "loss_and_grad", "accuracy", "ParameterSpace.of", "ParameterSpace.apply"],
    "evaluation": ["ood_sweep", "corrupt_sweep", "perturb_sweep", "posterior_means", "entropies"],
}

COUNTERS = {"mcd.mcd_infer": _mcd_counts}


def _wrap(fn, name: str, recorder: SpanRecorder):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name, _rows(args)) as span:
            result = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(result)
            return result

    return traced


def install(recorder: SpanRecorder):
    """Wrap every traced function at each binding; returns the undo callable."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    modules = [m for n, m in list(sys.modules.items()) if n == "circuq" or n.startswith("circuq.")]
    for module_name, names in TRACED.items():
        defining = sys.modules[f"circuq.{module_name}"]
        for qualname in names:
            span_name = f"{module_name}.{qualname.rsplit('.', 1)[-1]}"
            if "." in qualname:  # a method: patch the class attribute once
                cls_name, attr = qualname.split(".")
                cls = getattr(defining, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    patch(cls, attr, staticmethod(_wrap(raw.__func__, span_name, recorder)))
                else:
                    patch(cls, attr, _wrap(raw, span_name, recorder))
                continue
            original = getattr(defining, qualname)
            wrapped = _wrap(original, span_name, recorder)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, wrapped)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# ---------------------------------------------------------------------------
# Analysis


class SpanIndex:
    """Queries over one traced phase: self times, ancestry, per-round sums."""

    def __init__(self, spans: list[Span], correct=None):
        """``correct(start, end)`` returns (measured, scaled) seconds of an
        interval; durations and self times here are the scaled ones."""
        self.spans = spans
        pairs = [correct(s.start, s.end) if correct else (s.duration, s.duration) for s in spans]
        measured = [p[0] for p in pairs]
        self.duration = [p[1] for p in pairs]
        child_time = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span.parent >= 0:
                child_time[span.parent] += measured[i]
        # Spans run on one thread, so children never overlap and the time
        # they cover is the sum of their durations.  Self time is taken as
        # measured, then scaled by the span's own factor, so it stays >= 0.
        self.self_time = [(m - c) * (d / m if m > 0 else 1.0)
                          for m, c, d in zip(measured, child_time, self.duration)]
        self.rounds = [i for i, s in enumerate(spans) if s.name == "bench.round"]

    def ancestors(self, i: int):
        i = self.spans[i].parent
        while i >= 0:
            yield i
            i = self.spans[i].parent

    def has_ancestor(self, i: int, pred) -> bool:
        return any(pred(self.spans[a]) for a in self.ancestors(i))

    def round_of(self, i: int) -> int:
        for a in self.ancestors(i):
            if self.spans[a].name == "bench.round":
                return a
        return -1

    def outermost(self, names: set, where=None) -> list[int]:
        """Spans named in ``names`` with no ancestor also in ``names``."""
        out = []
        for i, span in enumerate(self.spans):
            if span.name not in names or (where is not None and not where(i)):
                continue
            if not self.has_ancestor(i, lambda a: a.name in names):
                out.append(i)
        return out

    def durations(self, name: str) -> list[float]:
        return [d for s, d in zip(self.spans, self.duration) if s.name == name]

    def per_round(self, indices: list[int], value) -> list[float]:
        """Sum of ``value(i)`` per traced round; rounds without spans count 0."""
        sums = {r: 0.0 for r in self.rounds}
        for i in indices:
            r = self.round_of(i)
            if r in sums:
                sums[r] += value(i)
        return list(sums.values())

    def module_self(self) -> dict:
        out: dict = {}
        for span, t in zip(self.spans, self.self_time):
            out[span.module] = out.get(span.module, 0.0) + t
        return out
