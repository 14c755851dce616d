"""Signed log-space scalars.

Expectations and variances of circuit values are nonnegative and live
comfortably as plain log-magnitudes, but covariances can be negative, so the
moment machinery carries (sign, log|x|) pairs everywhere.  Arithmetic stays in
log space; only final ratios (posterior means, entropies) are exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import logsumexp

_NEG_INF = float("-inf")


def log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x <= 0, switching formulas at log(1/2) for accuracy."""
    if x >= 0.0:
        if x == 0.0:
            return _NEG_INF
        raise ValueError(f"log1mexp requires x <= 0, got {x}")
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


@dataclass(frozen=True, slots=True)
class SignedLog:
    """A real number stored as sign in {-1, 0, +1} and log of its magnitude."""

    sign: int
    log_mag: float

    @staticmethod
    def zero() -> "SignedLog":
        return SignedLog(0, _NEG_INF)

    @staticmethod
    def from_log(log_mag: float, sign: int = 1) -> "SignedLog":
        """Wrap a log-magnitude that is already known; -inf collapses to zero."""
        if log_mag == _NEG_INF or sign == 0:
            return SignedLog(0, _NEG_INF)
        return SignedLog(sign, log_mag)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_mag)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.log_mag)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self, other
        if a.log_mag < b.log_mag:
            a, b = b, a
        # |a| >= |b| from here on.
        if a.sign == b.sign:
            return SignedLog(a.sign, a.log_mag + math.log1p(math.exp(b.log_mag - a.log_mag)))
        diff = b.log_mag - a.log_mag
        if diff == 0.0:
            return SignedLog.zero()
        return SignedLog(a.sign, a.log_mag + log1mexp(diff))

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0 or other.sign == 0:
            return SignedLog.zero()
        return SignedLog(self.sign * other.sign, self.log_mag + other.log_mag)

    def scale_log(self, log_factor: float) -> "SignedLog":
        """Multiply by a nonnegative factor given as its logarithm."""
        if self.sign == 0 or log_factor == _NEG_INF:
            return SignedLog.zero()
        return SignedLog(self.sign, self.log_mag + log_factor)


def sl_sum(values) -> SignedLog:
    """Sum an iterable of SignedLog values.

    Accumulates positives and negatives separately so that a long alternating
    series does not lose precision to repeated near-cancellations.
    """
    pos: list[float] = []
    neg: list[float] = []
    for v in values:
        if v.sign > 0:
            pos.append(v.log_mag)
        elif v.sign < 0:
            neg.append(v.log_mag)
    p = logsumexp(np.array(pos))
    n = logsumexp(np.array(neg))
    return SignedLog.from_log(p) + (-SignedLog.from_log(n))
