"""Signed log-space arithmetic against plain float arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuq.signedlog import SignedLog, log1mexp, sl_sum


def magnitudes(min_exp=-300, max_exp=300):
    return st.floats(min_value=min_exp, max_value=max_exp).map(lambda e: 10.0**e)


def signed(x: float) -> SignedLog:
    """x as a SignedLog: its sign and log magnitude."""
    return SignedLog.from_log(math.log(abs(x)), 1 if x > 0 else -1) if x else SignedLog.zero()


signed_values = st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes(-100, 100)).map(
    lambda t: t[0] * t[1]
)


class TestRoundTrip:
    def test_zero(self):
        for z in (SignedLog.zero(), SignedLog.from_log(-math.inf), SignedLog.from_log(1.0, 0)):
            assert z.sign == 0 and z.to_float() == 0.0
            assert z.is_zero

    @given(signed_values)
    def test_from_to(self, x):
        # one log/exp round trip costs about |log x| ulps, within 1e-12
        # relative across the full double range
        assert signed(x).to_float() == pytest.approx(x, rel=1e-12)

    def test_extreme_magnitudes(self):
        for x in (1e-300, 1e300, -1e-300, -1e300):
            assert signed(x).to_float() == pytest.approx(x, rel=1e-12)


class TestArithmetic:
    @given(signed_values, signed_values)
    @settings(max_examples=300)
    def test_add_matches_floats(self, x, y):
        got = (signed(x) + signed(y)).to_float()
        # Relative to the operand scale: extreme cancellation loses the same
        # digits a float subtraction would.
        scale = max(abs(x), abs(y))
        assert got == pytest.approx(x + y, abs=1e-12 * scale, rel=1e-12)

    @given(signed_values, signed_values)
    @settings(max_examples=300)
    def test_sub_matches_floats(self, x, y):
        got = (signed(x) + (-signed(y))).to_float()
        scale = max(abs(x), abs(y))
        assert got == pytest.approx(x - y, abs=1e-12 * scale, rel=1e-12)

    @given(signed_values, signed_values)
    @settings(max_examples=300)
    def test_mul_matches_floats(self, x, y):
        got = (signed(x) * signed(y)).to_float()
        assert got == pytest.approx(x * y, rel=1e-12)

    def test_mul_closed_at_range_edges(self):
        big = signed(1e300) * signed(1e300)
        assert big.log_mag == pytest.approx(2 * math.log(1e300))
        tiny = signed(1e-300) * signed(1e-300)
        assert tiny.to_float() == 0.0  # underflows only on exponentiation
        assert tiny.log_mag == pytest.approx(2 * math.log(1e-300))

    def test_exact_cancellation(self):
        x = signed(3.5)
        assert (x + (-x)).is_zero

    def test_neg(self):
        x = signed(2.0)
        assert (-x).to_float() == -2.0


class TestSum:
    @given(st.lists(signed_values, min_size=0, max_size=12))
    @settings(max_examples=200)
    def test_sl_sum_matches_floats(self, xs):
        got = sl_sum(signed(x) for x in xs).to_float()
        scale = max((abs(x) for x in xs), default=1.0)
        assert got == pytest.approx(sum(xs), abs=1e-12 * scale, rel=1e-11)

    def test_sign_churn_does_not_compound(self):
        # alternating signs at one scale plus a small survivor at another:
        # separate pos/neg accumulation keeps the survivor intact
        xs = [1e6, -1e6, 2.5, 1e5, -1e5]
        got = sl_sum(signed(x) for x in xs).to_float()
        assert got == pytest.approx(2.5, rel=1e-9)


def test_log1mexp():
    # reference via expm1 in the large regime and the series in the tiny one
    for x in (-0.1, -0.7, -5.0, -50.0):
        assert log1mexp(x) == pytest.approx(math.log(-math.expm1(x)), rel=1e-13)
    x = -1e-8
    series = math.log(-x) + math.log1p(x / 2 + x * x / 6)
    assert log1mexp(x) == pytest.approx(series, rel=1e-13)
    assert log1mexp(0.0) == -math.inf
    with pytest.raises(ValueError):
        log1mexp(0.5)
