"""Interval arithmetic over exact rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latdisc.intervals import Interval

# -1, 0 and 1 are drawn often, so zero endpoints, point intervals and every
# sign pattern all come up
ends = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                 st.fractions(-10, 10, max_denominator=60))


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(ends), draw(ends)))
    return Interval(lo, hi)


def _four_products(a: Interval, b: Interval) -> Interval:
    cands = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(cands), max(cands))


@given(a=intervals(), b=intervals())
@settings(max_examples=400, deadline=None)
def test_mul_is_the_hull_of_the_endpoint_products(a, b):
    expect = _four_products(a, b)
    assert a * b == b * a == expect
    assert a * b.lo == _four_products(a, Interval.exact(b.lo))
    assert b.hi * a == _four_products(Interval.exact(b.hi), a)


def test_mul_every_sign_pattern_on_a_grid():
    values = [Fraction(v) for v in (-2, Fraction(-1, 3), 0, Fraction(1, 2), 3)]
    ivs = [Interval(lo, hi) for lo in values for hi in values if lo <= hi]
    for a in ivs:
        for b in ivs:
            assert a * b == _four_products(a, b)


@given(a=ends, b=ends)
@settings(max_examples=200, deadline=None)
def test_only_an_empty_interval_is_refused(a, b):
    # distinct objects of one value, and one object at both ends, are points
    for lo, hi in ((a, Fraction(a)), (a, a)):
        assert Interval(lo, hi) == Interval(a, a)
    if a > b:
        with pytest.raises(ValueError, match=f"empty interval \\[{a}, {b}\\]"):
            Interval(a, b)
    else:
        assert Interval(a, b).hi == b
