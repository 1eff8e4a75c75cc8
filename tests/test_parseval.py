"""Certified Diophantine sums, the quotient-sum inequalities, the window
term, and the D2^2 enclosures."""

import math
import random
import re
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latdisc.alphas import Alpha
from latdisc.cf import PrecisionExhausted
from latdisc.discrepancy import d2_exact_fast, realization_error
from latdisc.fixedpoint import FixedPointReal
from latdisc.lattice import build_L, build_S, walk_data
from latdisc.parseval import (
    dioph_inequalities,
    _EXACT_TERM_LIMIT,
    _TABLE_MOD,
    _min_weighted_sum,
    _quotient_gap,
    _tables,
    _tail_min_sum,
    dioph_sum,
    dioph_sum1,
    dioph_sum2,
    dioph_sum2_float,
    enclosure_L,
    enclosure_S,
    tail_min_bound,
)
import oracles
from oracles import (
    mean_check,
    min_weighted_sum,
    quotients_of_fraction,
    ratio_check,
    scaled_dioph_sum,
    tail_min_sum,
    variance_check,
    xi_direct,
)


@pytest.fixture(scope="module")
def phi():
    return Alpha.from_surd(-1, 5, 2)


def _direct_dioph_sum(alpha: Fraction, m_start: int, m_end: int, power: int):
    """sum 1/(m^2 ||m alpha||^power) straight from the definition."""
    total = Fraction(0)
    for m in range(m_start, m_end + 1):
        f = (m * alpha) % 1
        total += 1 / (m * m * min(f, 1 - f) ** power)
    return total


class TestDiophSum:
    def test_unit_weight_half(self):
        iv = dioph_sum(Alpha.from_rational(1, 2), 1, "unit_sq")
        assert iv.lo == iv.hi == 4  # 1/(1 * (1/2)^2)

    def test_rational_exact(self):
        alpha = Alpha.from_rational(13, 30)
        iv = dioph_sum2(alpha, 1, 29)
        assert iv.width == 0
        expect = sum(Fraction(900, m * m * t * t)
                     for m, t in ((m, min((13 * m) % 30, 30 - (13 * m) % 30))
                                  for m in range(1, 30)))
        assert iv.lo == expect

    def test_certified_brackets_exact(self, phi):
        # the certified interval at 256 bits must contain a slow rational
        # recomputation at higher precision
        from latdisc.fixedpoint import eval_alpha
        hi_fp = eval_alpha(phi.cf, bits=512)
        iv = dioph_sum2(phi, 1, 88)
        val = Fraction(0)
        mod = 1 << 512
        for m in range(1, 89):
            v = (m * hi_fp.mantissa) % mod
            t = min(v, mod - v)
            val += Fraction(mod * mod, m * m * t * t)
        assert iv.lo <= val <= iv.hi
        assert float(iv.width) < 1e-9

    def test_weight_names(self, phi):
        u = dioph_sum(phi, 20, "unit_sq")
        q = dioph_sum(phi, 20, "quarter_pi4_sq")
        h = dioph_sum(phi, 20, "half_pi4_sq")
        e = dioph_sum(phi, 20, "eighth_pi4_sq")
        assert q.lo <= u.lo / 389 <= u.hi / 389 <= q.hi * 1.01
        assert abs(float(h.mid) - 2 * float(q.mid)) < 1e-12
        assert abs(float(e.mid) - 0.5 * float(q.mid)) < 1e-12
        with pytest.raises(ValueError):
            dioph_sum(phi, 5, "bogus")

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroDivisionError):
            dioph_sum2(Alpha.from_rational(1, 2), 1, 2)

    def test_float_saturation_for_rational(self):
        # beyond the denominator the defined terms decay like 1/m^2; exactly
        # the exact alphas skip their undefined terms, whatever their type
        marks = [10 ** 5, 10 ** 3, 10 ** 4]
        vals = dioph_sum2_float(Alpha.from_rational(1, 2), marks)
        assert vals[2] - vals[0] < 1e-3
        assert dioph_sum2_float(Fraction(1, 2), marks) == vals
        with pytest.raises(ZeroDivisionError):
            dioph_sum2_float(FixedPointReal(1 << 255, 256, 1), [4])

    def test_growth_matches_slope_between_decades(self):
        # difference over one decade approximates c(sqrt3) * log 10
        sq3 = Alpha.from_surd(-1, 3, 1)
        v4, v5 = dioph_sum2_float(sq3, [10 ** 4, 10 ** 5])
        c = 1 / (12 * math.sqrt(3) * math.log(2 + math.sqrt(3)))
        assert abs((v5 - v4) / math.log(10) - c) < 0.15 * c


class TestFloatDiagnostics:
    """dioph_sum2_float against the sequential loop over the exact walk, bit
    for bit, where the correctly rounded ||m alpha|| needs its exact
    fallback: next to an integer, exact zero terms, and wide denominators."""

    @given(bits=st.integers(64, 256), err=st.integers(0, 3),
           mant=st.integers(0, (1 << 256) - 1), near=st.booleans(),
           m0=st.integers(1, 300), t=st.integers(-3, 3),
           M=st.integers(1, 3000))
    # ||alpha|| = 2^-2 + 2^-55 + 2^-128: the high word alone is a tie
    @example(bits=128, err=0, mant=(((1 << 62) + (1 << 9)) << 64) + 1,
             near=False, m0=1, t=0, M=1)
    # {3 alpha} = 2^-8 + 2^-61 + 2^-129, above a tie, but the words of
    # 3 floor(2^128 alpha) end just below the carry into the high word
    @example(bits=256, err=0, near=False, m0=1, t=0, M=3,
             mant=((((1 << 56) + (1 << 3) << 64) - 1 + (1 << 128)) // 3 << 128)
             + (1 << 127))
    @settings(max_examples=40, deadline=None)
    def test_fixed_point_near_convergents(self, bits, err, mant, near, m0, t,
                                          M):
        alpha = _fixed_point(bits, err, mant, near, m0, t)
        self._same(alpha, M)

    # m0 alpha within 3 err ulps of an integer, so k m0 alpha within 3 k err
    # of one: above 128 bits r is inexact, and these m fall in the near set
    @given(bits=st.integers(129, 320), err=st.integers(1, 8),
           mant=st.integers(0, (1 << 320) - 1), m0=st.integers(1, 300),
           t=st.integers(-3, 3), M=st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_fixed_point_multiples_within_a_few_err(self, bits, err, mant,
                                                    m0, t, M):
        self._same(_fixed_point(bits, err, mant, True, m0, t * err), M)

    @given(bits=st.integers(1, 12), mant=st.integers(0, 1 << 12),
           M=st.integers(1, 3000))
    @settings(max_examples=20, deadline=None)
    def test_exact_dyadic_skips_zero_terms(self, bits, mant, M):
        self._same(FixedPointReal(mant % (1 << bits), bits, 0), M)

    @given(q=st.integers((1 << 53) - 2000, (1 << 53) - 1),
           p=st.integers(1, 1 << 60), M=st.integers(1, 3000))
    @settings(max_examples=20, deadline=None)
    def test_denominator_just_below_two_to_the_53(self, q, p, M):
        self._same(Fraction(p, q), M)

    @staticmethod
    def _same(alpha, M):
        marks = sorted({1, M, (M + 1) // 2, min(M, 4096), min(M, 4097)})
        try:
            want = oracles.dioph_sum2_float(alpha, marks)
        except ZeroDivisionError as e:
            with pytest.raises(ZeroDivisionError, match=re.escape(str(e))):
                dioph_sum2_float(alpha, marks)
            return
        assert dioph_sum2_float(alpha, marks) == want

    def test_refuses_m_past_two_to_the_32_and_marks_below_one(self, phi):
        for marks in ([10, 1 << 32], [0, 10], [1 << 64]):
            with pytest.raises(ValueError, match=r"1 <= M < 2\^32"):
                dioph_sum2_float(phi, marks)
        # [0; 1, 5 10^9, 1, 2]: the window [q_2, q_3) is the one m = q_2
        # = 5 10^9 + 1, past 2^32
        a = Fraction(0)
        for t in reversed((1, 5 * 10 ** 9, 1, 2)):
            a = 1 / (t + a)
        alpha = Alpha.from_rational(a.numerator, a.denominator)
        assert alpha.q(2) == 5 * 10 ** 9 + 1 and alpha.q(3) == alpha.q(2) + 1
        with pytest.raises(ValueError, match=r"0 <= m < 2\^32"):
            xi_direct(alpha, 1, 3, True)

    def test_exact_floor_charges_no_realization_error(self):
        # (2^128 + 17)/(7 2^128) is stored exactly at 128 bits, and so is
        # floor(2^128 alpha): ||7 alpha|| = 17 2^-128 carries no 7 2^-128
        a = Fraction((1 << 128) + 17, 7 << 128)
        assert a.denominator == 1 << 128
        got = dioph_sum2(a, 1, 3100)
        want = scaled_dioph_sum(a, 1, 3100, 2)
        assert want.lo * (1 - 2 ** -40) <= got.lo <= want.lo
        assert want.hi <= got.hi <= want.hi * (1 + 2 ** -40)


class TestDiophSumProperties:
    @given(p=st.integers(1, 2000), q=st.integers(2, 2000), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_path_equals_direct_sum(self, p, q, data):
        assume(gcd(p, q) == 1)
        m_start = data.draw(st.integers(1, q - 1))
        m_end = data.draw(st.integers(m_start, q - 1))
        alpha = Fraction(p, q)
        for fn, power in ((dioph_sum1, 1), (dioph_sum2, 2)):
            iv = fn(alpha, m_start, m_end)
            assert iv.lo == iv.hi == _direct_dioph_sum(alpha, m_start, m_end,
                                                       power)

    @pytest.mark.parametrize("p", [1, 1000])
    def test_exact_path_at_the_term_limit(self, p):
        # the longest exact range: 3000 terms, a denominator near 13k bits
        alpha, m_end = Fraction(p, _EXACT_TERM_LIMIT + 1), _EXACT_TERM_LIMIT
        for fn, power in ((dioph_sum1, 1), (dioph_sum2, 2)):
            iv = fn(alpha, 1, m_end)
            assert iv.lo == iv.hi == _direct_dioph_sum(alpha, 1, m_end, power)

    # an exact alpha of modulus q <= 2^9, so on both sides of _TABLE_MOD, a
    # dyadic one with an even mantissa included, and ranges from m >= 0 that
    # end below q (inside) or up to 3q past their start; at most 3000 terms
    @given(dyadic=st.booleans(), q=st.integers(1, 1 << 9),
           p=st.integers(0, 1 << 9), start=st.integers(0, 3 << 9),
           length=st.integers(0, 3 << 9), inside=st.booleans())
    # past q, where a table read unguarded sums nothing: the sum is
    # 3408783049/2650190400 for power 2
    @example(dyadic=False, q=7, p=3, start=8, length=5, inside=False)
    @example(dyadic=False, q=5, p=2, start=0, length=3, inside=True)  # m = 0
    @example(dyadic=False, q=256, p=3, start=1, length=254, inside=True)
    @example(dyadic=False, q=257, p=3, start=1, length=255, inside=True)
    @example(dyadic=True, q=256, p=12, start=1, length=254, inside=True)
    @example(dyadic=True, q=256, p=101, start=1, length=254, inside=True)
    @settings(max_examples=80, deadline=None)
    def test_exact_path_around_the_table_bound(self, dyadic, q, p, start,
                                               length, inside):
        if dyadic:  # bits <= 9, err 0: walk_data keeps an even mantissa
            bits = min(q.bit_length() - 1, 9)
            q, p = 1 << bits, p % (1 << bits)
            alpha, value = FixedPointReal(p, bits, 0), Fraction(p, 1 << bits)
        else:
            alpha = value = Fraction(p, q)
        m_start = start % (q if inside else 3 * q + 1)
        m_end = m_start + length % (q - m_start if inside else 3 * q + 1)
        zero = next((m for m in range(m_start, m_end + 1)
                     if m * value % 1 == 0), None)
        for fn, power in ((dioph_sum1, 1), (dioph_sum2, 2)):
            if zero is not None:  # the exact path's message, first zero m
                with pytest.raises(ZeroDivisionError, match=re.escape(
                        f"||m alpha|| = 0 at m = {zero}") + "$"):
                    fn(alpha, m_start, m_end)
            else:
                iv = fn(alpha, m_start, m_end)
                assert iv.lo == iv.hi == _direct_dioph_sum(value, m_start,
                                                           m_end, power)

    def test_tables_are_bounded_and_hold_no_modulus_above_the_bound(self):
        assert _tables.cache_info().maxsize == 2 * _TABLE_MOD
        _tables.cache_clear()
        for q in range(_TABLE_MOD - 2, _TABLE_MOD + 5):
            for fn in (dioph_sum1, dioph_sum2):
                fn(Fraction(1, q), 1, q - 1)
                fn(FixedPointReal(1, 9, 0), 1, q - 1)
        assert _tables.cache_info().currsize == 2 * 3
        # 2 * 2^8 tables, every modulus to the bound at both powers, fit
        for q in range(1, _TABLE_MOD + 1):
            for fn in (dioph_sum1, dioph_sum2):
                fn(Fraction(1, q), 1, q - 1)
        assert _tables.cache_info().currsize == 2 * _TABLE_MOD - 2

    @given(p=st.integers(1, 20000), q=st.integers(_EXACT_TERM_LIMIT + 2, 20000),
           data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_scaled_path_contains_direct_sum(self, p, q, data):
        assume(gcd(p, q) == 1)
        m_start = data.draw(st.integers(1, q - 1 - _EXACT_TERM_LIMIT))
        m_end = data.draw(st.integers(m_start + _EXACT_TERM_LIMIT,
                                      min(q - 1, m_start + 2 * _EXACT_TERM_LIMIT)))
        alpha = Fraction(p, q)
        for fn, power in ((dioph_sum1, 1), (dioph_sum2, 2)):
            iv = fn(alpha, m_start, m_end)
            assert iv.lo < iv.hi  # outward-rounded, not the exact path
            assert iv.lo <= _direct_dioph_sum(alpha, m_start, m_end, power) <= iv.hi

    @given(bits=st.sampled_from([128, 256, 512]), err=st.integers(0, 2),
           mant=st.integers(0, (1 << 512) - 1), near=st.booleans(),
           m0=st.integers(1, 60), t=st.integers(-3, 3),
           start=st.integers(1, 3000), length=st.integers(0, 3000))
    @example(bits=128, err=1, mant=1, near=True, m0=7, t=3, start=1,
             length=100)
    @settings(max_examples=40, deadline=None)
    def test_kernel_contains_oracle_for_fixed_point(self, bits, err, mant,
                                                    near, m0, t, start,
                                                    length):
        if err == 0:  # an exact value takes the exact path on short ranges
            length += _EXACT_TERM_LIMIT
        _kernel_contains_oracle(_fixed_point(bits, err, mant, near, m0, t),
                                start, start + length)

    @given(p=st.integers(1, 20000), q=st.integers(_EXACT_TERM_LIMIT + 2, 20000),
           data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_kernel_contains_oracle_for_rationals(self, p, q, data):
        assume(gcd(p, q) == 1)
        start = data.draw(st.integers(1, 2 * q))
        end = data.draw(st.integers(start + _EXACT_TERM_LIMIT,
                                    start + 2 * _EXACT_TERM_LIMIT))
        _kernel_contains_oracle(Fraction(p, q), start, end)

    def test_kernel_needs_m_below_two_to_the_32(self, phi):
        for alpha in (phi, Fraction(13, 30)):
            for m_start, m_end in (((1 << 32) - 5000, 1 << 32), (-1, 5000)):
                with pytest.raises(ValueError):
                    dioph_sum2(alpha, m_start, m_end)

    # block additivity is what the gap sweep's running sum over the blocks
    # [q_{K-1}, q_K) relies on
    @given(mant=st.integers(1, (1 << 256) - 1),
           cuts=st.lists(st.integers(1, 2000), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_blocks_add_up_for_fixed_point(self, mant, cuts):
        a, b, c = sorted(cuts)
        alpha = FixedPointReal(mant, 256, 1)
        try:
            whole = dioph_sum2(alpha, a, c)
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                dioph_sum2(alpha, a, b - 1) + dioph_sum2(alpha, b, c)
            return
        assert dioph_sum2(alpha, a, b - 1) + dioph_sum2(alpha, b, c) == whole

    @given(p=st.integers(1, 8000), q=st.integers(2, 8000),
           cuts=st.lists(st.integers(1, 2 * _EXACT_TERM_LIMIT), min_size=3,
                         max_size=3))
    @example(p=1, q=7919, cuts=[1, 2000, 4000])
    @settings(max_examples=30, deadline=None)
    def test_blocks_add_up_for_rationals(self, p, q, cuts):
        a, b, c = sorted(cuts)
        alpha = Fraction(p, q)
        try:
            whole = dioph_sum2(alpha, a, c)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                dioph_sum2(alpha, a, b - 1) + dioph_sum2(alpha, b, c)
            return
        split = dioph_sum2(alpha, a, b - 1) + dioph_sum2(alpha, b, c)
        exact = {hi - lo < _EXACT_TERM_LIMIT
                 for lo, hi in ((a, c), (a, b - 1), (b, c)) if lo <= hi}
        if len(exact) == 1:
            assert split == whole
        else:  # an exact block narrows the outward rounding of the whole
            assert whole.lo <= split.lo and split.hi <= whole.hi

    @given(p=st.integers(1, 2000), q=st.integers(2, 500),
           N=st.integers(1, 200), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_min_weighted_sum_contains_direct_sum(self, p, q, N, data):
        assume(gcd(p, q) == 1)
        m_start = data.draw(st.integers(1, q - 1))
        m_end = data.draw(st.integers(m_start, q - 1))
        alpha = Fraction(p, q)

        def norm(x):
            return min(x % 1, 1 - x % 1)

        direct = Fraction(0)
        for m in range(m_start, m_end + 1):
            d, d2 = norm(m * alpha), norm(2 * m * alpha)
            factor = 1 if d2 == 0 else min(1 / (4 * N * d2), Fraction(1))
            direct += factor / (m * m * d * d)
        iv = _min_weighted_sum(alpha, m_start, m_end, N)
        assert iv.lo == 0 and direct <= iv.hi


def _fixed_point(bits, err, mant, near, m0, t):
    """A drawn alpha; near puts m0 alpha within a few ulps of an integer,
    inside the error eta_m of the two-limb realization or the exact
    fallback."""
    mod = 1 << bits
    mant %= mod
    if near:
        mant = ((mant % m0) * mod // m0 + t) % mod
    return FixedPointReal(mant, bits, err)


def _last_q_below(x: Fraction, cap: int) -> int:
    """The largest convergent denominator of x that is at most cap."""
    q0, q1 = 0, 1
    for a in quotients_of_fraction(x, 64)[1]:
        if a * q1 + q0 > cap:
            break
        q0, q1 = q1, a * q1 + q0
    return q1


def _kernel_contains_oracle(alpha, m_start, m_end):
    """The block kernel's interval contains the term-by-term big-integer
    one, and it raises where the oracle raises, with the same message."""
    for fn, power in ((dioph_sum1, 1), (dioph_sum2, 2)):
        try:
            want = scaled_dioph_sum(alpha, m_start, m_end, power)
        except (ZeroDivisionError, PrecisionExhausted) as e:
            with pytest.raises(type(e), match=re.escape(str(e)) + "$"):
                fn(alpha, m_start, m_end)
            continue
        got = fn(alpha, m_start, m_end)
        assert got.lo <= want.lo and want.hi <= got.hi


def _sums_within_oracle(alpha, m_start, m_end, n, N, tight):
    """Each upper end lies between the oracle's floor sum and its ceil sum
    widened by 2^-40, the min-weighted one only on a tight range (below
    q_K, where ||m alpha|| >= 1/(2 q_K)); the min-weighted sum raises where
    the oracle raises, with the same message."""
    want = tail_min_sum(alpha, m_start, m_end, n)
    got = _tail_min_sum(alpha, m_start, m_end, n)
    assert got.lo == 0 and want.lo <= got.hi <= want.hi * (1 + 2 ** -40)
    try:
        want = min_weighted_sum(alpha, m_start, m_end, N)
    except PrecisionExhausted as e:
        with pytest.raises(PrecisionExhausted, match=re.escape(str(e)) + "$"):
            _min_weighted_sum(alpha, m_start, m_end, N)
        return
    got = _min_weighted_sum(alpha, m_start, m_end, N)
    assert got.lo == 0 and want.lo <= got.hi
    assert not tight or got.hi <= want.hi * (1 + 2 ** -40)


class TestBoundSumProperties:
    """The tail and min-weighted sums against their term-by-term oracles."""

    @given(p=st.integers(1, 20000), q=st.integers(2, 20000),
           n=st.integers(1, 60), N=st.integers(1, 1 << 20), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rationals(self, p, q, n, N, data):
        assume(gcd(p, q) == 1)
        alpha = Fraction(p, q)
        # past q, through the exact zeros at multiples of q
        start = data.draw(st.integers(1, 2 * q))
        end = data.draw(st.integers(start, start + 2 * _EXACT_TERM_LIMIT))
        _sums_within_oracle(alpha, start, end, n, N, False)
        start = data.draw(st.integers(1, q - 1))
        end = data.draw(st.integers(start, min(q - 1,
                                               start + 2 * _EXACT_TERM_LIMIT)))
        _sums_within_oracle(alpha, start, end, n, N, True)

    def test_min_weighted_sum_tight_next_to_one_half(self):
        # ||1035/2071|| is 1/2 - 1/4142: 1 - 2 x_hi from the rows of ||m a||
        # would leave ||2m a|| = 1/2071 about 2^-39 too low
        _sums_within_oracle(Fraction(1, 2071), 449, 1037, 1, 996, True)

    @given(bits=st.sampled_from([128, 256, 512]), err=st.integers(0, 2),
           mant=st.integers(0, (1 << 512) - 1), near=st.booleans(),
           m0=st.integers(1, 60), t=st.integers(-3, 3),
           start=st.integers(1, 3000), length=st.integers(0, 3000),
           n=st.integers(1, 60), N=st.integers(1, 1 << 20))
    @example(bits=128, err=0, mant=1, near=True, m0=7, t=1, start=1,
             length=100, n=5, N=1000)
    @example(bits=128, err=1, mant=1, near=True, m0=7, t=1, start=1,
             length=100, n=5, N=1000)
    @settings(max_examples=40, deadline=None)
    def test_fixed_point(self, bits, err, mant, near, m0, t, start, length,
                         n, N):
        alpha = _fixed_point(bits, err, mant, near, m0, t)
        _sums_within_oracle(alpha, start, start + length, n, N, False)
        qK = _last_q_below(Fraction(alpha.mantissa, 1 << bits), 6000)
        if qK > 1:  # m below q_K, as min_weighted_bound calls it
            start = 1 + start % (qK - 1)
            _sums_within_oracle(alpha, start, min(start + length, qK - 1),
                                n, N, True)

    def test_tail_refuses_a_walk_past_two_to_the_32(self, phi):
        # 8 q_40 n = 32 F_41 > 2^32: refused before the first term
        with pytest.raises(ValueError, match=r"0 <= m < 2\^32"):
            tail_min_bound(phi, 40, 4)


class TestEnclosureProperties:
    @given(q=st.integers(2, 2000), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_enclosures_contain_exact_value(self, q, data):
        p = data.draw(st.integers(1, q - 1))
        assume(gcd(p, q) == 1)
        alpha = Alpha.from_rational(p, q)
        K = data.draw(st.integers(1, len(alpha.cf.body.terms)))
        N = data.draw(st.integers(alpha.q(K - 1), alpha.q(K)))
        for enclosure, build in ((enclosure_S, build_S), (enclosure_L, build_L)):
            d = d2_exact_fast(build(alpha, N)).d2_squared
            assert enclosure(alpha, N, K).contains(d)

    # the true D2^2 lies within realization_error of the stored lattice's,
    # so the exact value may sit at most that far outside the enclosure
    # a seeded mantissa is uniform: hypothesis draws favour small integers,
    # whose expansions are too short to certify
    @given(seed=st.integers(0, 1 << 32), N=st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_enclosures_contain_exact_value_fixed_point(self, seed, N):
        alpha = Alpha.from_bits(random.Random(seed).getrandbits(256) or 1, 256)
        try:
            # the enclosure walks m < q_K; the kernel refuses q_K > 2^32
            assume(alpha.q(alpha.index_for(N)) <= 10 ** 6)
            cases = [(enclosure(alpha, N), build(alpha, N)) for enclosure, build
                     in ((enclosure_S, build_S), (enclosure_L, build_L))]
        except PrecisionExhausted:
            return
        for enc, P in cases:
            pad = realization_error(P)
            exact = d2_exact_fast(P).d2_squared
            assert enc.lo - pad <= exact <= enc.hi + pad


def _assert_is_the_oracle(alpha, N, K, sym):
    """The integer assembly gives the reduced-Fraction oracle's result:
    the same Fractions, K and parts, every float compared with ==."""
    enc = (enclosure_S if sym else enclosure_L)(alpha, N, K)
    lo, hi, k, parts = oracles.enclosure_fraction(alpha, N, K, sym)
    assert type(enc.lo) is type(enc.hi) is Fraction
    assert (enc.lo, enc.hi, enc.K) == (lo, hi, k)
    assert list(enc.parts.items()) == list(parts.items())


class TestEnclosureAssembly:
    @given(q=st.integers(2, 300), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rational_assembly_is_the_fraction_oracle(self, q, data):
        p = data.draw(st.integers(1, q - 1))
        assume(gcd(p, q) == 1)
        alpha = Alpha.from_rational(p, q)
        K = data.draw(st.integers(1, len(alpha.cf.body.terms)))
        for N in range(alpha.q(K - 1), alpha.q(K) + 1):
            for sym in (True, False):
                _assert_is_the_oracle(alpha, N, K, sym)
                _assert_is_the_oracle(alpha, N, None, sym)

    # seeded mantissas, as in the containment property above
    @given(seed=st.integers(0, 1 << 32), N=st.integers(1, 2000))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point_assembly_is_the_fraction_oracle(self, seed, N):
        alpha = Alpha.from_bits(random.Random(seed).getrandbits(256) or 1, 256)
        try:
            K = alpha.index_for(N)
            assume(alpha.q(K) <= 10 ** 5)
            enclosure_S(alpha, N)
        except PrecisionExhausted:
            return
        for sym in (True, False):
            _assert_is_the_oracle(alpha, N, None, sym)
            _assert_is_the_oracle(alpha, N, K, sym)


class TestInequalities:
    def test_golden_grid(self, phi):
        br = dioph_inequalities(phi, 12, n=9, N=phi.q(12))
        assert br.all_hold

    def test_zero_n_tail(self, phi):
        br = dioph_inequalities(phi, 3, n=0, N=phi.q(3))
        assert br.tail_min.lhs.hi == 0 and br.tail_min.rhs.lo == 0

    def test_rational_exact_sides(self):
        alpha = Alpha.from_rational(2, 7)
        br = dioph_inequalities(alpha, 2, n=5, N=7)
        assert br.all_hold

    def test_min_weighted_rational_with_even_denominator(self):
        # ||2 m alpha|| hits 0 at m = q/2; the min factor degrades to 1 there
        alpha = Alpha.from_rational(3, 8)
        br = dioph_inequalities(alpha, len(alpha.cf.body.terms), n=3, N=8)
        assert br.all_hold

    @given(q=st.integers(2, 200), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tail_bound_is_above_the_infinite_tail(self, q, data):
        p = data.draw(st.integers(1, q - 1))
        assume(gcd(p, q) == 1)
        alpha = Alpha.from_rational(p, q)
        K = data.draw(st.integers(1, len(alpha.cf.body.terms)))
        n = data.draw(st.integers(1, 60))
        qK = alpha.q(K)
        # the term depends on m mod q only, and over the class of r the
        # m >= q_K sum 1/m^2 from its least member m_r is q^-2 zeta(2, m_r/q)
        with mpmath.workdps(50):
            tail = mpmath.mpf(0)
            for r in range(q):
                d = min(r * p % q, q - r * p % q)  # q ||r alpha||
                c = n * n if d == 0 else min(Fraction(q * q, 4 * d * d), n * n)
                m_r = qK + (r - qK) % q
                tail += (mpmath.mpf(c.numerator) / c.denominator
                         * mpmath.zeta(2, mpmath.mpf(m_r) / q) / q ** 2)
            tail /= 2 * mpmath.pi ** 2
            hi = tail_min_bound(alpha, K, n).lhs.hi
            assert mpmath.mpf(hi.numerator) / hi.denominator >= tail


class TestWindowTerm:
    def test_empty_window(self, phi):
        assert xi_direct(phi, 1, 1, True) == 0.0

    def test_brackets_hold_S(self, phi):
        for N in (34, 55, 89, 144):
            K = phi.index_for(N)
            x = xi_direct(phi, N, K, True)
            enc = enclosure_S(phi, N)
            assert enc.parts["xi_lo"] - 1e-9 <= x <= enc.parts["xi_hi"] + 1e-9

    def test_brackets_hold_L(self, phi):
        for N in (34, 89):
            K = phi.index_for(N)
            x = xi_direct(phi, N, K, False)
            enc = enclosure_L(phi, N)
            assert enc.parts["xi_lo"] - 1e-9 <= x <= enc.parts["xi_hi"] + 1e-9

    def test_closed_form_reexpression(self, phi):
        # window sum equals quarter-weight sum minus the oscillatory sum
        for (alpha, N) in ((phi, 89), (Alpha.from_surd(-1, 2, 1), 70),
                           (Alpha.from_rational(211, 299), 150)):
            K = alpha.index_for(N)
            m_lo, m_hi = alpha.q(K - 1), alpha.q(K) - 1
            if m_hi < m_lo:
                continue
            direct = xi_direct(alpha, N, K, True)
            step, mod, _ = walk_data(alpha)
            total = 0.0
            for m in range(m_lo, m_hi + 1):
                v = (m * step) % mod
                d = min(v, mod - v) / mod
                fa = v / mod
                # sin(4 N m pi a) with exact argument reduction mod 2 pi
                u = (4 * N * v) % (2 * mod)
                s4 = math.sin(math.pi * u / mod)
                s2 = math.sin(2 * math.pi * fa)
                total += (1 / (4 * math.pi ** 4 * m * m * d * d)
                          - s4 / (8 * math.pi ** 4 * N * m * m * d * d * s2))
            assert abs(direct - total) < 1e-9

    @pytest.mark.parametrize("N,K", [(5, 0), (0, 3), (-4, 3)])
    def test_K_or_N_below_one_rejected(self, phi, N, K):
        # once a bare ZeroDivisionError, or -0.0 for N = -4
        with pytest.raises(ValueError, match="need K >= 1 and N >= 1"):
            xi_direct(phi, N, K, True)

    def test_term_guard(self, phi):
        with pytest.raises(ValueError):
            # 10^6 rows times a window of q_28 = 514229 terms
            xi_direct(phi, 10 ** 6, 30, True)


class TestTrigIdentity:
    def test_mean_of_odd_sines(self):
        # (1/N) sum sin^2((2n+1)x) = 1/2 - sin(4Nx)/(4N sin 2x)
        rng = random.Random(17)
        worst = 0.0
        for _ in range(1000):
            N = rng.randrange(1, 1001)
            x = rng.uniform(0, math.pi)
            if abs(math.sin(2 * x)) < 1e-3:
                continue
            lhs = sum(math.sin((2 * n + 1) * x) ** 2 for n in range(N)) / N
            rhs = 0.5 - math.sin(4 * N * x) / (4 * N * math.sin(2 * x))
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10


class TestEnclosures:
    def test_golden_containment(self, phi):
        for N in (1, 2, 34, 55, 89, 100):
            encS = enclosure_S(phi, N)
            encL = enclosure_L(phi, N)
            assert encS.contains(d2_exact_fast(build_S(phi, N)).d2_squared)
            assert encL.contains(d2_exact_fast(build_L(phi, N)).d2_squared)

    def test_rational_all_exact(self):
        alpha = Alpha.from_rational(5, 8)
        encS = enclosure_S(alpha, 8)
        encL = enclosure_L(alpha, 8)
        assert encS.contains(d2_exact_fast(build_S(alpha, 8)).d2_squared)
        assert encL.contains(d2_exact_fast(build_L(alpha, 8)).d2_squared)

    def test_width_floor_before_clamp(self, phi):
        # the additive budget alone forces a pre-clamp width of 2 * 6.28
        for N in (5, 89):
            enc = enclosure_S(phi, N)
            assert float(enc.hi) - enc.parts["raw_lo"] >= 2 * 6.28

    def test_range_validation(self, phi):
        with pytest.raises(ValueError):
            enclosure_S(phi, 10, K=3)  # q_3 = 3 < 10
        with pytest.raises(ValueError):
            enclosure_S(Alpha.from_rational(2, 5), 6)  # beyond denominator

    def test_K_below_one_rejected(self, phi):
        # N = 1 lies in [q_{K-1}, q_K] = [0, 1] for K = 0 too, whose sums
        # would start at m = 0
        for alpha in (phi, Alpha.from_rational(13, 30)):
            for enclose in (enclosure_S, enclosure_L):
                for K in (0, -1):
                    with pytest.raises(ValueError, match="K must be >= 1"):
                        enclose(alpha, 1, K)

    def test_alternative_K_at_boundary(self, phi):
        # N = q_K admits both K and K+1; both enclosures must contain
        N = phi.q(10)
        d = d2_exact_fast(build_S(phi, N)).d2_squared
        assert enclosure_S(phi, N, K=10).contains(d)
        assert enclosure_S(phi, N, K=11).contains(d)


class TestDiagnostics:
    def test_gap_contained(self, phi):
        gap, bound = _quotient_gap(phi, 10, dioph_sum2(phi, 1, phi.q(10) - 1))
        assert -bound <= gap.lo and gap.hi <= bound

    def test_mean_check_half(self):
        alpha = Alpha.from_rational(1, 2)
        E, main, r = mean_check(alpha, 1)
        # alternating sum is -2 at K=1 and the bounded-residual sign makes
        # the main term +1/6 (E itself is +1/2)
        assert E == Fraction(1, 2) and main == Fraction(1, 6)

    def test_mean_check_sign_on_large_first_quotient(self):
        # alpha = 1/q has E_q = (q+1)(q+2)/(12q); the residual must stay O(1)
        for q in (5, 50, 421):
            alpha = Alpha.from_rational(1, q)
            E, main, r = mean_check(alpha, 1)
            assert E == Fraction((q + 1) * (q + 2), 12 * q)
            assert abs(r) < 1.5

    def test_mean_check_corpus_residuals_bounded(self, corpus=None):
        from latdisc.corpus import feasible_indices, full_corpus
        worst = 0.0
        for alpha in full_corpus():
            for K in feasible_indices(alpha, 12, 20000):
                worst = max(worst, abs(mean_check(alpha, K)[2]))
        assert worst <= 1.5  # frozen: observed 0.563

    def test_mean_check_golden(self, phi):
        _, main, r = mean_check(phi, 4)
        assert main == 0 and abs(r) <= 2

    def test_variance_exact_small(self):
        lhs, rhs, r = variance_check(Alpha.from_rational(1, 2), 2)
        assert lhs == 0.0 and r == lhs - rhs

    def test_ratio_positive_finite(self):
        s, l = ratio_check(Alpha.from_rational(1, 2), 1)
        assert s > 0 and l > 0

    def test_ratio_envelopes_frozen(self, phi):
        # two-sided comparability: the exact discrepancy over the quotient
        # sums stays inside envelopes frozen from the first calibration run
        for K in range(5, 21):
            s, l = ratio_check(phi, K)
            assert 0.12 <= s <= 0.52
            assert 0.040 <= l <= 0.13
        sq2 = Alpha.from_surd(-1, 2, 1)
        for K in range(5, 14):
            s, l = ratio_check(sq2, K)
            assert 0.040 <= s <= 0.14
            assert 0.018 <= l <= 0.040

    def test_variance_residuals_frozen(self, phi):
        # frozen: observed residuals in [-0.0035, -0.0032] for K = 8..20
        for K in range(8, 21):
            _, _, r = variance_check(phi, phi.q(K))
            assert abs(r) <= 0.02
        sq3 = Alpha.from_surd(-1, 3, 1)
        for K in range(6, 14):
            N = sq3.q(K)
            _, _, r = variance_check(sq3, N)
            assert abs(r) / math.log(math.log(N)) ** 4 <= 0.02

    def test_mean_check_sqrt3_no_trend(self):
        sq3 = Alpha.from_surd(-1, 3, 1)
        res = [mean_check(sq3, K)[2] for K in range(1, 16)]
        assert max(abs(r) for r in res) <= 1.5
        # no drift: the late residuals are no larger than the early ones
        assert max(abs(r) for r in res[8:]) <= max(abs(r) for r in res[:8]) + 0.5

    def test_birkhoff_step_identity(self, phi):
        from oracles import birkhoff_sums
        b = birkhoff_sums(phi.value, 40)
        step, mod, _ = walk_data(phi)
        for n in range(1, 40):
            x = Fraction(n * step % mod, mod)  # {n alpha}, not by the walk
            assert b.T[n] - b.T[n - 1] == Fraction(1, 2) - x
