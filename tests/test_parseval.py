"""Certified Diophantine sums, the quotient-sum inequalities, the window
term, and the D2^2 enclosures."""

import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from latdisc.alphas import Alpha
from latdisc.discrepancy import d2_exact_fast
from latdisc.lattice import build_L, build_S
from latdisc.parseval import (
    dioph_inequalities,
    _EXACT_TERM_LIMIT,
    _min_weighted_sum,
    dioph_sum,
    dioph_sum1,
    dioph_sum2,
    dioph_sum2_float,
    enclosure_L,
    enclosure_S,
    mean_check,
    quotient_gap_check,
    ratio_check,
    tail_min_bound,
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
        # beyond the denominator the defined terms decay like 1/m^2
        alpha = Alpha.from_rational(1, 2)
        vals = dioph_sum2_float(alpha, 10 ** 5, skip_zero=True,
                                record_at=[10 ** 3, 10 ** 4, 10 ** 5])
        assert vals[2] - vals[0] < 1e-3

    def test_growth_matches_slope_between_decades(self):
        # difference over one decade approximates c(sqrt3) * log 10
        sq3 = Alpha.from_surd(-1, 3, 1)
        v4, v5 = dioph_sum2_float(sq3, 10 ** 5, record_at=[10 ** 4, 10 ** 5])
        c = 1 / (12 * math.sqrt(3) * math.log(2 + math.sqrt(3)))
        assert abs((v5 - v4) / math.log(10) - c) < 0.15 * c


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
        assert iv.lo <= direct <= iv.hi


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
        assert xi_direct(phi, 1, 1, "S") == 0.0

    def test_brackets_hold_S(self, phi):
        for N in (34, 55, 89, 144):
            K = phi.index_for(N)
            x = xi_direct(phi, N, K, "S")
            enc = enclosure_S(phi, N)
            assert enc.parts["xi_lo"] - 1e-9 <= x <= enc.parts["xi_hi"] + 1e-9

    def test_brackets_hold_L(self, phi):
        for N in (34, 89):
            K = phi.index_for(N)
            x = xi_direct(phi, N, K, "L")
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
            direct = xi_direct(alpha, N, K, "S")
            mod = 1 << alpha.value.bits if not alpha.is_rational else alpha.value.denominator
            step = alpha.value.mantissa if not alpha.is_rational else alpha.value.numerator
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

    def test_term_guard(self, phi):
        with pytest.raises(ValueError):
            xi_direct(phi, 10 ** 6, 30, "S", term_guard=10 ** 4)


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

    def test_alternative_K_at_boundary(self, phi):
        # N = q_K admits both K and K+1; both enclosures must contain
        N = phi.q(10)
        d = d2_exact_fast(build_S(phi, N)).d2_squared
        assert enclosure_S(phi, N, K=10).contains(d)
        assert enclosure_S(phi, N, K=11).contains(d)


class TestDiagnostics:
    def test_gap_contained(self, phi):
        gap, bound = quotient_gap_check(phi, 10)
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
        from latdisc.corpus import full_corpus
        worst = 0.0
        for alpha in full_corpus():
            Kmax = alpha.cf.length or 12
            for K in range(1, min(Kmax, 12) + 1):
                if alpha.q(K) > 20000:
                    break
                worst = max(worst, abs(mean_check(alpha, K)[2]))
        assert worst <= 1.5  # frozen: observed 0.563

    def test_mean_check_golden(self, phi):
        _, main, r = mean_check(phi, 4)
        assert main == 0 and abs(r) <= 2

    def test_variance_exact_small(self):
        lhs, rhs, r = variance_check(Alpha.from_rational(1, 2), 2)
        assert lhs == 0.0 and r == lhs - rhs

    def test_variance_growth_precondition(self, phi):
        with pytest.raises(ValueError):
            variance_check(phi, 89, growth=(0.5, 0.0))
        variance_check(phi, 89, growth=(1.0, 0.0))  # all quotients are 1

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
        from latdisc.fixedpoint import birkhoff_sums, frac_multiple
        b = birkhoff_sums(phi.value, 40)
        for n in range(1, 40):
            step = Fraction(1, 2) - frac_multiple(phi.value, n).as_fraction()
            assert b.T[n] - b.T[n - 1] == step
