"""Continued fraction construction, convergents and quotient statistics."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from latdisc.cf import (
    ContinuedFraction,
    ExpansionExhausted,
    Finite,
    Periodic,
    QuadraticSurd,
    alternate_expansion,
    cf_of_bits,
    cf_of_rational,
    cf_of_surd,
    cf_rule,
    cf_stats,
    cf_value,
    convergents,
    optimality_stats,
)
from latdisc.fixedpoint import eval_alpha
from latdisc.quadratic import period_matrix

from oracles import sqrt_mantissa


def quotient_list(cf, K):
    return cf.quotients(K)


class TestRational:
    def test_examples(self):
        assert quotient_list(cf_of_rational(13, 30), 3) == [2, 3, 4]
        assert cf_of_rational(0, 1).body.terms == ()
        assert quotient_list(cf_of_rational(5, 8), 4) == [1, 1, 1, 2]

    def test_canonical_form(self):
        for q in range(2, 200):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                terms = cf_of_rational(p, q).body.terms
                if len(terms) >= 2:
                    assert terms[-1] >= 2

    def test_integer_part_reduced(self):
        assert cf_of_rational(43, 30).body.terms == cf_of_rational(13, 30).body.terms
        assert cf_of_rational(-17, 30).body.terms == cf_of_rational(13, 30).body.terms

    def test_reconstruction_exhaustive_small(self):
        for q in range(1, 120):
            for p in range(q):
                if gcd(p, q) != 1:
                    continue
                assert cf_value(cf_of_rational(p, q)) == Fraction(p, q)

    def test_reconstruction_sampled_to_1e4(self):
        rng = random.Random(1234)
        for _ in range(3000):
            q = rng.randrange(1, 10 ** 4 + 1)
            p = rng.randrange(q)
            g = gcd(p, q)
            assert cf_value(cf_of_rational(p, q)) == Fraction(p // g, q // g)

    def test_alternate_expansion(self):
        rng = random.Random(99)
        for _ in range(500):
            q = rng.randrange(2, 2000)
            p = rng.randrange(1, q)
            cf = cf_of_rational(p, q)
            alt = alternate_expansion(cf)
            assert cf_value(alt) == cf_value(cf)
            assert abs(len(alt.body.terms) - len(cf.body.terms)) == 1
            assert alternate_expansion(alt).body.terms == cf.body.terms

    def test_alternate_of_zero_rejected(self):
        with pytest.raises(ValueError):
            alternate_expansion(cf_of_rational(0, 1))


class TestSurd:
    def test_golden(self):
        cf = cf_of_surd(QuadraticSurd.make(1, 5, 2))
        assert cf.a0 == 1 and cf.body == Periodic((), (1,))

    def test_sqrt3(self):
        cf = cf_of_surd(QuadraticSurd.make(0, 3, 1))
        assert cf.a0 == 1 and cf.body == Periodic((), (1, 2))

    def test_sqrt2(self):
        cf = cf_of_surd(QuadraticSurd.make(0, 2, 1))
        assert cf.a0 == 1 and cf.body == Periodic((), (2,))

    def test_perfect_square_rejected(self):
        with pytest.raises(ValueError):
            QuadraticSurd.make(0, 9, 1)

    def test_negative_Q_and_preperiod(self):
        # (1 + sqrt(2)) / -1 = -2.414... = [-3;1,1,overline(2)]
        cf = cf_of_surd(QuadraticSurd.make(1, 2, -1))
        assert cf.a0 == -3
        assert cf.body == Periodic((1, 1), (2,))
        # and the plain form of sqrt(2) - 1
        cf2 = cf_of_surd(QuadraticSurd.make(-1, 2, 1))
        assert cf2.a0 == 0 and cf2.body == Periodic((), (2,))

    def test_period_regenerates_value(self):
        # expanded period must reproduce sqrt(D) in fixed point
        for D in (2, 3, 5, 7, 13, 19, 31, 61, 94):
            cf = cf_of_surd(QuadraticSurd.make(0, D, 1))
            fp = eval_alpha(cf, bits=192)
            oracle = sqrt_mantissa(D, 192)
            assert abs(fp.mantissa - oracle) <= 16  # 2^(-B+4)

    @pytest.mark.parametrize("P, D, Q", [(1, 5, 0), (1, 4, 0), (0, 9, 1),
                                         (0, 9, 2), (0, 0, 3), (2, -7, 5)])
    def test_make_rejects_as_the_constructor_does(self, P, D, Q):
        with pytest.raises(ValueError) as direct:
            QuadraticSurd(P, D, Q)
        with pytest.raises(ValueError) as made:
            QuadraticSurd.make(P, D, Q)
        assert str(made.value) == str(direct.value)

    def test_state_cycle_within_bound(self):
        rng = random.Random(5)
        for _ in range(200):
            D = rng.randrange(2, 500)
            if isqrt(D) ** 2 == D:
                continue
            P = rng.randrange(-20, 20)
            Q = rng.choice([1, 2, 3, -1, -2])
            cf = cf_of_surd(QuadraticSurd.make(P, D, Q))  # must not raise
            assert all(a >= 1 for a in cf.body.period)


class TestRules:
    def test_prefixes(self):
        assert cf_rule("euler_e").a0 == 2
        assert quotient_list(cf_rule("euler_e"), 7) == [1, 2, 1, 1, 4, 1, 1]
        assert cf_rule("tan_one").a0 == 1
        assert quotient_list(cf_rule("tan_one"), 6) == [1, 1, 3, 1, 5, 1]
        assert quotient_list(cf_rule("pow2_spikes"), 8) == [1, 2, 1, 4, 1, 1, 1, 8]
        assert quotient_list(cf_rule("constant(3)"), 4) == [3, 3, 3, 3]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cf_rule("no_such_rule")


class TestConvergents:
    def test_fibonacci(self):
        cv = convergents(cf_rule("constant(1)"), 5)
        assert [c.q for c in cv] == [1, 1, 2, 3, 5, 8]

    def test_rational_example(self):
        cv = convergents(cf_of_rational(13, 30), 3)
        assert [(c.p, c.q) for c in cv] == [(0, 1), (1, 2), (3, 7), (13, 30)]

    def test_sqrt3_denominators(self):
        cv = convergents(cf_of_surd(QuadraticSurd.make(0, 3, 1)), 4)
        assert [c.q for c in cv] == [1, 1, 3, 4, 11]

    def test_coprime_and_increasing(self):
        rng = random.Random(31)
        for _ in range(100):
            q = rng.randrange(2, 10 ** 6)
            p = rng.randrange(1, q)
            cv = convergents(cf_of_rational(p, q), len(cf_of_rational(p, q).body.terms))
            for c in cv:
                assert gcd(c.p, c.q) == 1
            qs = [c.q for c in cv[1:]]
            assert qs == sorted(qs)

    def test_exhaustion_error(self):
        with pytest.raises(ExpansionExhausted):
            convergents(cf_of_rational(13, 30), 4)

    def test_approximation_quality_rational(self):
        # |q_k x - p_k| < 1/q_{k+1}, exactly, for rational x
        rng = random.Random(7)
        for _ in range(200):
            q = rng.randrange(3, 10 ** 5)
            p = rng.randrange(1, q)
            g = gcd(p, q)
            x = Fraction(p // g, q // g)
            cf = cf_of_rational(p, q)
            cv = convergents(cf, len(cf.body.terms))
            # equality is attained at the second-to-last convergent of a
            # rational, so the exact statement is <=
            for a, b in zip(cv, cv[1:]):
                assert abs(a.q * x - a.p) <= Fraction(1, b.q)

    def test_approximation_quality_fixed_point(self):
        for spec in ((1, 5, 2), (0, 3, 1), (0, 2, 1)):
            cf = cf_of_surd(QuadraticSurd.make(*spec))
            fp = eval_alpha(cf, bits=256)
            lo = Fraction(fp.mantissa - fp.err_ulp, 1 << 256) + cf.a0
            hi = Fraction(fp.mantissa + fp.err_ulp, 1 << 256) + cf.a0
            cv = convergents(cf, 21)
            for a, b in zip(cv[:20], cv[1:21]):
                err = max(abs(a.q * lo - a.p), abs(a.q * hi - a.p))
                assert err < Fraction(1, b.q)


def horner(a0, terms):
    """[a0; terms] by the backward recursion, independent of convergents."""
    tail = Fraction(0)
    for a in reversed(terms):
        tail = Fraction(1, a + tail)
    return a0 + tail


def matmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


quotient_lists = st.lists(st.integers(1, 10 ** 6), max_size=30)


class TestConvergentFolds:
    """The values read off convergents against direct oracles."""

    @given(a0=st.integers(-50, 50), terms=quotient_lists)
    @settings(max_examples=100, deadline=None)
    def test_cf_value_is_horner(self, a0, terms):
        cf = ContinuedFraction(a0, Finite(tuple(terms)))
        assert cf_value(cf) == horner(a0, terms)

    @given(a0=st.integers(-5, 5), pre=st.lists(st.integers(1, 50), max_size=4),
           period=st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_period_matrix_is_the_matrix_product(self, a0, pre, period):
        m = ((1, 0), (0, 1))
        for a in period:
            m = matmul(m, ((0, 1), (1, a)))
        cf = ContinuedFraction(a0, Periodic(tuple(pre), tuple(period)))
        assert period_matrix(cf) == m[0] + m[1]


class TestTruncated:
    def test_prefix_matches_euclid(self):
        m = 0x6A09E667F3BCC908B2FB1366EA957D3E3ADEC17512775099 << 64
        cf = cf_of_bits(m % (1 << 256), 256)
        assert all(a >= 1 for a in cf.body.terms)
        assert len(cf.body.terms) > 40

    def test_exhaustion_is_precision_error(self):
        from latdisc.cf import PrecisionExhausted
        cf = cf_of_bits(1 << 200, 256)
        with pytest.raises(PrecisionExhausted):
            cf.quotient(len(cf.body.terms) + 1)


class TestStats:
    def test_euler_example(self):
        st = cf_stats(cf_rule("euler_e"), 6)
        assert st.sum_a2 == 24 and st.sum_a == 10 and st.max_a == 4
        # cubic growth law with quadratic slack
        assert abs(st.sum_a2 - 4 / 81 * 6 ** 3) <= 2 * 36

    def test_golden(self):
        for K in (1, 5, 40):
            st = cf_stats(cf_rule("constant(1)"), K)
            assert st.sum_a2 == K and st.alt_sum in (-1, 0)

    def test_pow2_spikes_realizes_gap(self):
        # bounded average quotient but quadratic-in-K sum of squares
        st = cf_stats(cf_rule("pow2_spikes"), 64)
        assert st.sum_a / 64 <= 3
        assert st.sum_a2 >= sum(4 ** j for j in range(7))

    def test_field_invariants(self, corpus):
        for alpha in corpus:
            K = min(10, alpha.cf.length or 10)
            if K < 1:
                continue
            st = alpha.stats(K)
            assert abs(st.alt_sum) <= st.sum_a <= st.sum_a2
            assert st.max_a ** 2 <= st.sum_a2

    def test_optimality_stats(self):
        ms, an = optimality_stats(cf_of_rational(13, 30), 3)
        assert ms == pytest.approx((4 + 9 + 16) / 3)
        assert an == pytest.approx(3 / 3 ** 0.5)
        ms, an = optimality_stats(cf_rule("constant(1)"), 100)
        assert ms == 1.0 and an <= 100 ** -0.5
        # tan 1: quadratic mean-square growth, K^(3/2)/4 alternation growth
        ms, an = optimality_stats(cf_rule("tan_one"), 40)
        assert 0.9 <= ms / (40 ** 2 / 6) <= 1.1
        assert 0.9 <= an / (40 ** 1.5 / 4) <= 1.1


class TestExpansionInvariance:
    def test_downstream_statistics_agree(self):
        # exact discrepancy only sees the value; enclosures from either
        # expansion must both contain it
        from latdisc.alphas import Alpha
        from latdisc.discrepancy import d2_exact_fast
        from latdisc.lattice import build_L, build_S
        from latdisc.parseval import enclosure_L, enclosure_S

        rng = random.Random(404)
        for _ in range(10):
            q = rng.randrange(30, 400)
            p = rng.randrange(1, q)
            if gcd(p, q) != 1:
                continue
            a1 = Alpha.from_rational(p, q)
            cf2 = alternate_expansion(a1.cf)
            a2 = Alpha(cf2, a1.value, a1.label + "-alt")
            N = rng.randrange(2, q + 1)
            dS = d2_exact_fast(build_S(a1, N)).d2_squared
            dL = d2_exact_fast(build_L(a1, N)).d2_squared
            for a in (a1, a2):
                assert enclosure_S(a, N).contains(dS)
                assert enclosure_L(a, N).contains(dL)
