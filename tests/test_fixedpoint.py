"""Fixed-point evaluation, distance to integers, and the running sums."""

import cmath
import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latdisc.cf import PrecisionExhausted, QuadraticSurd, cf_of_bits, cf_of_rational, cf_of_surd, cf_rule
from latdisc.discrepancy import d2_exact_fast, realization_error
from latdisc.fixedpoint import (
    _WALK_BLOCK,
    FixedPointReal,
    birkhoff_mean,
    birkhoff_quad_block,
    birkhoff_sums,
    dist_to_int,
    eval_alpha,
    frac_multiple,
    norms,
    residues,
    starred_sums,
)
from latdisc.lattice import build_L, build_S

from oracles import e_fraction, sqrt_mantissa


class TestEvalAlpha:
    def test_golden_64(self):
        fp = eval_alpha(cf_of_surd(QuadraticSurd.make(1, 5, 2)), bits=64)
        # frac((1+sqrt(5))/2) = (sqrt(5)-1)/2 = (frac(sqrt 5) + 1)/2
        target = (sqrt_mantissa(5, 64) + (1 << 64)) // 2
        assert abs(fp.mantissa - target) <= 4
        assert fp.err_ulp <= 2

    def test_half_exact(self):
        fp = eval_alpha(cf_of_rational(1, 2), bits=8)
        assert fp.mantissa == 128 and fp.err_ulp == 0

    def test_euler_matches_series(self):
        fp = eval_alpha(cf_rule("euler_e"), bits=256)
        e = e_fraction()
        target = ((e.numerator % e.denominator) << 256) // e.denominator
        assert abs(fp.mantissa - target) <= 2

    def test_truncated_exhaustion(self):
        cf = cf_of_bits(3 << 120, 128)
        with pytest.raises(PrecisionExhausted):
            eval_alpha(cf, bits=4096)


class TestFracMultiple:
    def test_rational(self):
        assert frac_multiple(Fraction(1, 2), 3) == Fraction(1, 2)
        assert frac_multiple(Fraction(2, 5), 0) == 0

    def test_golden_double(self):
        fp = eval_alpha(cf_of_surd(QuadraticSurd.make(-1, 5, 2)), bits=64)
        x2 = frac_multiple(fp, 2)
        target = sqrt_mantissa(5, 64)  # {2(phi-1)} = sqrt5 - 2 = frac(sqrt 5)
        assert abs(x2.mantissa - target) <= 8

    def test_zero_multiple_has_no_error(self):
        fp = FixedPointReal(123456, 64, 2)
        assert frac_multiple(fp, 0) == FixedPointReal(0, 64, 0)

    def test_budget_overflow(self):
        fp = FixedPointReal(1, 64, 2)
        with pytest.raises(PrecisionExhausted):
            frac_multiple(fp, 1 << 40)

    def test_error_bound_sound_under_refinement(self):
        # recomputing with 64 extra bits must stay within the advertised bound
        rng = random.Random(2718)
        specs = [QuadraticSurd.make(rng.randrange(-9, 9), D, rng.choice([1, 2]))
                 for D in rng.sample([2, 3, 5, 6, 7, 10, 11, 13, 17, 19], 6)]
        checked = 0
        for s in specs:
            cf = cf_of_surd(s)
            for B in (96, 128, 192):
                lo = eval_alpha(cf, bits=B)
                hi = eval_alpha(cf, bits=B + 64)
                for _ in range(50):
                    n = rng.randrange(0, 10 ** 6)
                    a = frac_multiple(lo, n)
                    b = frac_multiple(hi, n)
                    # compare on the circle at the coarse resolution
                    diff = abs((a.mantissa << 64) - b.mantissa)
                    diff = min(diff, (1 << (B + 64)) - diff)
                    assert diff <= (a.err_ulp + 1) << 64
                    checked += 1
        assert checked >= 900


class TestDistToInt:
    def test_simple(self):
        fp = FixedPointReal(3 << 62, 64, 0)  # 0.75
        assert dist_to_int(fp).mantissa == 1 << 62
        fp = FixedPointReal(1 << 63, 64, 0)  # 0.5 boundary
        assert dist_to_int(fp).mantissa == 1 << 63
        assert dist_to_int(Fraction(3, 4)) == Fraction(1, 4)

    def test_golden_denominator_bounds(self):
        # 1/(q_{k+1} + q_k) <= ||q_k alpha|| <= 1/q_{k+1}
        from latdisc.alphas import Alpha
        phi = Alpha.from_surd(-1, 5, 2)
        B = phi.value.bits
        for k in range(1, 31):
            qk, qk1 = phi.q(k), phi.q(k + 1)
            d = dist_to_int(frac_multiple(phi.value, qk))
            lo = Fraction(d.mantissa - d.err_ulp, 1 << B)
            hi = Fraction(d.mantissa + d.err_ulp, 1 << B)
            assert Fraction(1, qk1 + qk) <= hi and lo <= Fraction(1, qk1)


class TestBirkhoff:
    def test_single_step(self):
        b = birkhoff_sums(Fraction(2, 7), 1)
        assert b.T == (Fraction(1, 2),) and b.E == Fraction(1, 2)

    def test_half(self):
        b = birkhoff_sums(Fraction(1, 2), 2)
        assert b.T == (Fraction(1, 2), Fraction(1, 2)) and b.E == Fraction(1, 2)

    def test_mean_identity(self):
        b = birkhoff_sums(Fraction(3, 11), 11)
        assert b.E * b.N == sum(b.T)

    def test_telescoping(self):
        # N E_N = sum_{n<N} (N-n)(1/2 - {n a}), exactly
        rng = random.Random(44)
        for _ in range(50):
            q = rng.randrange(2, 300)
            p = rng.randrange(1, q)
            N = rng.randrange(1, 2 * q)
            a = Fraction(p, q)
            b = birkhoff_sums(a, N)
            rhs = sum((N - n) * (Fraction(1, 2) - (n * a) % 1) for n in range(N))
            assert b.E * N == rhs

    def test_golden_mean_bounded(self):
        from latdisc.alphas import Alpha
        phi = Alpha.from_surd(-1, 5, 2)
        E, err = birkhoff_mean(phi.value, 89)
        # alternating quotient sum vanishes for the golden ratio
        assert abs(float(E)) <= 2

    def test_fixed_point_error_budget(self):
        from latdisc.alphas import Alpha
        phi = Alpha.from_surd(-1, 5, 2)
        b = birkhoff_sums(phi.value, 50)
        assert b.err_bound <= 50 ** 2 * 2.0 ** (-254)


class TestStarred:
    def test_q2(self):
        s = starred_sums(1, 2)
        assert s.T == (Fraction(1, 4), Fraction(0))

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            starred_sums(2, 4)

    def test_offdiagonal_variance_bound(self):
        # (1/q) sum (T*_n - E*_q)^2 <= (1/q^2) sum_m 1/(|1-w^m|^2 |1-w^{mp}|^2)
        for (p, q) in ((2, 5), (3, 7), (5, 17), (13, 30)):
            s = starred_sums(p, q)
            lhs = sum((t - s.E) ** 2 for t in s.T) / q
            rhs = sum(
                1.0 / (abs(1 - cmath.exp(-2j * cmath.pi * m / q)) ** 2
                       * abs(1 - cmath.exp(2j * cmath.pi * m * p / q)) ** 2)
                for m in range(1, q)) / q ** 2
            assert float(lhs) <= rhs + 1e-9

    def test_close_to_unstarred(self):
        # |T_n - T*_n| < 1 for 0 <= n <= q-1 when alpha = p/q
        for (p, q) in ((2, 5), (7, 30), (13, 30)):
            t = birkhoff_sums(Fraction(p, q), q)
            ts = starred_sums(p, q)
            assert all(abs(a - b) < 1 for a, b in zip(t.T, ts.T))


class TestFiniteFourier:
    def test_sawtooth_transform(self):
        # sum_x (1/2 - 1/(2q) - {x/q}) w^{-mx} = 1/(1 - w^{-m}), w = e^{2 pi i/q}
        for q in (2, 3, 5, 17, 101, 500):
            vals = [0.5 - 0.5 / q - x / q for x in range(q)]
            for m in range(1, q):
                w = cmath.exp(-2j * cmath.pi * m / q)
                lhs = sum(v * w ** x for x, v in enumerate(vals))
                rhs = 1.0 / (1.0 - w)
                assert abs(lhs - rhs) < 1e-10
            assert abs(sum(vals)) < 1e-12


class TestWalk:
    @given(mod=st.one_of(st.just(1), st.integers(2, 500), st.just(1 << 256)),
           step=st.integers(0, 1 << 257), start=st.integers(1, 10 ** 6),
           length=st.integers(0, 3 * _WALK_BLOCK))
    @example(mod=1 << 256, step=3 ** 160, start=_WALK_BLOCK - 1,
             length=_WALK_BLOCK + 2)
    @settings(max_examples=40, deadline=None)
    def test_residues_match_direct_formula(self, mod, step, start, length):
        blocks = list(residues(step, mod, start, start + length))
        assert all(len(b) == _WALK_BLOCK for b in blocks[:-1])
        assert sum(blocks, []) == [(n * step) % mod
                                   for n in range(start, start + length)]
        folded = list(norms(step, mod, start, start + length))
        assert [len(b) for b in folded] == [len(b) for b in blocks]
        assert sum(folded, []) == [min(v, mod - v) for v in sum(blocks, [])]

    @given(p=st.integers(0, 10 ** 4), q=st.integers(1, 300),
           N=st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_birkhoff_sums_match_definition(self, p, q, N):
        alpha = Fraction(p, q)
        T = list(accumulate(Fraction(1, 2) - (l * alpha) % 1
                            for l in range(N)))
        b = birkhoff_sums(alpha, N)
        assert b.T == tuple(T) and b.E == sum(T) / N and b.err_bound == 0

    @given(p=st.integers(0, 10 ** 4), q=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_starred_sums_match_definition(self, p, q):
        assume(gcd(p, q) == 1)
        alpha = Fraction(p, q)
        T = list(accumulate(Fraction(q - 1, 2 * q) - (l * alpha) % 1
                            for l in range(q)))
        s = starred_sums(p, q)
        assert s.T == tuple(T) and s.E == sum(T) / q


def test_budget_overflow_message_names_the_walk_not_a_lattice():
    # raised by the running sums, which build no lattice
    with pytest.raises(PrecisionExhausted,
                       match=r"^error budget overflow walking \{n alpha\}, n < N$"):
        birkhoff_mean(FixedPointReal(12345, 16, 4), 200)


FINE = 8  # extra bits of the true alpha below the stored resolution


# true alphas anywhere inside the error counter of a stored mantissa placed
# near p/n0 (where {n alpha} may cross an integer) or drawn freely
@given(bits=st.integers(16, 24), err=st.integers(1, 4), N=st.integers(1, 60),
       p=st.integers(0, 60), n0=st.integers(1, 60), shift=st.integers(-12, 12),
       free=st.booleans(), m=st.integers(0, (1 << 24) - 1),
       t=st.integers(-(1 << FINE), 1 << FINE))
# alpha = 1/2 to one ulp, true alpha 1/2 - 2^-256: T_2 moves by 1
@example(bits=256, err=1, N=4, p=1, n0=2, shift=0, free=False, m=0,
         t=-(1 << FINE))
@settings(max_examples=200, deadline=None)
def test_realization_bounds_hold_for_every_admitted_alpha(bits, err, N, p, n0,
                                                          shift, free, m, t):
    mod = 1 << bits
    m = m % mod if free else (p * mod // n0 + shift) % mod
    stored = FixedPointReal(m, bits, err)
    true = FixedPointReal(((m << FINE) + t * err) % (mod << FINE),
                          bits + FINE)
    for build in (build_L, build_S):
        try:
            P = build(stored, N)
        except PrecisionExhausted:
            continue
        gap = (d2_exact_fast(build(true, N)).d2_squared
               - d2_exact_fast(P).d2_squared)
        assert abs(gap) <= realization_error(P)
    try:
        b = birkhoff_sums(stored, N)
    except PrecisionExhausted:
        return
    bt = birkhoff_sums(true, N)
    assert all(abs(x - y) <= b.err_bound for x, y in zip(bt.T, b.T))
    block, _, _, block_err = birkhoff_quad_block(stored, N)
    assert abs(birkhoff_quad_block(true, N)[0] - block) <= block_err
