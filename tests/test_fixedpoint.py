"""Fixed-point evaluation, {n alpha} and its fold ||n alpha||, and the
running sums against the exact walk of the oracles."""

import cmath
import pickle
import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latdisc.alphas import Alpha
from latdisc.cf import PrecisionExhausted, QuadraticSurd, cf_of_bits, cf_of_rational, cf_of_surd, cf_rule
from latdisc.discrepancy import _CHUNK, d2_exact_fast, realization_error
from latdisc.fixedpoint import FixedPointReal, birkhoff_quad_block, eval_alpha
from latdisc.lattice import build_L, build_S, walk_data

import oracles
from oracles import (birkhoff_sums, e_fraction, norms, residues, sqrt_mantissa,
                     starred_sums)


class TestFixedPointReal:
    @pytest.mark.parametrize("mant, bits", [(-1, 64), (1 << 64, 64),
                                            (1 << 200, 128)])
    def test_mantissa_out_of_range(self, mant, bits):
        msg = "^mantissa out of range for bit width$"
        with pytest.raises(ValueError, match=msg):
            FixedPointReal(mant, bits, 1)
        with pytest.raises(ValueError, match=msg):
            FixedPointReal(0, bits)._replace(mantissa=mant)

    def test_negative_error(self):
        with pytest.raises(ValueError, match="^err_ulp must be >= 0$"):
            FixedPointReal(1, 64, -1)
        with pytest.raises(ValueError, match="^err_ulp must be >= 0$"):
            FixedPointReal(1, 64)._replace(err_ulp=-1)

    def test_alpha_from_bits_checks_the_range_once(self):
        for mant in (-1, 1 << 256):
            with pytest.raises(ValueError, match="^mantissa out of range$"):
                Alpha.from_bits(mant, 256)
        alpha = Alpha.from_bits((1 << 256) - 1, 256)
        assert type(alpha.value) is FixedPointReal
        assert alpha.value == FixedPointReal((1 << 256) - 1, 256, 1)
        assert pickle.loads(pickle.dumps(alpha.value)) == alpha.value


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


def walk_at(x, n):
    """{n x} as the program realizes it: the residue n*step mod modulus of
    the walk, the modulus, and the error bound n*err_ulp in ulps."""
    step, mod, err_ulp = walk_data(x)
    [v] = residues(step, mod, n, n + 1)
    return v, mod, n * err_ulp


def norm_at(x, n):
    """modulus * ||n x|| through the fold, with the same error bound."""
    step, mod, err_ulp = walk_data(x)
    [d] = norms(step, mod, n, n + 1)
    return d, mod, n * err_ulp


class TestFracMultiple:
    def test_rational(self):
        v, mod, err = walk_at(Fraction(1, 2), 3)
        assert Fraction(v, mod) == Fraction(1, 2) and err == 0
        assert walk_at(Fraction(2, 5), 0) == (0, 5, 0)

    def test_golden_double(self):
        fp = eval_alpha(cf_of_surd(QuadraticSurd.make(-1, 5, 2)), bits=64)
        v, _, _ = walk_at(fp, 2)
        target = sqrt_mantissa(5, 64)  # {2(phi-1)} = sqrt5 - 2 = frac(sqrt 5)
        assert abs(v - target) <= 8

    def test_zero_multiple_has_no_error(self):
        fp = FixedPointReal(123456, 64, 2)
        assert walk_at(fp, 0) == (0, 1 << 64, 0)
        P = build_L(fp, 1)
        assert P.x_num == (0,) and P.x_err == 0

    def test_budget_overflow(self):
        fp = FixedPointReal(1, 64, 2)
        with pytest.raises(PrecisionExhausted, match="budget overflow"):
            walk_data(fp, (1 << 40) + 1)

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
                    a, _, err = walk_at(lo, n)
                    b, _, _ = walk_at(hi, n)
                    # compare on the circle at the coarse resolution
                    diff = abs((a << 64) - b)
                    diff = min(diff, (1 << (B + 64)) - diff)
                    assert diff <= (err + 1) << 64
                    checked += 1
        assert checked >= 900


class TestDistToInt:
    def test_simple(self):
        assert norm_at(FixedPointReal(3 << 62, 64, 0), 1)[0] == 1 << 62  # 0.75
        # 0.5 boundary
        assert norm_at(FixedPointReal(1 << 63, 64, 0), 1)[0] == 1 << 63
        assert norm_at(Fraction(3, 4), 1) == (1, 4, 0)

    def test_golden_denominator_bounds(self):
        # 1/(q_{k+1} + q_k) <= ||q_k alpha|| <= 1/q_{k+1}
        from latdisc.alphas import Alpha
        phi = Alpha.from_surd(-1, 5, 2)
        for k in range(1, 31):
            qk, qk1 = phi.q(k), phi.q(k + 1)
            d, mod, err = norm_at(phi, qk)
            lo, hi = Fraction(d - err, mod), Fraction(d + err, mod)
            assert Fraction(1, qk1 + qk) <= hi and lo <= Fraction(1, qk1)


class TestBirkhoff:
    def test_single_step(self):
        b = birkhoff_sums(Fraction(2, 7), 1)
        assert b.T == (Fraction(1, 2),) and b.E == Fraction(1, 2)

    def test_half(self):
        b = birkhoff_sums(Fraction(1, 2), 2)
        assert b.T == (Fraction(1, 2), Fraction(1, 2)) and b.E == Fraction(1, 2)

    @pytest.mark.parametrize("N", [0, -2])
    def test_N_below_one_rejected(self, N):
        for running_sum in (birkhoff_sums, birkhoff_quad_block):
            with pytest.raises(ValueError, match="N must be >= 1"):
                running_sum(Fraction(1, 3), N)

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
        _, E, _, _ = oracles.birkhoff_quad_block(phi.value, 89)
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


# the block against the walk: rationals, and 256-bit mantissas with an error
# counter placed 2^-j off p/n0, where the running sums come near-tied and the
# exact max |u_n| behind err needs every float candidate
@given(rational=st.booleans(), q=st.integers(1, 400), p=st.integers(0, 400),
       n0=st.integers(1, 12), j=st.integers(20, 128),
       sign=st.sampled_from((-1, 1)), err=st.integers(1, 4),
       N=st.one_of(st.integers(1, 50), st.integers(1, 5000)))
@example(rational=True, q=7, p=3, n0=1, j=20, sign=1, err=1, N=_CHUNK + 1)
@example(rational=False, q=1, p=1, n0=2, j=60, sign=1, err=2, N=_CHUNK)
# the float |T_n| ranks a near-tie the wrong way round
@example(rational=False, q=1, p=7, n0=11, j=103, sign=-1, err=3, N=11)
@settings(max_examples=60, deadline=None)
def test_quad_block_matches_the_walk(rational, q, p, n0, j, sign, err, N):
    if rational:
        alpha = Fraction(p, q)
    else:
        mod = 1 << 256
        alpha = FixedPointReal((p * mod // n0 + sign * (mod >> j)) % mod, 256,
                               err)
    try:
        want = oracles.birkhoff_quad_block(alpha, N)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            birkhoff_quad_block(alpha, N)
        return
    assert birkhoff_quad_block(alpha, N) == (want[0], want[3])


def test_budget_overflow_message_names_the_walk_not_a_lattice():
    # raised by the running sums, which build no lattice
    with pytest.raises(PrecisionExhausted,
                       match=r"^error budget overflow walking \{n alpha\}, n < N$"):
        birkhoff_quad_block(FixedPointReal(12345, 16, 4), 200)


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
    block, block_err = birkhoff_quad_block(stored, N)
    assert abs(birkhoff_quad_block(true, N)[0] - block) <= block_err
