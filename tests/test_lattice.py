"""Lattice point set construction."""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from latdisc.alphas import Alpha
from latdisc.cf import PrecisionExhausted
from latdisc.discrepancy import d2_exact_fast, d2_exact_quadratic
from latdisc.fixedpoint import FixedPointReal
from latdisc.lattice import build_L, build_S, floors, walk_data

import oracles
from oracles import residues


def test_single_point():
    L = build_L(Alpha.from_rational(2, 7), 1)
    assert list(L.points()) == [(Fraction(0), Fraction(0))]
    S = build_S(Alpha.from_rational(2, 7), 1)
    assert list(S.points()) == [(Fraction(0), Fraction(0))] * 2


def test_third():
    L = build_L(Fraction(1, 3), 3)
    assert list(L.points()) == [(Fraction(0), Fraction(0)),
                                (Fraction(1, 3), Fraction(1, 3)),
                                (Fraction(2, 3), Fraction(2, 3))]


def test_two_fifths_sequence():
    L = build_L(Fraction(2, 5), 5)
    assert [x for x, _ in L.points()] == [Fraction(0), Fraction(2, 5),
                                          Fraction(4, 5), Fraction(1, 5),
                                          Fraction(3, 5)]


def test_symmetrization_multiset():
    S = build_S(Fraction(1, 3), 3)
    assert sorted(S.points()) == sorted([
        (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3))])


def test_sizes(corpus):
    for alpha in corpus[:8]:
        for N in (1, 2, 17):
            assert build_L(alpha, N).size == N
            assert build_S(alpha, N).size == 2 * N


def test_reflection_property(corpus):
    # S is L plus its mirror x -> 1-x, with x = 0 fixed
    for alpha in corpus[:6]:
        L = build_L(alpha, 19)
        S = build_S(alpha, 19)
        mirror = []
        for x, y in L.points():
            mirror.append((x, y))
            mirror.append(((1 - x) % 1, y))
        assert sorted(mirror) == sorted(S.points())


def test_full_period_permutation():
    # for alpha = p/q and N = q the x coordinates hit every multiple of 1/q
    for (p, q) in ((2, 5), (13, 30), (211, 299)):
        L = build_L(Alpha.from_rational(p, q), q)
        assert sorted(x for x, _ in L.points()) == [Fraction(i, q) for i in range(q)]


def test_y_coordinates():
    S = build_S(Fraction(2, 7), 7)
    ys = [y for _, y in S.points()]
    assert ys == [Fraction(n, 7) for n in range(7) for _ in (0, 1)]


def test_invalid_N():
    with pytest.raises(ValueError):
        build_L(Fraction(1, 2), 0)


def test_realization_error_annotation():
    from fractions import Fraction as F
    from latdisc.alphas import Alpha
    from latdisc.discrepancy import realization_error

    phi = Alpha.from_surd(-1, 5, 2)
    S = build_S(phi, 100)
    assert 0 < S.x_err <= F(99 * 2, 2 ** 256)
    assert realization_error(S) == 5 * 200 * 200 * S.x_err
    assert build_L(Alpha.from_rational(2, 5), 5).x_err == 0


@given(p=st.integers(0, 10 ** 4), q=st.integers(1, 500), N=st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_lattices_match_definition(p, q, N):
    alpha = Fraction(p, q)
    L = [((n * alpha) % 1, Fraction(n, N)) for n in range(N)]
    S = [pt for n in range(N)
         for pt in (((n * alpha) % 1, Fraction(n, N)),
                    ((-n * alpha) % 1, Fraction(n, N)))]
    assert list(build_L(alpha, N).points()) == L
    assert list(build_S(alpha, N).points()) == S


# mantissas m near p/n * 2^bits (within a few error units) as well as free
# ones; with n a power of two, |n m - p 2^bits| = n err is hit exactly
@given(bits=st.integers(16, 22), err=st.integers(1, 4), N=st.integers(1, 300),
       p=st.integers(0, 300),
       n0=st.one_of(st.integers(1, 300), st.sampled_from([2, 4, 8, 64, 256])),
       shift=st.integers(-12, 12), free=st.booleans(),
       m=st.integers(0, (1 << 22) - 1))
@example(bits=16, err=1, N=5, p=1, n0=4, shift=1, free=False, m=0)
@example(bits=16, err=1, N=5, p=1, n0=4, shift=-1, free=False, m=0)
@settings(max_examples=300, deadline=None)
def test_wrap_check_matches_definition(bits, err, N, p, n0, shift, free, m):
    mod = 1 << bits
    m = m % mod if free else (p * mod // n0 + shift) % mod
    budget = N > 1 and (N - 1) * err >= 1 << (bits // 2)
    wraps = any(min(n * m % mod, mod - n * m % mod) <= n * err
                for n in range(1, N))
    for build in (build_L, build_S):
        try:
            build(FixedPointReal(m, bits, err), N)
            raised = False
        except PrecisionExhausted:
            raised = True
        assert raised == (budget or wraps)


def trust_outcome(check, x, N):
    try:
        return check(x, N)
    except PrecisionExhausted as e:
        return str(e)


# the convergent check against the interval walk of the oracle, outcome and
# message: 16-24 bits, where Legendre's 2 n^2 err < 2^bits can fail below
# the budget, and 128-300 bits; mantissas free or within a few err of p/n0,
# N on both sides of 2^(bits/2 - 1)
@given(bits=st.one_of(st.integers(16, 24), st.integers(128, 300)),
       err=st.one_of(st.integers(1, 4), st.integers(5, 1 << 20)),
       free=st.booleans(), m=st.integers(0, (1 << 300) - 1),
       p=st.integers(0, 1 << 160),
       n0=st.one_of(st.integers(1, 300), st.integers(1, 1 << 160)),
       shift=st.integers(-4, 4), fine=st.integers(-2, 2),
       N=st.one_of(st.integers(1, 300), st.integers(0, 1 << 10)))
@example(bits=16, err=1, free=True, m=519, p=0, n0=1, shift=0, fine=0, N=255)
@settings(max_examples=400, deadline=None)
def test_trust_check_matches_interval_walk(bits, err, free, m, p, n0, shift,
                                           fine, N):
    mod = 1 << bits
    if N > 300:  # N/2^8 times 2^(bits/2 - 1), so up to 4 times it
        N = 1 + (N << (bits // 2 - 1) >> 8)
    m = m % mod if free else (p * mod // n0 + shift * err + fine) % mod
    x = FixedPointReal(m, bits, err)
    assert (trust_outcome(walk_data, x, N)
            == trust_outcome(oracles.trust_check, x, N))


def test_trust_check_matches_interval_walk_on_every_12_bit_mantissa():
    # at err_ulp 1 both outcomes occur for each N, and a semiconvergent
    # below N, a t off by one or a q_k >= N stop before the d-check each
    # change some of these outcomes
    outcomes = set()
    for N in (33, 47, 64):
        for m in range(1 << 12):
            x = FixedPointReal(m, 12, 1)
            got = trust_outcome(walk_data, x, N)
            assert got == trust_outcome(oracles.trust_check, x, N), (m, N)
            outcomes.add(isinstance(got, str))
    assert outcomes == {False, True}


def test_trust_check_finds_a_semiconvergent():
    # 519/2^16 = [0; 126, 3, 1, ...]: q = 1, 126, 379, 505.  2/253, the
    # semiconvergent 1 + 2 * 126 before q = 379, is within one ulp, while
    # 379 >= N: a check on convergents alone would pass N = 255
    x = FixedPointReal(519, 16, 1)
    with pytest.raises(PrecisionExhausted, match=r"at n = 253$"):
        walk_data(x, 255)
    assert walk_data(x, 253) == (519, 1 << 16, 1)


@given(p=st.integers(-(1 << 70), 1 << 70), q=st.integers(1, 1 << 40),
       N=st.integers(1, 50))
@example(p=-3, q=7, N=1)  # negative
@example(p=23, q=7, N=1)  # above 1
@example(p=-14, q=7, N=1)  # integral, below 0
@example(p=5, q=1, N=3)  # integral, above 1
@settings(max_examples=100, deadline=None)
def test_walk_data_of_a_fraction_is_its_fractional_part(p, q, N):
    x = Fraction(p, q)
    v = x % 1
    assert walk_data(x, N) == (v.numerator, v.denominator, 0)
    assert walk_data(Alpha.from_rational(p, q), N) == walk_data(x)


# mod = 2^B (a mantissa) or a rational q.  With near, step = floor(i mod/n0)
# + t puts n0 step within n0 of a multiple of mod: inside the n0 mod/2^128
# the two-limb realization cannot resolve once mod >= 2^128, and exactly on
# it (x = 0) when n0 divides i mod; both send n0 to the exact recomputation.
# The first example has 3 step = 2^200 - 1.
@given(B=st.integers(1, 300),
       q=st.one_of(st.integers(2, 60), st.integers(2, 1 << 90)),
       dyadic=st.booleans(), m=st.integers(0, (1 << 300) - 1),
       near=st.booleans(), n0=st.integers(1, 40), t=st.integers(0, 1),
       N=st.one_of(st.integers(1, 50), st.integers(1, 3000)))
@example(B=200, q=2, dyadic=True, m=1, near=True, n0=3, t=0, N=40)
# {3 alpha} is within 2^-80 above 0: k_3 needs the carry into the top limb
@example(B=1, q=790207306407921283707899822, dyadic=False, m=1, near=True,
         n0=3, t=1, N=5)
@settings(max_examples=60, deadline=None)
def test_realization_matches_exact_walk(B, q, dyadic, m, near, n0, t, N):
    mod = 1 << B if dyadic else q
    step = m % mod
    if near:
        step = ((m % n0) * mod // n0 + t) % mod
    alpha = FixedPointReal(step, B, 0) if dyadic else Fraction(step, q)
    step, mod, _ = walk_data(alpha)
    walk = residues(step, mod, 0, N)
    L, S = build_L(alpha, N), build_S(alpha, N)
    k = floors([step], mod, 2 * N - 1)[0].tolist()
    assert k == [n * step // mod for n in range(2 * N - 1)]
    assert L.x_num == tuple(walk)
    assert S.x_num == tuple(chain.from_iterable((x, -x % mod) for x in walk))
    for build in (build_L, build_S):
        P = build(alpha, min(N, 50))
        assert d2_exact_fast(P) == d2_exact_quadratic(P)


# dyadic steps: 2^128 step/mod is an integer (mod <= 2^128, or a mantissa with
# at least B - 128 trailing zeros), so every floor is exact without a divmod
@given(B=st.integers(1, 300), m=st.integers(0, (1 << 300) - 1),
       M=st.one_of(st.integers(1, 50), st.integers(1, 3000)))
@example(B=1, m=1, M=40)
@example(B=21, m=(1 << 21) - 1, M=3000)
@settings(max_examples=60, deadline=None)
def test_floors_of_dyadic_steps_match_divmod(B, m, M):
    mod = 1 << B
    step = (m << max(0, B - 128)) % mod
    ks = floors([step, (mod - step) % mod], mod, M)
    for k, s in zip(ks.tolist(), (step, -step % mod)):
        assert k == [n * s // mod for n in range(M)]


# the m next to an integer are recomputed in int64 while mod M < 2^63, else
# in Python integers: small q at M >> q, and mod = g t on both sides of
# 2^(62 + over)/M, with step = j t + e landing every g-th m on (e = 0) or
# beside an integer
@given(g=st.integers(1, 40), t=st.integers(1, 8), j=st.integers(0, 40),
       e=st.integers(0, 1), M=st.integers(1, 3000), side=st.integers(-1, 1),
       over=st.sampled_from((None, 0, 1, 2)))
@example(g=3, t=1, j=1, e=0, M=3000, side=0, over=None)
# m step reaches 2^63 below mod M = 2^64
@example(g=3, t=1, j=2, e=0, M=3000, side=-1, over=2)
@settings(max_examples=60, deadline=None)
def test_floors_next_to_integers_match_divmod(g, t, j, e, M, side, over):
    if over is not None:
        t = (1 << (62 + over)) // (M * g) + side
    mod = g * t
    step = (j * t + e) % mod
    k = floors([step], mod, M)[0].tolist()
    assert k == [n * step // mod for n in range(M)]
