"""Lattice point set construction."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from latdisc.alphas import Alpha
from latdisc.cf import PrecisionExhausted
from latdisc.fixedpoint import FixedPointReal
from latdisc.lattice import build_L, build_S


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
