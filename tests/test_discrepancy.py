"""Exact discrepancy: the pairwise oracle, the sweep, and their agreement."""

import random
from fractions import Fraction

import pytest

from latdisc.alphas import Alpha
from latdisc.discrepancy import d2_exact_fast, d2_exact_quadratic
from latdisc.lattice import build_L, build_S

from oracles import cell_integration_d2sq


def random_points(rng, n, den_max=64):
    pts = []
    while len(pts) < n:
        x = Fraction(rng.randrange(0, den_max), den_max)
        y = Fraction(rng.randrange(0, den_max), den_max)
        pts.append((x, y))
        if rng.random() < 0.15:  # exercise duplicates and ties
            pts.append((x, Fraction(rng.randrange(0, den_max), den_max)))
    return pts[:n]


def test_single_point():
    assert d2_exact_quadratic([(Fraction(0), Fraction(0))]).d2_squared == Fraction(11, 18)
    assert d2_exact_fast([(Fraction(0), Fraction(0))]).d2_squared == Fraction(11, 18)


def test_multiplicity_two():
    pts = [(Fraction(0), Fraction(0))] * 2
    assert d2_exact_quadratic(pts).d2_squared == Fraction(22, 9)


def test_lattice_against_cell_integration():
    for (p, q, N) in ((1, 3, 3), (2, 5, 5), (1, 2, 2), (3, 7, 4)):
        alpha = Alpha.from_rational(p, q)
        for build in (build_L, build_S):
            P = build(alpha, N)
            assert d2_exact_quadratic(P).d2_squared == cell_integration_d2sq(P.points())


def test_random_sets_against_cell_integration():
    rng = random.Random(60)
    for _ in range(40):
        pts = random_points(rng, rng.randrange(1, 7))
        v = d2_exact_quadratic(pts).d2_squared
        assert v == cell_integration_d2sq(pts)
        assert v == d2_exact_fast(pts).d2_squared


def test_fast_equals_quadratic_random():
    rng = random.Random(61)
    for _ in range(60):
        pts = random_points(rng, rng.randrange(1, 60))
        assert d2_exact_fast(pts).d2_squared == d2_exact_quadratic(pts).d2_squared


def test_fast_equals_quadratic_on_lattices(corpus):
    for alpha in corpus[:6]:
        for N in (1, 2, 13, 55):
            for build in (build_L, build_S):
                P = build(alpha, N)
                assert d2_exact_fast(P).d2_squared == d2_exact_quadratic(P).d2_squared


def test_symmetrized_duplicates_tie_break():
    # S has duplicate points at n = 0 on purpose; the tie bucket must agree
    phi = Alpha.from_surd(-1, 5, 2)
    P = build_S(phi, 34)
    assert d2_exact_fast(P).d2_squared == d2_exact_quadratic(P).d2_squared


def test_permutation_invariance():
    rng = random.Random(62)
    pts = random_points(rng, 30)
    base = d2_exact_fast(pts).d2_squared
    for _ in range(5):
        rng.shuffle(pts)
        assert d2_exact_fast(pts).d2_squared == base
        assert d2_exact_quadratic(pts).d2_squared == base


def test_positive(corpus):
    for alpha in corpus[:10]:
        assert d2_exact_fast(build_S(alpha, 21)).d2_squared > 0


def test_perturbation_lipschitz():
    # nudging every coordinate by eps moves D2^2 by at most 5 n^2 eps
    rng = random.Random(63)
    den = 2 ** 24
    for _ in range(20):
        n = rng.randrange(2, 25)
        pts = random_points(rng, n)
        eps = Fraction(1, den)
        moved = []
        for x, y in pts:
            dx = Fraction(rng.choice([-1, 0, 1]), den)
            dy = Fraction(rng.choice([-1, 0, 1]), den)
            moved.append((min(max(x + dx, 0), Fraction(den - 1, den)),
                          min(max(y + dy, 0), Fraction(den - 1, den))))
        v0 = d2_exact_fast(pts).d2_squared
        v1 = d2_exact_fast(moved).d2_squared
        assert abs(v1 - v0) <= 5 * n * n * eps


def test_empty_rejected():
    with pytest.raises(ValueError):
        d2_exact_fast([])

