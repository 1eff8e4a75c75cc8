"""Exact discrepancy: the pairwise oracle, the sweep, and their agreement."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from latdisc.alphas import Alpha
from latdisc.discrepancy import _BLOCK, d2_exact_fast, d2_exact_quadratic
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


def tied_points(rng, n, dx, dy):
    """n points drawn from about n/3 x values and n/3 y values, so both
    coordinates repeat; above 2^64, x values also share their top 64 bits
    while differing in the low ones."""
    k = max(1, n // 3)
    if dx > 1 << 64:
        xs = [rng.randrange(dx >> 20) << 20 | rng.randrange(3) for _ in range(k)]
    else:
        xs = [rng.randrange(dx) for _ in range(k)]
    ys = [rng.randrange(dy) for _ in range(k)]
    return [(Fraction(rng.choice(xs), dx), Fraction(rng.choice(ys), dy))
            for _ in range(n)]


# sizes around the pairwise base block and one merge level or more; the
# 2^70-scale y denominators give n*B >= 2^61, where the weights are Python ints
@given(n=st.one_of(st.integers(1, 600),
                   st.sampled_from([_BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 4 * _BLOCK + 1])),
       dx=st.sampled_from([2, 7, 64, 3 ** 40, 2 ** 80 + 1]),
       dy=st.sampled_from([2, 5, 64, 2 ** 70 + 3]),
       rng=st.randoms(use_true_random=False))
@example(n=600, dx=2 ** 80 + 1, dy=2 ** 70 + 3, rng=random.Random(0))
@settings(max_examples=100, deadline=None)
def test_fast_equals_quadratic_property(n, dx, dy, rng):
    pts = tied_points(rng, n, dx, dy)
    assert d2_exact_fast(pts).d2_squared == d2_exact_quadratic(pts).d2_squared


# sha256 of "numerator/denominator" of D2^2 at N = 20000, recorded with an
# independent per-point Fenwick-tree sweep
SCALE_DIGESTS = {
    ("surd:-1,5,2", "S"): "54ab97e893461ccc62a0e65174821dc646bc4c6e473c4cb846e32eb866a31fda",
    ("surd:-1,5,2", "L"): "368e3f6371fdbc4d984495d7d2ddd3b40ff39fbf46e37553d228255b1eba6488",
    ("12345/27941", "S"): "2debc18bfddbc8a89d429a7f6ec1ae5785af124f1f2c53437a66f1fc75209b48",
    ("12345/27941", "L"): "1a88d69c1777bd3d1df699f22bce3da040ae4c3f209faecf4c080bd025d342e7",
    ("bits:243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89@256", "S"):
        "c8cb158a29dffaadc143db8b4bce6b2c4eb7e11fd10a977fc56fd1cfb97bd189",
    ("bits:243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89@256", "L"):
        "a7a7d55b02a5278d8cd9dd801e57804fda7ed583fe818c9fb921afbf443b3478",
}


@pytest.mark.parametrize("spec,variant", sorted(SCALE_DIGESTS))
def test_bit_identical_at_scale(spec, variant):
    build = build_S if variant == "S" else build_L
    v = d2_exact_fast(build(Alpha.parse(spec), 20000)).d2_squared
    text = f"{v.numerator}/{v.denominator}".encode()
    assert hashlib.sha256(text).hexdigest() == SCALE_DIGESTS[spec, variant]
