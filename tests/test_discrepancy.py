"""Exact discrepancy: the pairwise oracle, the merge-sweep oracle, the
closed form for lattices, and their agreement."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from latdisc.alphas import Alpha
from latdisc.discrepancy import (_CHUNK, d2_exact_fast, d2_exact_lattices,
                                 d2_exact_quadratic)
from latdisc.fixedpoint import FixedPointReal
from latdisc.lattice import build_L, build_S

from oracles import MERGE_BLOCK, cell_integration_d2sq, merge_sweep_d2sq


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
        assert v == merge_sweep_d2sq(pts)


def test_merge_oracle_equals_quadratic_random():
    rng = random.Random(61)
    for _ in range(60):
        pts = random_points(rng, rng.randrange(1, 60))
        assert merge_sweep_d2sq(pts) == d2_exact_quadratic(pts).d2_squared


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
    base = merge_sweep_d2sq(pts)
    for _ in range(5):
        rng.shuffle(pts)
        assert merge_sweep_d2sq(pts) == base
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


# sizes around the merge oracle's pairwise base block and one merge level or
# more; the 2^70-scale y denominators give n*B >= 2^61, where its weights are
# Python ints
@given(n=st.one_of(st.integers(1, 600),
                   st.sampled_from([MERGE_BLOCK, MERGE_BLOCK + 1,
                                    2 * MERGE_BLOCK + 1, 4 * MERGE_BLOCK + 1])),
       dx=st.sampled_from([2, 7, 64, 3 ** 40, 2 ** 80 + 1]),
       dy=st.sampled_from([2, 5, 64, 2 ** 70 + 3]),
       rng=st.randoms(use_true_random=False))
@example(n=600, dx=2 ** 80 + 1, dy=2 ** 70 + 3, rng=random.Random(0))
@settings(max_examples=100, deadline=None)
def test_merge_oracle_equals_quadratic_property(n, dx, dy, rng):
    pts = tied_points(rng, n, dx, dy)
    assert merge_sweep_d2sq(pts) == d2_exact_quadratic(pts).d2_squared


def test_lattice_batch_rejects_steps_outside_the_modulus():
    assert d2_exact_lattices([], 7, 5, True) == []
    for steps, N in (([7], 5), ([-1], 5), ([1], 0), ([1], 1 << 30)):
        with pytest.raises(ValueError):
            d2_exact_lattices(steps, 7, N, True)


def test_point_lists_take_the_pairwise_sum():
    pts = [(0, 0), (Fraction(1, 3), Fraction(1, 2))]
    assert d2_exact_fast(pts) == d2_exact_quadratic(pts)


# alpha: a rational p/q (q below, near or above N, alpha = 0, and p/q not
# in lowest terms, which the builders reduce) or a 256-bit fixed-point
# mantissa; all steps of the batch share mod
alphas = st.one_of(
    st.integers(1, 200).flatmap(
        lambda q: st.lists(st.integers(0, q - 1), min_size=1, max_size=4)
        .map(lambda ps: (ps, q))),
    st.lists(st.integers(0, (1 << 256) - 1), min_size=1, max_size=3)
    .map(lambda ms: (ms, 1 << 256)))


@given(alpha=alphas, N=st.integers(1, 60), sym=st.booleans())
@example(alpha=([0], 1), N=7, sym=True)
@example(alpha=([3, 7], 10), N=25, sym=True)  # q < N: tied x
# rows with q' = mod/gcd(step, mod) of 1, 4, 8 and 2, each with several
# multiples below N, where z_m = 1 - [q' | m]
@example(alpha=([0, 2, 3, 4], 8), N=41, sym=True)
@example(alpha=([0, 2, 3, 4], 8), N=41, sym=False)
@example(alpha=([6, 9, 10], 12), N=60, sym=True)
# a 2^256 modulus with q' of 1, 2 and 4: the closed forms over the
# multiples of q' under a fixed-point-sized modulus
@example(alpha=([0, 1 << 255, 3 << 254], 1 << 256), N=33, sym=True)
@example(alpha=([0, 1 << 255, 3 << 254], 1 << 256), N=33, sym=False)
@settings(max_examples=150, deadline=None)
def test_closed_form_equals_quadratic_property(alpha, N, sym):
    steps, mod = alpha
    build = build_S if sym else build_L
    got = d2_exact_lattices(steps, mod, N, sym)
    for step, v in zip(steps, got):
        x = (FixedPointReal(step, 256) if mod == 1 << 256
             else Fraction(step, mod))
        P = build(x, N)
        assert v == d2_exact_fast(P).d2_squared == d2_exact_quadratic(P).d2_squared


@given(q=st.integers(2, 40000), p=st.integers(1, 40000),
       fixed=st.integers(1, (1 << 256) - 1), use_fixed=st.booleans(),
       N=st.integers(2000, 20000), sym=st.booleans())
@settings(max_examples=12, deadline=None)
def test_closed_form_equals_merge_oracle_property(q, p, fixed, use_fixed, N,
                                                  sym):
    x = FixedPointReal(fixed, 256) if use_fixed else Fraction(p % q, q)
    P = (build_S if sym else build_L)(x, N)
    assert d2_exact_fast(P).d2_squared == merge_sweep_d2sq(P.points())


# q' = 8192/gcd(2730, 8192) = 4096 <= N/2: x_t = 0 on the multiples of q'
# below N, which J = ceil(N/q') counts.  The floors are dotted in blocks of
# _CHUNK: S reads 2N - 1 of them, which end one short of the block edge at
# _CHUNK for N = _CHUNK/2 and one past it for N = _CHUNK/2 + 1; L reads N,
# which end on that edge for N = _CHUNK and one past it for N = _CHUNK + 1
@pytest.mark.parametrize("N", [_CHUNK // 2, _CHUNK // 2 + 1, _CHUNK,
                               _CHUNK + 1])
@pytest.mark.parametrize("sym", [True, False])
def test_multiples_of_the_reduced_modulus_across_blocks(N, sym):
    v, = d2_exact_lattices([2730], 8192, N, sym)
    P = (build_S if sym else build_L)(Fraction(2730, 8192), N)
    assert v == merge_sweep_d2sq(P.points())


# sha256 of "numerator/denominator" of D2^2 of S and L(12/13, 3.5 * 10^6),
# recorded with an independent count of earlier points per x value (no
# floor identities).  There the products in the limb dots (omega against
# k (k + 1) and t k; for L also a against a and n(n + 1)) pass 2^63, so
# _dot takes them in limbs, and a_n reaches 2^43.
@pytest.mark.parametrize("sym,digest", [
    (True, "4effbe73a2c027b1426bf27cf213fa5240d8ae665360de60b677cd4c462f4de4"),
    (False, "79d960017c48ee5f9f3a01ad5db2051d687c309c6d735ebff2baa50f0d06dbf5"),
])
def test_exact_where_int64_intermediates_wrap(sym, digest):
    v, = d2_exact_lattices([12], 13, 3_500_000, sym)
    text = f"{v.numerator}/{v.denominator}".encode()
    assert hashlib.sha256(text).hexdigest() == digest


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
