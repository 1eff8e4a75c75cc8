"""Exact L2 discrepancy of 2-dimensional point multisets.

Both algorithms evaluate the Warnock expansion of the defining integral

    D2^2 = sum_{i,j} (1 - max(x_i,x_j)) (1 - max(y_i,y_j))
           - (|P|/2) sum_i (1 - x_i^2)(1 - y_i^2) + |P|^2 / 9

in exact scaled-integer arithmetic, which kills the catastrophic cancellation
between the O(|P|^2) terms: coordinates enter as integers over common
denominators and the three terms are combined over a single final denominator.
The quadratic version is the plain pairwise oracle; the fast version sweeps by
x with a Fenwick tree over y-ranks and runs in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, sqrt
from typing import Iterable, Tuple, Union

from .lattice import LatticePointSet


@dataclass(frozen=True)
class DiscrepancyValue:
    d2_squared: Fraction

    def __post_init__(self):
        if self.d2_squared < 0:
            raise AssertionError("squared discrepancy cannot be negative")

    @property
    def d2(self) -> float:
        return sqrt(float(self.d2_squared))

    def to_float(self) -> float:
        return float(self.d2_squared)


PointsLike = Union[LatticePointSet, Iterable[Tuple[Fraction, Fraction]]]


def _scaled_arrays(P: PointsLike):
    """Normalize input to (X, Y, A, B) with x_i = X_i/A, y_i = Y_i/B."""
    if isinstance(P, LatticePointSet):
        return list(P.x_num), list(P.y_num), P.x_den, P.y_den
    pts = list(P)
    if not pts:
        raise ValueError("point set must be nonempty")
    A = lcm(*(Fraction(x).denominator for x, _ in pts))
    B = lcm(*(Fraction(y).denominator for _, y in pts))
    X = []
    Y = []
    for x, y in pts:
        fx, fy = Fraction(x), Fraction(y)
        if not (0 <= fx < 1 and 0 <= fy < 1):
            raise ValueError("coordinates must lie in [0,1)")
        X.append(fx.numerator * (A // fx.denominator))
        Y.append(fy.numerator * (B // fy.denominator))
    return X, Y, A, B


def _combine(pair_term: int, diag_term2: int, n: int, A: int, B: int) -> Fraction:
    # pair_term is at scale A*B, diag_term2 at scale A^2*B^2
    num = 18 * A * B * pair_term - 9 * n * diag_term2 + 2 * n * n * A * A * B * B
    return Fraction(num, 18 * A * A * B * B)


def d2_exact_quadratic(P: PointsLike) -> DiscrepancyValue:
    """Pairwise O(n^2) evaluation; the reference for the fast path."""
    X, Y, A, B = _scaled_arrays(P)
    n = len(X)
    if n == 0:
        raise ValueError("point set must be nonempty")
    pair = 0
    for i in range(n):
        xi = X[i]
        yi = Y[i]
        pair += (A - xi) * (B - yi)  # the i == j term
        acc = 0
        for xj, yj in zip(X[:i], Y[:i]):
            xm = xi if xi >= xj else xj
            ym = yi if yi >= yj else yj
            acc += (A - xm) * (B - ym)
        pair += 2 * acc
    t2 = sum((A * A - x * x) * (B * B - y * y) for x, y in zip(X, Y))
    return DiscrepancyValue(_combine(pair, t2, n, A, B))


def d2_exact_fast(P: PointsLike) -> DiscrepancyValue:
    """O(n log n) sweep, bit-identical to the quadratic oracle.

    Points are processed in x order; a Fenwick tree over y-ranks holds counts
    and partial sums of (B - Y).  Equal y values land in the count bucket
    (rank query is inclusive), which matches max(y_i, y_j) = y_j for ties.
    """
    X, Y, A, B = _scaled_arrays(P)
    n = len(X)
    if n == 0:
        raise ValueError("point set must be nonempty")

    order = sorted(range(n), key=X.__getitem__)
    ranks = {y: r for r, y in enumerate(sorted(set(Y)), start=1)}
    R = len(ranks)
    fen_cnt = [0] * (R + 1)
    fen_sum = [0] * (R + 1)

    off = 0
    diag = 0
    total_by = 0
    for idx in order:
        y = Y[idx]
        by = B - y
        r = ranks[y]
        c = 0
        s_le = 0
        i = r
        while i:
            c += fen_cnt[i]
            s_le += fen_sum[i]
            i &= i - 1
        ax = A - X[idx]
        off += ax * (by * c + (total_by - s_le))
        diag += ax * by
        i = r
        while i <= R:
            fen_cnt[i] += 1
            fen_sum[i] += by
            i += i & (-i)
        total_by += by

    pair = 2 * off + diag
    t2 = sum((A * A - x * x) * (B * B - y * y) for x, y in zip(X, Y))
    return DiscrepancyValue(_combine(pair, t2, n, A, B))


def realization_error(P: PointsLike) -> Fraction:
    """Bound on how far the exact D2^2 of the stored points can sit from
    that of the ideal lattice: 5 |P|^2 times the per-coordinate error (zero
    for rational alpha; about 5 |P|^2 N 2^(1-B) for B-bit fixed point)."""
    if isinstance(P, LatticePointSet) and P.x_err:
        return 5 * P.size * P.size * P.x_err
    return Fraction(0)

