"""Exact L2 discrepancy of 2-dimensional point multisets.

Both algorithms evaluate the Warnock expansion of the defining integral

    D2^2 = sum_{i,j} (1 - max(x_i,x_j)) (1 - max(y_i,y_j))
           - (|P|/2) sum_i (1 - x_i^2)(1 - y_i^2) + |P|^2 / 9

in exact scaled-integer arithmetic, which kills the catastrophic cancellation
between the O(|P|^2) terms: coordinates enter as integers over common
denominators and the three terms are combined over a single final denominator.
The quadratic version is the plain pairwise oracle; the fast version sweeps by
x and counts y-dominance with a numpy merge kernel in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul, rshift
from typing import Iterable, Tuple, Union

import numpy as np

from .lattice import LatticePointSet


@dataclass(frozen=True)
class DiscrepancyValue:
    d2_squared: Fraction

    def __post_init__(self):
        if self.d2_squared < 0:
            raise AssertionError("squared discrepancy cannot be negative")


PointsLike = Union[LatticePointSet, Iterable[Tuple[Fraction, Fraction]]]


def _scaled_arrays(P: PointsLike):
    """Normalize input to (X, Y, A, B) with x_i = X_i/A, y_i = Y_i/B."""
    if isinstance(P, LatticePointSet):
        return P.x_num, P.y_num, P.x_den, P.y_den
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


# Blocks of at most _BLOCK points are summed pairwise, so a set that small
# needs no merge level.  120 keeps a block's int64 table of minima
# (120 * 120 * 8 = 115 KB) below the 128 KiB from which glibc's malloc maps
# fresh pages on every call: one pairwise block of 238 points measured 3-4x
# slower than two blocks of 119 and a merge level.  The big-integer products
# are summed over slices of _DOT_BLOCK points.
_BLOCK = 120
_DOT_BLOCK = 4096


def _x_order(X, A: int) -> np.ndarray:
    """Indices that sort X (each X_i < A): by the top 64 bits in numpy, then
    exactly within runs of equal top bits, which only differ when A > 2^64."""
    shift = max(A.bit_length() - 64, 0)
    keys = np.fromiter(map(rshift, X, repeat(shift)), np.uint64, len(X))
    order = np.argsort(keys)
    if shift:
        keys = keys[order]
        tied = np.flatnonzero(keys[1:] == keys[:-1])
        for run in np.split(tied, np.flatnonzero(np.diff(tied) > 1) + 1):
            if run.size:
                lo, hi = run[0], run[-1] + 2
                order[lo:hi] = sorted(order[lo:hi].tolist(), key=X.__getitem__)
    return order


def _dominance(w: np.ndarray) -> np.ndarray:
    """W_j = sum_{i<j} min(w_i, w_j) for every j of a 1-d int64 or object
    array, in O(n log n).

    The array is cut into blocks of bs <= _BLOCK entries, padded at the end
    with zeros (which follow every real entry, so change none of them) to
    bs * 2^k.  Each block is summed pairwise.  Bottom-up merge levels then
    join neighbouring sorted runs L and R with one row sort (stable, so
    timsort merges the two runs in linear time; ties may fall either way):
    an entry w_j of R gains the w_i of L that sort before it plus w_j for
    each one after it.
    """
    n = len(w)
    k = ((n - 1) // _BLOCK).bit_length()
    bs = -(-n // (1 << k))
    w = np.concatenate([w, np.zeros((bs << k) - n, w.dtype)])
    blocks = w.reshape(-1, bs)
    upper = np.tri(bs, k=-1, dtype=w.dtype).T  # [i, j] = 1 where i < j
    acc = np.empty_like(blocks)
    step = max(1, _BLOCK * _BLOCK // (bs * bs))
    for lo in range(0, len(blocks), step):
        b = blocks[lo:lo + step]
        acc[lo:lo + step] = np.einsum(
            "bij,ij->bj", np.minimum(b[:, :, None], b[:, None, :]), upper)
    if k == 0:
        return acc[0, :n]
    acc = acc.ravel()
    ids = np.arange(w.size, dtype=np.int32)
    h, width = 0, bs  # the first pass only sorts the base blocks
    while width <= w.size:
        o = np.argsort(w.reshape(-1, width), axis=1, kind="stable")
        right = o >= h
        moved = o - np.arange(width)  # for R: how many entries of L follow
        o += np.arange(0, w.size, width)[:, None]
        o = o.ravel()
        w, acc, ids = w[o], acc[o], ids[o]
        if h:
            rows = w.reshape(-1, width)
            gain = np.where(right, 0, rows)
            np.cumsum(gain, axis=1, out=gain)  # sum of L's entries so far
            gain += moved * rows
            gain *= right
            acc += gain.ravel()
        h, width = width, 2 * width
    out = np.empty_like(acc)
    out[ids] = acc
    return out[:n]


def d2_exact_fast(P: PointsLike) -> DiscrepancyValue:
    """O(n log n) sweep, bit-identical to the quadratic oracle.

    With the points in x order, the pair sum is
    sum_j (A - X_j) (2 W_j + w_j), where w_j = B - Y_j and
    W_j = sum_{i<j} (B - max(Y_i, Y_j)) = sum_{i<j} min(w_i, w_j)
    (Heinrich, Math. Comp. 65, 1996).  _dominance gives every W_j in int64
    while n*B < 2^61, which keeps 2 W_j + w_j below 2^63, and in Python ints
    above; the products with A - X_j are summed in Python ints.
    """
    X, Y, A, B = _scaled_arrays(P)
    n = len(X)
    if n == 0:
        raise ValueError("point set must be nonempty")
    order = _x_order(X, A)
    w = B - np.array(Y, np.int64 if n * B < 1 << 61 else object)[order]
    weights = np.empty_like(w)  # in input order, so X is read in order
    weights[order] = 2 * _dominance(w) + w
    pair = 0
    for lo in range(0, n, _DOT_BLOCK):
        block = weights[lo:lo + _DOT_BLOCK].tolist()
        pair += A * sum(block) - sum(map(mul, X[lo:lo + _DOT_BLOCK], block))
    t2 = sum((A * A - x * x) * (B * B - y * y) for x, y in zip(X, Y))
    return DiscrepancyValue(_combine(pair, t2, n, A, B))


def realization_error(P: PointsLike) -> Fraction:
    """Bound on how far the exact D2^2 of the stored points can sit from
    that of the ideal lattice: 5 |P|^2 times the per-coordinate error (zero
    for rational alpha; about 5 |P|^2 N 2^(1-B) for B-bit fixed point)."""
    if isinstance(P, LatticePointSet) and P.x_err:
        return 5 * P.size * P.size * P.x_err
    return Fraction(0)

