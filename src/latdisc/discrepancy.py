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
from operator import rshift
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


def _scaled_arrays(P: Iterable[Tuple[Fraction, Fraction]]):
    """Normalize points to (X, Y, A, B) with x_i = X_i/A, y_i = Y_i/B."""
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
    if isinstance(P, LatticePointSet):
        P = P.points()
    X, Y, A, B = _scaled_arrays(P)
    n = len(X)
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
# slower than two blocks of 119 and a merge level.
_BLOCK = 120


def _x_order(keys: np.ndarray, A: int, x_of) -> np.ndarray:
    """Indices that sort x: by keys, which order x up to ties, in numpy,
    then by the exact x_of(j) within runs of equal keys, which only occur
    when A >= 2^64."""
    order = np.argsort(keys)
    if A >> 64:
        keys = keys[order]
        tied = np.flatnonzero(keys[1:] == keys[:-1])
        for run in np.split(tied, np.flatnonzero(np.diff(tied) > 1) + 1):
            if run.size:
                lo, hi = run[0], run[-1] + 2
                order[lo:hi] = sorted(order[lo:hi].tolist(), key=x_of)
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


def _dot(a: np.ndarray, b: np.ndarray, a_bits: int, b_bits: int) -> int:
    """sum(a * b), exactly: directly for object arrays; for int64 arrays with
    |a| < 2^a_bits and |b| < 2^b_bits, over limbs of b narrow enough that no
    int64 dot of len(a) terms overflows."""
    width = 63 - a_bits - len(a).bit_length()
    if a.dtype == object or b_bits <= width:
        return int(a @ b)
    return int(a @ (b & ((1 << width) - 1))) + (
        _dot(a, b >> width, a_bits, b_bits - width) << width)


def d2_exact_fast(P: PointsLike) -> DiscrepancyValue:
    """O(n log n) sweep, bit-identical to the quadratic oracle.

    Both inputs become x_j = (step U_j + mod V_j)/A, y_j = Y_j/B with
    |U_j|, |V_j| < 2^ubits, and keys that order x as _x_order needs: a
    lattice as x = (n step - k mod)/mod, y = |n|/N with its own keys; a point
    iterable as x = X/A itself (step 1, no mod term), in int64 while
    A < 2^63, with the top 64 bits of X as keys.

    In x order, the pair sum is sum_j (A - X_j) c_j with c_j = 2 W_j + w_j,
    w_j = B - Y_j and W_j = sum_{i<j} min(w_i, w_j) (Heinrich, Math. Comp.
    65, 1996); the diagonal sum is sum_j (A^2 - X_j^2) e_j, e_j = B^2 - Y_j^2.
    Both reduce to a few exact sums of products of U, V, c and e.  c is
    int64 while n*B < 2^61, and the sums run on int64 limbs while U e and
    V e fit too; above that, Python ints.
    """
    if isinstance(P, LatticePointSet):
        keys, U, V, Y = P.key, P.n, P.k, np.abs(P.n)
        A, B, step, mod, ubits = P.mod, P.N, P.step, -P.mod, P.N.bit_length()
    else:
        X, Y, A, B = _scaled_arrays(P)
        shift = max(A.bit_length() - 64, 0)
        keys = np.fromiter(map(rshift, X, repeat(shift)), np.uint64, len(X))
        U = np.array(X, object if A >> 63 else np.int64)
        V, Y = np.zeros_like(U), np.array(Y, object if B >> 63 else np.int64)
        step, mod, ubits = 1, 0, A.bit_length()
    n = len(Y)
    ybits, nbits = B.bit_length(), n.bit_length()
    small = n * B < 1 << 61
    if not small or ubits + 2 * ybits > 63 or ubits + nbits > 62:
        U, V, Y = (a.astype(object) for a in (U, V, Y))
    ones = np.ones_like(U)
    e = B * B - Y * Y
    ue = U * e
    ebits, uebits = 2 * ybits, ubits + 2 * ybits
    t2 = A * A * _dot(ones, e, 1, ebits) - (
        step * step * _dot(U, ue, ubits, uebits)
        + 2 * step * mod * _dot(V, ue, ubits, uebits)
        + mod * mod * _dot(V, V * e, ubits, uebits))
    del e, ue  # before the dominance sweep, which sets the peak of memory
    order = _x_order(keys, A, lambda j: step * int(U[j]) + mod * int(V[j]))
    w = B - Y[order].astype(np.int64 if small else object)
    c = np.empty_like(w)  # in input order, like U and V
    c[order] = 2 * _dominance(w) + w
    cbits = 1 + nbits + ybits
    pair = (A * _dot(ones, c, 1, cbits) - step * _dot(U, c, ubits, cbits)
            - mod * _dot(V, c, ubits, cbits))
    return DiscrepancyValue(_combine(pair, t2, n, A, B))


def realization_error(P: PointsLike) -> Fraction:
    """Bound on how far the exact D2^2 of the stored points can sit from
    that of the ideal lattice: 5 |P|^2 times the per-coordinate error (zero
    for rational alpha; about 5 |P|^2 N 2^(1-B) for B-bit fixed point)."""
    if isinstance(P, LatticePointSet) and P.x_err:
        return 5 * P.size * P.size * P.x_err
    return Fraction(0)
