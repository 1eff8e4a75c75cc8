"""Exact-coordinate lattice point sets L(alpha, N) and S(alpha, N).

L(alpha, N) is the N-point set {({n alpha}, n/N)}; S(alpha, N) is its 2N-point
symmetrization that adds ({-n alpha}, n/N) with multiplicity, i.e. the union
of L with its reflection about x = 1/2 (the two x = 0 points at n = 0 simply
repeat).  With alpha realized as step/mod (q for rational alpha, 2^B for
fixed point), a point is stored as two small integers n and k, with
x = (n step - k mod)/mod and y = |n|/N: a point of L has k = floor(n step/mod),
and its reflection stores -n and -ceil(n step/mod).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple

import numpy as np

from .fixedpoint import walk_data


@dataclass(frozen=True, eq=False)
class LatticePointSet:
    """Points j < N have n_j = j; for S, point N + j reflects point j.  key
    orders x: it is floor(2^64 x_j) for j < N and ceil(2^64 x_j) - 1 for a
    reflection of x_j > 0, so x_i < x_j implies key_i <= key_j, with
    equality only if mod >= 2^64."""

    N: int
    step: int
    mod: int
    sym: bool
    n: np.ndarray    # int64
    k: np.ndarray    # int64
    key: np.ndarray  # uint64
    x_err: Fraction = Fraction(0)  # bound on |stored x - true x|, per point

    @property
    def size(self) -> int:
        return len(self.n)

    @property
    def x_num(self) -> tuple:
        """x numerators over mod in n order; for S each point is followed by
        its reflection."""
        xs = [a * self.step - b * self.mod
              for a, b in zip(self.n.tolist(), self.k.tolist())]
        if self.sym:
            xs[0::2], xs[1::2] = xs[:self.N], xs[self.N:]
        return tuple(xs)

    @property
    def y_num(self) -> tuple:
        """y numerators over N, in the order of x_num."""
        return tuple(n for n in range(self.N) for _ in range(1 + self.sym))

    def points(self) -> Iterator[Tuple[Fraction, Fraction]]:
        for xn, yn in zip(self.x_num, self.y_num):
            yield Fraction(xn, self.mod), Fraction(yn, self.N)


def _mul(n: np.ndarray, c: int):
    """High and low 64-bit words of n * c, for uint64 n < 2^32 and c < 2^64."""
    t = n * (c & 0xFFFFFFFF)
    return (n * (c >> 32) + (t >> 32)) >> 32, n * c


def _build(alpha, N: int, sym: bool) -> LatticePointSet:
    """The one realization of {n alpha}, n < N (< 2^32), in numpy.

    With r = floor(2^128 step/mod), 2^128 n step/mod lies in [n r, n r + n).
    From the 64-bit limbs of r, n r = 2^128 k + 2^64 key + lo; k and key are
    exact unless lo + n reaches 2^64, and n step/mod can be an integer only
    if lo < n.  Those few n (and n = 0) are recomputed exactly.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    step, mod, err_ulp = walk_data(alpha, N)
    n = np.arange(N, dtype=np.uint64)
    r = (step << 128) // mod
    (k, mid), (hi, lo) = _mul(n, r >> 64), _mul(n, r & ((1 << 64) - 1))
    key = mid + hi
    k += key < mid
    inexact = (lo < n) | (lo + n < lo)
    inexact[0] = True
    nonzero = ~inexact
    for i in np.flatnonzero(inexact).tolist():
        q, x = divmod(i * step, mod)
        k[i], key[i], nonzero[i] = q, (x << 64) // mod, x != 0
    n, k = n.view(np.int64), k.view(np.int64)
    if sym:
        n = np.concatenate((n, -n))
        k = np.concatenate((k, -(k + nonzero)))
        key = np.concatenate((key, np.where(nonzero, ~key, 0)))
    return LatticePointSet(N, step, mod, sym, n, k, key,
                           Fraction((N - 1) * err_ulp, mod))


def build_L(alpha, N: int) -> LatticePointSet:
    """The N points ({n alpha}, n/N), n = 0..N-1, in n-order.  For fixed
    point, x_err holds for every alpha the error counter admits, or
    walk_data's trust check raises PrecisionExhausted."""
    return _build(alpha, N, False)


def build_S(alpha, N: int) -> LatticePointSet:
    """The 2N-point multiset: for each n both ({n alpha}, n/N) and
    ({-n alpha}, n/N).  n = 0 contributes (0, 0) twice."""
    return _build(alpha, N, True)
