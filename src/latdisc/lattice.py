"""Exact-coordinate lattice point sets L(alpha, N) and S(alpha, N).

L(alpha, N) is the N-point set {({n alpha}, n/N)}; S(alpha, N) is its 2N-point
symmetrization that adds ({-n alpha}, n/N) with multiplicity, i.e. the union
of L with its reflection about x = 1/2 (the two x = 0 points at n = 0 simply
repeat).  Coordinates are stored as scaled integers: x over the denominator q
(rational alpha) or 2^B (fixed-point alpha), y over N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Tuple

from .fixedpoint import residues, walk_data


@dataclass(frozen=True)
class LatticePointSet:
    N: int
    x_num: tuple
    x_den: int
    y_num: tuple
    y_den: int
    x_err: Fraction = Fraction(0)  # bound on |stored x - true x|, per point

    def __post_init__(self):
        assert len(self.x_num) == len(self.y_num)

    @property
    def size(self) -> int:
        return len(self.x_num)

    def points(self) -> Iterator[Tuple[Fraction, Fraction]]:
        for xn, yn in zip(self.x_num, self.y_num):
            yield Fraction(xn, self.x_den), Fraction(yn, self.y_den)

    def float_points(self) -> Iterator[Tuple[float, float]]:
        for xn, yn in zip(self.x_num, self.y_num):
            yield xn / self.x_den, yn / self.y_den


def build_L(alpha, N: int) -> LatticePointSet:
    """The N points ({n alpha}, n/N), n = 0..N-1, in n-order.  For fixed
    point, x_err holds for every alpha the error counter admits, or
    walk_data's trust check raises PrecisionExhausted."""
    if N < 1:
        raise ValueError("N must be >= 1")
    step, mod, err_ulp = walk_data(alpha, N)
    xs = tuple(chain.from_iterable(residues(step, mod, 0, N)))
    return LatticePointSet(N, xs, mod, tuple(range(N)), N,
                           Fraction((N - 1) * err_ulp, mod))


def build_S(alpha, N: int) -> LatticePointSet:
    """The 2N-point multiset: for each n both ({n alpha}, n/N) and
    ({-n alpha}, n/N).  n = 0 contributes (0, 0) twice."""
    if N < 1:
        raise ValueError("N must be >= 1")
    step, mod, err_ulp = walk_data(alpha, N)
    xs = [0] * (2 * N)
    ys = [0] * (2 * N)
    xs[0::2] = chain.from_iterable(residues(step, mod, 0, N))
    xs[1::2] = [mod - x if x else 0 for x in xs[0::2]]
    ys[0::2] = ys[1::2] = list(range(N))
    return LatticePointSet(N, tuple(xs), mod, tuple(ys), N,
                           Fraction((N - 1) * err_ulp, mod))
