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

from .cf import PrecisionExhausted
from .fixedpoint import residues, walk_data


@dataclass(frozen=True)
class LatticePointSet:
    N: int
    symmetrized: bool
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


def _least_denominator(lo: Fraction, hi: Fraction, cap: int) -> int:
    """The least n >= 1 with some p/n in [lo, hi], or a number >= cap once
    that n is known to be >= cap.

    Walks the continued fraction of the simplest fraction in the interval:
    with x = (P y + P1)/(Q y + Q1) for the tail y in [lo, hi], an integer in
    [lo, hi] ends the walk (the least one gives the least Q y + Q1); else
    y = t + 1/y' with t = floor(lo), and y' lies in [1/(hi - t), 1/(lo - t)].
    """
    Q, Q1 = 0, 1
    while True:
        t = lo.numerator // lo.denominator
        if t == lo or t + 1 <= hi:
            return Q * (t if t == lo else t + 1) + Q1
        Q, Q1 = Q * t + Q1, Q
        if Q >= cap:  # every later term is >= 1, so the end is >= Q
            return Q
        lo, hi = 1 / (hi - t), 1 / (lo - t)


def _step_data(alpha, N: int):
    """(step, modulus, per-point error) so that the n-th x numerator is
    n*step mod modulus.

    With fixed point that numerator is off by at most n*err_ulp from
    n alpha (mod 1), which bounds the error of {n alpha} only if no alpha
    the error counter admits puts n alpha on the other side of an integer:
    every x_n with 1 <= n < N must lie farther than n*err_ulp from 0 mod
    the modulus.  x_n fails that exactly when some p/n lies within
    err_ulp/modulus of step/modulus, so PrecisionExhausted is raised when
    the least such n is below N.
    """
    step, mod, err_ulp = walk_data(alpha)
    bits = mod.bit_length() - 1  # mod = 2^bits whenever err_ulp > 0
    if N > 1 and (N - 1) * err_ulp >= (1 << (bits // 2)):
        raise PrecisionExhausted("error budget overflow while building lattice")
    if err_ulp:
        n = _least_denominator(Fraction(step - err_ulp, mod),
                               Fraction(step + err_ulp, mod), N)
        if n < N:
            raise PrecisionExhausted(
                f"{{n alpha}} within its error of an integer at n = {n}")
    return step, mod, Fraction((N - 1) * err_ulp, mod)


def build_L(alpha, N: int) -> LatticePointSet:
    """The N points ({n alpha}, n/N), n = 0..N-1, in n-order."""
    if N < 1:
        raise ValueError("N must be >= 1")
    step, mod, err = _step_data(alpha, N)
    xs = tuple(chain.from_iterable(residues(step, mod, 0, N)))
    return LatticePointSet(N, False, xs, mod, tuple(range(N)), N, err)


def build_S(alpha, N: int) -> LatticePointSet:
    """The 2N-point multiset: for each n both ({n alpha}, n/N) and
    ({-n alpha}, n/N).  n = 0 contributes (0, 0) twice."""
    if N < 1:
        raise ValueError("N must be >= 1")
    step, mod, err = _step_data(alpha, N)
    xs = [0] * (2 * N)
    ys = [0] * (2 * N)
    xs[0::2] = chain.from_iterable(residues(step, mod, 0, N))
    xs[1::2] = [mod - x if x else 0 for x in xs[0::2]]
    ys[0::2] = ys[1::2] = list(range(N))
    return LatticePointSet(N, True, tuple(xs), mod, tuple(ys), N, err)
