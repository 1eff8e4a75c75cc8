"""Outward-rounded interval arithmetic over exact rationals.

Every certified bound in the enclosure machinery flows through this module.
Endpoints are Fractions; constants such as pi powers and zeta(3) are stored
as 48-digit decimal brackets so that budget arithmetic stays sound without
any floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

# resolution of the stored constant brackets: far below the 2^-64 per term
# and the relative 2^-50 per term of the scaled Diophantine sums
_QUANTUM_BITS = 192


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo is not self.hi and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, x: Rat) -> "Interval":
        f = Fraction(x)
        return cls(f, f)

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __mul__(self, other):
        other = _as_interval(other)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def quantized(self) -> "Interval":
        """Outward-round endpoints to denominator 2^_QUANTUM_BITS."""
        scale = 1 << _QUANTUM_BITS
        lo = Fraction(self.lo.numerator * scale // self.lo.denominator, scale)
        hi = Fraction(-((-self.hi.numerator * scale) // self.hi.denominator),
                      scale)
        return Interval(lo, hi)

    def contains(self, x: Rat) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.exact(x)


def _const(digits: str) -> Interval:
    """Interval from a truncated decimal string: [value, value + 1 last ulp]."""
    lo = Fraction(digits)
    return Interval(lo, lo + Fraction(1, 10 ** len(digits.split(".")[1])))


def _inverse(x: Interval) -> Interval:
    """1/x for a bracket x of positive reals."""
    return Interval(1 / x.hi, 1 / x.lo)


PI = _const("3.141592653589793238462643383279502884197169399375")
ZETA3 = _const("1.202056903159594285399738161511449990764986292340")

PI2 = (PI * PI).quantized()
PI4 = (PI2 * PI2).quantized()

INV_PI2 = _inverse(PI2).quantized()
INV_4PI4 = _inverse(4 * PI4).quantized()
INV_2PI4 = _inverse(2 * PI4).quantized()
INV_8PI4 = _inverse(8 * PI4).quantized()
ZETA3_16PI4 = (ZETA3 * _inverse(16 * PI4)).quantized()
