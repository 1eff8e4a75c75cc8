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


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, x: Rat) -> "Interval":
        f = Fraction(x)
        return cls(f, f)

    @classmethod
    def zero(cls) -> "Interval":
        return cls.exact(0)

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval divisor straddles zero")
        cands = (self.lo / other.lo, self.lo / other.hi,
                 self.hi / other.lo, self.hi / other.hi)
        return Interval(min(cands), max(cands))

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def quantized(self, bits: int = 128) -> "Interval":
        """Outward-round endpoints to denominator 2^bits."""
        scale = 1 << bits
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
    intpart, fracpart = digits.split(".")
    den = 10 ** len(fracpart)
    num = int(intpart) * den + int(fracpart)
    return Interval(Fraction(num, den), Fraction(num + 1, den))


PI = _const("3.141592653589793238462643383279502884197169399375")
ZETA3 = _const("1.202056903159594285399738161511449990764986292340")

PI2 = (PI * PI).quantized(192)
PI3 = (PI2 * PI).quantized(192)
PI4 = (PI2 * PI2).quantized(192)

ONE = Interval.exact(1)
INV_PI2 = (ONE / PI2).quantized(192)
INV_4PI4 = (ONE / (4 * PI4)).quantized(192)
INV_2PI4 = (ONE / (2 * PI4)).quantized(192)
INV_8PI4 = (ONE / (8 * PI4)).quantized(192)
ZETA3_16PI4 = (ZETA3 / (16 * PI4)).quantized(192)
