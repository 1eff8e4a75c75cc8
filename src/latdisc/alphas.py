"""A realized rotation number: continued fraction plus a usable value.

Alpha bundles an expansion with either an exact Fraction (rational case) or
a certified FixedPointReal (irrational case) and caches convergents, which is
what the lattice, enclosure and sweep code all consume.  The string grammar
("p/q", "surd:P,D,Q", "rule:name", "bits:<hex>@B") round-trips exactly and is
the CLI's --alpha format.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List

from .cf import (
    ContinuedFraction,
    QuadraticSurd,
    cf_of_bits,
    cf_of_rational,
    cf_of_surd,
    cf_rule,
    cf_stats,
)
from .fixedpoint import DEFAULT_BITS, FixedPointReal, eval_alpha


class Alpha:
    """An alpha with its expansion, exact-or-certified value, and caches."""

    def __init__(self, cf: ContinuedFraction, value, label: str):
        self.cf = cf
        self.value = value
        self.label = label
        self._q: List[int] = [0, 1]       # q_{-1}, q_0, ...

    def __repr__(self):
        return f"Alpha({self.label})"

    @property
    def is_rational(self) -> bool:
        return isinstance(self.value, Fraction)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, q: int) -> "Alpha":
        cf = cf_of_rational(p, q)
        g = gcd(p % q, q)
        value = Fraction((p % q) // g, q // g)
        return cls(cf, value, f"{p}/{q}")

    @classmethod
    def from_surd(cls, P: int, D: int, Q: int, bits: int = DEFAULT_BITS) -> "Alpha":
        cf = cf_of_surd(QuadraticSurd.make(P, D, Q))
        return cls(cf, eval_alpha(cf, bits), f"surd:{P},{D},{Q}")

    @classmethod
    def from_rule(cls, name: str, bits: int = DEFAULT_BITS) -> "Alpha":
        cf = cf_rule(name)
        return cls(cf, eval_alpha(cf, bits), f"rule:{name}")

    @classmethod
    def from_bits(cls, mantissa: int, bits: int) -> "Alpha":
        cf = cf_of_bits(mantissa, bits)
        # the dyadic mantissa itself realizes the sampled real to one ulp
        value = FixedPointReal(mantissa, bits, 1)
        return cls(cf, value, f"bits:{mantissa:x}@{bits}")

    @classmethod
    def parse(cls, text: str, bits: int = DEFAULT_BITS) -> "Alpha":
        """Parse the CLI grammar; raises ValueError on malformed specs."""
        text = text.strip()
        if text.startswith("surd:"):
            parts = text[5:].split(",")
            if len(parts) != 3:
                raise ValueError(f"bad surd spec: {text!r}")
            return cls.from_surd(int(parts[0]), int(parts[1]), int(parts[2]),
                                 bits=bits)
        if text.startswith("rule:"):
            return cls.from_rule(text[5:], bits=bits)
        if text.startswith("bits:"):
            body = text[5:]
            if "@" not in body:
                raise ValueError(f"bad bits spec: {text!r}")
            hexpart, bstr = body.rsplit("@", 1)
            b = int(bstr)
            return cls.from_bits(int(hexpart, 16), b)
        if "/" in text:
            ps, qs = text.split("/", 1)
            return cls.from_rational(int(ps), int(qs))
        raise ValueError(f"unrecognized alpha spec: {text!r}")

    def spec_string(self) -> str:
        return self.label

    # -- convergent cache ---------------------------------------------------

    def _extend(self, k: int) -> None:
        while len(self._q) - 2 < k:
            a = self.cf.quotient(len(self._q) - 1)
            self._q.append(a * self._q[-1] + self._q[-2])

    def a(self, k: int) -> int:
        return self.cf.quotient(k)

    def q(self, k: int) -> int:
        """Convergent denominator q_k (k >= -1)."""
        self._extend(k)
        return self._q[k + 1]

    def index_for(self, N: int) -> int:
        """Smallest K >= 1 with q_K >= N, so q_{K-1} <= N <= q_K.

        For a rational alpha this fails once N exceeds the final denominator.
        """
        from .cf import ExpansionExhausted
        if N < 1:
            raise ValueError("N must be >= 1")
        K = 1
        while True:
            try:
                if self.q(K) >= N:
                    return K
            except ExpansionExhausted:
                raise ValueError(
                    f"no convergent denominator of {self.label} reaches {N}")
            K += 1

    def stats(self, K: int):
        return cf_stats(self.cf, K)

    def value_fraction(self) -> Fraction:
        """The representation value as an exact Fraction."""
        if isinstance(self.value, Fraction):
            return self.value
        return self.value.as_fraction()
