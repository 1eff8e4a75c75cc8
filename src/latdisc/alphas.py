"""A realized rotation number: continued fraction plus a usable value.

Alpha bundles an expansion with either an exact Fraction (rational case) or
a certified FixedPointReal (irrational case) and caches convergent
denominators, which is what the lattice, enclosure and sweep code all
consume.  The string grammar ("p/q", "surd:P,D,Q", "rule:name",
"bits:<hex>@B") round-trips exactly and is the CLI's --alpha format.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List

from .cf import (
    ContinuedFraction,
    ExpansionExhausted,
    QuadraticSurd,
    Truncated,
    cf_of_bits,
    cf_of_rational,
    cf_of_surd,
    cf_rule,
    denominators,
)
from .fixedpoint import DEFAULT_BITS, FixedPointReal, eval_alpha


def _width(bits: int) -> int:
    """bits, if a fixed-point alpha may be realized at that width."""
    if bits < 128:
        raise ValueError("bits must be >= 128")
    return bits


def _int(text: str, bad: str, base: int = 10) -> int:
    """int(text, base), raising ValueError(bad) if text is no integer."""
    try:
        return int(text, base)
    except ValueError:
        raise ValueError(bad) from None


class Alpha:
    """An alpha with its expansion, exact-or-certified value, and caches."""

    def __init__(self, cf: ContinuedFraction, value, label: str):
        self.cf = cf
        self.value = value
        self.label = label
        self._q: List[int] = [0, 1]       # q_{-1}, q_0, ...
        # K -> the certified main and window sums of parseval's enclosures
        self.sums: Dict[int, tuple] = {}

    def __repr__(self):
        return f"Alpha({self.label})"

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, q: int) -> "Alpha":
        return cls(cf_of_rational(p, q), Fraction(p % q, q), f"{p}/{q}")

    @classmethod
    def from_surd(cls, P: int, D: int, Q: int, bits: int = DEFAULT_BITS) -> "Alpha":
        cf = cf_of_surd(QuadraticSurd.make(P, D, Q))
        return cls(cf, eval_alpha(cf, _width(bits)), f"surd:{P},{D},{Q}")

    @classmethod
    def from_rule(cls, name: str, bits: int = DEFAULT_BITS) -> "Alpha":
        cf = cf_rule(name)
        return cls(cf, eval_alpha(cf, _width(bits)), f"rule:{name}")

    @classmethod
    def from_bits(cls, mantissa: int, bits: int) -> "Alpha":
        cf = cf_of_bits(mantissa, bits)
        # the dyadic mantissa itself realizes the sampled real to one ulp;
        # cf_of_bits has checked its range, so it is not checked again
        value = tuple.__new__(FixedPointReal, (mantissa, bits, 1))
        return cls(cf, value, f"bits:{mantissa:x}@{bits}")

    @classmethod
    def parse(cls, text: str, bits: int = DEFAULT_BITS) -> "Alpha":
        """Parse the CLI grammar; raises ValueError on malformed specs."""
        text = text.strip()
        if text.startswith("surd:"):
            bad = f"bad surd spec: {text!r}"
            parts = text[5:].split(",")
            if len(parts) != 3:
                raise ValueError(bad)
            return cls.from_surd(*(_int(v, bad) for v in parts), bits=bits)
        if text.startswith("rule:"):
            return cls.from_rule(text[5:], bits=bits)
        if text.startswith("bits:"):
            bad = f"bad bits spec: {text!r}"
            hexpart, at, bstr = text[5:].rpartition("@")
            if not at:
                raise ValueError(bad)
            return cls.from_bits(_int(hexpart, bad, 16), _int(bstr, bad))
        bad = f"unrecognized alpha spec: {text!r}"
        if "/" in text:
            ps, qs = text.split("/", 1)
            return cls.from_rational(_int(ps, bad), _int(qs, bad))
        raise ValueError(bad)

    # -- convergent cache ---------------------------------------------------

    def q(self, k: int) -> int:
        """The convergent denominator q_k (k >= -1)."""
        q = self._q
        if len(q) - 2 < k:
            denominators(self.cf, k, q)
        return q[k + 1]

    def index_for(self, N: int) -> int:
        """Smallest K >= 1 with q_K >= N, so q_{K-1} <= N <= q_K.

        For a rational alpha this fails once N exceeds the final denominator,
        and for every N if the expansion ends at q_0.
        """
        if N < 1:
            raise ValueError("N must be >= 1")
        q = self._q
        K = bisect_left(q, N, 2) - 1  # q_K sits at q[K + 1]
        if K + 2 <= len(q):
            return K
        body = self.cf.body
        if isinstance(body, Truncated):
            # q_(K-1) < N: a prefix that grows here and goes on stopped at
            # the first q_j >= N, so j is its length (q fills on demand)
            n = len(body.known)
            if len(body.grow(K, N)) > n and body.state[1]:
                return len(body.known)
        try:
            while self.q(K) < N:
                K += 1
        except ExpansionExhausted:
            raise ValueError(
                f"no q_K with K >= 1 reaches {N}: the expansion of "
                f"{self.label} ends at K = {K - 1}")
        return K
