"""Continued fraction expansions in exact big-integer arithmetic.

Covers the four kinds of expansion the library needs: finite expansions of
rationals, eventually periodic expansions of quadratic surds, rule-based
infinite expansions (Euler's number, tan 1, and custom rules), and
precision-bounded expansions read off a fixed-point mantissa.  Partial
quotients, convergent denominators and quotient statistics are all exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isqrt
from operator import mul
from typing import Callable, List, NamedTuple, Union


class ExpansionExhausted(ValueError):
    """A finite expansion was asked for more partial quotients than it has."""


class PrecisionExhausted(RuntimeError):
    """A precision-bounded expansion or mantissa ran out of certified bits."""


# ---------------------------------------------------------------------------
# Expansion bodies (everything after a0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finite:
    terms: tuple


@dataclass(frozen=True)
class Periodic:
    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")


@dataclass(frozen=True)
class Rule:
    fn: Callable[[int], int]
    name: str


_isqrt = lru_cache(maxsize=16)(isqrt)  # one limit per sampled width


class Truncated:
    """A known-correct prefix of an expansion; asking past it is an error.

    One call to grow runs as many Euclid steps (a, b) -> (b, a mod b), one
    quotient t = a // b each, as its reader asks for.  After k quotients the
    state (d_(k-1), d_k, q_(k-1), q_k, qmax) holds the last two remainders
    and convergent denominators in plain ints, so an expansion pickles part
    way through.  The prefix ends at a zero remainder, or before the first
    denominator above qmax, where d_k is set to 0 and nothing else is read.
    """

    def __init__(self, a: int, b: int, qmax: int):
        self.known: List[int] = []
        self.state = (a, b, 0, 1, qmax)

    def grow(self, k, N: int = 0) -> List[int]:
        """The prefix, extended to at least k quotients and on to the first
        convergent denominator q_j >= N, or to its end."""
        known = self.known
        append = known.append
        a, b, q1, q, qmax = self.state
        while (q < N or len(known) < k) and b:
            t, r = divmod(a, b)
            q1, q = q, t * q + q1
            if q > qmax:
                b = 0  # the prefix ends here, as at a zero remainder
                break
            append(t)
            a, b = b, r
        self.state = (a, b, q1, q, qmax)
        return known

    @property
    def terms(self) -> tuple:
        """The whole prefix."""
        return tuple(self.grow(inf))


Body = Union[Finite, Periodic, Rule, Truncated]


class ContinuedFraction(NamedTuple):
    a0: int
    body: Body

    def quotient(self, k: int) -> int:
        """Partial quotient a_k (k >= 0)."""
        if k < 0:
            raise ValueError("quotient index must be >= 0")
        if k == 0:
            return self.a0
        body = self.body
        if isinstance(body, Finite):
            if k > len(body.terms):
                raise ExpansionExhausted(
                    f"finite expansion has only {len(body.terms)} quotients"
                )
            return body.terms[k - 1]
        if isinstance(body, Truncated):
            known = body.grow(k)
            if len(known) < k:
                raise PrecisionExhausted(
                    f"expansion truncated after {len(known)} quotients")
            return known[k - 1]
        if isinstance(body, Periodic):
            r = len(body.preperiod)
            if k <= r:
                return body.preperiod[k - 1]
            return body.period[(k - 1 - r) % len(body.period)]
        return body.fn(k)

    def render(self, max_terms: int = 20) -> str:
        """Render as "[a0;a1,a2,...]" with overline(...) marking a period;
        an unbounded or truncated expansion shows max_terms >= 1 quotients."""
        if max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        body = self.body
        if isinstance(body, Finite):
            return "[%d;%s]" % (self.a0, ",".join(map(str, body.terms)))
        if isinstance(body, Periodic):
            pre = ",".join(map(str, body.preperiod))
            per = "overline(%s)" % ",".join(map(str, body.period))
            inner = per if not pre else pre + "," + per
            return "[%d;%s]" % (self.a0, inner)
        if isinstance(body, Truncated):
            shown = ",".join(map(str, body.grow(max_terms)[:max_terms]))
            return "[%d;%s,...]" % (self.a0, shown)
        shown = ",".join(str(body.fn(k)) for k in range(1, max_terms + 1))
        return "[%d;%s,...]" % (self.a0, shown)


class CFStats(NamedTuple):
    """Exact partial-quotient statistics over k = 1..K."""

    K: int
    sum_a: int
    sum_a2: int
    alt_sum: int
    max_a: int


@dataclass(frozen=True)
class QuadraticSurd:
    """The real number (P + sqrt(D)) / Q with D a positive nonsquare."""

    P: int
    D: int
    Q: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("Q must be nonzero")
        if self.D <= 0 or isqrt(self.D) ** 2 == self.D:
            raise ValueError("D must be a positive nonsquare integer")
        if (self.D - self.P * self.P) % self.Q != 0:
            raise ValueError("Q must divide D - P^2 (use QuadraticSurd.make)")

    @classmethod
    def make(cls, P: int, D: int, Q: int) -> "QuadraticSurd":
        """Build a surd, rescaling (P,D,Q) so that Q divides D - P^2; the
        constructor checks the result."""
        if Q and (D - P * P) % Q != 0:
            a = abs(Q)
            P, D, Q = P * a, D * a * a, Q * a
        return cls(P, D, Q)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def cf_of_rational(p: int, q: int) -> ContinuedFraction:
    """Canonical expansion [0;a1,...,ar] of the fractional part of p/q.

    The input is reduced mod q first (only {p/q} matters downstream), so
    a0 = 0 always.  The canonical form has a_r >= 2 unless r = 1; zero gets
    the empty quotient list.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return ContinuedFraction(0, Finite(Truncated(q, p % q, q).terms))


def _floor_surd(P: int, D: int, Q: int) -> int:
    # floor((P + sqrt(D)) / Q) for nonsquare D, exact in integers
    s = isqrt(D)
    if Q > 0:
        return (P + s) // Q
    return (P + s + 1) // Q


def cf_of_surd(s: QuadraticSurd) -> ContinuedFraction:
    """Eventually periodic expansion of a quadratic surd.

    Runs the classical integer (P,Q) iteration; the period is detected by
    the first repeated state, which makes the preperiod minimal.  A state
    must repeat within 2D iterations or something is badly wrong.
    """
    P, D, Q = s.P, s.D, s.Q
    seen = {}
    quotients = []
    i = 0
    bound = 2 * D + 16
    while True:
        if i >= 1:
            if (P, Q) in seen:
                j = seen[(P, Q)]
                pre = tuple(quotients[1:j])
                per = tuple(quotients[j:])
                return ContinuedFraction(quotients[0], Periodic(pre, per))
            seen[(P, Q)] = i
        a = _floor_surd(P, D, Q)
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        i += 1
        if i > bound:
            raise RuntimeError("surd iteration failed to cycle within 2D steps")


_CONSTANT_RULE = re.compile(r"constant\((\d+)\)$")


def _euler_e_quotient(k: int) -> int:
    # 1,2,1,1,4,1,1,6,...: a_{3j-1} = 2j, everything else 1
    return 2 * (k + 1) // 3 if k % 3 == 2 else 1


def _tan_one_quotient(k: int) -> int:
    # 1,1,3,1,5,1,7,...: a_k = k at odd k >= 3, else 1
    return k if (k % 2 == 1 and k >= 3) else 1


def _pow2_spikes_quotient(k: int) -> int:
    return k if k & (k - 1) == 0 else 1


def cf_rule(name: str) -> ContinuedFraction:
    """Named rule-based expansions.

    euler_e      [2;1,2,1,1,4,1,...] with a_{3j-1} = 2j
    tan_one      [1;1,1,3,1,5,1,...] with a_k = k at odd k >= 3
    pow2_spikes  a_k = k when k is a power of two, else 1
    constant(c)  a_k = c for all k
    """
    if name == "euler_e":
        return ContinuedFraction(2, Rule(_euler_e_quotient, name))
    if name == "tan_one":
        return ContinuedFraction(1, Rule(_tan_one_quotient, name))
    if name == "pow2_spikes":
        return ContinuedFraction(0, Rule(_pow2_spikes_quotient, name))
    m = _CONSTANT_RULE.match(name)
    if m:
        c = int(m.group(1))
        if c < 1:
            raise ValueError("constant rule needs c >= 1")
        return ContinuedFraction(0, Rule(lambda k, c=c: c, name))
    raise ValueError(f"unknown rule name: {name!r}")


def cf_of_bits(mantissa: int, bits: int) -> ContinuedFraction:
    """Certified expansion prefix of a real known to bits binary digits.

    The Euclidean algorithm on (2^bits, mantissa), run as far as the
    quotients are read, stops as soon as the next convergent denominator q
    would have q > isqrt(2^(bits-64)); up to that point the quotients agree
    with those of any real within one ulp of mantissa / 2^bits.
    """
    if bits < 128:
        raise ValueError("bits must be >= 128")
    if not 0 <= mantissa < (1 << bits):
        raise ValueError("mantissa out of range")
    return ContinuedFraction(
        0, Truncated(1 << bits, mantissa, _isqrt(1 << (bits - 64))))


# ---------------------------------------------------------------------------
# Denominators and statistics
# ---------------------------------------------------------------------------

def denominators(cf: ContinuedFraction, k: int, q=None) -> List[int]:
    """The convergent denominators [q_-1, q_0, ..., q_j], j >= k: the list
    q, extended in place by q_(j+1) = a_(j+1) q_j + q_(j-1), or a new one
    from [0, 1].  The numerators need no recurrence of their own: p_j
    q_(j-1) - p_(j-1) q_j = (-1)^(j-1) gives p_j mod q_j."""
    if q is None:
        q = [0, 1]
    while len(q) - 2 < k:
        q.append(cf.quotient(len(q) - 1) * q[-1] + q[-2])
    return q


def cf_stats(cf: ContinuedFraction, K: int) -> CFStats:
    """Exact sums of a_k, a_k^2, (-1)^k a_k and max a_k over k = 1..K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    a = [cf.quotient(k) for k in range(1, K + 1)]
    return CFStats(K, sum(a), sum(map(mul, a, a)),
                   sum(a[1::2]) - sum(a[::2]), max(a))

