"""Continued fraction expansions in exact big-integer arithmetic.

Covers the four kinds of expansion the library needs: finite expansions of
rationals, eventually periodic expansions of quadratic surds, rule-based
infinite expansions (Euler's number, tan 1, and custom rules), and
precision-bounded expansions read off a fixed-point mantissa.  Partial
quotients, convergents and quotient statistics are all exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from typing import Callable, Iterator, NamedTuple, Optional, Union


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


@dataclass(frozen=True)
class Truncated:
    """A known-correct prefix of an expansion; asking past it is an error."""

    terms: tuple


Body = Union[Finite, Periodic, Rule, Truncated]


@dataclass(frozen=True)
class ContinuedFraction:
    a0: int
    body: Body

    def quotient(self, k: int) -> int:
        """Partial quotient a_k (k >= 0)."""
        if k < 0:
            raise ValueError("quotient index must be >= 0")
        if k == 0:
            return self.a0
        body = self.body
        if isinstance(body, (Finite, Truncated)):
            if k > len(body.terms):
                if isinstance(body, Truncated):
                    raise PrecisionExhausted(
                        f"expansion truncated after {len(body.terms)} quotients"
                    )
                raise ExpansionExhausted(
                    f"finite expansion has only {len(body.terms)} quotients"
                )
            return body.terms[k - 1]
        if isinstance(body, Periodic):
            r = len(body.preperiod)
            if k <= r:
                return body.preperiod[k - 1]
            return body.period[(k - 1 - r) % len(body.period)]
        return body.fn(k)

    def quotients(self, K: int) -> list:
        """Partial quotients a_1..a_K as a list."""
        return [self.quotient(k) for k in range(1, K + 1)]

    @property
    def length(self) -> Optional[int]:
        """Number of available quotients after a0, or None if unbounded."""
        if isinstance(self.body, (Finite, Truncated)):
            return len(self.body.terms)
        return None

    @property
    def is_rational(self) -> bool:
        return isinstance(self.body, Finite)

    def render(self, max_terms: int = 20) -> str:
        """Render as "[a0;a1,a2,...]" with overline(...) marking a period."""
        body = self.body
        if isinstance(body, Finite):
            return "[%d;%s]" % (self.a0, ",".join(map(str, body.terms)))
        if isinstance(body, Periodic):
            pre = ",".join(map(str, body.preperiod))
            per = "overline(%s)" % ",".join(map(str, body.period))
            inner = per if not pre else pre + "," + per
            return "[%d;%s]" % (self.a0, inner)
        if isinstance(body, Truncated):
            shown = ",".join(map(str, body.terms[:max_terms]))
            return "[%d;%s,...]" % (self.a0, shown)
        shown = ",".join(str(body.fn(k)) for k in range(1, max_terms + 1))
        return "[%d;%s,...]" % (self.a0, shown)


class Convergent(NamedTuple):
    k: int
    p: int
    q: int


@dataclass(frozen=True)
class CFStats:
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
    p %= q
    g = gcd(p, q)
    p, q = p // g, q // g
    terms = []
    a, b = q, p
    while b:
        t, r = divmod(a, b)
        terms.append(t)
        a, b = b, r
    return ContinuedFraction(0, Finite(tuple(terms)))


def alternate_expansion(cf: ContinuedFraction) -> ContinuedFraction:
    """The other expansion of a rational: split a_r >= 2 as (a_r - 1, 1),
    or merge a trailing 1 back.  Lengths of the two forms differ by one."""
    if not isinstance(cf.body, Finite):
        raise ValueError("alternate expansion is defined for finite expansions")
    terms = cf.body.terms
    if not terms:
        raise ValueError("zero has a unique (empty) expansion")
    if terms[-1] >= 2:
        return ContinuedFraction(cf.a0, Finite(terms[:-1] + (terms[-1] - 1, 1)))
    if len(terms) == 1:
        # [a0;1] is a0 + 1 exactly
        return ContinuedFraction(cf.a0 + 1, Finite(()))
    return ContinuedFraction(cf.a0, Finite(terms[:-2] + (terms[-2] + 1,)))


def cf_value(cf: ContinuedFraction) -> Fraction:
    """Exact value of a finite expansion."""
    if not isinstance(cf.body, Finite):
        raise ValueError("only finite expansions have a rational value")
    *_, last = iter_convergents(cf)
    return Fraction(last.p, last.q)


def _floor_surd(P: int, D: int, Q: int) -> int:
    # floor((P + sqrt(D)) / Q) for nonsquare D, exact in integers
    s = isqrt(D)
    if Q > 0:
        return (P + s) // Q
    return (P + s + 1) // Q


def cf_of_surd(s) -> ContinuedFraction:
    """Eventually periodic expansion of a quadratic surd.

    Runs the classical integer (P,Q) iteration; the period is detected by
    the first repeated state, which makes the preperiod minimal.  A state
    must repeat within 2D iterations or something is badly wrong.
    """
    if isinstance(s, tuple):
        s = QuadraticSurd.make(*s)
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

    Runs the Euclidean algorithm on (mantissa, 2^bits) and stops as soon as
    the next convergent denominator q would have q^2 > 2^(bits-64); up to
    that point the quotients agree with those of any real within one ulp of
    mantissa / 2^bits.
    """
    if bits < 128:
        raise ValueError("need bits >= 128 for a trustworthy prefix")
    if not 0 <= mantissa < (1 << bits):
        raise ValueError("mantissa out of range")
    limit = 1 << (bits - 64)
    terms = []
    # q_k runs inline, not through iter_convergents: it is the stopping rule
    # of the quotient generation that builds the expansion
    qk_1, qk = 0, 1
    a, b = 1 << bits, mantissa
    while b:
        t, r = divmod(a, b)
        qn = t * qk + qk_1
        if qn * qn > limit:
            break
        terms.append(t)
        qk_1, qk = qk, qn
        a, b = b, r
    return ContinuedFraction(0, Truncated(tuple(terms)))


# ---------------------------------------------------------------------------
# Convergents and statistics
# ---------------------------------------------------------------------------

def convergents(cf: ContinuedFraction, K: int) -> list:
    """Convergents p_k/q_k for k = 0..K via the exact recursion."""
    if K < 0:
        raise ValueError("K must be >= 0")
    out = list(islice(iter_convergents(cf), K + 1))
    if len(out) <= K:
        raise ExpansionExhausted(
            f"finite expansion has only {len(out) - 1} quotients")
    return out


def iter_convergents(cf: ContinuedFraction) -> Iterator[Convergent]:
    """Yield convergents from k = 0 until the expansion runs out."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = cf.a0, 1
    yield Convergent(0, p_cur, q_cur)
    k = 1
    while True:
        try:
            a = cf.quotient(k)
        except ExpansionExhausted:
            return
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        yield Convergent(k, p_cur, q_cur)
        k += 1


def cf_stats(cf: ContinuedFraction, K: int) -> CFStats:
    """Exact sums of a_k, a_k^2, (-1)^k a_k and max a_k over k = 1..K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    sum_a = sum_a2 = alt = 0
    max_a = 0
    for k in range(1, K + 1):
        a = cf.quotient(k)
        sum_a += a
        sum_a2 += a * a
        alt += a if k % 2 == 0 else -a
        if a > max_a:
            max_a = a
    return CFStats(K, sum_a, sum_a2, alt, max_a)


def optimality_stats(cf: ContinuedFraction, K: int):
    """The two trajectories that decide optimal L2 discrepancy:
    (sum of a_k^2)/K and |alternating sum of a_k| / sqrt(K)."""
    st = cf_stats(cf, K)
    return st.sum_a2 / K, abs(st.alt_sum) / K ** 0.5
