"""Certified enclosures for the squared L2 discrepancy of L/S(alpha, N).

The expansion behind everything here writes D2^2 as a Diophantine sum over
frequencies m < q_K plus a window term xi over [q_{K-1}, q_K), up to an
explicit error budget built from the partial quotients:

  D2^2(S) = sum_{m < q_{K-1}} 1/(4 pi^4 m^2 ||m a||^2) + xi_S
            +- ( sum_k a_{k+1}/(2 q_k)
                 + zeta(3)/(16 pi^4 N) * sum_k (a_{k+1}+2)^3 q_k + 6.28 )

with 0 <= xi_S <= twice the window sum, and a refined two-sided bracket for
xi_S around the window sum itself.  The unsymmetrized version adds the exact
block (1/N) sum (T_n^2 + T_n/2), a factor (1 - 1/(2N)) on the main sum, and
the budget constants (1/8-weighted quotient sum, 2.78).  Every sum is exact
for rational alpha over at most 3000 terms (over 0 <= m < q <= 2^8 from
integer tables shared per modulus q), else an exact sum of 2^-64 brackets.
The enclosure is assembled in integers and reduced once per endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .cf import PrecisionExhausted, cf_stats
from .fixedpoint import birkhoff_quad_block
from .intervals import (
    INV_2PI4,
    INV_4PI4,
    INV_8PI4,
    INV_PI2,
    Interval,
    PI4,
    ZETA3_16PI4,
    _QUANTUM_BITS,
    ceil_div,
)
from .lattice import near, step_words, walk_data

_SCALE_BITS = 64
_EXACT_TERM_LIMIT = 3000
_TABLE_MOD = 1 << 8  # near 2^9 a table's sum costs what the tree does
_BLOCK = 1 << 12  # 2^12 slices below 2^48 add up below 2^60
_SLACK = 2.0 ** -50  # 8 rounding units: above each chain of <= 5 below
_UP, _SIGN = np.array([[1 + _SLACK], [1 - _SLACK]]), np.array([[1.], [-1.]])


# ---------------------------------------------------------------------------
# Certified Diophantine sums
# ---------------------------------------------------------------------------

def _fold(mid, low):
    """The words of 2^128 ||W||, W = 2^64 mid + low: 2^128 - W past 1/2."""
    return np.where(mid >> 63, [~mid + (low == 0), -low], [mid, low])


def _norm_rows(step: int, mod: int, err0: int, m_start: int, m_end: int):
    """(m, float64 rows [above; below] ||m alpha||, fix) per block of
    m_start <= m <= m_end < 2^32, from ||W|| +- m eta, eta = err0/mod plus
    2^-128 unless floor(2^128 step/mod) is exact.  A row below <= 0 turns
    the rows to [inf; -inf] and puts (k, mod ||k alpha||, k err0) in fix."""
    eta = Fraction(int((step << 128) % mod != 0), 1 << 128)
    eta = float(eta + Fraction(err0, mod)) * (1 + _SLACK)
    for _, n, _, mid, low, _ in step_words([step], mod, m_start, m_end + 1,
                                           _BLOCK):
        mid, low = _fold(mid[0], low[0])
        x = ((mid * 2.0 ** -64 + low * 2.0 ** -128) * _UP  # 3 roundings,
             + n * eta * _SIGN) * _UP  # then 2
        zero = np.flatnonzero(x[1] <= 0)
        x[:, zero] = [[np.inf], [-np.inf]]
        yield n, x, [(k, min(k * step % mod, -k * step % mod), k * err0)
                     for k in n[zero].tolist()]


def _norm_floats(step: int, mod: int, m_start: int, m_end: int):
    """(m, x) per block of m_start <= m <= m_end < 2^32, x = ||m step/mod||
    correctly rounded: the high word of ||W|| with a sticky last bit (it cuts
    two or more bits, so no tie) where that word is >= 2^54 and m is off the
    near set; else exact, from m step mod mod."""
    for _, n, _, mid, low, inexact in step_words([step], mod, m_start,
                                                 m_end + 1, _BLOCK):
        close = near(n, low[0], inexact[0])
        mid, low = _fold(mid[0], low[0])
        x = (mid | (low != 0)).astype(np.float64) * 2.0 ** -64
        for i in np.flatnonzero(close | (mid < 1 << 54)).tolist():
            x[i] = min(v := int(n[i]) * step % mod, mod - v) / mod
        yield n, x


def _exact_sums(t: np.ndarray) -> List[int]:
    """Exact row sums of t, whole floats >= 0 (inf raises), 48 bits a slice."""
    sums = [0] * len(t)
    for shift in range(0, int(t.max()).bit_length(), 48):
        top = np.floor(t * 2.0 ** -48)
        low = (t - top * 2.0 ** 48).astype(np.int64).sum(1).tolist()
        sums = [s + (v << shift) for s, v in zip(sums, low)]
        t = top
    return sums


@lru_cache(maxsize=2 * _TABLE_MOD)  # every mod <= _TABLE_MOD, both powers
def _tables(mod: int, power: int):
    """(A, B, D) with 1/(m^2 ||m step/mod||^power) = mod^power A_m B_v / D at
    v = m step mod mod: A_m = (L/m)^2, B_v = (L'/min(v, mod - v))^power and
    D = L^2 L'^power, L = lcm(1..mod-1), L' = lcm(1..mod//2); A_0 = B_0 = 0."""
    L, L1 = lcm(*range(1, mod)), lcm(*range(1, mod // 2 + 1))
    return ([0] + [(L // m) ** 2 for m in range(1, mod)],
            [0] + [(L1 // min(v, mod - v)) ** power for v in range(1, mod)],
            L * L * L1 ** power)


def _dioph_sum(alpha, m_start: int, m_end: int, power: int) -> Interval:
    """Certified sum of 1/(m^2 ||m alpha||^power), power 1 or 2, over
    m_start <= m <= m_end, as described at dioph_sum2.  An exact sum over
    0 <= m < mod <= _TABLE_MOD is sum A_m B_v over the _tables of mod, any
    other a pairwise tree of unreduced fractions; either is reduced once.

    Otherwise the rows of _norm_rows, widened by _SLACK, give integers
    L_m <= 2^64/(m^2 ||m alpha||^power) <= H_m, which add up exactly; an m
    with no positive lower bound takes the exact formula, which may raise."""
    if m_end < m_start:
        return Interval.exact(0)
    step, mod, err0 = walk_data(alpha)
    if err0 == 0 and (m_end - m_start) < _EXACT_TERM_LIMIT:
        g = mod // gcd(step, mod)  # ||m alpha|| = 0 exactly where g | m
        if (z := -(-m_start // g) * g) <= m_end:
            raise ZeroDivisionError(f"||m alpha|| = 0 at m = {z}")
        ms = range(m_start, m_end + 1)
        if 0 <= m_start and m_end < mod <= _TABLE_MOD:
            a, b, den = _tables(mod, power)
            top = sum(a[m] * b[m * step % mod] for m in ms)
        else:
            t = [(1, m * m * min(v := m * step % mod, mod - v) ** power)
                 for m in ms]
            while len(t) > 1:
                t = [(n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2)
                     in zip(t[::2], t[1::2])] + t[len(t) & ~1:]
            (top, den), = t
        total = Fraction(mod ** power * top, den)
        return Interval(total, total)
    num = (mod ** power) << _SCALE_BITS
    lo = hi = 0
    for n, x, fix in _norm_rows(step, mod, err0, m_start, m_end):
        for k, d, e in fix:
            if d <= e:
                if err0 == 0:  # alpha is exact, so this is a true zero
                    raise ZeroDivisionError(f"||m alpha|| = 0 at m = {k}")
                raise PrecisionExhausted(f"||m alpha|| uncertain at m = {k}")
            lo += num // (k * k * (d + e) ** power)
            hi += ceil_div(num, k * k * (d - e) ** power)
        # n and n^2 < 2^64 convert once: <= 4 roundings to the quotient
        t = 2.0 ** 64 / (n * n * (x if power == 1 else x * x)) * _UP[::-1]
        s0, s1 = _exact_sums(np.stack((np.floor(t[0]), np.ceil(t[1]))))
        lo, hi = lo + s0, hi + s1
    s = 1 << _SCALE_BITS
    return Interval(Fraction(lo, s), Fraction(hi, s))


def dioph_sum2(alpha, m_start: int, m_end: int) -> Interval:
    """Certified sum of 1/(m^2 ||m alpha||^2) over m_start <= m <= m_end.

    Exact for rational alpha over short ranges (one reduction over a common
    denominator); otherwise bracketed at 2^-64 per term, for m < 2^32.  Terms
    with ||m alpha|| = 0 raise ZeroDivisionError.
    """
    return _dioph_sum(alpha, m_start, m_end, 2)


def dioph_sum1(alpha, m_start: int, m_end: int) -> Interval:
    """Certified sum of 1/(m^2 ||m alpha||) over the range."""
    return _dioph_sum(alpha, m_start, m_end, 1)


_WEIGHTS = {
    "unit_sq": (dioph_sum2, Interval.exact(1)),
    "quarter_pi4_sq": (dioph_sum2, INV_4PI4),
    "half_pi4_sq": (dioph_sum2, INV_2PI4),
    "eighth_pi4_sq": (dioph_sum2, INV_8PI4),
    "pi2_first": (dioph_sum1, INV_PI2),
}


def dioph_sum(alpha, M: int, weight: str = "unit_sq") -> Interval:
    """Weighted Diophantine sum over 1 <= m <= M.

    Weights: unit_sq       1/(m^2 ||m a||^2)
             quarter_pi4_sq 1/(4 pi^4 m^2 ||m a||^2)
             half_pi4_sq    1/(2 pi^4 m^2 ||m a||^2)
             eighth_pi4_sq  1/(8 pi^4 m^2 ||m a||^2)
             pi2_first      1/(pi^2 m^2 ||m a||)
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    try:
        base, coeff = _WEIGHTS[weight]
    except KeyError:
        raise ValueError(f"unknown weight {weight!r}") from None
    return base(alpha, 1, M) * coeff


def dioph_sum2_float(alpha, marks: Iterable[int]) -> List[float]:
    """Float partial sums of 1/(4 pi^4 m^2 ||m alpha||^2) over m <= M at
    each checkpoint 1 <= M < 2^32 of marks, ascending, in one O(max(marks))
    pass: one sequential cumulative sum of the terms of _norm_floats.

    An exact alpha (rational, or a fixed-point value with no error) skips
    its undefined terms, the multiples of its denominator, which is what
    lets the sum saturate; any other zero term raises ZeroDivisionError.
    """
    marks = sorted(marks)
    if marks and not 1 <= marks[0] <= marks[-1] < 1 << 32:
        raise ValueError("every mark needs 1 <= M < 2^32")
    step, mod, err0 = walk_data(alpha)
    out, total, marks = [], 0.0, np.array(marks, np.int64)
    for m, x in _norm_floats(step, mod, 1, int(marks.max(initial=0))):
        if err0 and not x.all():
            raise ZeroDivisionError(f"||m alpha|| = 0 at m = {m[x == 0][0]}")
        x[x == 0] = np.inf  # a skipped term adds 0
        t = float(INV_4PI4.mid) / ((m * m) * x * x)
        t[0] += total
        c = np.cumsum(t)
        total, lo = c[-1], int(m[0])
        out += c[marks[(lo <= marks) & (marks < lo + len(m))] - lo].tolist()
    return out


# ---------------------------------------------------------------------------
# The three quotient-sum inequalities behind the budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundPair:
    lhs: Interval
    rhs: Interval

    @property
    def holds(self) -> bool:
        return self.lhs.hi <= self.rhs.lo


def _quotient_denoms(alpha, K: int) -> List[Tuple[int, int]]:
    """[(a_{k+1}, q_k) for k = 0..K-1]."""
    return [(alpha.cf.quotient(k + 1), alpha.q(k)) for k in range(K)]


def first_power_bound(alpha, K: int) -> BoundPair:
    """sum_{m<q_K} 1/(pi^2 m^2 ||m a||) <= sum_k a_{k+1}/(2 q_k) + 3.12."""
    if K < 1:
        raise ValueError("K must be >= 1")
    lhs = dioph_sum1(alpha, 1, alpha.q(K) - 1) * INV_PI2
    rhs = sum(Fraction(a, 2 * qk) for a, qk in _quotient_denoms(alpha, K))
    return BoundPair(lhs, Interval.exact(rhs + Fraction(312, 100)))


def tail_min_bound(alpha, K: int, n: int) -> BoundPair:
    """sum_{m>=q_K} (1/(2 pi^2 m^2)) min(1/(4||m a||^2), n^2)
    <= 1.12 n/q_K + 0.61 n^2/q_K^2.

    The tail is summed up to m_max = 8 q_K n, which must be below 2^32 (a
    ValueError before any term otherwise), and the remainder bound
    n^2/(2 pi^2 (m_max - 1)), under 0.6% of the 1.12 n/q_K on the right, is
    added to the left-hand side, so the reported inequality stays sound.
    """
    if K < 1 or n < 0:
        raise ValueError("need K >= 1 and n >= 0")
    qK = alpha.q(K)
    rhs = Interval.exact(Fraction(112, 100) * Fraction(n, qK)
                         + Fraction(61, 100) * Fraction(n * n, qK * qK))
    if n == 0:
        return BoundPair(Interval.exact(0), rhs)
    m_max = 8 * qK * n
    lhs = _tail_min_sum(alpha, qK, m_max, n) * (INV_PI2 * Fraction(1, 2))
    rem = (Fraction(n * n, 2 * (m_max - 1)) * INV_PI2).hi
    return BoundPair(Interval(lhs.lo, lhs.hi + rem), rhs)


def _tail_min_sum(alpha, m_start: int, m_end: int, n: int) -> Interval:
    """Certified [0, hi] above the sum of min(1/(4||m a||^2), n^2)/m^2 =
    1/(4 m^2 max(||m a||, 1/(2n))^2) from the row below; a fix, whose row
    below is -inf, takes the cap n^2 through the floor 1/(2n)."""
    hi = 0
    for m, x, _ in _norm_rows(*walk_data(alpha), m_start, m_end):
        # 1/(2n), m times the max, its square and the quotient: 4 roundings
        t = 2.0 ** 62 / (m * np.maximum(x[1:], 0.5 / n)) ** 2 * (1 + _SLACK)
        hi += _exact_sums(np.ceil(t))[0]
    return Interval(Fraction(0), Fraction(hi, 1 << _SCALE_BITS))


def min_weighted_bound(alpha, K: int, N: int) -> BoundPair:
    """sum_{m<q_K} 1/(4 pi^4 m^2 ||m a||^2) min(1/(4N||2m a||), 1)
    <= zeta(3)/(16 pi^4 N) sum_{k<K} (a_{k+1}+2)^3 q_k + 0.07."""
    if K < 1 or N < alpha.q(K - 1):
        raise ValueError("need K >= 1 and N >= q_{K-1}")
    lhs = _min_weighted_sum(alpha, 1, alpha.q(K) - 1, N) * INV_4PI4
    zsum = sum((a + 2) ** 3 * qk for a, qk in _quotient_denoms(alpha, K))
    rhs = ZETA3_16PI4 * Fraction(zsum, N) + Fraction(7, 100)
    return BoundPair(lhs, rhs)


def _min_weighted_sum(alpha, m_start: int, m_end: int, N: int) -> Interval:
    """Certified [0, hi] (BoundPair.holds reads only hi) above the sum of
    min(1/(4N ||2m a||), 1)/(m^2 ||m a||^2): 1/(m^2 x_lo^2 max(4N y_lo, 1))
    per term, y_lo the row below ||2m a|| of the realization of 2a, not
    1 - 2 x_hi, which would carry the slack of x_hi near 1/2 into a y near
    1/mod; a fix is 1/(m^2 ||m a||^2)."""
    step, mod, err0 = walk_data(alpha)
    num = (mod * mod) << _SCALE_BITS
    hi = 0
    for (m, x, fix), (_, y, _) in zip(
            _norm_rows(step, mod, err0, m_start, m_end),
            _norm_rows(2 * step % mod, mod, 2 * err0, m_start, m_end)):
        for k, d, e in fix:
            if d <= e:
                raise PrecisionExhausted(f"||m alpha|| uncertain at m = {k}")
            hi += ceil_div(num, k * k * (d - e) ** 2)
        # m x_lo, its square, 4N y_lo, the product and the quotient: 5
        # roundings; a y_lo of -inf takes the cap 1
        t = 2.0 ** 64 / ((m * x[1:]) ** 2 * np.maximum(4 * N * y[1:], 1.0))
        hi += _exact_sums(np.ceil(t * (1 + _SLACK)))[0]
    return Interval(Fraction(0), Fraction(hi, 1 << _SCALE_BITS))


@dataclass(frozen=True)
class DiophBounds:
    first_power: BoundPair
    tail_min: BoundPair
    min_weighted: BoundPair

    @property
    def all_hold(self) -> bool:
        return (self.first_power.holds and self.tail_min.holds
                and self.min_weighted.holds)


def dioph_inequalities(alpha, K: int, n: int, N: int) -> DiophBounds:
    """Evaluate both sides of the three certified quotient-sum inequalities."""
    return DiophBounds(first_power_bound(alpha, K),
                       tail_min_bound(alpha, K, n),
                       min_weighted_bound(alpha, K, N))


# ---------------------------------------------------------------------------
# Window term xi and the enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Enclosure(Interval):
    """Certified interval around D2^2, with the index K used and a part
    breakdown.  lo is clamped at zero (the target is a square); parts keeps
    the raw pre-clamp endpoint."""

    K: int
    parts: Dict[str, float]


# the constant brackets' endpoints as integer numerators over 2^_QUANTUM_BITS
_C4_LO, _C4_HI, _C2_HI, _Z_HI = (int(c * (1 << _QUANTUM_BITS)) for c in (
    INV_4PI4.lo, INV_4PI4.hi, INV_2PI4.hi, ZETA3_16PI4.hi))


def _add(x, y, sign: int = 1):
    """x + sign * y for unreduced pairs (n, d), d > 0; left unreduced."""
    return x[0] * y[1] + sign * y[0] * x[1], x[1] * y[1]


def _enclosure(alpha, N: int, K: Optional[int], sym: bool) -> Enclosure:
    """The one assembly behind enclosure_S (sym) and enclosure_L.

    Both take the main sum below q_{K-1}, the window sum over
    [q_{K-1}, q_K) and the quotient budget.  The window term is bracketed by
    the intersection of the one-sided bracket [0, 2 * window] and the
    refined two-sided bracket around the window sum; both are guaranteed, so
    their intersection is too.  L differs only in data: the exact block
    (1/N) sum (T_n^2 + T_n/2), the factor (2N-1)/(2N) on the main and window
    sums, no 0.07 pad on the refined bracket, and the budget weight
    a/(8 q_k) with constant 2.78 in place of a/(2 q_k) and 6.28.  Every
    quantity is an unreduced integer pair (n, d) for n / (d 2^192), so the
    constant brackets enter as numerators; each endpoint is reduced once.
    """
    if K is None:
        K = alpha.index_for(N)
    if K < 1:
        raise ValueError("K must be >= 1")
    q_lo, q_hi = alpha.q(K - 1), alpha.q(K)
    if not (q_lo <= N <= q_hi):
        raise ValueError(f"need q_(K-1) <= N <= q_K, got K={K}, N={N}")
    if K not in alpha.sums:  # shared by S and L and every N of this K
        alpha.sums[K] = (dioph_sum2(alpha, 1, q_lo - 1),
                         dioph_sum2(alpha, q_lo, q_hi - 1))
    main, window = alpha.sums[K]
    m0, m1, w0, w1 = main.lo, main.hi, window.lo, window.hi
    Q, f, g = _QUANTUM_BITS, *((1, 1) if sym else (2 * N - 1, 2 * N))
    main_lo = (m0.numerator * _C4_LO * f, m0.denominator * g)
    main_hi = (m1.numerator * _C4_HI * f, m1.denominator * g)
    # the last pair, (a_K, q_{K-1}), pads the window; the others enter the
    # budget's zeta(3) sum
    pairs = _quotient_denoms(alpha, K)
    cubes = [(a + 2) ** 3 * qk for a, qk in pairs]
    pad = (100 * _Z_HI * cubes[-1] + (7 * N << Q if sym else 0), 100 * N)
    xi_lo = _add((w0.numerator * _C4_LO * f, w0.denominator * g), pad, -1)
    xi_lo = xi_lo if xi_lo[0] > 0 else (0, 1)
    xi_hi = _add((w1.numerator * _C4_HI * f, w1.denominator * g), pad)
    cap = (w1.numerator * _C2_HI, w1.denominator)
    xi_hi = xi_hi if _add(xi_hi, cap, -1)[0] < 0 else cap
    if _add(xi_hi, xi_lo, -1)[0] < 0:  # Interval raises "empty interval"
        Interval(*(Fraction(n, d << Q) for n, d in (xi_lo, xi_hi)))
    weight, const = (2, 628) if sym else (8, 278)
    bn, bd = 0, 1
    for a, qk in pairs:
        bn, bd = bn * weight * qk + a * bd, bd * weight * qk
    budget = ((100 * N * bn << Q)
              + bd * (100 * _Z_HI * sum(cubes[:-1]) + (const * N << Q)),
              100 * N * bd)
    raw_lo = _add(_add(main_lo, xi_lo), budget, -1)
    hi = _add(_add(main_hi, xi_hi), budget)
    parts = {}
    if not sym:
        block, err = birkhoff_quad_block(alpha, N)
        block2 = (block.numerator << Q, block.denominator)  # over 2^192
        err2 = (err.numerator << Q + 1, err.denominator)  # 2 err
        raw_lo = _add(raw_lo, _add(block2, err2, -1))
        hi = _add(hi, _add(block2, err2))
        parts["t_block"] = float(block)
    mid = _add(main_lo, main_hi)
    return Enclosure(
        Fraction(raw_lo[0], raw_lo[1] << Q) if raw_lo[0] > 0 else Fraction(0),
        Fraction(hi[0], hi[1] << Q), K, {
            "main_sum": mid[0] / (mid[1] << Q + 1), **parts,
            **{k: n / (d << Q) for k, (n, d) in (
                ("xi_lo", xi_lo), ("xi_hi", xi_hi), ("err_budget", budget),
                ("raw_lo", raw_lo))}})


def enclosure_S(alpha, N: int, K: Optional[int] = None) -> Enclosure:
    """Certified enclosure of D2^2(S(alpha, N)).

    K defaults to the smallest index with q_K >= N; it must satisfy
    q_{K-1} <= N <= q_K.
    """
    return _enclosure(alpha, N, K, True)


def enclosure_L(alpha, N: int, K: Optional[int] = None) -> Enclosure:
    """Certified enclosure of D2^2(L(alpha, N)): the running-sum block enters
    exactly, the main sum carries the factor (1 - 1/(2N)), and the budget
    uses the 1/8-weighted quotient sum plus 2.78."""
    return _enclosure(alpha, N, K, False)


# ---------------------------------------------------------------------------
# Diagnostics tied to the same expansion
# ---------------------------------------------------------------------------

def _quotient_gap(alpha, K: int, s2: Interval) -> Tuple[Interval, Fraction]:
    """The gap s2 - (pi^4/90) sum a_k^2, s2 the sum of 1/(m^2 ||m a||^2)
    over m < q_K, and the certified bound 152 sum a_k it must stay within."""
    st = cf_stats(alpha.cf, K)
    return s2 - (PI4 * Fraction(st.sum_a2, 90)), Fraction(152 * st.sum_a)

