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
the budget constants (1/8-weighted quotient sum, 2.78).  All sums are computed
as certified intervals: exact rationals for rational alpha, outward-rounded
scaled integers driven by the fixed-point mantissa otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .cf import PrecisionExhausted
from .discrepancy import d2_exact_fast
from .fixedpoint import birkhoff_mean, birkhoff_quad_block, norms, walk_data
from .intervals import (
    INV_2PI4,
    INV_4PI4,
    INV_8PI4,
    INV_PI2,
    Interval,
    PI4,
    ZETA3_16PI4,
    ceil_div,
)
from .lattice import build_L, build_S

_SCALE_BITS = 64
_EXACT_TERM_LIMIT = 3000


# ---------------------------------------------------------------------------
# Certified Diophantine sums
# ---------------------------------------------------------------------------

def _dioph_sum(alpha, m_start: int, m_end: int, power: int) -> Interval:
    """Certified sum of 1/(m^2 ||m alpha||^power), power 1 or 2, over
    m_start <= m <= m_end, as described at dioph_sum2."""
    if m_end < m_start:
        return Interval.zero()
    step, mod, err0 = walk_data(alpha)
    walk = enumerate(chain.from_iterable(norms(step, mod, m_start, m_end + 1)),
                     m_start)
    if err0 == 0 and (m_end - m_start) < _EXACT_TERM_LIMIT:
        num = mod ** power
        total = Fraction(0)
        for m, d in walk:
            if d == 0:
                raise ZeroDivisionError(f"||m alpha|| = 0 at m = {m}")
            total += Fraction(num, m * m * d ** power)
        return Interval(total, total)
    num = (mod ** power) << _SCALE_BITS
    lo = hi = 0
    for m, d in walk:
        e = m * err0
        dl, dh = d - e, d + e
        if dl <= 0:
            if err0 == 0:  # alpha is exact, so this is a true zero
                raise ZeroDivisionError(f"||m alpha|| = 0 at m = {m}")
            raise PrecisionExhausted(f"||m alpha|| uncertain at m = {m}")
        m2 = m * m
        lo += num // (m2 * dh ** power)
        hi += ceil_div(num, m2 * dl ** power)
    s = 1 << _SCALE_BITS
    return Interval(Fraction(lo, s), Fraction(hi, s))


def dioph_sum2(alpha, m_start: int, m_end: int) -> Interval:
    """Certified sum of 1/(m^2 ||m alpha||^2) over m_start <= m <= m_end.

    Exact (zero-width) for rational alpha over short ranges; otherwise the
    endpoints are outward-rounded at 2^-64 per term.  Terms with
    ||m alpha|| = 0 raise ZeroDivisionError.
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
    try:
        base, coeff = _WEIGHTS[weight]
    except KeyError:
        raise ValueError(f"unknown weight {weight!r}") from None
    return base(alpha, 1, M) * coeff


def dioph_sum2_float(alpha, M: int, skip_zero: bool = False,
                     record_at: Optional[Iterable[int]] = None):
    """Float sum of 1/(4 pi^4 m^2 ||m alpha||^2) up to M, O(M).

    With record_at, returns the list of partial sums at those checkpoints
    (ascending).  skip_zero drops the undefined terms of a rational alpha
    (multiples of the denominator), which is what lets the sum saturate.
    """
    step, mod, _ = walk_data(alpha)
    marks = sorted(record_at) if record_at is not None else [M]
    if marks and marks[-1] > M:
        raise ValueError("checkpoint beyond M")
    coeff = float(INV_4PI4.mid)
    fmod = float(mod)
    out = []
    mi = 0
    total = 0.0
    for m, d in enumerate(chain.from_iterable(norms(step, mod, 1, M + 1)), 1):
        if d == 0:
            if not skip_zero:
                raise ZeroDivisionError(f"||m alpha|| = 0 at m = {m}")
        else:
            x = d / fmod
            total += coeff / (m * m * x * x)
        while mi < len(marks) and marks[mi] == m:
            out.append(total)
            mi += 1
    if record_at is None:
        return total
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
    return [(alpha.a(k + 1), alpha.q(k)) for k in range(K)]


def first_power_bound(alpha, K: int) -> BoundPair:
    """sum_{m<q_K} 1/(pi^2 m^2 ||m a||) <= sum_k a_{k+1}/(2 q_k) + 3.12."""
    if K < 1:
        raise ValueError("K must be >= 1")
    lhs = dioph_sum1(alpha, 1, alpha.q(K) - 1) * INV_PI2
    rhs = Fraction(0)
    for a, qk in _quotient_denoms(alpha, K):
        rhs += Fraction(a, 2 * qk)
    return BoundPair(lhs, Interval.exact(rhs + Fraction(312, 100)))


def tail_min_bound(alpha, K: int, n: int,
                   m_max: Optional[int] = None) -> BoundPair:
    """sum_{m>=q_K} (1/(2 pi^2 m^2)) min(1/(4||m a||^2), n^2)
    <= 1.12 n/q_K + 0.61 n^2/q_K^2.

    The infinite tail is truncated at m_max = 8*max(q_K*n, 10^6) by default
    and the exact remainder bound n^2/(2 pi^2 (m_max - 1)) is added to the
    left-hand side, so the reported inequality stays sound.
    """
    if K < 1 or n < 0:
        raise ValueError("need K >= 1 and n >= 0")
    qK = alpha.q(K)
    rhs = Interval.exact(Fraction(112, 100) * Fraction(n, qK)
                         + Fraction(61, 100) * Fraction(n * n, qK * qK))
    if n == 0:
        return BoundPair(Interval.zero(), rhs)
    if m_max is None:
        m_max = 8 * max(qK * n, 10 ** 6)
    step, mod, err0 = walk_data(alpha)
    s = 1 << _SCALE_BITS
    n2s = (n * n) << _SCALE_BITS
    num = (mod * mod) << (_SCALE_BITS - 2)  # 2^{2B+S}/4
    hi = 0
    for m, d in enumerate(chain.from_iterable(norms(step, mod, qK, m_max + 1)),
                          qK):
        dl = d - m * err0
        m2 = m * m
        cap = ceil_div(n2s, m2)
        if dl > 0:
            hi += min(cap, ceil_div(num, m2 * dl * dl))
        else:
            hi += cap
    lhs = Interval(Fraction(0), Fraction(hi, s)) * (INV_PI2 * Fraction(1, 2))
    rem = (Fraction(n * n, 2 * (m_max - 1)) * INV_PI2).hi
    lhs = Interval(lhs.lo, lhs.hi + rem)
    return BoundPair(lhs, rhs)


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
    """Certified sum of (1/(m^2 ||m a||^2)) * min(1/(4N ||2m a||), 1)."""
    if m_end < m_start:
        return Interval.zero()
    step, mod, err0 = walk_data(alpha)
    s = 1 << _SCALE_BITS
    num2 = (mod * mod) << _SCALE_BITS
    num3 = (mod * mod * mod) << _SCALE_BITS
    lo = hi = 0
    for m, d in enumerate(chain.from_iterable(norms(step, mod, m_start,
                                                    m_end + 1)), m_start):
        d2 = min(2 * d, mod - 2 * d)  # mod * ||2m alpha||, as 2d <= mod
        e = m * err0
        e2 = 2 * m * err0
        dl, dh = d - e, d + e
        d2l, d2h = d2 - e2, d2 + e2
        if dl <= 0:
            raise PrecisionExhausted(f"||m alpha|| uncertain at m = {m}")
        m2 = m * m
        # upper endpoint: largest 1/||.||^2, largest min-factor
        if d2l <= 0:
            hi += ceil_div(num2, m2 * dl * dl)
        else:
            hi += min(ceil_div(num2, m2 * dl * dl),
                      ceil_div(num3, m2 * dl * dl * 4 * N * d2l))
        # lower endpoint
        if d2h == 0:
            lo += num2 // (m2 * dh * dh)
        else:
            lo += min(num2 // (m2 * dh * dh),
                      num3 // (m2 * dh * dh * 4 * N * d2h))
    return Interval(Fraction(lo, s), Fraction(hi, s))


@dataclass(frozen=True)
class DiophBounds:
    first_power: BoundPair
    tail_min: BoundPair
    min_weighted: BoundPair

    @property
    def all_hold(self) -> bool:
        return (self.first_power.holds and self.tail_min.holds
                and self.min_weighted.holds)


def dioph_inequalities(alpha, K: int, n: int, N: int,
                       m_max: Optional[int] = None) -> DiophBounds:
    """Evaluate both sides of the three certified quotient-sum inequalities."""
    return DiophBounds(first_power_bound(alpha, K),
                       tail_min_bound(alpha, K, n, m_max=m_max),
                       min_weighted_bound(alpha, K, N))


# ---------------------------------------------------------------------------
# Window term xi and the enclosures
# ---------------------------------------------------------------------------

def xi_direct(alpha, N: int, K: int, variant: str = "S",
              term_guard: int = 10 ** 9) -> float:
    """Direct evaluation of the window term

        xi = (1/N) sum_{n<N} sum_{m=q_{K-1}}^{q_K-1}
             sin^2(c_n m pi alpha) / (2 pi^4 m^2 ||m alpha||^2)

    with c_n = 2n+1 for the symmetrized lattice and n+1 otherwise.  Double
    precision, intended for small instances (guarded by term count).
    """
    if variant not in ("S", "L"):
        raise ValueError("variant must be 'S' or 'L'")
    m_lo, m_hi = alpha.q(K - 1), alpha.q(K) - 1
    if m_hi < m_lo:
        return 0.0
    if N * (m_hi - m_lo + 1) > term_guard:
        raise ValueError("instance too large for direct window evaluation")
    step, mod, _ = walk_data(alpha)
    ns = 2.0 * np.arange(N) + 1.0 if variant == "S" else np.arange(N) + 1.0
    total = 0.0
    for m, d in enumerate(chain.from_iterable(norms(step, mod, m_lo, m_hi + 1)),
                          m_lo):
        # sin^2(pi c x) = sin^2(pi c (1 - x)) for integer c, so the phase
        # may start from ||m alpha|| in place of {m alpha}
        x = d / mod
        phases = np.mod(x * ns, 1.0)
        ssum = float(np.sum(np.sin(np.pi * phases) ** 2))
        total += ssum / (2 * np.pi ** 4 * m * m * x * x)
    return total / N


@dataclass(frozen=True)
class Enclosure(Interval):
    """Certified interval around D2^2, with the index K used and a part
    breakdown.  lo is clamped at zero (the target is a square); parts keeps
    the raw pre-clamp endpoint."""

    K: int
    parts: Dict[str, float]

    @property
    def half_width(self) -> Fraction:
        return self.width / 2


def _enclosure(alpha, N: int, K: Optional[int], sym: bool) -> Enclosure:
    """The one assembly behind enclosure_S (sym) and enclosure_L.

    Both take the main sum below q_{K-1}, the window sum over
    [q_{K-1}, q_K) and the quotient budget.  The window term is bracketed by
    the intersection of the one-sided bracket [0, 2 * window] and the
    refined two-sided bracket around the window sum; both are guaranteed, so
    their intersection is too.  L differs only in data: the exact block
    (1/N) sum (T_n^2 + T_n/2), the factor (2N-1)/(2N) on the main and window
    sums, no 0.07 pad on the refined bracket, and the budget weight
    a/(8 q_k) with constant 2.78 in place of a/(2 q_k) and 6.28.
    """
    if K is None:
        K = alpha.index_for(N)
    q_lo, q_hi = alpha.q(K - 1), alpha.q(K)
    if not (q_lo <= N <= q_hi):
        raise ValueError(f"need q_(K-1) <= N <= q_K, got K={K}, N={N}")
    main = dioph_sum2(alpha, 1, q_lo - 1) * INV_4PI4
    window = dioph_sum2(alpha, q_lo, q_hi - 1)
    tq = window * INV_4PI4
    pad = (ZETA3_16PI4 * Fraction((alpha.a(K) + 2) ** 3 * q_lo, N)).hi
    if sym:
        pad += Fraction(7, 100)
        weight, const = 2, Fraction(628, 100)
    else:
        factor = Fraction(2 * N - 1, 2 * N)
        main = main * factor
        tq = tq * factor
        weight, const = 8, Fraction(278, 100)
    xi = Interval(Fraction(0), (window * INV_2PI4).hi).intersect(
        Interval(tq.lo - pad, tq.hi + pad))
    zsum = sum((alpha.a(k + 1) + 2) ** 3 * alpha.q(k) for k in range(K - 1))
    budget = sum(Fraction(a, weight * qk) for a, qk in _quotient_denoms(alpha, K))
    budget += (ZETA3_16PI4 * Fraction(zsum, N)).hi + const
    raw_lo = main.lo + xi.lo - budget
    hi = main.hi + xi.hi + budget
    parts = {}
    if not sym:
        block, _, _, block_err = birkhoff_quad_block(alpha, N)
        raw_lo += block - 2 * block_err
        hi += block + 2 * block_err
        parts["t_block"] = float(block)
    return Enclosure(max(raw_lo, Fraction(0)), hi, K, {
        "main_sum": float(main.mid), **parts,
        "xi_lo": float(xi.lo),
        "xi_hi": float(xi.hi),
        "err_budget": float(budget),
        "raw_lo": float(raw_lo),
    })


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

def quotient_gap_check(alpha, K: int) -> Tuple[Interval, Fraction]:
    """Gap sum_{m<q_K} 1/(m^2||m a||^2) - (pi^4/90) sum a_k^2, and the
    certified bound 152 sum a_k it must stay within."""
    st = alpha.stats(K)
    s2 = dioph_sum2(alpha, 1, alpha.q(K) - 1)
    gap = s2 - (PI4 * Fraction(st.sum_a2, 90))
    return gap, Fraction(152 * st.sum_a)


def ratio_check(alpha, K: int) -> Tuple[float, float]:
    """Exact D2^2 at N = q_K against the quotient sums it is comparable to:
    (D2^2(S)/sum a_k^2, D2^2(L)/(sum a_k^2 + (alt sum)^2))."""
    qK = alpha.q(K)
    st = alpha.stats(K)
    ds = float(d2_exact_fast(build_S(alpha, qK)).d2_squared)
    dl = float(d2_exact_fast(build_L(alpha, qK)).d2_squared)
    return ds / st.sum_a2, dl / (st.sum_a2 + st.alt_sum ** 2)


def variance_check(alpha, N: int, growth: Optional[Tuple[float, float]] = None):
    """(1/N) sum (T_n - E_N)^2 against sum_{m<q_K} 1/(8 pi^4 m^2 ||m a||^2).

    Returns (lhs, rhs, residual) as floats; no assertion is made since the
    comparison carries an unknown O(.) constant.  If growth = (c, d) is
    supplied, the prefix condition a_k <= c*k^d is verified first.
    """
    K = alpha.index_for(N)
    if growth is not None:
        c, d = growth
        for k in range(1, K + 1):
            if alpha.a(k) > c * k ** d:
                raise ValueError(f"quotient growth bound violated at k={k}")
    _, _, var, _ = birkhoff_quad_block(alpha, N)
    rhs = dioph_sum2(alpha, 1, alpha.q(K) - 1) * INV_8PI4
    lhs = float(var)
    r = float(rhs.mid)
    return lhs, r, lhs - r


def mean_check(alpha, K: int) -> Tuple[Fraction, Fraction, float]:
    """E_{q_K} against its alternating-quotient main term; returns
    (E, main, residual).

    With T_n = sum (1/2 - {l alpha}), the bounded-residual statement is
    E_{q_K} = (1/12) sum_k (-1)^(k+1) a_k + O(1): e.g. alpha = 1/q gives
    E_q = (q+1)(q+2)/(12q), matching +a_1/12 and not -a_1/12.
    """
    E, _ = birkhoff_mean(alpha, alpha.q(K))
    main = -Fraction(alpha.stats(K).alt_sum, 12)
    return E, main, float(E - main)
