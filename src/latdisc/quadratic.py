"""Asymptotic constants and residual studies for quadratic irrationals.

For an eventually periodic expansion the alternating quotient sum grows like
A * K and log q_K like Lambda * K; both constants are exact functions of the
period.  The slope c(alpha) of the weighted Diophantine sum against log M is
estimated numerically by regression, since no simple closed form in the
partial quotients exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .alphas import Alpha
from .cf import ContinuedFraction, Finite, Periodic, iter_convergents
from .discrepancy import d2_exact_fast
from .lattice import build_L, build_S
from .parseval import dioph_sum2_float


def _require_periodic(cf: ContinuedFraction) -> Periodic:
    if not isinstance(cf.body, Periodic):
        raise ValueError("operation requires an eventually periodic expansion")
    return cf.body


def alternation_constant(cf: ContinuedFraction) -> Fraction:
    """Limit slope A of the alternating quotient sum: zero for odd period
    length, otherwise the signed average over one period (signs follow the
    absolute index, so the value is rotation invariant)."""
    body = _require_periodic(cf)
    p = len(body.period)
    if p % 2 == 1:
        return Fraction(0)
    r = len(body.preperiod)
    total = 0
    for k, a in enumerate(body.period, start=1):
        total += a if (r + k) % 2 == 0 else -a
    return Fraction(total, p)


def period_matrix(cf: ContinuedFraction) -> Tuple[int, int, int, int]:
    """Product over one period of [[0,1],[1,a]], row-major: the matrix
    [[p_{r-1}, p_r], [q_{r-1}, q_r]] of the convergents of [0; period]."""
    body = _require_periodic(cf)
    *_, prev, last = iter_convergents(ContinuedFraction(0, Finite(body.period)))
    return prev.p, last.p, prev.q, last.q


def growth_constant(cf: ContinuedFraction) -> Tuple[int, int, float]:
    """(trace, det, Lambda) with Lambda = log(eta)/p, eta the larger
    eigenvalue of the period matrix.  det is (-1)^p exactly."""
    body = _require_periodic(cf)
    p = len(body.period)
    m11, _, _, m22 = period_matrix(cf)
    tr = m11 + m22
    det = -1 if p % 2 == 1 else 1
    disc = tr * tr - 4 * det
    if tr < (1 << 500):
        eta = (tr + math.sqrt(disc)) / 2
        lam = math.log(eta) / p
    else:
        # eta = tr - det/tr + O(tr^-3); the correction is far below 1 ulp
        lam = (math.log2(tr) * math.log(2)) / p
    return tr, det, lam


def _slope_with_stderr(xs: Sequence[float], ys: Sequence[float]):
    n = len(xs)
    if n < 4:
        raise ValueError("regression grid needs at least 4 points")
    xm = sum(xs) / n
    ym = sum(ys) / n
    sxx = sum((x - xm) ** 2 for x in xs)
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    slope = sxy / sxx
    resid2 = sum((y - ym - slope * (x - xm)) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(resid2 / (n - 2) / sxx)
    return slope, stderr


def beck_constant_estimate(alpha, M_grid: Iterable[int]) -> Tuple[float, float]:
    """Regression slope of sum_{m<=M} 1/(4 pi^4 m^2 ||m alpha||^2) against
    log M over a geometric grid.  The intercept is meaningless (the law has
    an O(1) term) and is discarded.  For rational alpha the undefined terms
    are skipped and the sum saturates, so the slope tends to zero."""
    grid = sorted(set(int(M) for M in M_grid))
    if len(grid) < 4:
        raise ValueError("grid too small (need >= 4 points)")
    is_rational = isinstance(alpha, Alpha) and alpha.is_rational
    partials = dioph_sum2_float(alpha, grid[-1], skip_zero=is_rational,
                                record_at=grid)
    return _slope_with_stderr([math.log(M) for M in grid], partials)


@dataclass(frozen=True)
class ResidualRow:
    K: int
    N: int
    d2sq: float
    residual: Optional[float]


@dataclass(frozen=True)
class ResidualTable:
    variant: str
    rows: Tuple[ResidualRow, ...]
    fit: Optional[dict]


def asymptotic_residuals(alpha: Alpha, K_range: Iterable[int], variant: str,
                         c_alpha: Optional[float] = None) -> ResidualTable:
    """Exact D2^2 at N = q_K over a K range, reduced against the expected law.

    variant "S": rows carry the residual d2sq - c_alpha * log N (requires
    c_alpha, e.g. from beck_constant_estimate or a known closed form).
    variant "L": rows carry no residual; instead the table's fit holds the
    least-squares coefficients of d2sq = beta log^2 N + gamma log N + delta.
    """
    if variant not in ("S", "L"):
        raise ValueError("variant must be 'S' or 'L'")
    if variant == "S" and c_alpha is None:
        raise ValueError("variant 'S' needs c_alpha")
    rows: List[ResidualRow] = []
    for K in sorted(set(K_range)):
        N = alpha.q(K)
        builder = build_S if variant == "S" else build_L
        d2sq = float(d2_exact_fast(builder(alpha, N)).d2_squared)
        resid = d2sq - c_alpha * math.log(N) if variant == "S" else None
        rows.append(ResidualRow(K, N, d2sq, resid))
    fit = None
    if variant == "L":
        logs = np.array([math.log(r.N) for r in rows])
        vals = np.array([r.d2sq for r in rows])
        beta, gamma, delta = np.polyfit(logs, vals, 2)
        fit = {"beta": float(beta), "gamma": float(gamma), "delta": float(delta)}
    return ResidualTable(variant, tuple(rows), fit)
