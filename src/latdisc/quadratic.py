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
from .cf import ContinuedFraction, Finite, Periodic, denominators
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
    absolute index, so rotating the period leaves the value as it is)."""
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
    [[p_{r-1}, p_r], [q_{r-1}, q_r]] of the convergents of [0; period].
    p_k of [0; a_1, ..., a_k] is q_(k-1) of [0; a_2, ..., a_k]."""
    period = _require_periodic(cf).period
    r = len(period)
    p = denominators(ContinuedFraction(0, Finite(period[1:])), r - 1)
    q = denominators(ContinuedFraction(0, Finite(period)), r)
    return p[-2], p[-1], q[-2], q[-1]


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
    partials = dioph_sum2_float(alpha, grid)
    return _slope_with_stderr([math.log(M) for M in grid], partials)


@dataclass(frozen=True)
class ResidualRow:
    K: int
    N: int
    d2sq: float
    residual: Optional[float]


@dataclass(frozen=True)
class ResidualTable:
    rows: Tuple[ResidualRow, ...]
    fit: Optional[dict]


def asymptotic_residuals(alpha: Alpha, K_range: Iterable[int], sym: bool,
                         c_alpha: Optional[float] = None) -> ResidualTable:
    """Exact D2^2 at N = q_K over a K range (every K >= 1), reduced against
    the expected law.

    sym (S): rows carry the residual d2sq - c_alpha * log N (requires
    c_alpha, e.g. from beck_constant_estimate or a known closed form).
    not sym (L): rows carry no residual; instead the table's fit holds the
    least-squares coefficients of d2sq = beta log^2 N + gamma log N + delta.
    """
    if sym and c_alpha is None:
        raise ValueError("S needs c_alpha")
    Ks = sorted(set(K_range))
    if not Ks:
        raise ValueError("empty K range")
    if Ks[0] < 1:
        raise ValueError("K must be >= 1")
    if not sym and len(Ks) < 3:
        raise ValueError("the L fit has 3 coefficients: need >= 3 K values")
    build = build_S if sym else build_L
    rows: List[ResidualRow] = []
    for K in Ks:
        N = alpha.q(K)
        d2sq = float(d2_exact_fast(build(alpha, N)).d2_squared)
        resid = d2sq - c_alpha * math.log(N) if sym else None
        rows.append(ResidualRow(K, N, d2sq, resid))
    fit = None
    if not sym:
        logs = np.array([math.log(r.N) for r in rows])
        vals = np.array([r.d2sq for r in rows])
        beta, gamma, delta = np.polyfit(logs, vals, 2)
        fit = {"beta": float(beta), "gamma": float(gamma), "delta": float(delta)}
    return ResidualTable(tuple(rows), fit)
