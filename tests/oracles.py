"""Independent oracles used by the test suite.

Everything here is deliberately written against different machinery than the
library paths it checks: symbolic cell integration, an x-sorted merge
sweep and a sort-free pairwise sum in numpy for the discrepancy,
term-by-term big-integer Diophantine sums, exact factorial/sine series for
e and tan 1, integer square roots for surds, adaptive quadrature for the
Levy law, a point-by-point loop for its Kolmogorov distance, and reduced
Fraction arithmetic for the assembly of the D2^2 enclosures.  It also
holds the running sums T_n as exact Fraction tuples (birkhoff_sums,
starred_sums), and the quotient statistics and paper-lemma checks that
only the tests read, which call the library directly: the other expansion
of a rational, the optimality trajectories, the Farey tail count and the
trimmed quotient mean, the window term xi in double precision, and the
ratio, variance and mean checks of D2^2 and T_n against the quotient sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Tuple

import numpy as np

from latdisc.cf import (
    ContinuedFraction,
    Finite,
    PrecisionExhausted,
    cf_of_rational,
    cf_stats,
)
from latdisc.discrepancy import d2_exact_fast
from latdisc.fixedpoint import birkhoff_quad_block as block_of
from latdisc.intervals import (
    INV_2PI4,
    INV_4PI4,
    INV_8PI4,
    ZETA3_16PI4,
    Interval,
)
from latdisc.lattice import build_L, build_S, walk_data
from latdisc.metric import farey_enumerate, sample_irrational
from latdisc.parseval import dioph_sum2


def residues(step: int, mod: int, start: int, stop: int):
    """n*step mod mod for start <= n < stop, in order, by the exact
    big-integer walk that adds step and subtracts mod on overflow."""
    step %= mod
    v = (start * step) % mod
    out = []
    for _ in range(start, stop):
        out.append(v)
        v += step
        if v >= mod:
            v -= mod
    return out


def norms(step: int, mod: int, start: int, stop: int):
    """mod ||n step/mod|| = min(v, mod - v) along the walk of residues."""
    return [v if 2 * v <= mod else mod - v
            for v in residues(step, mod, start, stop)]


def least_denominator(lo: Fraction, hi: Fraction, cap: int) -> int:
    """The least n >= 1 with some p/n in [lo, hi], or a number >= cap once
    that n is known to be >= cap.

    Walks the continued fraction of the simplest fraction in the interval:
    with x = (P y + P1)/(Q y + Q1) for the tail y in [lo, hi], an integer in
    [lo, hi] ends the walk (the least one gives the least Q y + Q1); else
    y = t + 1/y' with t = floor(lo), and y' lies in [1/(hi - t), 1/(lo - t)].
    """
    Q, Q1 = 0, 1
    while True:
        t = lo.numerator // lo.denominator
        if t == lo or t + 1 <= hi:
            return Q * (t if t == lo else t + 1) + Q1
        Q, Q1 = Q * t + Q1, Q
        if Q >= cap:  # every later term is >= 1, so the end is >= Q
            return Q
        lo, hi = 1 / (hi - t), 1 / (lo - t)


def trust_check(x, N: int):
    """lattice.walk_data's trust check for a FixedPointReal, by the interval
    walk of least_denominator: the same outcome and the same message."""
    step, mod, err_ulp = x.mantissa, 1 << x.bits, x.err_ulp
    if N > 1 and err_ulp:
        if (N - 1) * err_ulp >= (1 << (x.bits // 2)):
            raise PrecisionExhausted(
                "error budget overflow walking {n alpha}, n < N")
        n = least_denominator(Fraction(step - err_ulp, mod),
                              Fraction(step + err_ulp, mod), N)
        if n < N:
            raise PrecisionExhausted(
                f"{{n alpha}} within its error of an integer at n = {n}")
    return step, mod, err_ulp


@dataclass(frozen=True)
class BirkhoffSums:
    """T_0..T_{N-1} and their average E_N, exact in the representation.

    For fixed-point alpha the entries are the exact values computed from the
    stored mantissa; err_bound limits how far each can sit from the true T_n.
    """

    N: int
    T: tuple
    E: Fraction
    err_bound: Fraction

    def __post_init__(self):
        assert self.E * self.N == sum(self.T)


def birkhoff_sums(value, N: int) -> BirkhoffSums:
    """Running sums T_n = sum_{l=0}^{n} (1/2 - {l alpha}) for n < N, and
    their average, from u_n = D T_n, D = 2 mod: each step of the walk of
    residues adds mod - 2 v_l.  O(N), exact for rational alpha; err_bound
    is N^2 err_ulp/mod, sound once walk_data's trust check passes."""
    if N < 1:
        raise ValueError("N must be >= 1")
    step, mod, err_ulp = walk_data(value, N)
    u, s = [], 0
    for v in residues(step, mod, 0, N):
        s += mod - 2 * v
        u.append(s)
    D = mod << 1
    return BirkhoffSums(N, tuple(Fraction(x, D) for x in u),
                        Fraction(sum(u), D * N), Fraction(err_ulp * N * N, mod))


def starred_sums(p: int, q: int) -> BirkhoffSums:
    """Exact rational sums T*_n = sum_{l=0}^{n} (1/2 - 1/(2q) - {l p/q})
    = T_n - (n+1)/(2q) for n < q, with average E*_q = E_q - (q+1)/(4q).
    Requires gcd(p, q) = 1."""
    if q < 1 or gcd(p, q) != 1:
        raise ValueError("need q >= 1 and gcd(p, q) = 1")
    b = birkhoff_sums(Fraction(p, q), q)
    T = tuple(t - Fraction(n, 2 * q) for n, t in enumerate(b.T, 1))
    return BirkhoffSums(q, T, b.E - Fraction(q + 1, 4 * q), Fraction(0))


def birkhoff_quad_block(value, N: int):
    """(block, E, var, err): the block and err of
    fixedpoint.birkhoff_quad_block, with the mean E = (1/N) sum T_n and
    var = (1/N) sum (T_n - E)^2, from the running sums u_n = D T_n,
    D = 2 mod, of the walk: each step adds mod - 2 v_l, and err bounds the
    drift from the exact max |u_n|."""
    step, mod, err_ulp = walk_data(value, N)
    u, s = [], 0
    for v in residues(step, mod, 0, N):
        s += mod - 2 * v
        u.append(s)
    D, err = 2 * mod, Fraction(err_ulp * N * N, mod)
    su, su2 = sum(u), sum(x * x for x in u)
    block = Fraction(2 * su2 + D * su, 2 * D * D * N)
    E = Fraction(su, D * N)
    var = Fraction(su2, D * D * N) - E * E
    if err:
        tmax = Fraction(max(abs(min(u)), abs(max(u))), D)
        err = (2 * tmax + err + Fraction(1, 2)) * err
    return block, E, var, err


def dioph_sum2_float(alpha, marks):
    """The float partial sums of parseval.dioph_sum2_float by a sequential
    loop over the walk: x = d/mod correctly rounded (int by int), and a zero
    term skipped for exact alpha, else ZeroDivisionError."""
    marks = sorted(marks)
    step, mod, err0 = walk_data(alpha)
    coeff = float(INV_4PI4.mid)
    out, mi, total = [], 0, 0.0
    for m, d in enumerate(norms(step, mod, 1, max(marks, default=0) + 1), 1):
        if d:
            x = d / mod
            total += coeff / (m * m * x * x)
        elif err0:
            raise ZeroDivisionError(f"||m alpha|| = 0 at m = {m}")
        while mi < len(marks) and marks[mi] == m:
            out.append(total)
            mi += 1
    return out


def cell_integration_d2sq(points) -> Fraction:
    """Exact D2^2 by integrating (B(x,y) - n*x*y)^2 cell by cell over the
    grid cut by the point coordinates.  O(n^3); keep n small."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    xs = sorted({Fraction(0), Fraction(1)} | {p[0] for p in pts})
    ys = sorted({Fraction(0), Fraction(1)} | {p[1] for p in pts})
    total = Fraction(0)
    for x1, x2 in zip(xs, xs[1:]):
        for y1, y2 in zip(ys, ys[1:]):
            b = sum(1 for (px, py) in pts if px <= x1 and py <= y1)
            total += (b * b * (x2 - x1) * (y2 - y1)
                      - Fraction(b * n, 2) * (x2 * x2 - x1 * x1) * (y2 * y2 - y1 * y1)
                      + Fraction(n * n, 9) * (x2 ** 3 - x1 ** 3) * (y2 ** 3 - y1 ** 3))
    return total


# Blocks of at most MERGE_BLOCK entries are summed pairwise, so a set that
# small needs no merge level.
MERGE_BLOCK = 120


def _dominance(w: np.ndarray) -> np.ndarray:
    """W_j = sum_{i<j} min(w_i, w_j) for every j of a 1-d int64 or object
    array, in O(n log n).

    The array is cut into blocks of bs <= MERGE_BLOCK entries, padded at the
    end with zeros (which follow every real entry, so change none of them)
    to bs * 2^k.  Each block is summed pairwise.  Bottom-up merge levels then
    join neighbouring sorted runs L and R with one row sort (stable, so
    timsort merges the two runs in linear time; ties may fall either way):
    an entry w_j of R gains the w_i of L that sort before it plus w_j for
    each one after it.
    """
    n = len(w)
    k = ((n - 1) // MERGE_BLOCK).bit_length()
    bs = -(-n // (1 << k))
    w = np.concatenate([w, np.zeros((bs << k) - n, w.dtype)])
    blocks = w.reshape(-1, bs)
    upper = np.tri(bs, k=-1, dtype=w.dtype).T  # [i, j] = 1 where i < j
    acc = np.empty_like(blocks)
    step = max(1, MERGE_BLOCK * MERGE_BLOCK // (bs * bs))
    for lo in range(0, len(blocks), step):
        b = blocks[lo:lo + step]
        acc[lo:lo + step] = np.einsum(
            "bij,ij->bj", np.minimum(b[:, :, None], b[:, None, :]), upper)
    if k == 0:
        return acc[0, :n]
    acc = acc.ravel()
    ids = np.arange(w.size, dtype=np.int32)
    h, width = 0, bs  # the first pass only sorts the base blocks
    while width <= w.size:
        o = np.argsort(w.reshape(-1, width), axis=1, kind="stable")
        right = o >= h
        moved = o - np.arange(width)  # for R: how many entries of L follow
        o += np.arange(0, w.size, width)[:, None]
        o = o.ravel()
        w, acc, ids = w[o], acc[o], ids[o]
        if h:
            rows = w.reshape(-1, width)
            gain = np.where(right, 0, rows)
            np.cumsum(gain, axis=1, out=gain)  # sum of L's entries so far
            gain += moved * rows
            gain *= right
            acc += gain.ravel()
        h, width = width, 2 * width
    out = np.empty_like(acc)
    out[ids] = acc
    return out[:n]


def merge_sweep_d2sq(points) -> Fraction:
    """Exact D2^2 of a point list by a sweep in x order: with x_j = X_j/A,
    y_j = Y_j/B over common denominators, the Warnock pair sum is
    sum_j (A - X_j)(2 W_j + w_j), w_j = B - Y_j and W_j = sum_{i<j}
    min(w_i, w_j) in x order (Heinrich, Math. Comp. 65, 1996), with W from
    the merge kernel above.  O(n log n)."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    A = lcm(*(x.denominator for x, _ in pts))
    B = lcm(*(y.denominator for _, y in pts))
    X = [x.numerator * (A // x.denominator) for x, _ in pts]
    Y = [y.numerator * (B // y.denominator) for _, y in pts]
    order = sorted(range(n), key=X.__getitem__)
    w = np.array([B - Y[j] for j in order],
                 np.int64 if n * B < 1 << 61 else object)
    c = (2 * _dominance(w) + w).tolist()
    pair = sum((A - X[j]) * int(cj) for j, cj in zip(order, c))
    diag = sum((A * A - x * x) * (B * B - y * y) for x, y in zip(X, Y))
    return (Fraction(pair, A * B) - Fraction(n * diag, 2 * A * A * B * B)
            + Fraction(n * n, 9))


def _words(v, size: int) -> list:
    """Rows of the size-bit words of the integers v >= 0, least significant
    first, as many words as the largest needs."""
    count = max(1, -(-max(v).bit_length() // size))
    return [[x >> (size * i) & ((1 << size) - 1) for i in range(count)]
            for x in v]


def _less(W, rows):
    """lt[i, j] = [value rows[i] < value j] of uint64 word rows W (most
    significant first): the first word decides all pairs but the few whose
    first words tie, which the later words decide one by one."""
    a = W[rows]
    lt = a[:, None, 0] < W[None, :, 0]
    if W.shape[1] == 1:
        return lt
    ii, jj = np.divmod(np.flatnonzero(a[:, None, 0] == W[None, :, 0]),
                       len(W))
    for w in range(1, W.shape[1]):
        x, y = a[ii, w], W[jj, w]
        lt[ii, jj] = x < y
        ii, jj = ii[x == y], jj[x == y]
    return lt


def pairwise_d2sq(points) -> Fraction:
    """Exact D2^2 of a point list by the pairwise Warnock sum, O(n^2) in
    numpy, with no sort and no merge.  Over common denominators x = X/A,
    y = Y/B, with u = A - X, v = B - Y and gx[i, j] = [X_i >= X_j] (so
    A - max(X_i, X_j) is u_i where gx holds, u_j where not), each block of
    rows i sums

        (A - max X)(B - max Y) = u_i v_i [gx gy] + u_i v_j [gx, not gy]
                                 + u_j v_i [not gx, gy] + u_j v_j [neither]

    over j as masked float64 matrix products with 32-bit words of v, u and
    u v: every partial sum is an integer below n 2^32 <= 2^53."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    if not 0 < n <= 1 << 21:
        raise ValueError("need 1 <= n <= 2^21 points")
    A = lcm(*(x.denominator for x, _ in pts))
    B = lcm(*(y.denominator for _, y in pts))
    X = [x.numerator * (A // x.denominator) for x, _ in pts]
    Y = [y.numerator * (B // y.denominator) for _, y in pts]
    u = np.array([A - x for x in X], object)
    v = np.array([B - y for y in Y], object)
    WX, WY = (np.array(_words(Z, 64), np.uint64)[:, ::-1] for Z in (X, Y))
    # 32-bit words of v, u and u v, and their place values
    parts = [(np.array(words, np.float64), np.array(
        [1 << (32 * i) for i in range(len(words[0]))], object))
        for words in (_words(z, 32) for z in (v, u, u * v))]

    def dot(mask, part):  # sum_j mask[i, j] z_j, per row i, as Python ints
        words, scale = part
        return (mask.astype(np.float64) @ words).astype(np.int64).astype(
            object) @ scale

    pair = 0
    for lo in range(0, n, 128):
        r = np.arange(lo, min(lo + 128, n))
        gx, gy = ~_less(WX, r), ~_less(WY, r)
        pair += (u[r] * v[r] @ np.count_nonzero(gx & gy, axis=1).astype(object)
                 + u[r] @ dot(gx & ~gy, parts[0])
                 + v[r] @ dot(~gx & gy, parts[1])
                 + dot(~(gx | gy), parts[2]).sum())
    diag = sum((A * A - x * x) * (B * B - y * y) for x, y in zip(X, Y))
    return (Fraction(pair, A * B) - Fraction(n * diag, 2 * A * A * B * B)
            + Fraction(n * n, 9))


def scaled_dioph_sum(alpha, m_start: int, m_end: int, power: int):
    """Certified sum of 1/(m^2 ||m alpha||^power) over [m_start, m_end],
    term by term in big integers: with d = mod ||m step/mod|| from the exact
    residue walk and e = m err_ulp, each term is rounded outward at 2^-64
    from d + e and d - e.  A d <= e raises as parseval does."""
    step, mod, err0 = walk_data(alpha)
    num = (mod ** power) << 64
    lo = hi = 0
    walk = norms(step, mod, m_start, m_end + 1)
    for m, d in enumerate(walk, m_start):
        e = m * err0
        if d <= e:
            if err0 == 0:
                raise ZeroDivisionError(f"||m alpha|| = 0 at m = {m}")
            raise PrecisionExhausted(f"||m alpha|| uncertain at m = {m}")
        lo += num // (m * m * (d + e) ** power)
        hi += -(-num // (m * m * (d - e) ** power))
    return Interval(Fraction(lo, 1 << 64), Fraction(hi, 1 << 64))


def tail_min_sum(alpha, m_start: int, m_end: int, n: int):
    """Floor and ceil sums at 2^-64 of min(1/(4||m alpha||^2), n^2)/m^2
    over [m_start, m_end], term by term in big integers, ||m alpha|| lying
    in [d - e, d + e]/mod as in scaled_dioph_sum; a term whose lower end
    of ||m alpha|| is <= 0 takes the cap n^2."""
    step, mod, err0 = walk_data(alpha)
    n2s = (n * n) << 64
    num = (mod * mod) << 62  # 2^64 mod^2/4
    lo = hi = 0
    walk = norms(step, mod, m_start, m_end + 1)
    for m, d in enumerate(walk, m_start):
        e, m2 = m * err0, m * m
        lo += n2s // m2 if d + e == 0 else min(n2s // m2,
                                               num // (m2 * (d + e) ** 2))
        cap = -(-n2s // m2)
        hi += cap if d <= e else min(cap, -(-num // (m2 * (d - e) ** 2)))
    return Interval(Fraction(lo, 1 << 64), Fraction(hi, 1 << 64))


def min_weighted_sum(alpha, m_start: int, m_end: int, N: int):
    """Floor and ceil sums at 2^-64 of min(1/(4N||2m alpha||), 1) /
    (m^2 ||m alpha||^2) over [m_start, m_end], term by term in big
    integers: mod ||2m alpha|| lies within 2e of d2 = min(2d, mod - 2d).
    A d <= e raises PrecisionExhausted, as parseval does."""
    step, mod, err0 = walk_data(alpha)
    num2 = (mod * mod) << 64
    num3 = (mod * mod * mod) << 64
    lo = hi = 0
    walk = norms(step, mod, m_start, m_end + 1)
    for m, d in enumerate(walk, m_start):
        e, m2 = m * err0, m * m
        if d <= e:
            raise PrecisionExhausted(f"||m alpha|| uncertain at m = {m}")
        d2 = min(2 * d, mod - 2 * d)
        y_hi, y_lo = d2 + 2 * e, d2 - 2 * e  # around mod ||2m alpha||
        f = num2 // (m2 * (d + e) ** 2)
        lo += f if y_hi == 0 else min(
            f, num3 // (m2 * (d + e) ** 2 * 4 * N * y_hi))
        c = -(-num2 // (m2 * (d - e) ** 2))
        hi += c if y_lo <= 0 else min(
            c, -(-num3 // (m2 * (d - e) ** 2 * 4 * N * y_lo)))
    return Interval(Fraction(lo, 1 << 64), Fraction(hi, 1 << 64))


def enclosure_fraction(alpha, N: int, K, sym: bool):
    """(lo, hi, K, parts) of parseval's enclosure assembly in Fraction and
    Interval arithmetic, each operation reduced: the main and window sums
    scaled by the constant brackets, the window term as the intersection
    of [0, 2 * window] and the padded bracket around it, the quotient
    budget, and for L (not sym) the exact block and the factor 1 - 1/(2N)."""
    if K is None:
        K = alpha.index_for(N)
    q_lo, q_hi = alpha.q(K - 1), alpha.q(K)
    main = dioph_sum2(alpha, 1, q_lo - 1) * INV_4PI4
    window = dioph_sum2(alpha, q_lo, q_hi - 1)
    tq = window * INV_4PI4
    pairs = [(alpha.cf.quotient(k + 1), alpha.q(k)) for k in range(K)]
    cubes = [(a + 2) ** 3 * qk for a, qk in pairs]
    pad = ZETA3_16PI4.hi * Fraction(cubes[-1], N)
    if sym:
        pad += Fraction(7, 100)
        weight, const = 2, Fraction(628, 100)
    else:
        factor = Fraction(2 * N - 1, 2 * N)
        main = main * factor
        tq = tq * factor
        weight, const = 8, Fraction(278, 100)
    xi = Interval(max(Fraction(0), tq.lo - pad),
                  min(window.hi * INV_2PI4.hi, tq.hi + pad))
    budget = sum(Fraction(a, weight * qk) for a, qk in pairs)
    budget += ZETA3_16PI4.hi * Fraction(sum(cubes[:-1]), N) + const
    raw_lo = main.lo + xi.lo - budget
    hi = main.hi + xi.hi + budget
    parts = {}
    if not sym:
        block, block_err = block_of(alpha, N)
        raw_lo += block - 2 * block_err
        hi += block + 2 * block_err
        parts["t_block"] = float(block)
    return max(raw_lo, Fraction(0)), hi, K, {
        "main_sum": float(main.mid), **parts,
        "xi_lo": float(xi.lo),
        "xi_hi": float(xi.hi),
        "err_budget": float(budget),
        "raw_lo": float(raw_lo),
    }


def e_fraction(terms: int = 220) -> Fraction:
    """Rational approximation of e by the exact factorial series; with 220
    terms the error is below 10^-400."""
    den = 1
    for k in range(1, terms + 1):
        den *= k
    num = 0
    f = den  # runs through terms!/k!
    for k in range(0, terms + 1):
        num += f
        if k < terms:
            f //= (k + 1)
    return Fraction(num, den)


def sin1_cos1_fractions(terms: int = 130):
    """Exact truncated series for sin 1 and cos 1 over (2*terms+1)!."""
    n = 2 * terms + 1
    den = 1
    for k in range(1, n + 1):
        den *= k
    sin_num = 0
    cos_num = 0
    f = den  # n!/0!
    sign = 1
    for j in range(0, n + 1):
        # f == n!/j!
        if j % 2 == 0:
            cos_num += sign * f
        else:
            sin_num += sign * f
            sign = -sign
        if j < n:
            f //= (j + 1)
    return Fraction(sin_num, den), Fraction(cos_num, den)


def tan1_fraction(terms: int = 130) -> Fraction:
    s, c = sin1_cos1_fractions(terms)
    return s / c


def quotients_of_fraction(x: Fraction, count: int):
    """First partial quotients of a positive rational by plain Euclid."""
    a0 = x.numerator // x.denominator
    out = []
    num, den = x.denominator, x.numerator - a0 * x.denominator
    while den and len(out) < count:
        t, r = divmod(num, den)
        out.append(t)
        num, den = den, r
    return a0, out


def convergents(cf: ContinuedFraction):
    """(p_k, q_k) for k = 0, 1, ..., to the end of a finite expansion: the
    two-row recurrence on numerators and denominators together, where the
    library carries the denominators alone."""
    body = cf.body
    terms = body.terms if isinstance(body, Finite) else map(cf.quotient,
                                                            count(1))
    p1, q1, p, q = 1, 0, cf.a0, 1
    yield p, q
    for a in terms:
        p1, q1, p, q = p, q, a * p + p1, a * q + q1
        yield p, q


def cf_of_bits(mantissa: int, bits: int) -> tuple:
    """The certified quotient prefix of mantissa/2^bits, read eagerly: Euclid
    on (2^bits, mantissa) until the next convergent denominator q would have
    q^2 > 2^(bits-64)."""
    limit = 1 << (bits - 64)
    terms = []
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
    return tuple(terms)


def gauss_mantissa(u: int, bits: int) -> int:
    """floor(2^bits (2^(u/2^bits) - 1)) by mpmath at bits + 64 bits: the
    inverse CDF of the Gauss measure at u/2^bits."""
    import mpmath
    with mpmath.workprec(bits + 64):
        a = mpmath.mpf(2) ** (mpmath.mpf(u) / (1 << bits)) - 1
        return int(mpmath.floor(a * (1 << bits)))


def sqrt_mantissa(D: int, bits: int) -> int:
    """floor(frac(sqrt(D)) * 2^bits), exactly."""
    s = isqrt(D << (2 * bits))
    return s - (isqrt(D) << bits)


def levy_cdf_quadrature(t: float) -> float:
    """CDF of the standard Levy law by adaptive quadrature of the density."""
    from scipy.integrate import quad
    if t <= 0:
        return 0.0
    val, _ = quad(
        lambda x: math.exp(-1.0 / (2.0 * x)) / (math.sqrt(2 * math.pi) * x ** 1.5),
        0.0, t, limit=200)
    return val


def kolmogorov_distance(samples) -> float:
    """sup_t |F_n(t) - F(t)| against latdisc's Levy CDF, one sorted sample
    point at a time: both one-sided gaps, in plain Python floats."""
    from latdisc.metric import levy_cdf
    xs = sorted(float(v) for v in samples)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs, start=1):
        fx = levy_cdf(x)
        d = max(d, abs(i / n - fx), abs((i - 1) / n - fx))
    return d


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


def optimality_stats(cf: ContinuedFraction, K: int):
    """The two trajectories that decide optimal L2 discrepancy:
    (sum of a_k^2)/K and |alternating sum of a_k| / sqrt(K)."""
    st = cf_stats(cf, K)
    return st.sum_a2 / K, abs(st.alt_sum) / K ** 0.5


def quotient_tail_count(Q: int, k: int, t: int) -> Tuple[int, Fraction]:
    """Exact count of p/q in F_Q with a_k >= t, and the bound 2Q^2/t it is
    guaranteed not to exceed.  Full enumeration; keep Q <= 3000."""
    if Q > 3000:
        raise ValueError("enumeration guard: Q <= 3000")
    if k < 1 or t < 1:
        raise ValueError("need k >= 1 and t >= 1")
    count = 0
    for p, q in farey_enumerate(Q):
        # [0;a_1,...,a_r]; the endpoint 1/1 is [0;1], and 0/1 is empty
        terms = (1,) if p == q else cf_of_rational(p, q).body.terms
        if len(terms) >= k and terms[k - 1] >= t:
            count += 1
    return count, Fraction(2 * Q * Q, t)


def trimmed_quotient_mean(measure: str, K: int, M: int, seed: int) -> float:
    """Monte Carlo mean of (sum_{k<=K} a_k - max_k a_k) / (K log K); the
    trimmed-sum law puts the limit at 1/log 2 = 1.4427."""
    if K < 2 or M < 1:
        raise ValueError("need K >= 2 and M >= 1")
    # ~3.4 bits of mantissa per quotient, plus the 64-bit safety margin
    bits = max(256, 4 * K + 128)
    total = 0.0
    for i in range(M):
        while True:
            alpha = sample_irrational(measure, bits, seed, i)
            try:
                st = cf_stats(alpha.cf, K)
                break
            except PrecisionExhausted:
                bits *= 2
        total += (st.sum_a - st.max_a) / (K * math.log(K))
    return total / M


# the most N * (window length) terms xi_direct evaluates
_XI_TERM_GUARD = 10 ** 9


def xi_direct(alpha, N: int, K: int, sym: bool) -> float:
    """Direct evaluation of the window term

        xi = (1/N) sum_{n<N} sum_{m=q_{K-1}}^{q_K-1}
             sin^2(c_n m pi alpha) / (2 pi^4 m^2 ||m alpha||^2)

    with c_n = 2n+1 for the symmetrized lattice (sym) and n+1 otherwise.
    Double precision, intended for small instances (guarded by term count).
    """
    if K < 1 or N < 1:
        raise ValueError("need K >= 1 and N >= 1")
    m_lo, m_hi = alpha.q(K - 1), alpha.q(K) - 1
    if N * (m_hi - m_lo + 1) > _XI_TERM_GUARD:
        raise ValueError("instance too large for direct window evaluation")
    if m_hi >= 1 << 32:  # the domain of parseval's window sums
        raise ValueError("the window needs 0 <= m < 2^32")
    ns = 2.0 * np.arange(N) + 1.0 if sym else np.arange(N) + 1.0
    total = 0.0
    step, mod = walk_data(alpha)[:2]
    for m, d in enumerate(norms(step, mod, m_lo, m_hi + 1), m_lo):
        x = d / mod  # ||m alpha||, correctly rounded
        # sin^2(pi c x) = sin^2(pi c (1 - x)) for integer c, so the
        # phase may start from ||m alpha|| in place of {m alpha}
        ssum = float(np.sum(np.sin(np.pi * np.mod(x * ns, 1.0)) ** 2))
        total += ssum / (2 * np.pi ** 4 * m * m * x * x)
    return total / N


def ratio_check(alpha, K: int) -> Tuple[float, float]:
    """Exact D2^2 at N = q_K against the quotient sums it is comparable to:
    (D2^2(S)/sum a_k^2, D2^2(L)/(sum a_k^2 + (alt sum)^2))."""
    qK = alpha.q(K)
    st = cf_stats(alpha.cf, K)
    ds = float(d2_exact_fast(build_S(alpha, qK)).d2_squared)
    dl = float(d2_exact_fast(build_L(alpha, qK)).d2_squared)
    return ds / st.sum_a2, dl / (st.sum_a2 + st.alt_sum ** 2)


def variance_check(alpha, N: int):
    """(1/N) sum (T_n - E_N)^2 against sum_{m<q_K} 1/(8 pi^4 m^2 ||m a||^2).

    Returns (lhs, rhs, residual) as floats; no assertion is made since the
    comparison carries an unknown O(.) constant.
    """
    K = alpha.index_for(N)
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
    _, E, _, _ = birkhoff_quad_block(alpha, alpha.q(K))
    main = -Fraction(cf_stats(alpha.cf, K).alt_sum, 12)
    return E, main, float(E - main)
