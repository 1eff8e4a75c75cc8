"""Exact L2 discrepancy of 2-dimensional point multisets.

Both algorithms evaluate the Warnock expansion of the defining integral

    D2^2 = sum_{i,j} (1 - max(x_i,x_j)) (1 - max(y_i,y_j))
           - (|P|/2) sum_i (1 - x_i^2)(1 - y_i^2) + |P|^2 / 9

in exact integers over common denominators, combined over one final
denominator, which kills the cancellation between the O(|P|^2) terms: the
pairwise oracle for any point list, and an O(N) closed form for a lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .lattice import LatticePointSet, floors


@dataclass(frozen=True)
class DiscrepancyValue:
    d2_squared: Fraction

    def __post_init__(self):
        if self.d2_squared < 0:
            raise AssertionError("squared discrepancy cannot be negative")


PointsLike = Union[LatticePointSet, Iterable[Tuple[Fraction, Fraction]]]


def _combine(pair_term: int, diag_term2: int, n: int, A: int, B: int) -> Fraction:
    # pair_term is at scale A*B, diag_term2 at scale A^2*B^2
    num = 18 * A * B * pair_term - 9 * n * diag_term2 + 2 * n * n * A * A * B * B
    return Fraction(num, 18 * A * A * B * B)


def d2_exact_quadratic(P: PointsLike) -> DiscrepancyValue:
    """Pairwise O(n^2) evaluation over common denominators, x_i = X_i/A and
    y_i = Y_i/B; the reference for the fast path."""
    pts = [(Fraction(x), Fraction(y)) for x, y in (
        P.points() if isinstance(P, LatticePointSet) else P)]
    if not pts:
        raise ValueError("point set must be nonempty")
    if not all(0 <= x < 1 and 0 <= y < 1 for x, y in pts):
        raise ValueError("coordinates must lie in [0,1)")
    A = lcm(*(x.denominator for x, _ in pts))
    B = lcm(*(y.denominator for _, y in pts))
    X = [x.numerator * (A // x.denominator) for x, _ in pts]
    Y = [y.numerator * (B // y.denominator) for _, y in pts]
    pair = 0
    for i, (xi, yi) in enumerate(zip(X, Y)):
        acc = 0  # the pairs j < i, then the i == j term
        for u, v in zip(X[:i], Y[:i]):
            acc += (A - (xi if xi >= u else u)) * (B - (yi if yi >= v else v))
        pair += 2 * acc + (A - xi) * (B - yi)
    t2 = sum((A * A - x * x) * (B * B - y * y) for x, y in zip(X, Y))
    return DiscrepancyValue(_combine(pair, t2, len(X), A, B))


def _dot(a: np.ndarray, b: np.ndarray, a_bits: int, b_bits: int):
    """Exact sums of a * b over the last axis (broadcast over the others) of
    int64 arrays with |a| < 2^a_bits and |b| < 2^b_bits, as Python ints:
    over limbs of the wider operand, at least half of it wide, narrow
    enough that no int64 sum overflows."""
    if a_bits > b_bits:
        a, b, a_bits, b_bits = b, a, b_bits, a_bits
    width = 63 - a_bits - a.shape[-1].bit_length()
    if b_bits <= width:
        return np.einsum("...j,...j->...", a, b).astype(object)
    width = max(width, (b_bits + 1) // 2)
    return _dot(a, b & ((1 << width) - 1), a_bits, width) + (
        _dot(a, b >> width, a_bits, b_bits - width) << width)


# elements (rows x indices) of one block of the streamed sums
_CHUNK = 1 << 14
# the rows of _lattice_sums' first pass
_SUMS = ("tFk", "tFz", "kFk", "kFz", "zFk", "zFz", "kw", "ku", "ke", "zw",
         "zu", "ze", "kte", "kke", "zte", "zke")


def _lattice_sums(steps: Sequence[int], mod: int, N: int,
                  sym: bool) -> List[dict]:
    """Per step, the sums of floors times integer weights that
    d2_exact_lattices needs, as Python ints, in O(N).  Only the floors and
    four prefix sums are held at full length; the weights are made one block
    of indices at a time, and each block's sums are exact int64 limb dots.

    What reaches a dot or a floor division is below 4 N^2; _dot splits the
    products k t and k k against e = N^2 - t^2 into limbs.  The prefix sums
    of m f_m, V and (1 + k) V_1 reach about N^3 and may wrap, but they only
    enter sums, differences and products, which int64 gets right modulo
    2^64; the F and g they make are < 2 N^2.
    """
    B, M = len(steps), 2 * N - 1 if sym else N
    KZ = floors(steps, mod, M)
    m = np.arange(N)
    # S0[f, :, j], S1[f, :, j]: sums of f_m and m f_m over m < j, f = k, z
    S0, S1 = np.zeros((2, 2, B, N + 1), np.int64)
    np.cumsum(KZ[..., :N], axis=-1, out=S0[..., 1:])
    np.cumsum(KZ[..., :N] * m, axis=-1, out=S1[..., 1:])
    b = N.bit_length() + 2  # bits of n, k_m (m < 2N) and 2 k + z
    width = max(1, _CHUNK // B)
    acc = 0
    for lo in range(0, N, width):
        t = m[lo:lo + width]
        hi = lo + len(t)
        Nt, e = N - t, N * N - t * t
        kz = KZ[..., lo:hi]
        rev = slice(N - lo, N - hi, -1)  # prefix index N - t
        # F_t(f) = H(t) - G(N - t) - f_t T(N - t) for f = k and z, with
        # G(j) = sum_(m<j) (j - m) f_m and H(t) = sum_(t<=m<N) (N - m) f_m
        F = (N * (S0[..., N:] - S0[..., lo:hi]) - S1[..., N:]
             + S1[..., lo:hi] - Nt * S0[..., rev] + S1[..., rev]
             - kz * (Nt * (Nt + 1) // 2))
        W = np.array([Nt * (2 * t + 1), N * (N + 1) // 2 - t * (t + 1) // 2,
                      e])
        tk = np.stack((np.broadcast_to(t, kz[0].shape), kz[0]))
        acc += np.concatenate([x.reshape(-1, B) for x in (
            _dot(t, F, b, 2 * b), _dot(kz[:, None], F, b, 2 * b),
            _dot(kz[:, None], W[:, None], b, 2 * b),
            _dot(kz[:, None] * tk, e, 2 * b, 2 * b))])
    sums = [dict(zip(_SUMS, col)) for col in acc.T]
    if not sym:
        return sums
    # S0[0] and S1[0] become the prefix sums of f = 2 k + z and of m f
    for P in (S0, S1):
        P[0] *= 2
        P[0] += P[1]
    P0, P1 = S0[0], S1[0]
    acc = 0
    for lo in range(0, M, width):
        s = np.arange(lo, min(lo + width, M))
        # V_f(s) = sum_(l<=m<c) (N - s + m) f_m + sum_(c<=m<h) (N - m) f_m
        # over the m + n = s with m, n < N: l = max(0, s - N + 1),
        # c = ceil(s/2) and h = min(s + 1, N).  V_1 <= N^2.
        c, h = (s + 1) // 2, np.minimum(s + 1, N)
        l = s + 1 - h
        V = (2 * P1[:, c] - s * P0[:, c] + N * P0[:, h] - P1[:, h]
             - (N - s) * P0[:, l] - P1[:, l])
        V1 = (c * (c - 1) - s * c + N * h - h * (h - 1) // 2
              - (N - s) * l - l * (l - 1) // 2)
        k = KZ[0, :, lo:lo + len(s)]
        g = (1 + k) * V1 - V
        acc += np.array([_dot(s, g, b, 2 * b), _dot(k, g, b, 2 * b)])
    for d, sg, kg in zip(sums, *acc):
        d["sg"], d["kg"] = sg, kg
    return sums


def d2_exact_lattices(steps: Sequence[int], mod: int, N: int,
                      sym: bool) -> List[Fraction]:
    """D2^2 of S (sym) or L(step/mod, N), as build_S and build_L store them,
    for every 0 <= step < mod of a batch, in O(N) each and bit-identical to
    the pairwise oracle; up to _CHUNK / 2N steps share one _lattice_sums.

    The pair sum is taken at scale mod N.  With k_m = floor(m step/mod),
    r_m = m step - k_m mod, z_m = [r_m != 0] and r'_m = z_m mod - r_m (the
    reflected x), the identities [r_i > r_(i+t)] = k_(i+t) - k_i - k_t
    (r_t > 0) and [r_i >= r'_j] = 1 + k_(i+j) - k_i - k_j - z_j give

        P_L = sum_n (mod - r_n)(N - n)(2n + 1) - 2 sum_t r'_t F_t(k),
        F_t(f) = sum_(i<N-t) (f_(i+t) - f_i - f_t)(N - i - t).

    The walk mod - step has floors n - k - z and F(n) = 0, so S = P_L +
    P_L(mod - step) + 2 C, with T(n) = n(n + 1)/2 and the cross sum

        C = sum_n (mod - r'_n)(T(N) - T(n))
            - sum_(s<2N-1) r_s [(1 + k_s) V_1(s) - V_(2k+z)(s)],
        V_f(s) = sum_(m+n=s; m,n<N) (N - max(m, n)) f_m.

    A sum of r_n w_n is step sum n w - mod sum k w.
    """
    if not 1 <= N < 1 << 30 or not all(0 <= s < mod for s in steps):
        raise ValueError("need 1 <= N < 2^30 and 0 <= step < mod")
    rows = max(1, _CHUNK // (2 * N))
    if not steps or len(steps) > rows:
        return [v for i in range(0, len(steps), rows)
                for v in d2_exact_lattices(steps[i:i + rows], mod, N, sym)]
    q = mod
    p1 = N * (N - 1) // 2  # power sums sum_(n<N) n^j, j = 1..4
    p2 = p1 * (2 * N - 1) // 3
    p3, p4 = p1 * p1, p2 * (3 * N * N - 3 * N - 1) // 5
    w = 2 * N * p1 + N * N - 2 * p2 - p1  # sum (N - n)(2n + 1)
    e, ne = N ** 3 - p2, N * N * p2 - p4  # sums of N^2 - n^2, n^2 (N^2 - n^2)
    TN = N * (N + 1) // 2
    u, nu = N * TN - (p2 + p1) // 2, TN * p1 - (p3 + p2) // 2
    out = []
    for a, d in zip(steps, _lattice_sums(steps, mod, N, sym)):
        if not sym:
            pair = (q * (w + d["kw"] - 2 * d["kFk"] - 2 * d["zFk"])
                    - a * (2 * N * p2 + N * p1 - 2 * p3 - p2)
                    + 2 * a * d["tFk"])
            t2 = q * q * (e - d["kke"]) - a * a * ne + 2 * a * q * d["kte"]
        else:
            pair = (q * (2 * (w + u - d["ku"] - d["zu"] + d["kg"]) - d["zw"]
                         - 4 * d["kFk"] - 2 * d["zFk"] - 2 * d["kFz"])
                    + 2 * a * (2 * d["tFk"] + d["tFz"] + nu - d["sg"]))
            t2 = (q * q * (2 * e - 2 * d["kke"] - 2 * d["zke"] - d["ze"])
                  - 2 * a * a * ne + 2 * a * q * (2 * d["kte"] + d["zte"]))
        out.append(_combine(pair, t2, N << sym, mod, N))
    return out


def d2_exact_fast(P: PointsLike) -> DiscrepancyValue:
    """Exact D2^2, bit-identical to the pairwise oracle: in O(N) from floor
    identities for a lattice; a point iterable goes to the pairwise sum."""
    if not isinstance(P, LatticePointSet):
        return d2_exact_quadratic(P)
    return DiscrepancyValue(d2_exact_lattices([P.step], P.mod, P.N, P.sym)[0])


def realization_error(P: PointsLike) -> Fraction:
    """Bound on how far the exact D2^2 of the stored points can sit from
    that of the ideal lattice: 5 |P|^2 times the per-coordinate error (zero
    for rational alpha; about 5 |P|^2 N 2^(1-B) for B-bit fixed point)."""
    if isinstance(P, LatticePointSet) and P.x_err:
        return 5 * P.size * P.size * P.x_err
    return Fraction(0)
