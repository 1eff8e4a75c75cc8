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
from math import comb, gcd, lcm
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
_SUMS = ("tF", "F", "kH", "kte", "kke")


def _cubic_sum(f, n: int):
    """sum_(i<n) f(i), exactly, for a tuple-valued f cubic in i: Newton's
    forward differences at 0, sum_d C(n, d + 1) D^d f(0), from f(0..3)."""
    vals = np.array([f(i) for i in range(min(n, 4))], object)
    return sum(comb(n, d + 1) * np.diff(vals, d, axis=0)[0]
               for d in range(len(vals)))


def _multiples(step: int, mod: int, N: int, k: np.ndarray, b: int):
    """What the multiples d = j q' of q' = mod/gcd(step, mod) in 0 < d < N
    add to the pair and t2 terms of S (see d2_exact_lattices), in O(q').

    With s' = step/gcd, k_(j q' + r) = j s' + k_r, so the sums of k_t and
    t k_t over t < a q' + r (r <= q') are polynomials in a whose
    coefficients are those sums over r < q' and over r < N mod q', each an
    exact limb dot; every term is then cubic in j."""
    g = gcd(step, mod)
    qp, sp = mod // g, step // g
    n0, r0 = divmod(N, qp)
    (K0, K1), (R0, R1) = (
        map(int, _dot(np.stack((np.ones(x, np.int64), np.arange(x))), k[:x],
                      b, b)) for x in (qp, r0))

    def prefix(a, r, Kr0, Kr1):
        T = a * (a - 1) // 2
        return (a * K0 + qp * sp * T + a * sp * r + Kr0,
                qp * qp * sp * T * (2 * a - 1) // 3 + a * K1 + Kr1
                + (qp * K0 + sp * qp * (qp - 1) // 2) * T
                + a * qp * (a * sp * r + Kr0) + a * sp * r * (r - 1) // 2)

    def terms(i):
        j = i + 1
        d, x = j * qp, N - j * qp
        A, _ = prefix(j, 1, 0, 0)  # sum of k_t over t <= d
        B0, B1 = prefix(n0 - j, r0, R0, R1)  # over t < x
        Tx = x * (x + 1) // 2
        # sum_(t<=d) g_t (N-d) - sum_(t<x) g_t (x-t) - g_d T(x), g = k, t
        Dk = x * (A - B0) + B1 - j * sp * Tx
        Dt = x * d * (d + 1) // 2 - (x + 1) * x * (x - 1) // 6 - d * Tx
        return (mod * (N * (N + 1) - d * (d + 1) + x * (2 * d + 1) + 2 * Dk)
                - 2 * step * Dt,
                mod * (mod * (1 + 2 * j * sp) - 2 * step * d) * (N * N - d * d))

    return _cubic_sum(terms, (N - 1) // qp)


def _lattice_sums(steps: Sequence[int], mod: int, N: int,
                  sym: bool) -> List[dict]:
    """Per step, the sums of floors k times integer weights that
    d2_exact_lattices needs, as Python ints, in O(N).  Only the floors and
    two prefix sums of k are held at full length; the weights are made one
    block of indices at a time, and each block's sums are exact int64 limb
    dots.  z = [mod does not divide m step] = 1 - [q' | m] is never formed:
    the sums S reads of it are closed forms in N, sums of k here, and the
    sums over the multiples of q' below N that _multiples adds (none when
    q' >= N, as for every fixed-point alpha and every S(p/q, q)).

    What reaches a dot or a floor division is below 4 N^2; _dot splits the
    products k t and k k against e = N^2 - t^2 into limbs.  The prefix sums
    of m k_m, V and k V_1 reach about N^3 and may wrap, but they only enter
    sums, differences and products, which int64 gets right modulo 2^64; the
    F, H and g they make are < 5 N^2.
    """
    B = len(steps)
    K = floors(steps, mod, 2 * N if sym else N)
    m = np.arange(N)
    # S[0, :, o + j], S[1, :, o + j]: sums of k_m and m k_m over m < j <= N;
    # for S the symmetric pass reads them at o + j for -N < j <= 2N, clamped
    # to 0 <= j <= N by N zero columns before and N copies of j = N after
    o = N if sym else 0
    S = np.zeros((2, B, N + 1 + 2 * o), np.int64)
    P0, P1 = S[:, :, o:o + N + 1]
    np.cumsum(K[:, :N], axis=-1, out=P0[:, 1:])
    np.cumsum(K[:, :N] * m, axis=-1, out=P1[:, 1:])
    b = N.bit_length() + 2  # bits of s < 2N, of k_s and of k + 1
    width = max(1, _CHUNK // B)
    t1 = np.array((m, np.ones_like(m)))[:, None]
    acc = 0
    for lo in range(0, N, width):
        t = m[lo:lo + width]
        hi = lo + len(t)
        Nt, e = N - t, N * N - t * t
        k = K[:, lo:hi]
        rev = slice(N - lo, N - hi, -1)  # prefix index N - t
        # F_t = R(t) - G(N - t) - k_t T(N - t), with G(j) = sum_(m<j)
        # (j - m) k_m and R(t) = sum_(t<=m<N) (N - m) k_m
        F = (N * (P0[:, N:] - P0[:, lo:hi]) - P1[:, N:] + P1[:, lo:hi]
             - Nt * P0[:, rev] + P1[:, rev] - k * (Nt * (Nt + 1) // 2))
        # H_t: the weight of k_t in the pair sum, F_t's folded in; for S,
        # (t + 1)(N - t) = T(N) - T(t) - T(N - t - 1) gathers the weights
        # of k_t that the reflected walk's z-sums leave (d2_exact_lattices)
        H = Nt * (t + 1) + 2 * F if sym else Nt * (2 * t + 1) - 2 * F
        acc += np.concatenate((
            _dot(t1[..., lo:hi], F, b, 2 * b), _dot(k, H, b, 2 * b)[None],
            _dot(np.array((k * t, k * (k + sym))), e, 2 * b, 2 * b)))
    sums = [dict(zip(_SUMS, col), dpair=0, dt2=0) for col in acc.T]
    if not sym:
        return sums
    # S becomes the prefix sums of f = 2 k - [q' | m], so that g = k V_1 -
    # V_f: m = 0 for every step, the other multiples where q' < N
    P0 *= 2
    P1 *= 2
    P0[:, 1:] -= 1
    for i, (d, step) in enumerate(zip(sums, steps)):
        qp = mod // gcd(step, mod)
        if qp < N:
            d["dpair"], d["dt2"] = _multiples(step, mod, N, K[i], b)
            c = m // qp
            P0[i, 1:] -= c
            P1[i, 1:] -= qp * c * (c + 1) // 2
    S[:, :, o + N + 1:] = S[:, :, o + N:o + N + 1]
    # C[f, :, p, j] = S[f, :, j + p]: the reads at c = ceil(s/2) for the
    # even (p = 0) and odd (p = 1) s of a block, as slices
    C = np.ndarray(S.shape[:2] + (2, S.shape[2] - 1), np.int64, S, 0,
                   S.strides + (8,))
    acc = 0
    half = max(1, width // 2)
    for i in range(0, N, half):
        n = min(half, N - i)
        lo, hi = 2 * i, 2 * (i + n)
        # V_f(s) = sum_(l<=m<c) (N - s + m) f_m + sum_(c<=m<h) (N - m) f_m
        # over the m + n = s with m, n < N: l = max(0, s - N + 1),
        # c = ceil(s/2) and h = min(s + 1, N), read at o + c, o + s + 1 and
        # s + 1; even s, then odd s.  V_1 <= N^2.
        s = np.arange(lo, hi).reshape(n, 2).T
        c0, c1 = C[..., o + i:o + i + n]
        (h0, h1), (l0, l1) = (S[..., a + 1:a + hi - lo + 1].reshape(
            2, B, n, 2).swapaxes(2, 3) for a in (o + lo, lo))
        V = 2 * c1 - s * c0 + N * h0 - h1 - (N - s) * l0 - l1
        u = np.minimum(s, 2 * N - 2 - s)
        V1 = (u + 1) * (N - np.minimum(s, N - 1)) + u * u // 4
        sk = np.empty((2, B, 2, n), np.int64)
        sk[0], sk[1] = s, K[:, lo:hi].reshape(B, n, 2).swapaxes(1, 2)
        g = sk[1] * V1 - V
        acc += _dot(sk.reshape(2, B, -1), g.reshape(B, -1), b, 2 * b)
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

    A sum of r_n w_n is step sum n w - mod sum k w.  z = 1 - delta, where
    delta_m = [q' | m] and q' = mod/gcd(step, mod), and F_t(k) = 0 on the
    multiples D of q' below N, so sum z_t F_t(k) = sum F_t(k) and

        F_t(z) = -T(N - t) + sum_(i<N-t) (delta_i + delta_t
                                          - delta_(i+t))(N - i - t):

    every z-sum is a closed form in N or a sum of k, minus a sum over D.
    D = {0} unless q' < N; then the sums over its d = j q' > 0 are cubic in
    j (_multiples).
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
    nu = TN * p1 - (p3 + p2) // 2  # sum n (T(N) - T(n))
    out = []
    for a, d in zip(steps, _lattice_sums(steps, mod, N, sym)):
        if not sym:
            pair = (q * (w - 2 * d["F"] + d["kH"])
                    - a * (2 * N * p2 + N * p1 - 2 * p3 - p2)
                    + 2 * a * d["tF"])
            t2 = q * q * (e - d["kke"]) - a * a * ne + 2 * a * q * d["kte"]
        else:
            # sum_(t<N) t T(N - t - 1) = C(N + 1, 4)
            pair = (q * (w + 2 * TN + N + 2 * d["kg"] - 2 * d["F"]
                         - 2 * d["kH"])
                    + 2 * a * (2 * d["tF"] - comb(N + 1, 4) + nu - d["sg"])
                    + d["dpair"])
            t2 = (q * q * (e + N * N - 2 * d["kke"]) - 2 * a * a * ne
                  + 2 * a * q * (2 * d["kte"] + N * N * p1 - p3) + d["dt2"])
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
