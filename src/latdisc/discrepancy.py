"""Exact L2 discrepancy of 2-dimensional point multisets.

Both algorithms evaluate the Warnock expansion of the defining integral

    D2^2 = sum_{i,j} (1 - max(x_i,x_j)) (1 - max(y_i,y_j))
           - (|P|/2) sum_i (1 - x_i^2)(1 - y_i^2) + |P|^2 / 9

in exact integers over common denominators, combined over one final
denominator, which kills the cancellation between the O(|P|^2) terms: the
pairwise oracle for any point list, and for a lattice an O(N) form that
the Bernoulli polynomial B2 reduces to weighted sums of the floors of
t alpha and of their prefix sums (d2_exact_lattices).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
    # pair is at scale A B, t2 at scale A^2 B^2
    n, AB = len(X), A * B
    return DiscrepancyValue(Fraction(
        18 * AB * pair - 9 * n * t2 + 2 * n * n * AB * AB, 18 * AB * AB))


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


def _running_dots(a: np.ndarray):
    """Per row of int64 a_n = n + 1 + 2 P_n, n < N, with P_n the prefix sums
    sum_(t<=n) k_t of a walk's floors (0 < a_n <= N^2): the sums of a_n,
    a_n n(n + 1) and a_n^2, an object array (3, rows) of Python ints, from
    exact limb dots of _CHUNK elements."""
    N = a.shape[-1]
    b = 2 * N.bit_length()
    width = max(1, _CHUNK // len(a))
    acc = 0
    for lo in range(0, N, width):
        x = a[:, lo:lo + width]
        n = np.arange(lo, lo + x.shape[1])
        w = np.empty((3,) + x.shape, np.int64)
        w[0], w[1], w[2] = 1, n * (n + 1), x
        acc += _dot(w, x, b, b)
    return acc


def d2_exact_lattices(steps: Sequence[int], mod: int, N: int,
                      sym: bool) -> List[Fraction]:
    """D2^2 of S (sym) or L(step/mod, N), as build_S and build_L store them,
    for every 0 <= step < mod of a batch, in O(N) each and bit-identical to
    the pairwise oracle; up to _CHUNK / 2N steps share one pass.

    With k_t = floor(t step/mod), x_t = r_t/mod and r_t = t step - k_t mod,
    and 1 - max(y_i, y_j) = (N - max(i, j))/N for y = n/N, every pair term
    1 - max(u, v) = 1 - (u + v)/2 - |u - v|/2 is taken apart by

        |u - v| = (u - v)^2 - B2({u - v}) + 1/6,   B2(x) = x^2 - x + 1/6,

    and three facts about the walk: B2({x_i - x_j}) = B2(x_|i-j|), as B2 is
    even and 1-periodic; the reflection x'_j = {-j alpha} has {x_i - x'_j}
    = x_(i+j); and x_i + x'_i = z_i = [x_i != 0].  For S every pair term
    is then a B2 of one x_t, t < 2N - 1, or a term in z_i, z_j and z_i z_j,
    and the diagonal term adds the weights (N^2 - t^2)/N.  x_0 = 0, so
    B2(x_0) = 1/6 and t = 0 adds only a constant, as the 1/6 of every
    other B2 does.  z = 1 - [q' | t] with q' = mod/gcd(step, mod), so the z
    terms are sums of polynomials over the multiples j q' of q' below N,
    closed forms in their number J = ceil(N/q'):

        N D2^2(S) = N^3/9 + N/3 + J(J + 1)(3N - 2q'(J - 1))/3
                    - sum_(0<t<2N-1) omega(t) x_t (1 - x_t),
        omega(t) = (N - t)(N - t - 1)[t < N] + V1(t) = floor((2N - t)^2/4),

    with V1(t) = sum_(i+j=t; i,j<N) (N - max(i, j)).  L keeps (u - v)^2,
    whose one coupled part, sum_(i,j) (N - max(i, j)) x_i x_j, is the sum of
    X_m^2 over the prefix sums X_m = sum_(i<m) x_i:

        N D2^2(L) = N^3/9 + N(N + 1)/4 + sum_(0<m<=N) X_m^2
                    + sum_(t<N) ((N - t)^2 x_t^2/2 - (N + 1)(N - t) x_t).

    In integers, r (mod - r) = step mod t - step^2 t^2 + 2 step mod t k -
    mod^2 k (k + 1) and k^2 = k (k + 1) - k; with a_n = n + 1 + 2 sum_(t<=n)
    k_t, 2 mod X_(n+1) = step n(n + 1) - mod (a_n - n - 1), and by
    summation by parts the sums linear in k are sums of a.  So a step
    reads the limb dots sum omega k (k + 1) and sum omega t k, with omega =
    (N - t)^2 for L, and for L the sums of a, a n(n + 1) and a^2
    (_running_dots).  The sums of omega t^j are closed forms; with Q =
    N(N^2 - 1)(4N^2 - 1)/5,

        9 mod^2 N D2^2(S) = mod^2 (N^3 + 3N + 3J(J + 1)(3N - 2q'(J - 1))
                                   + 9 sum omega k (k + 1))
                            - 3 step mod (N^2 (N^2 - 1) + 6 sum omega t k)
                            + 3 step^2 Q,
        36 mod^2 N D2^2(L) = mod^2 (N^3 + 3N + 9 sum (a + a^2)
                                    + 18 sum omega k (k + 1))
                             - 6 step mod (N(N^2 - 1)(N + 2)/4
                                           + 6 sum omega t k
                                           + 3 sum a n(n + 1))
                             + 3 step^2 Q.

    In int64: k_t < 2N, so k (k + 1), t k and the (2N - t)^2 that omega
    floors are below 4N^2; omega <= N^2, the prefix sums of k are at most
    N^2/2 and a_n <= N^2.  All are below 2^62 for N < 2^30, and _dot takes
    their products in limbs.
    """
    if not 1 <= N < 1 << 30 or not all(0 <= s < mod for s in steps):
        raise ValueError("need 1 <= N < 2^30 and 0 <= step < mod")
    rows = max(1, _CHUNK // (2 * N))
    if not steps or len(steps) > rows:
        return [v for i in range(0, len(steps), rows)
                for v in d2_exact_lattices(steps[i:i + rows], mod, N, sym)]
    M = 2 * N - 1 if sym else N
    K = floors(steps, mod, M)
    b = N.bit_length()
    width = max(1, _CHUNK // len(steps))
    acc = 0
    for lo in range(0, M, width):
        t = np.arange(lo, min(lo + width, M))
        k = K[:, lo:lo + width]
        w = (2 * N - t) ** 2 // 4 if sym else (N - t) ** 2
        acc += _dot(np.stack((k * (k + 1), k * t)), w, 2 * b + 2, 2 * b)
    q, Q = mod, N * (N * N - 1) * (4 * N * N - 1) // 5
    if not sym:
        sa, san, saa = _running_dots(np.arange(N) + 1
                                     + 2 * np.cumsum(K, axis=1))
        return [Fraction(q * q * (N ** 3 + 3 * N + 9 * (s + ss) + 18 * kk)
                         - 6 * a * q * (N * (N * N - 1) * (N + 2) // 4
                                        + 6 * tk + 3 * sn) + 3 * a * a * Q,
                         36 * q * q * N)
                for a, kk, tk, s, sn, ss in zip(steps, *acc, sa, san, saa)]
    out = []
    for a, kk, tk in zip(steps, *acc):
        qp = q // gcd(a, q)
        J = -(-N // qp)
        z = 3 * J * (J + 1) * (3 * N - 2 * qp * (J - 1))
        out.append(Fraction(q * q * (N ** 3 + 3 * N + z + 9 * kk)
                            - 3 * a * q * (N * N * (N * N - 1) + 6 * tk)
                            + 3 * a * a * Q, 9 * q * q * N))
    return out


def d2_exact_fast(P: PointsLike) -> DiscrepancyValue:
    """Exact D2^2, bit-identical to the pairwise oracle: in O(N) from sums
    of floors for a lattice; a point iterable goes to the pairwise sum."""
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
