"""Exact-coordinate lattice point sets L(alpha, N) and S(alpha, N).

L(alpha, N) is the N-point set {({n alpha}, n/N)}; S(alpha, N) adds the
reflections ({-n alpha}, n/N) with multiplicity (n = 0 gives (0, 0) twice).
A set is stored as alpha's realization step/mod (q for rational alpha, 2^B
for fixed point), N and the variant.  This module is the one home of that
realization: walk_data() gives step/mod and its trust check, whose least n
is read off the state (d_(k-1), d_k, q_(k-1), q_k) of a cf.Truncated Euclid,
step_words() the 128-bit words of m step/mod, near() the m they may not
place, and floors() the floors of m step/mod.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

import numpy as np

from .cf import PrecisionExhausted, Truncated


@dataclass(frozen=True, eq=False)
class LatticePointSet:
    """Point n < N of L is ({n step/mod}, n/N); S follows each point with
    its reflection ({-n step/mod}, n/N)."""

    N: int
    step: int
    mod: int
    sym: bool
    x_err: Fraction = Fraction(0)  # bound on |stored x - true x|, per point

    @property
    def size(self) -> int:
        return self.N << self.sym

    @property
    def x_num(self) -> tuple:
        """x numerators over mod, in point order; y_i = (i >> sym)/N."""
        xs = [m * self.step - k * self.mod for m, k in
              enumerate(floors([self.step], self.mod, self.N)[0].tolist())]
        if self.sym:
            return tuple(v for x in xs for v in (x, -x % self.mod))
        return tuple(xs)

    def points(self) -> Iterator[Tuple[Fraction, Fraction]]:
        for i, xn in enumerate(self.x_num):
            yield Fraction(xn, self.mod), Fraction(i >> self.sym, self.N)


def step_words(steps: Sequence[int], mod: int, start, stop, chunk):
    """For start <= n < stop <= 2^32, in blocks of at most chunk: (first n,
    uint64 n, the 64-bit words (k mod 2^64, mid, low) of n r = 2^128 k +
    2^64 mid + low with r = floor(2^128 s/mod), and whether r is inexact),
    one row per step s.  near() turns a block into its near set."""
    if start < 0 or stop > 1 << 32:
        raise ValueError("the 128-bit words need 0 <= m < 2^32")
    r, rem = zip(*(divmod(s << 128, mod) for s in steps))
    R = np.array([[v >> 64 for v in r], [v & ((1 << 64) - 1) for v in r]],
                 np.uint64)[..., None]
    inexact = np.array(rem, bool)[:, None]
    for lo in range(start, stop, chunk):
        n = np.arange(lo, min(lo + chunk, stop), dtype=np.uint64)
        # high and low 64-bit words of n R[0] and n R[1], from 32-bit halves
        t = n * (R & 0xFFFFFFFF)
        (k, hi), (mid, low) = (n * (R >> 32) + (t >> 32)) >> 32, n * R
        mid += hi
        k += mid < hi
        yield lo, n, k, mid, low, inexact


def near(n, low, inexact):
    """The near set of a step_words block: the n whose n s/mod the words
    may not place, as r is inexact and low < n or low + n wraps past
    2^64."""
    return inexact & ((low < n) | (low + n < low))


def floors(steps: Sequence[int], mod: int, M: int):
    """k[b, m] = floor(m steps[b]/mod) as int64, for m < M <= 2^32 and
    0 <= steps[b] < mod: the one realization of {m alpha} =
    (m step - k mod)/mod.

    With r = floor(2^128 step/mod), 2^128 m step/mod lies in [m r, m r + m),
    so k is the top word off the near set.  Its few m are recomputed
    exactly, in int64 when mod M < 2^63."""
    k = np.empty((len(steps), M), np.int64)
    dt = np.int64 if mod * M < 1 << 63 else object
    for lo, n, kb, _, low, inexact in step_words(steps, mod, 0, M, 1 << 16):
        k[:, lo:lo + len(n)] = kb.view(np.int64)
        b, m = np.nonzero(near(n, low, inexact))
        m += lo
        k[b, m] = m.astype(dt) * np.array(steps, dt)[b] // mod
    return k


def walk_data(x, N: int = 1) -> Tuple[int, int, int]:
    """(step, modulus, err_ulp) of an Alpha (by its .value), a Fraction or a
    FixedPointReal: {m alpha} = (m*step mod modulus)/modulus, off by at most
    m*err_ulp/modulus.  Exact (err_ulp = 0) for rational alpha.

    With N > 1 this is also the trust check for {n alpha}, 1 <= n < N.  The
    per-point bound holds only if no alpha the error counter admits puts
    n alpha on the other side of an integer: every n*step mod modulus must
    lie farther than n*err_ulp from 0.  It fails exactly when some p/n lies
    within err_ulp/modulus of step/modulus, so PrecisionExhausted is raised
    when the least such n is below N, and also once the budget
    (N-1)*err_ulp reaches 2^(bits/2).  ||m alpha|| is continuous mod 1 and
    needs no such check.

    The least n is a best approximation, so a convergent or a semiconvergent
    just before the first convergent within the error (Khinchin, Continued
    Fractions, sec. 6).  A Truncated(modulus, step, modulus) read one step at
    a time holds (d_(k-1), d_k, q_(k-1), q_k), d_k = |q_k step - p_k
    modulus|; at the first k with d_k <= q_k err_ulp the semiconvergent
    q_k - s q_(k-1) has remainder d_k + s d_(k-1), and n takes the largest s
    within the error.
    """
    x = getattr(x, "value", x)
    if isinstance(x, Fraction):  # x % 1, without a second Fraction
        return x.numerator % x.denominator, x.denominator, 0
    step, mod, err = x.mantissa, 1 << x.bits, x.err_ulp
    if N > 1 and err:
        if (N - 1) * err >= (1 << (x.bits // 2)):
            raise PrecisionExhausted(
                "error budget overflow walking {n alpha}, n < N")
        euclid = Truncated(mod, step, mod)  # its cap mod never binds
        d1, d, q1, q, _ = euclid.state  # k = 0: (mod, step, 0, 1)
        while d > q * err and q < N:  # the last remainder is 0
            euclid.grow(len(euclid.known) + 1)
            d1, d, q1, q, _ = euclid.state
        # the largest s with d + s d1 <= (q - s q1) err; if d > q err, then
        # s < 0 and n >= q >= N
        n = q - (q * err - d) // (d1 + q1 * err) * q1
        if n < N:
            raise PrecisionExhausted(
                f"{{n alpha}} within its error of an integer at n = {n}")
    return step, mod, err


def _build(alpha, N: int, sym: bool) -> LatticePointSet:
    """The lattice of the realization step/mod of alpha, which walk_data
    trusts for n < N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    step, mod, err_ulp = walk_data(alpha, N)
    return LatticePointSet(N, step, mod, sym, Fraction((N - 1) * err_ulp, mod))


def build_L(alpha, N: int) -> LatticePointSet:
    """The N points ({n alpha}, n/N), n = 0..N-1, in n-order.  For fixed
    point, x_err holds for every alpha the error counter admits, or
    walk_data's trust check raises PrecisionExhausted."""
    return _build(alpha, N, False)


def build_S(alpha, N: int) -> LatticePointSet:
    """The 2N-point multiset: for each n both ({n alpha}, n/N) and
    ({-n alpha}, n/N).  n = 0 contributes (0, 0) twice."""
    return _build(alpha, N, True)
