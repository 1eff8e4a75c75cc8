"""Certified fixed-point evaluation of alpha, and the running sums
T_n = sum_{l<=n} (1/2 - {l alpha}) on its realization lattice.walk_data.

A FixedPointReal stores the fractional part of a real as an integer mantissa
at resolution 2^-B together with an explicit error counter in ulps.  Rational
alphas never go through fixed point: every operation has an exact big-rational
path, which is what the rational lattice experiments rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cf import ContinuedFraction, ExpansionExhausted, denominators
from .discrepancy import _running_dots
from .lattice import floors, walk_data

DEFAULT_BITS = 256


class FixedPointReal(NamedTuple("FixedPointReal", [
        ("mantissa", int), ("bits", int), ("err_ulp", int)])):
    """Fractional part of a real: mantissa/2^bits, off by <= err_ulp ulps."""

    __slots__ = ()

    def __new__(cls, mantissa: int, bits: int, err_ulp: int = 0):
        if not 0 <= mantissa < (1 << bits):
            raise ValueError("mantissa out of range for bit width")
        if err_ulp < 0:
            raise ValueError("err_ulp must be >= 0")
        return tuple.__new__(cls, (mantissa, bits, err_ulp))

    # so that _make and _replace check their fields too
    _make = classmethod(lambda cls, fields: cls(*fields))


def eval_alpha(cf: ContinuedFraction, bits: int = DEFAULT_BITS) -> FixedPointReal:
    """Fractional part of the value of an expansion, certified to 2^(1-bits).

    Denominators are expanded until q_k^2 > 2^(bits+8), k >= 2, at which
    point |alpha - p_k/q_k| < 1/q_k^2 gives well under one ulp of error; the
    floor in the final division costs at most one more ulp.  Finite
    expansions are converted exactly.  A Truncated expansion that runs out
    first raises PrecisionExhausted.  The numerator of {p_k/q_k} is p_k mod
    q_k = (-1)^(k-1) q_(k-1)^(-1) mod q_k.
    """
    q = [0, 1]
    err = 2
    try:
        while len(q) < 4 or q[-1] * q[-1] <= 1 << (bits + 8):
            denominators(cf, len(q) - 1, q)
    except ExpansionExhausted:  # only a Finite body runs out: exact value
        err = 0
    k, q1, qk = len(q) - 2, q[-2], q[-1]
    pf = (-1) ** (k + 1) * pow(q1, -1, qk) % qk  # (-1)^(k+1) = (-1)^(k-1)
    mant, rem = divmod(pf << bits, qk)
    return FixedPointReal(mant, bits, err or int(rem > 0))


def birkhoff_quad_block(value, N: int):
    """(1/N) sum_n (T_n^2 + T_n/2); value is an Alpha, a Fraction or a
    FixedPointReal.

    Returns (block, err): block is an exact Fraction of the representation,
    and err bounds its drift for fixed-point alpha (zero for rationals).
    With the realization step/mod, 2 mod T_n = mod a_n - step nn_n for n < N
    over the int64 a_n = n + 1 + 2 sum_(l<=n) floor(l step/mod) and
    nn_n = n(n+1), both at most N^2; the sums of 2 mod T_n and its square
    read the sums of a, a nn and a^2.
    """
    if not 1 <= N < 1 << 31:
        raise ValueError("N must be >= 1 and < 2^31")
    step, mod, err_ulp = walk_data(value, N)
    n = np.arange(N)
    a = n + 1 + 2 * np.cumsum(floors([step], mod, N)[0])
    # each {l*alpha} is off by <= l*err ulps, so T_n is off by <= n^2 * err
    # ulps, a bound that walk_data's trust check makes sound
    err = Fraction(err_ulp * N * N, mod)
    sa, san, saa = _running_dots(a[None])[:, 0]
    p1 = (N - 1) * N * (N + 1) // 3  # sums of nn_n and nn_n^2
    p2 = p1 * (3 * N * N - 2) // 5
    su = mod * sa - step * p1
    su2 = mod * mod * saa - 2 * mod * step * san + step * step * p2
    D = mod << 1
    block = Fraction(2 * su2 + D * su, 2 * D * D * N)
    if err:
        # 2 T_n = a_n - nn_n step/mod; in floats a_n and nn_n (<= N^2), the
        # ratio, the product and the difference each round by at most
        # 2^-53 of their size: under 8 N^2 2^-53 in all, so the n whose
        # float |2 T_n| is within twice that of the largest hold max |u_n|
        nn = n * (n + 1)
        t = np.abs(a - nn * (step / mod))
        cand = np.flatnonzero(t >= t.max() - N * N * 2.0 ** -49)
        umax = max(abs(mod * int(a[n]) - step * int(nn[n])) for n in cand)
        err = (2 * Fraction(umax, D) + err + Fraction(1, 2)) * err
    return block, err
