"""Certified fixed-point evaluation of alpha, {n alpha}, ||m alpha|| and
the running sums T_n = sum_{l<=n} (1/2 - {l alpha}).

A FixedPointReal stores the fractional part of a real as an integer mantissa
at resolution 2^-B together with an explicit error counter in ulps.  Rational
alphas never go through fixed point: every operation has an exact big-rational
path, which is what the rational lattice experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple, Union

from .cf import ContinuedFraction, Finite, PrecisionExhausted, iter_convergents

DEFAULT_BITS = 256


@dataclass(frozen=True)
class FixedPointReal:
    """Fractional part of a real: mantissa/2^bits, off by <= err_ulp ulps."""

    mantissa: int
    bits: int
    err_ulp: int = 0

    def __post_init__(self):
        if not 0 <= self.mantissa < (1 << self.bits):
            raise ValueError("mantissa out of range for bit width")
        if self.err_ulp < 0:
            raise ValueError("err_ulp must be >= 0")

    def to_float(self) -> float:
        return self.mantissa / (1 << self.bits)

    def as_fraction(self) -> Fraction:
        """The stored (representation) value, exactly."""
        return Fraction(self.mantissa, 1 << self.bits)


RealValue = Union[Fraction, FixedPointReal]


def eval_alpha(cf: ContinuedFraction, bits: int = DEFAULT_BITS) -> FixedPointReal:
    """Fractional part of the value of an expansion, certified to 2^(1-bits).

    Convergents are expanded until q_k^2 > 2^(bits+8), at which point
    |alpha - p_k/q_k| < 1/q_k^2 gives well under one ulp of error; the floor
    in the final division costs at most one more ulp.  Finite expansions are
    converted exactly.  A Truncated expansion that runs out first raises
    PrecisionExhausted.
    """
    target = 1 << (bits + 8)
    last = None
    for conv in iter_convergents(cf):
        last = conv
        if conv.k >= 2 and conv.q * conv.q > target:
            break
    else:
        if isinstance(cf.body, Finite):
            pf = last.p % last.q
            num = pf << bits
            mant, rem = divmod(num, last.q)
            return FixedPointReal(mant, bits, 0 if rem == 0 else 1)
        raise PrecisionExhausted(
            f"expansion exhausted before reaching {bits} certified bits"
        )
    pf = last.p % last.q
    mant = (pf << bits) // last.q
    return FixedPointReal(mant, bits, 2)


def frac_multiple(x: RealValue, n: int) -> RealValue:
    """Fractional part of n*x.  Exact for Fraction input; for fixed point the
    error counter scales with n and precision-exhaustion is flagged once the
    budget reaches 2^(bits/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(x, Fraction):
        return (n * x) % 1
    err = n * x.err_ulp
    if n > 0 and err >= (1 << (x.bits // 2)):
        raise PrecisionExhausted("error budget overflow in frac_multiple")
    return FixedPointReal((n * x.mantissa) % (1 << x.bits), x.bits,
                          err if n > 0 else 0)


def dist_to_int(x: RealValue) -> RealValue:
    """Distance to the nearest integer, same error bound."""
    if isinstance(x, Fraction):
        f = x % 1
        return min(f, 1 - f)
    half = 1 << x.bits
    return FixedPointReal(min(x.mantissa, half - x.mantissa), x.bits, x.err_ulp)


def _least_denominator(lo: Fraction, hi: Fraction, cap: int) -> int:
    """The least n >= 1 with some p/n in [lo, hi], or a number >= cap once
    that n is known to be >= cap.

    Walks the continued fraction of the simplest fraction in the interval:
    with x = (P y + P1)/(Q y + Q1) for the tail y in [lo, hi], an integer in
    [lo, hi] ends the walk (the least one gives the least Q y + Q1); else
    y = t + 1/y' with t = floor(lo), and y' lies in [1/(hi - t), 1/(lo - t)].
    """
    # Q runs inline, not through iter_convergents: it is the stopping rule
    # of the quotient generation, whose quotients exist only in this walk
    Q, Q1 = 0, 1
    while True:
        t = lo.numerator // lo.denominator
        if t == lo or t + 1 <= hi:
            return Q * (t if t == lo else t + 1) + Q1
        Q, Q1 = Q * t + Q1, Q
        if Q >= cap:  # every later term is >= 1, so the end is >= Q
            return Q
        lo, hi = 1 / (hi - t), 1 / (lo - t)


def walk_data(x, N: int = 1) -> Tuple[int, int, int]:
    """(step, modulus, err_ulp) of an Alpha, a Fraction or a FixedPointReal:
    {m alpha} = (m*step mod modulus)/modulus, off by at most m*err_ulp/modulus.
    Exact (err_ulp = 0) for rational alpha.

    With N > 1 this is also the trust check for {n alpha}, 1 <= n < N.  The
    per-point bound holds only if no alpha the error counter admits puts
    n alpha on the other side of an integer: every n*step mod modulus must
    lie farther than n*err_ulp from 0.  It fails exactly when some p/n lies
    within err_ulp/modulus of step/modulus, so PrecisionExhausted is raised
    when the least such n is below N, and also once the budget
    (N-1)*err_ulp reaches 2^(bits/2).  ||m alpha|| is continuous mod 1 and
    needs no such check.
    """
    if not isinstance(x, (Fraction, FixedPointReal)):
        x = x.value
    if isinstance(x, Fraction):
        v = x % 1
        return v.numerator, v.denominator, 0
    step, mod, err_ulp = x.mantissa, 1 << x.bits, x.err_ulp
    if N > 1 and err_ulp:
        if (N - 1) * err_ulp >= (1 << (x.bits // 2)):
            raise PrecisionExhausted(
                "error budget overflow walking {n alpha}, n < N")
        n = _least_denominator(Fraction(step - err_ulp, mod),
                               Fraction(step + err_ulp, mod), N)
        if n < N:
            raise PrecisionExhausted(
                f"{{n alpha}} within its error of an integer at n = {n}")
    return step, mod, err_ulp


_WALK_BLOCK = 4096


def residues(step: int, mod: int, start: int, stop: int) -> Iterator[list]:
    """n*step mod mod for start <= n < stop, in order, as lists of at most
    _WALK_BLOCK values.  This is the one walk behind every {n alpha} and
    ||m alpha|| loop of the package."""
    step %= mod
    v = (start * step) % mod
    for lo in range(start, stop, _WALK_BLOCK):
        block = []
        append = block.append
        for _ in range(min(_WALK_BLOCK, stop - lo)):
            append(v)
            v += step
            if v >= mod:
                v -= mod
        yield block


def norms(step: int, mod: int, start: int, stop: int) -> Iterator[list]:
    """min(v, mod - v) for each v = n*step mod mod, start <= n < stop, in
    the blocks of residues: mod * ||n alpha|| for the walk of walk_data.
    This is the one fold behind every ||m alpha|| sum of the package."""
    for block in residues(step, mod, start, stop):
        yield [v if 2 * v <= mod else mod - v for v in block]


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


def _scaled_running_sums(value, N: int):
    """Integers u_0..u_{N-1} and scale D with T_n = u_n / D, plus a bound on
    how far each T_n can sit from the true T_n, which walk_data's trust check
    makes sound.  Exact integer arithmetic throughout."""
    step, modulus, err_ulp = walk_data(value, N)
    u = []
    append = u.append
    s = 0
    for block in residues(step, modulus, 0, N):
        for v in block:
            s += modulus - 2 * v
            append(s)
    # each {l*alpha} is off by <= l*err ulps, so T_n is off by <= n^2 * err ulps
    return u, modulus << 1, Fraction(err_ulp * N * N, modulus)


def birkhoff_sums(value: RealValue, N: int) -> BirkhoffSums:
    """Running sums T_n = sum_{l=0}^{n} (1/2 - {l alpha}) for n < N, and
    their average.  O(N), exact for rational alpha."""
    if N < 1:
        raise ValueError("N must be >= 1")
    u, D, err = _scaled_running_sums(value, N)
    T = tuple(Fraction(x, D) for x in u)
    E = Fraction(sum(u), D * N)
    return BirkhoffSums(N, T, E, err)


def starred_sums(p: int, q: int) -> BirkhoffSums:
    """Exact rational sums T*_n = sum_{l=0}^{n} (1/2 - 1/(2q) - {l p/q})
    for n < q, with average E*_q.  Requires gcd(p, q) = 1."""
    from math import gcd
    if q < 1 or gcd(p, q) != 1:
        raise ValueError("need q >= 1 and gcd(p, q) = 1")
    # T*_n = T_n - (n+1)/(2q), and T_n = u_n/(2q)
    u, D, _ = _scaled_running_sums(Fraction(p, q), q)
    u = [x - n for n, x in enumerate(u, 1)]
    T = tuple(Fraction(x, D) for x in u)
    E = Fraction(sum(u), D * q)
    return BirkhoffSums(q, T, E, Fraction(0))


def birkhoff_mean(value, N: int) -> Tuple[Fraction, Fraction]:
    """E_N in the representation, plus an error bound for fixed point.
    value is an Alpha, a Fraction or a FixedPointReal."""
    u, D, err = _scaled_running_sums(value, N)
    return Fraction(sum(u), D * N), err


def birkhoff_quad_block(value, N: int):
    """(1/N) sum_n (T_n^2 + T_n/2) together with sum statistics; value is an
    Alpha, a Fraction or a FixedPointReal.

    Returns (block, E, var, err) where block and var = (1/N) sum (T_n - E)^2
    are exact Fractions of the representation and err bounds the drift of the
    block for fixed-point alpha (zero for rationals).
    """
    u, D, err = _scaled_running_sums(value, N)
    su = sum(u)
    su2 = sum(x * x for x in u)
    block = Fraction(2 * su2 + D * su, 2 * D * D * N)
    E = Fraction(su, D * N)
    var = Fraction(su2, D * D * N) - E * E
    if err:
        tmax = Fraction(max(abs(min(u)), abs(max(u))), D)
        err = (2 * tmax + err + Fraction(1, 2)) * err
    return block, E, var, err
