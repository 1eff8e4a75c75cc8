"""Distributional experiments: Farey sweeps, random-irrational sweeps, the
Levy limit law, and partial-quotient statistics of random inputs.

Every sweep is reproducible bit for bit: sample i draws from a Philox
substream keyed by (seed, i), so serial and parallel runs agree and reruns
are deterministic.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd
from operator import mul
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .alphas import Alpha
from .cf import PrecisionExhausted, cf_of_rational
from .discrepancy import d2_exact_fast, d2_exact_lattices
from .lattice import build_S
from .parseval import enclosure_S

# coefficients of D2^2 / log^2 N and of the quotient-square statistic whose
# limit law is standard Levy
LEVY_COEFF = 5 * math.pi ** 3
MOMENT_COEFF_IRRATIONAL = 2 * math.log(2) ** 2 / math.pi
MOMENT_COEFF_RATIONAL = math.pi ** 3 / 72

# Kolmogorov-distance ceilings frozen from the first calibration runs of the
# canonical sweep configurations (seeded; see the acceptance suite).  The
# limit law is asymptotic, so desk-scale distances carry the O(1) part of the
# discrepancy; the frozen values bound regressions, not the theory.
FROZEN_KS = {
    ("farey_full", 100, "exact"): 0.84,
    ("farey_full", 300, "exact"): 0.80,
    ("farey_sample", 1000, "exact"): 0.76,
    ("irrational", 10 ** 6, "cf_moment"): 0.06,
}


# ---------------------------------------------------------------------------
# Levy law and the Kolmogorov metric
# ---------------------------------------------------------------------------

def levy_cdf(t: float) -> float:
    """CDF of the standard Levy distribution: erfc(1/sqrt(2t)) for t > 0."""
    if t <= 0:
        return 0.0
    return math.erfc(1.0 / math.sqrt(2.0 * t))


def kolmogorov_distance(samples: Sequence[float]) -> float:
    """sup_t |F_n(t) - F(t)| for the empirical distribution F_n of samples
    and the standard Levy CDF F, over the sample points (both one-sided
    gaps)."""
    xs = np.sort(np.array(samples, dtype=float))
    n = len(xs)
    if n < 1:
        raise ValueError("empirical distribution is empty")
    fx = np.array(list(map(levy_cdf, xs.tolist())))
    i = np.arange(n + 1) / n
    return float(max(np.abs(i[1:] - fx).max(), np.abs(i[:-1] - fx).max()))


# ---------------------------------------------------------------------------
# Farey sets
# ---------------------------------------------------------------------------

def totient_sieve(Q: int) -> List[int]:
    phi = list(range(Q + 1))
    for i in range(2, Q + 1):
        if phi[i] == i:  # prime
            for j in range(i, Q + 1, i):
                phi[j] -= phi[j] // i
    return phi


def farey_count(Q: int) -> int:
    """|F_Q| = 1 + sum_{q<=Q} phi(q)."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    return 1 + sum(totient_sieve(Q)[1:])


def farey_enumerate(Q: int) -> Iterator[Tuple[int, int]]:
    """All reduced fractions in [0,1] with denominator <= Q, ascending,
    by the Stern-Brocot next-term recurrence."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    a, b, c, d = 0, 1, 1, Q
    yield a, b
    while c <= Q:
        k = (Q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        yield a, b


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def _substream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _rand_bits(gen: np.random.Generator, bits: int) -> int:
    """int.from_bytes(gen.bytes(nbytes), "big") mod 2^bits, nbytes =
    ceil(bits/8).  A whole number of Philox words is read raw: gen.bytes
    lays out each 64-bit word little-endian, so those are its bytes too."""
    nbytes = (bits + 7) // 8
    if nbytes % 8:
        x = int.from_bytes(gen.bytes(nbytes), "big")
    else:
        raw = gen.bit_generator.random_raw(nbytes // 8)
        x = int.from_bytes(raw.astype("<u8").tobytes(), "big")
    return x & ((1 << bits) - 1)


# _rand_bits(_substream(seed, i), bits) for many i at once.  numpy keys
# Philox by SeedSequence, whose uint32 hash is O'Neill's seed_seq scheme:
# the seed's 32-bit words, padded with zeros to 4 because a spawn key
# follows, then the key word i.  numpy mixes the seed: the pool of
# SeedSequence(seed) holds every seed word (unpadded, its missing words
# hash as 0 all the same), and the hash constant has stepped by the
# multiplier once per hash, 4 max(4, w) times for w seed words (4 first
# hashes, 12 cross-mixes, 4 per word past the fourth).  The code here mixes
# i into each pool word, hashes the pool into the two Philox key words as
# generate_state(2, uint64) does, and runs Philox4x64-10 (Salmon et al.,
# SC 2011) from counters 1, 2, ... for every i in one numpy pass.
_M32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)  # pool mixing: first constant, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # generate_state
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _hash(v, h: int, mult: int):
    """SeedSequence's hash of v (an int or a uint32 array) under the running
    constant h: (the hashed v, the next constant)."""
    h2 = h * mult & _M32
    v = (v ^ h) * h2 & _M32
    return v ^ v >> 16, h2


def _mix(x, y):
    r = ((0xCA01F9DD * x & _M32) - (0x4973F715 * y & _M32)) & _M32
    return r ^ r >> 16


def _mulhilo(m: int, x: np.ndarray):
    """The high and low 64-bit words of m * x, over 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & _M32)
    x_hi, x_lo = x >> 32, x & _M32
    ll, hl, lh = m_lo * x_lo, m_hi * x_lo, m_lo * x_hi
    mid = (ll >> 32) + (hl & _M32) + lh  # <= 2 (2^32 - 1) + (2^32 - 1)^2
    return m_hi * x_hi + (hl >> 32) + (mid >> 32), x * np.uint64(m)


def _first_draws(seed: int, index, bits: int) -> List[int]:
    """[_rand_bits(_substream(seed, i), bits) for i in index], for seed >= 0
    and every i < 2^32, in one numpy pass."""
    i = np.asarray(index, dtype=np.uint32)
    pool = np.random.SeedSequence(seed).pool.tolist()
    w = -(-seed.bit_length() // 32)
    h = _HASH_A[0] * pow(_HASH_A[1], 4 * max(4, w), 1 << 32) & _M32
    for d in range(4):
        v, h = _hash(i, h, _HASH_A[1])
        pool[d] = _mix(pool[d], v)
    h = _HASH_B[0]
    for d in range(4):
        pool[d], h = _hash(pool[d], h, _HASH_B[1])
    pool = [p.astype(np.uint64) for p in pool]
    k0 = (pool[0] | pool[1] << 32)[:, None]
    k1 = (pool[2] | pool[3] << 32)[:, None]
    nbytes = (bits + 7) // 8
    shape = (len(i), -(-nbytes // 32))  # 32 bytes a Philox block
    zero = np.zeros(shape, np.uint64)
    c = [np.broadcast_to(np.arange(1, shape[1] + 1, dtype=np.uint64), shape),
         zero, zero, zero]
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c[2])
        c = [hi1 ^ c[1] ^ k0, lo1, hi0 ^ c[3] ^ k1, lo0]
    words = np.stack(c, axis=-1).reshape(len(i), -1).astype("<u8")
    raw = words.view(np.uint8)[:, :nbytes].tobytes()
    mask = (1 << bits) - 1
    return [int.from_bytes(raw[k:k + nbytes], "big") & mask
            for k in range(0, len(raw), nbytes)]


# 2^(u/2^B) for 0 < u < 2^B in integers at P = B + 64 fraction bits (a unit
# is 2^-P): with i_1, ..., i_4 the top four bytes of u and r < 2^(B-32) the
# rest, 2^(u/2^B) = 2^(i_1/256) ... 2^(i_4/256^4) e^s, where 0 <= s
# = r ln2/2^B < 2^-32.  Per B, with G = P + 16:
# - ln 2 at g = G + 32 bits as sum_{k <= g} floor(2^g/(k 2^k)): the floors
#   lose < g units there and the tail < 1, so L_G = that >> 32 is within
#   1 + (g + 1) 2^-32 < 2 units (at G) of 2^G ln2 for g < 2^32, and
#   L = L_G >> 16 within 2 (at P);
# - exp(t) = sum_{j <= n} c_j (t/2^prec)^j by Horner, c_j = floor(2^prec/j!)
#   and n + 1 the least m with 2^(wm) m! >= 2^(prec+1), so for s < 2^-w
#   the dropped tail is < 2 s^m/m! < 1 unit.  Each step loses < 1 to c_j
#   and < 1 to its floor, and the steps after it scale that by s, so Horner
#   is within 2/(1 - 2^-w) of the polynomial: < 3.02 units in all (w >= 8),
#   plus e^s |t - t*| for an argument t off the true t* = 2^prec s;
# - level l = 1..4, w = 8: T1 = exp(L_G >> 8l) at G, its argument within
#   1 + 2^-7, is within 3.02 + 1.003 * 1.008 < 5 units of 2^G 2^(1/256^l).
#   T_i = T_(i-1) T1 >> G: with T_(i-1) < 2^(G+1), e_i <= 1.003 e_(i-1)
#   + 2 * 5 + 1, so e_255 < 11 * 383 < 2^13 units at G, and the table
#   T_i >> 16 is within 1 + 2^-3 units (at P) of 2^P 2^(i/256^l).
# Then, w = 32: t = r L >> B is within 1 + 2^-31 of 2^P s, A = exp(t) within
# 3.02 + 1.01 < 4.03.  The product of the four entries and A, >> P after
# each factor, stays below 2^(P+1); a factor below 1.003 (level >= 2)
# takes its error e to <= 1.003 e + 2 * 1.125 + 1, so e < 11 after level 4
# and < 1.0001 * 11 + 2 * 4.03 + 1 < 21 units after A: _POW2_ERR.
_POW2_ERR = 21


def _exp_fixed(t: int, prec: int, coeffs: tuple) -> int:
    """Horner for 2^prec e^(t/2^prec), coefficients c_n, ..., c_0."""
    acc = 0
    for c in coeffs:
        acc = c + (acc * t >> prec)
    return acc


@lru_cache(maxsize=8)
def _pow2_tables(bits: int):
    """(P, Horner coefficients at P for s < 2^-32, ln 2 at P, and the tables
    2^(i/256^l) at P for i < 256, l = 1..4), as derived above."""
    P = bits + 64
    G = P + 16

    def coeffs(prec, w):
        m = 1
        while (factorial(m) << w * m) < 1 << (prec + 1):
            m += 1
        return tuple((1 << prec) // factorial(j) for j in reversed(range(m)))

    g = G + 32
    ln2 = sum((1 << g) // (k << k) for k in range(1, g + 1)) >> 32
    c8, tables = coeffs(G, 8), []
    for level in range(1, 5):
        t1, table = _exp_fixed(ln2 >> 8 * level, G, c8), [1 << G]
        for _ in range(255):
            table.append(table[-1] * t1 >> G)
        tables.append(tuple(v >> 16 for v in table))
    return P, coeffs(P, 32), ln2 >> 16, tables


def _pow2_fixed(u: int, bits: int) -> int:
    """2^(u/2^bits) times 2^(bits+64), within _POW2_ERR, for 0 < u < 2^bits."""
    P, coeffs, ln2, (t1, t2, t3, t4) = _pow2_tables(bits)
    i = u >> (bits - 32)
    v = t1[i >> 24] * t2[i >> 16 & 255] >> P
    v = v * t3[i >> 8 & 255] >> P
    v = v * t4[i & 255] >> P
    t = (u & ((1 << (bits - 32)) - 1)) * ln2 >> bits
    return v * _exp_fixed(t, P, coeffs) >> P


def _gauss_mantissa(u: int, bits: int) -> int:
    """floor(2^B (2^(u/2^B) - 1)) as mpmath gives it at B + 64 bits.

    The integer estimate decides the floor where its 64 bits below 2^-B sit
    farther than _POW2_ERR + 2^32 units from a multiple of 2^-B: then the
    true value, and mpmath's within 2^-(B+32) of it, lie in its cell."""
    v = _pow2_fixed(u, bits)
    low, margin = v & ((1 << 64) - 1), _POW2_ERR + (1 << 32)
    if margin < low < (1 << 64) - margin:
        return (v >> 64) - (1 << bits)
    import mpmath
    with mpmath.workprec(bits + 64):
        a = mpmath.mpf(2) ** (mpmath.mpf(u) / (1 << bits)) - 1
        return int(mpmath.floor(a * (1 << bits)))


def _farey_draw(gen: np.random.Generator, Q: int, min_q: int) -> Tuple[int, int]:
    """Rejection over the full coprime-pair grid: q and p are both drawn
    uniformly from [1,Q] and the draw is kept when q >= min_q, p <= q and
    gcd(p,q) = 1, which weights every kept reduced fraction equally."""
    while True:
        q = int(gen.integers(1, Q + 1))
        p = int(gen.integers(1, Q + 1))
        if q >= min_q and p <= q and gcd(p, q) == 1:
            return p, q


def farey_sample(Q: int, M: int, seed: int) -> List[Tuple[int, int]]:
    """M fractions drawn uniformly from F_Q intersected with (0,1].

    Deterministic per seed, one substream per sample index.
    """
    if Q < 1 or M < 1:
        raise ValueError("need Q >= 1 and M >= 1")
    return [_farey_draw(_substream(seed, i), Q, 1) for i in range(M)]


def sample_irrational(measure: str, bits: int = 256, seed: int = 0,
                      index: int = 0, first: Optional[int] = None) -> Alpha:
    """One random alpha with its certified mantissa and truncated expansion.

    lebesgue: uniform B-bit mantissa.  gauss: alpha = 2^u - 1 with u uniform,
    the inverse CDF of the measure (1/log 2) dx/(1+x).  Zero mantissas are
    measure-zero endpoints and are redrawn.  `first`, if given, is the
    substream's first draw as _first_draws computes it; a redraw starts the
    substream over.
    """
    if measure not in ("lebesgue", "gauss"):
        raise ValueError("measure must be 'lebesgue' or 'gauss'")
    if bits < 128:
        raise ValueError("bits must be >= 128")
    u, gen = first, None
    while True:
        mant = _gauss_mantissa(u, bits) if measure == "gauss" and u else u
        if mant:
            return Alpha.from_bits(mant, bits)
        gen = gen or _substream(seed, index)
        u = _rand_bits(gen, bits)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

ESTIMATORS = ("exact", "enclosure_mid", "cf_moment")


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one distributional experiment.

    mode: farey_full (all of F_Q), farey_sample (M uniform draws from F_Q),
    or irrational (M random alphas, each scored at lattice size N).
    """

    mode: str
    Q: int = 0
    N: int = 0
    M: int = 0
    seed: int = 0
    measure: str = "lebesgue"
    estimator: str = "exact"
    bits: int = 256

    def __post_init__(self):
        if self.mode not in ("farey_full", "farey_sample", "irrational"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.mode.startswith("farey") and self.Q < 2:
            raise ValueError("farey modes need Q >= 2")
        if self.mode != "farey_full" and self.M < 1:
            raise ValueError("sampled modes need M >= 1")
        if self.M >= 1 << 32:  # a redraw keys index + r 2^32
            raise ValueError("M must be < 2^32")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mode == "irrational" and self.N < 2:
            raise ValueError("irrational mode needs N >= 2")
        if self.mode == "irrational" and self.bits < 128:
            raise ValueError("bits must be >= 128")
        if (self.mode == "irrational"
                and self.measure not in ("lebesgue", "gauss")):
            raise ValueError("measure must be 'lebesgue' or 'gauss'")


class SweepRow(NamedTuple):
    ident: str
    source: str
    stat: float
    estimator: str
    enclosure_width: float


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[SweepRow, ...]
    ks: float
    resampled: int = 0

    @property
    def n(self) -> int:
        return len(self.rows)


def _levy_stat(alpha, N: int, estimator: str) -> Tuple[float, float]:
    """5 pi^3 D2^2(S(alpha, N)) / log^2 N, exact or at the enclosure's
    midpoint, and the enclosure width on the same scale (0 for exact)."""
    logsq = math.log(N) ** 2
    if estimator == "exact":
        d2sq = float(d2_exact_fast(build_S(alpha, N)).d2_squared)
        return LEVY_COEFF * d2sq / logsq, 0.0
    enc = enclosure_S(alpha, N)
    (ln, ld), (hn, hd) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
    # mid and width by one correctly rounded division each, no Fraction
    return (LEVY_COEFF * ((ln * hd + hn * ld) / (2 * ld * hd)) / logsq,
            LEVY_COEFF * ((hn * ld - ln * hd) / (ld * hd)) / logsq)


def _map(fn, args: list, threads: int) -> list:
    """fn over args, in a pool of up to threads processes (never more than
    there are arguments or CPUs) that takes them in chunks of an eighth of
    a worker's share: few enough to amortize pickling, enough to balance."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    workers = min(threads, len(args), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(args) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, args, chunksize=chunk))
    return [fn(a) for a in args]


def _sweep(outs, estimator: str) -> SweepResult:
    """Rows and KS distance of the (source, stat, width, redraws) scores."""
    rows = tuple(SweepRow(str(i), source, s, estimator, w)
                 for i, (source, s, w, _) in enumerate(outs))
    ks = kolmogorov_distance([r.stat for r in rows])
    return SweepResult(rows, ks, resampled=sum(o[3] for o in outs))


def _rational_rows(args) -> List[Tuple[float, float]]:
    """(stat, width) of S(p/q, q) for every p of one q: the exact statistic
    in one batch, the others row by row."""
    q, ps, estimator = args
    logsq = math.log(q) ** 2
    if estimator == "exact":
        return [(LEVY_COEFF * float(v) / logsq, 0.0)
                for v in d2_exact_lattices(ps, q, q, True)]
    if estimator == "cf_moment":
        return [(MOMENT_COEFF_RATIONAL * sum(
            a * a for a in cf_of_rational(p, q).body.terms) / logsq, 0.0)
            for p in ps]
    return [_levy_stat(Alpha.from_rational(p, q), q, estimator) for p in ps]


def rational_sweep(cfg: SweepConfig, threads: int = 1) -> SweepResult:
    """Normalized statistic 5 pi^3 D2^2(S(p/q,q)) / log^2 q over a Farey set
    (or a uniform sample of it) against the Levy law.  Denominator-1 entries
    carry log^2 q = 0 and are excluded (full mode) or redrawn (sample mode).
    Each distinct p/q is scored once, all p of one q in one task.
    """
    if cfg.mode == "farey_full":
        fracs = [(p, q) for p, q in farey_enumerate(cfg.Q) if q >= 2]
    elif cfg.mode == "farey_sample":
        fracs = [_farey_draw(_substream(cfg.seed, i), cfg.Q, 2)
                 for i in range(cfg.M)]
    else:
        raise ValueError("rational_sweep needs a farey mode")
    by_q = {}
    for p, q in fracs:
        by_q.setdefault(q, set()).add(p)
    tasks = [(q, sorted(by_q[q]), cfg.estimator) for q in sorted(by_q)]
    score = {(p, q): s for (q, ps, _), out in zip(
        tasks, _map(_rational_rows, tasks, threads)) for p, s in zip(ps, out)}
    return _sweep([(f"{p}/{q}", *score[p, q], 0) for p, q in fracs],
                  cfg.estimator)


def _irrational_stat(args) -> Tuple[str, float, float, int]:
    measure, bits, seed, index, N, estimator, first = args
    retries = 0
    while True:
        alpha = sample_irrational(measure, bits, seed, index + (retries << 32),
                                  None if retries else first)
        try:
            K = alpha.index_for(N)
            if estimator == "cf_moment":
                a = alpha.cf.body.known[:K]  # index_for grew it to >= K
                return (alpha.label, MOMENT_COEFF_IRRATIONAL
                        * sum(map(mul, a, a)) / (K * K), 0.0, retries)
            return (alpha.label, *_levy_stat(alpha, N, estimator), retries)
        except PrecisionExhausted:
            retries += 1
            if retries > 8:
                raise


def irrational_sweep(cfg: SweepConfig, threads: int = 1) -> SweepResult:
    """Normalized statistic 5 pi^3 D2^2(S(alpha, N)) / log^2 N over M random
    alphas, scored with the configured estimator, against the Levy law.
    cf_moment scores (2 log^2 2 / pi) K^-2 sum a_k^2 at K with q_K >= N."""
    if cfg.mode != "irrational":
        raise ValueError("irrational_sweep needs mode='irrational'")
    draws = _first_draws(cfg.seed, np.arange(cfg.M, dtype=np.uint32), cfg.bits)
    args = [(cfg.measure, cfg.bits, cfg.seed, i, cfg.N, cfg.estimator, u)
            for i, u in enumerate(draws)]
    return _sweep(_map(_irrational_stat, args, threads), cfg.estimator)

