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
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .alphas import Alpha
from .cf import (ContinuedFraction, Finite, PrecisionExhausted,
                 cf_of_rational, iter_convergents)
from .discrepancy import d2_exact_fast
from .lattice import build_S
from .parseval import enclosure_S

FIVE_PI3 = 5 * math.pi ** 3
# coefficient of the quotient-square statistic whose law is standard Levy
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


@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: tuple  # sorted ascending
    n: int

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "EmpiricalDistribution":
        s = tuple(sorted(float(v) for v in values))
        return cls(s, len(s))


def kolmogorov_distance(emp: EmpiricalDistribution,
                        cdf: Callable[[float], float]) -> float:
    """sup_t |F_n(t) - F(t)| over the sample points (both one-sided gaps)."""
    if emp.n < 1:
        raise ValueError("empirical distribution is empty")
    d = 0.0
    n = emp.n
    for i, x in enumerate(emp.samples, start=1):
        fx = cdf(x)
        d = max(d, abs(i / n - fx), abs((i - 1) / n - fx))
    return d


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


def _cf_quotients_of_fraction(p: int, q: int) -> tuple:
    """Canonical quotients of p/q in [0,1] written as [0;a_1,...,a_r];
    the endpoint 1/1 is [0;1], and 0/1 has the empty list."""
    return (1,) if p == q else cf_of_rational(p, q).body.terms


def cf_reversed_fraction(p: int, q: int) -> Tuple[int, int]:
    """Value of the reversed expansion [0;a_r,...,a_1]; this is q_{r-1}/q_r
    and reversing permutes each Farey set."""
    cf = ContinuedFraction(0, Finite(_cf_quotients_of_fraction(p, q)))
    qs = [0] + [c.q for c in iter_convergents(cf)]  # q_{-1} = 0
    return qs[-2], qs[-1]


def quotient_tail_count(Q: int, k: int, t: int) -> Tuple[int, Fraction]:
    """Exact count of p/q in F_Q with a_k >= t, and the bound 2Q^2/t it is
    guaranteed not to exceed.  Full enumeration; keep Q <= 3000."""
    if Q > 3000:
        raise ValueError("enumeration guard: Q <= 3000")
    if k < 1 or t < 1:
        raise ValueError("need k >= 1 and t >= 1")
    count = 0
    for p, q in farey_enumerate(Q):
        terms = _cf_quotients_of_fraction(p, q)
        if len(terms) >= k and terms[k - 1] >= t:
            count += 1
    return count, Fraction(2 * Q * Q, t)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def _substream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _rand_bits(gen: np.random.Generator, bits: int) -> int:
    nbytes = (bits + 7) // 8
    x = int.from_bytes(gen.bytes(nbytes), "big")
    return x & ((1 << bits) - 1)


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
                      index: int = 0) -> Alpha:
    """One random alpha with its certified mantissa and truncated expansion.

    lebesgue: uniform B-bit mantissa.  gauss: alpha = 2^u - 1 with u uniform,
    the inverse CDF of the measure (1/log 2) dx/(1+x).  Zero mantissas are
    measure-zero endpoints and are redrawn.
    """
    if measure not in ("lebesgue", "gauss"):
        raise ValueError("measure must be 'lebesgue' or 'gauss'")
    if bits < 128:
        raise ValueError("bits must be >= 128")
    gen = _substream(seed, index)
    while True:
        u = _rand_bits(gen, bits)
        if u == 0:
            continue
        if measure == "lebesgue":
            mant = u
        else:
            import mpmath
            with mpmath.workprec(bits + 64):
                a = mpmath.mpf(2) ** (mpmath.mpf(u) / (1 << bits)) - 1
                mant = int(mpmath.floor(a * (1 << bits)))
        if mant:
            return Alpha.from_bits(mant, bits)


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
        if self.mode == "irrational" and self.N < 2:
            raise ValueError("irrational mode needs N >= 2")


@dataclass(frozen=True)
class SweepRow:
    ident: str
    source: str
    stat: float
    estimator: str
    enclosure_width: float


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[SweepRow, ...]
    emp: EmpiricalDistribution
    ks: float
    resampled: int = 0

    @property
    def n(self) -> int:
        return self.emp.n


def _levy_stat(alpha, N: int, estimator: str) -> Tuple[float, float]:
    """5 pi^3 D2^2(S(alpha, N)) / log^2 N, exact or at the enclosure's
    midpoint, and the enclosure width on the same scale (0 for exact)."""
    logsq = math.log(N) ** 2
    if estimator == "exact":
        d2sq = float(d2_exact_fast(build_S(alpha, N)).d2_squared)
        return FIVE_PI3 * d2sq / logsq, 0.0
    enc = enclosure_S(alpha, N)
    return (FIVE_PI3 * float(enc.mid) / logsq,
            FIVE_PI3 * float(enc.width) / logsq)


def _sweep(score, args, chunksize: int, threads: int,
           estimator: str) -> SweepResult:
    """Score every argument, in a pool of up to threads processes (never
    more than there are arguments or CPUs); score returns (source, stat,
    width, redraws)."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    workers = min(threads, len(args), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            outs = list(ex.map(score, args, chunksize=chunksize))
    else:
        outs = [score(a) for a in args]
    rows = tuple(SweepRow(str(i), source, s, estimator, w)
                 for i, (source, s, w, _) in enumerate(outs))
    emp = EmpiricalDistribution.from_samples([r.stat for r in rows])
    return SweepResult(rows, emp, kolmogorov_distance(emp, levy_cdf),
                       resampled=sum(o[3] for o in outs))


def _rational_stat(args) -> Tuple[str, float, float, int]:
    p, q, estimator = args
    source = f"{p}/{q}"
    if estimator == "cf_moment":
        s2 = sum(a * a for a in _cf_quotients_of_fraction(p, q))
        return source, MOMENT_COEFF_RATIONAL * s2 / math.log(q) ** 2, 0.0, 0
    alpha = Fraction(p, q) if estimator == "exact" else Alpha.from_rational(p, q)
    return (source, *_levy_stat(alpha, q, estimator), 0)


def rational_sweep(cfg: SweepConfig, threads: int = 1) -> SweepResult:
    """Normalized statistic 5 pi^3 D2^2(S(p/q,q)) / log^2 q over a Farey set
    (or a uniform sample of it) against the Levy law.  Denominator-1 entries
    carry log^2 q = 0 and are excluded (full mode) or redrawn (sample mode).
    """
    if cfg.mode == "farey_full":
        fracs = [(p, q) for p, q in farey_enumerate(cfg.Q) if q >= 2]
    elif cfg.mode == "farey_sample":
        fracs = [_farey_draw(_substream(cfg.seed, i), cfg.Q, 2)
                 for i in range(cfg.M)]
    else:
        raise ValueError("rational_sweep needs a farey mode")
    return _sweep(_rational_stat, [(p, q, cfg.estimator) for p, q in fracs],
                  256, threads, cfg.estimator)


def _irrational_stat(args) -> Tuple[str, float, float, int]:
    measure, bits, seed, index, N, estimator = args
    retries = 0
    while True:
        alpha = sample_irrational(measure, bits, seed, index + (retries << 32))
        try:
            K = alpha.index_for(N)
            if estimator == "cf_moment":
                st = alpha.stats(K)
                return (alpha.label,
                        MOMENT_COEFF_IRRATIONAL * st.sum_a2 / (K * K), 0.0,
                        retries)
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
    args = [(cfg.measure, cfg.bits, cfg.seed, i, cfg.N, cfg.estimator)
            for i in range(cfg.M)]
    return _sweep(_irrational_stat, args, 16, threads, cfg.estimator)


def trimmed_quotient_mean(measure: str, K: int, M: int, seed: int,
                          bits: Optional[int] = None) -> float:
    """Monte Carlo mean of (sum_{k<=K} a_k - max_k a_k) / (K log K); the
    trimmed-sum law puts the limit at 1/log 2 = 1.4427."""
    if K < 2 or M < 1:
        raise ValueError("need K >= 2 and M >= 1")
    if bits is None:
        # ~3.4 bits of mantissa per quotient, plus the 64-bit safety margin
        bits = max(256, 4 * K + 128)
    total = 0.0
    for i in range(M):
        while True:
            alpha = sample_irrational(measure, bits, seed, i)
            try:
                qs = alpha.cf.quotients(K)
                break
            except PrecisionExhausted:
                bits *= 2
        total += (sum(qs) - max(qs)) / (K * math.log(K))
    return total / M
