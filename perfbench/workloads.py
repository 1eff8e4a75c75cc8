"""The benchmark's workloads: seeded inputs, timed items and their checks.

Each workload is built from `--seed` alone (same seed, same inputs) and is a
list of items.  An item is one call sequence into latdisc's public API whose
result is checked; a pass runs every item once.  Building the workload
object is the set-up that `setup_s` times.

Each workload's `targets` names the per-layer metrics (layers.py) measured
on it and, for each, the end-to-end metric it should move there.  A traced
run flags a target that reads 0 on its workload (layers.MAY_READ_ZERO
aside): the layer is no longer reached through the call it is spanned on.
trace.overhead_frac, the cost of the tracing itself, is every workload's.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import latdisc
from latdisc.metric import FROZEN_KS, SweepConfig


@dataclass
class Item:
    """One timed unit of work.  `fn()` returns (result, text): `text` is a
    canonical rendering whose digest must repeat exactly on every run and,
    when `ref_key` is in reference.json, match the recorded digest.
    `weight` is how many times the item counts in one pass."""

    name: str
    fn: Callable[[], Tuple[object, str]]
    ref_key: Optional[str] = None
    weight: int = 1


def _substream(seed: int, key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _sweep_text(res) -> str:
    rows = "\n".join(f"{r.ident},{r.source},{r.stat!r},{r.enclosure_width!r}"
                     for r in res.rows)
    return f"{rows}\nks={res.ks!r}\nresampled={res.resampled}"


def _qk_over_n(alpha, N: int) -> float:
    return alpha.q(alpha.index_for(N)) / N


def _lebesgue(seed: int, index: int):
    return latdisc.sample_irrational("lebesgue", 256, seed, index)


class Workload:
    name = ""
    why = ""
    threads = 1
    targets: Dict[str, str] = {}  # per-layer metric -> end-to-end metrics

    def items(self) -> List[Item]:
        raise NotImplementedError

    def layer_items(self) -> List[Item]:
        """Extra items run only in a traced run, for per-layer metrics."""
        return []

    def inputs(self) -> dict:
        raise NotImplementedError

    def check(self, results: Dict[str, object]) -> List[Tuple[str, str]]:
        """(item name, message) for every failed check; runs untimed."""
        return []


# warnock_large's seeded alpha has q_K/N at most this (see WarnockLarge)
QK_CAP = 4.0


class WarnockLarge(Workload):
    name = "warnock_large"
    why = ("exact D2^2 of S and L at N=5e4 for four alphas: lattice build "
           "and the Warnock sweep do all the work, Diophantine sums none")
    # Why: `lattice` and `discrepancy` do almost all the work (about
    # 9.5 us/point) and `parseval` none.  The alphas mix 256-bit fixed-point
    # coordinates (surd, rule, bits) with small-integer ones (p/q, q > N),
    # because a fixed-width fast path would treat the two differently.
    # N is 5e4, not 10^5: a pass at 10^5 takes 10-20 s on a busy 2-vCPU
    # box, so a 22 s run timed each item once or twice, and item_p90_ms
    # spread by up to 21% over ten seeds.
    targets = {
        "lattice.build_s": "wall_s",
        "lattice.ns_per_point": "wall_s",
        "discrepancy.warnock_s": "wall_s, peak_rss_mb",
        "discrepancy.us_per_point.rational": "wall_s, peak_rss_mb",
        "discrepancy.us_per_point.fixed": "wall_s, peak_rss_mb",
        "discrepancy.points": "wall_s, peak_rss_mb",
    }

    def __init__(self, seed: int, N: int = 5 * 10 ** 4):
        self.N = N
        # The seeded bits: alpha is the first Lebesgue draw with
        # q_K/N <= QK_CAP, which keeps its (untimed) enclosure check cheap;
        # the timed exact evaluation does not depend on q_K.
        i = 0
        while True:
            alpha = _lebesgue(seed, i)
            if _qk_over_n(alpha, N) <= QK_CAP:
                break
            i += 1
        gen = _substream(seed, 1)
        q = int(gen.integers(N + 1, 2 * N + 1))
        while True:
            p = int(gen.integers(1, q))
            if math.gcd(p, q) == 1:
                break
        self.specs = ["surd:-1,5,2", "rule:euler_e", alpha.label, f"{p}/{q}"]

    def inputs(self) -> dict:
        return {"N": self.N, "alphas": [
            [spec, _qk_over_n(latdisc.Alpha.parse(spec), self.N)]
            for spec in self.specs]}

    def _exact(self, spec: str, kind: str):
        alpha = latdisc.Alpha.parse(spec)
        build = latdisc.build_S if kind == "S" else latdisc.build_L
        v = latdisc.d2_exact_fast(build(alpha, self.N)).d2_squared
        return v, _frac_text(v)

    def items(self) -> List[Item]:
        return [Item(f"{kind} {spec}", partial(self._exact, spec, kind),
                     ref_key=f"{kind} {spec} N={self.N}")
                for spec in self.specs for kind in "SL"]

    def check(self, results):
        bad = []
        for name, value in results.items():
            kind, spec = name.split(" ", 1)
            alpha = latdisc.Alpha.parse(spec)
            enclose = (latdisc.enclosure_S if kind == "S"
                       else latdisc.enclosure_L)
            enc = enclose(alpha, self.N)
            if not enc.contains(value):
                bad.append((name, f"exact {float(value)!r} outside enclosure "
                                  f"[{float(enc.lo)!r}, {float(enc.hi)!r}]"))
        return bad


# Quantiles (j + 0.5)/100, j = 0..99, of q_K/N at N = 10^4 over 20000
# Lebesgue alphas (sample_irrational seed 987654321), capped at 16 to bound
# the cost of one pass; uncapped, the top seven run 16.3, 19, 22, 27, 35, 51
# and 250.  The law of q_K/N barely depends on N.
QK_PROFILE = (
    1.006, 1.016, 1.028, 1.04, 1.054, 1.068, 1.08, 1.094, 1.108, 1.12,
    1.134, 1.15, 1.166, 1.18, 1.197, 1.211, 1.229, 1.246, 1.266, 1.283,
    1.302, 1.323, 1.34, 1.36, 1.386, 1.408, 1.429, 1.451, 1.473, 1.499,
    1.523, 1.547, 1.573, 1.602, 1.626, 1.655, 1.686, 1.715, 1.749, 1.781,
    1.815, 1.853, 1.888, 1.927, 1.97, 2.012, 2.052, 2.098, 2.141, 2.185,
    2.234, 2.284, 2.334, 2.383, 2.442, 2.507, 2.562, 2.631, 2.692, 2.761,
    2.842, 2.913, 3.002, 3.098, 3.194, 3.284, 3.393, 3.511, 3.627, 3.755,
    3.87, 4.013, 4.166, 4.361, 4.521, 4.686, 4.898, 5.144, 5.408, 5.723,
    6.025, 6.354, 6.703, 7.151, 7.658, 8.269, 8.906, 9.69, 10.535, 11.58,
    12.938, 14.338, 16.0, 16.0, 16.0, 16.0, 16.0, 16.0, 16.0, 16.0,
)


# enclosure_tail gives up on a q_K/N profile not filled after this many draws
MAX_DRAWS = 200000


class EnclosureTail(Workload):
    name = "enclosure_tail"
    why = ("enclosure_S and enclosure_L at N=2000 for 100 seeded Lebesgue "
           "alphas on a fixed q_K/N profile: certified Diophantine sums over "
           "m < q_K, heavy-tailed")
    # Why: `parseval` dominates and its cost follows q_K, which is
    # heavy-tailed (Gauss-Kuzmin).  There is no Warnock work.  Drawing
    # alphas freely makes one pass cost anywhere from 5 s to minutes (in
    # 100 free draws, two seeds of ten met a q_K/N above 1000), so the seed
    # picks, for each profile quantile, the first Lebesgue alpha whose
    # q_K/N lies within `tol` of it: every seed then sees the same tail, and
    # p50/p90 compare across seeds.  100 items leave 10 samples beyond p90.
    # N is 2000, not 10^4, so that each item runs about five times in a
    # 22 s run: with one run per item, p90 followed the machine's speed
    # during the few seconds the tail items ran (IQR 22% over ten seeds at
    # N = 10^4).
    targets = {
        "parseval.main_sum_s": "item_p50_ms, item_p90_ms",
        "parseval.window_sum_s": "item_p50_ms, item_p90_ms",
        "parseval.terms": "item_p50_ms, item_p90_ms",
        "parseval.us_per_term": "item_p50_ms, item_p90_ms",
        "parseval.assembly_s": "item_p50_ms, item_p90_ms",
        "parseval.qK_over_N_p50": "item_p90_ms",
        "parseval.qK_over_N_p90": "item_p90_ms",
        "fixedpoint.block_s": "item_p50_ms",
    }

    def __init__(self, seed: int, N: int = 2000,
                 profile=QK_PROFILE, tol: float = 0.02,
                 check_every: int = 10):
        self.seed = seed
        self.N = N
        self.check_every = check_every
        targets = sorted(profile)
        picks: List[Optional[Tuple[int, float]]] = [None] * len(targets)
        open_slots = len(targets)
        index = 0
        while open_slots:
            if index >= MAX_DRAWS:
                raise RuntimeError("q_K/N profile not filled")
            r = _qk_over_n(_lebesgue(seed, index), N)
            lo = bisect_left(targets, r / (1 + tol))
            hi = bisect_right(targets, r / (1 - tol))
            for j in range(lo, hi):
                if picks[j] is None:
                    picks[j] = (index, r)
                    open_slots -= 1
                    break
            index += 1
        self.picks = picks
        self.draws = index

    def inputs(self) -> dict:
        return {"N": self.N, "draws": self.draws,
                "alphas": [[i, round(r, 4), _lebesgue(self.seed, i).label]
                           for i, r in self.picks]}

    def _enclose(self, index: int):
        alpha = latdisc.sample_irrational("lebesgue", 256, self.seed, index)
        es = latdisc.enclosure_S(alpha, self.N)
        el = latdisc.enclosure_L(alpha, self.N)
        text = "|".join(f"{_frac_text(e.lo)},{_frac_text(e.hi)},{e.K}"
                        for e in (es, el))
        return (es, el), text

    def items(self) -> List[Item]:
        return [Item(f"alpha#{i}", partial(self._enclose, i))
                for i, _ in self.picks]

    def check(self, results):
        bad = []
        for j, (index, _) in enumerate(self.picks):
            name = f"alpha#{index}"
            if j % self.check_every or name not in results:
                continue
            alpha = _lebesgue(self.seed, index)
            for enc, build in zip(results[name],
                                  (latdisc.build_S, latdisc.build_L)):
                exact = latdisc.d2_exact_fast(build(alpha, self.N)).d2_squared
                if not enc.contains(exact):
                    bad.append((name, f"{build.__name__}: exact "
                                      f"{float(exact)!r} outside enclosure"))
        return bad


# farey_sweep's traced serial pass takes every LAYER_STRIDE-th fraction
LAYER_STRIDE = 4


class FareySweep(Workload):
    name = "farey_sweep"
    why = ("rational_sweep over all of F_120, estimators exact and "
           "enclosure_mid, 2-process pool: per-call cost on tiny instances")
    # Why: the same `discrepancy` and `parseval` layers run on about 4.4k
    # tiny instances (<= 240 points; the Diophantine sums take the exact
    # Fraction path), where fixed per-call cost dominates, and the process
    # pool runs.  The input is the full Farey set, so the seed changes
    # nothing here.  Q is 120, not 200: a sweep of F_200 takes 4-7 s, so a
    # run held two or three of them and about as few speed readings, and
    # ten runs spread by 19%.  The pool has two workers, one per core of the
    # reference machine.  A traced run adds one serial pass over every
    # LAYER_STRIDE-th fraction, calling the same public functions a sweep
    # row calls, to split the row cost by layer; it counts LAYER_STRIDE
    # times.
    threads = 2
    targets = {
        "discrepancy.warnock_s": "wall_s",
        "discrepancy.us_per_point.rational": "wall_s",
        "discrepancy.points": "wall_s",
        "parseval.exact_path_share": "wall_s",
        "metric.pool_efficiency": "wall_s",
        "metric.rows": "wall_s",
    }

    def __init__(self, seed: int, Q: int = 120):
        self.Q = Q

    def inputs(self) -> dict:
        return {"Q": self.Q, "threads": self.threads,
                "rows": latdisc.farey_count(self.Q) - 1}

    def _sweep(self, estimator: str):
        res = latdisc.rational_sweep(
            SweepConfig(mode="farey_full", Q=self.Q, estimator=estimator),
            threads=self.threads)
        return res, _sweep_text(res)

    def _serial_rows(self):
        fracs = [(p, q) for p, q in latdisc.farey_enumerate(self.Q) if q >= 2]
        out = []
        for p, q in fracs[::LAYER_STRIDE]:
            d2 = latdisc.d2_exact_fast(latdisc.build_S(Fraction(p, q), q))
            enc = latdisc.enclosure_S(latdisc.Alpha.from_rational(p, q), q)
            out.append(f"{_frac_text(d2.d2_squared)},{enc.lo},{enc.hi}")
        return None, "\n".join(out)

    def items(self) -> List[Item]:
        return [Item(est, partial(self._sweep, est),
                     ref_key=f"{est} Q={self.Q}" if est == "exact" else None)
                for est in ("exact", "enclosure_mid")]

    def layer_items(self) -> List[Item]:
        return [Item(f"serial rows 1/{LAYER_STRIDE}", self._serial_rows,
                     weight=LAYER_STRIDE)]

    def check(self, results):
        exact, mid = results.get("exact"), results.get("enclosure_mid")
        if exact is None or mid is None:
            return []
        bad = []
        if len(exact.rows) != len(mid.rows):
            bad.append(("enclosure_mid", "row count differs from exact"))
        for a, b in zip(exact.rows, mid.rows):
            gap = abs(a.stat - b.stat)
            tol = b.enclosure_width / 2 + 4 * math.ulp(max(a.stat, b.stat))
            if a.source != b.source or gap > tol:
                bad.append(("enclosure_mid", f"row {b.source}: |exact - mid| "
                                             f"{gap!r} > half width {tol!r}"))
        return bad


class LevySample(Workload):
    name = "levy_sample"
    why = ("irrational_sweep cf_moment at N=1e6 for Lebesgue (M=20000) and "
           "Gauss (M=10000): realization and the KS distance only")
    # Why: the paper's irrational limit-law run.  All of its work is
    # realization (Philox draws, mpmath for Gauss, cf_of_bits, convergents)
    # plus the KS distance, which the other workloads barely touch.
    N = 10 ** 6
    targets = {
        "metric.sample_us_p50.lebesgue": "wall_s",
        "metric.sample_us_p90.lebesgue": "wall_s",
        "metric.sample_us_p50.gauss": "wall_s",
        "metric.sample_us_p90.gauss": "wall_s",
        "cf.expand_us": "wall_s",
        "cf.quotients": "wall_s",
        "alphas.convergents_us": "wall_s",
        "metric.ks_s": "wall_s",
        "metric.redraws": "ops_failed_frac (retries, not failures)",
    }

    def __init__(self, seed: int,
                 sizes=(("lebesgue", 20000), ("gauss", 10000))):
        self.seed = seed
        self.sizes = tuple(sizes)

    def inputs(self) -> dict:
        return {"N": self.N, "seed": self.seed, "M": dict(self.sizes)}

    def _sweep(self, measure: str, M: int):
        res = latdisc.irrational_sweep(SweepConfig(
            mode="irrational", N=self.N, M=M, seed=self.seed,
            measure=measure, estimator="cf_moment"))
        return res, _sweep_text(res)

    def items(self) -> List[Item]:
        return [Item(f"{m} M={M}", partial(self._sweep, m, M),
                     ref_key=f"{m} N={self.N} M={M} seed={self.seed}")
                for m, M in self.sizes]

    def check(self, results):
        # FROZEN_KS was calibrated at M = 2000; smaller samples are too noisy
        threshold = FROZEN_KS.get(("irrational", self.N, "cf_moment"))
        bad = []
        for (m, M) in self.sizes:
            res = results.get(f"{m} M={M}")
            if res is not None and threshold is not None and M >= 2000 \
                    and res.ks > threshold:
                bad.append((f"{m} M={M}", f"KS {res.ks!r} > {threshold}"))
        return bad


WORKLOADS = {w.name: w for w in (WarnockLarge, EnclosureTail, FareySweep,
                                 LevySample)}

# Sizes for the benchmark's own tests: every layer still runs, in seconds.
TINY = {
    "warnock_large": dict(N=300),
    "enclosure_tail": dict(N=300, profile=QK_PROFILE[5::10], tol=0.05,
                           check_every=3),
    "farey_sweep": dict(Q=25),
    "levy_sample": dict(sizes=(("lebesgue", 300), ("gauss", 100))),
}


def make(name: str, seed: int, size: str = "full") -> Workload:
    kwargs = TINY[name] if size == "tiny" else {}
    return WORKLOADS[name](seed, **kwargs)
