"""Levy law, Kolmogorov distance, Farey machinery, random sampling, sweeps."""

import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from latdisc import metric
from latdisc.alphas import Alpha
from latdisc.discrepancy import d2_exact_fast
from latdisc.lattice import build_S
from latdisc.metric import (
    ESTIMATORS,
    SweepConfig,
    farey_count,
    farey_enumerate,
    farey_sample,
    irrational_sweep,
    kolmogorov_distance,
    levy_cdf,
    rational_sweep,
    sample_irrational,
)

import oracles
from oracles import (
    alternate_expansion,
    gauss_mantissa,
    levy_cdf_quadrature,
    quotient_tail_count,
    trimmed_quotient_mean,
)


class TestLevy:
    def test_endpoints(self):
        assert levy_cdf(0) == 0.0
        assert levy_cdf(-3) == 0.0
        assert abs(levy_cdf(1e8) - 1) < 1e-3

    def test_median(self):
        assert levy_cdf(2.19814) == pytest.approx(0.5, abs=1e-4)

    def test_monotone(self):
        ts = [0.01 * i for i in range(1, 2000)]
        vals = [levy_cdf(t) for t in ts]
        assert vals == sorted(vals)

    def test_against_quadrature(self):
        for i in range(1, 101):
            t = 0.25 * i
            assert abs(levy_cdf(t) - levy_cdf_quadrature(t)) < 1e-9


class TestKolmogorov:
    def test_single_sample(self):
        f = levy_cdf(2.0)
        assert kolmogorov_distance([2.0]) == pytest.approx(max(f, 1 - f))

    def test_exact_quantiles(self):
        # samples at the (i - 1/2)/n quantiles leave distance 1/(2n)
        from scipy.special import erfinv
        n = 50
        qs = [1 / (2 * erfinv(1 - (i - 0.5) / n) ** 2) for i in range(1, n + 1)]
        # handed over in descending order: the distance sorts its input
        assert kolmogorov_distance(qs[::-1]) == pytest.approx(1 / (2 * n), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_distance([])

    # a few distinct values drawn again and again: ties, infinities, zero
    # and negatives, where the CDF is 0
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                          max_size=80)))
    @settings(max_examples=200, deadline=None)
    def test_vectorized_distance_is_the_loop(self, xs):
        assert kolmogorov_distance(xs) == oracles.kolmogorov_distance(xs)


class TestFarey:
    def test_enumerate_q5(self):
        assert list(farey_enumerate(5)) == [
            (0, 1), (1, 5), (1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3),
            (3, 4), (4, 5), (1, 1)]

    def test_small(self):
        assert list(farey_enumerate(1)) == [(0, 1), (1, 1)]
        assert list(farey_enumerate(2)) == [(0, 1), (1, 2), (1, 1)]

    def test_count_identity(self):
        for Q in (5, 50, 300, 1000, 3000):
            n = sum(1 for _ in farey_enumerate(Q))
            assert n == farey_count(Q)

    def test_ordering_and_reduced(self):
        prev = Fraction(-1)
        for p, q in farey_enumerate(120):
            assert gcd(p, q) == 1
            f = Fraction(p, q)
            assert f > prev
            prev = f

    def test_reversal_is_bijection_on_expansions(self):
        # Reversing quotients is 2-to-1 in places on canonical expansions
        # alone (1/3 = [0;3] and 2/3 = [0;1,2] both reverse to 1/3), so the
        # permutation statement lives on the doubled set carrying both
        # expansions of every fraction: there each value appears exactly
        # twice as an image, always with the same denominator.
        from latdisc.cf import cf_of_rational

        def reversed_value(terms):
            val = Fraction(0)
            for a in terms:
                val = Fraction(1, a + val)
            return val

        for Q in (30, 120, 300):
            img = {}
            n_inner = 0
            for p, q in farey_enumerate(Q):
                if p == 0 or p == q:
                    continue
                n_inner += 1
                cf = cf_of_rational(p, q)
                for e in (cf, alternate_expansion(cf)):
                    v = reversed_value(tuple(reversed(e.body.terms)))
                    assert v.denominator == q
                    img[v] = img.get(v, 0) + 1
            assert len(img) == n_inner
            assert all(v == 2 for v in img.values())


class TestQuotientTail:
    def test_example_q5(self):
        count, bound = quotient_tail_count(5, 1, 3)
        assert count == 3 and bound == Fraction(50, 3)

    def test_t_beyond_Q(self):
        count, _ = quotient_tail_count(20, 1, 21)
        assert count == 0

    def test_q100(self):
        count, bound = quotient_tail_count(100, 2, 10)
        assert count <= 2000
        assert count == 423  # frozen from enumeration

    def test_guard(self):
        with pytest.raises(ValueError):
            quotient_tail_count(5000, 1, 2)


class TestSampling:
    def test_farey_sample_uniform(self):
        # chi-square against uniform over the 10 nonzero fractions of F_5
        M = 20000
        sample = farey_sample(5, M, seed=42)
        counts = {}
        for pq in sample:
            counts[pq] = counts.get(pq, 0) + 1
        assert set(counts) == {(p, q) for p, q in farey_enumerate(5) if p}
        expect = M / 10
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        assert chi2 < 27.88  # 99.9% quantile of chi-square with 9 dof

    def test_farey_sample_deterministic(self):
        assert farey_sample(40, 50, seed=7) == farey_sample(40, 50, seed=7)
        assert farey_sample(40, 50, seed=7) != farey_sample(40, 50, seed=8)

    def test_farey_sample_q1(self):
        assert farey_sample(1, 5, seed=3) == [(1, 1)] * 5

    def test_irrational_deterministic(self):
        a = sample_irrational("lebesgue", 256, 11, 4)
        b = sample_irrational("lebesgue", 256, 11, 4)
        assert a.label == b.label
        assert sample_irrational("lebesgue", 256, 11, 5).label != a.label

    def test_irrational_measures(self):
        for measure in ("lebesgue", "gauss"):
            a = sample_irrational(measure, 256, 1, 0)
            assert 0 < a.value.mantissa < 1 << a.value.bits
            assert all(x >= 1 for x in a.cf.body.terms)
        with pytest.raises(ValueError):
            sample_irrational("cauchy", 256, 1, 0)

    @pytest.mark.parametrize("bits", [128, 130, 192, 256, 320])
    def test_rand_bits_are_the_generator_bytes(self, bits):
        for seed in range(4):
            gen, ref = metric._substream(seed, 7), metric._substream(seed, 7)
            for _ in range(2):  # a second draw is the u = 0 redraw
                want = int.from_bytes(ref.bytes((bits + 7) // 8), "big")
                assert metric._rand_bits(gen, bits) == want & ((1 << bits) - 1)

    # seeds of 1 to 7 entropy words, spawn keys up to 2^32 - 1
    @given(seed=st.integers(0, 200).flatmap(lambda b: st.integers(0, 1 << b)),
           bits=st.sampled_from([128, 129, 130, 192, 200, 256, 320, 1000]),
           index=st.sampled_from([0, (1 << 32) - 1])
           | st.integers(0, (1 << 32) - 1),
           count=st.integers(1, 30))
    @example(seed=1 << 200, bits=256, index=(1 << 32) - 1, count=2)
    @example(seed=(1 << 160) - 1, bits=129, index=0, count=3)
    # seeds of w = 1, 4 and 5 words: the hash count 4 max(4, w) is 16, 16
    # and 20
    @example(seed=0, bits=128, index=0, count=1)
    @example(seed=(1 << 128) - 1, bits=256, index=5, count=2)
    @example(seed=1 << 128, bits=256, index=5, count=2)
    @settings(max_examples=60, deadline=None)
    def test_first_draws_are_the_substream_draws(self, seed, bits, index,
                                                 count):
        def draw(i):
            return metric._rand_bits(metric._substream(seed, i), bits)

        assert metric._first_draws(seed, [index], bits) == [draw(index)]
        start = min(index, (1 << 32) - count)
        assert metric._first_draws(seed, range(start, start + count), bits) \
            == [draw(i) for i in range(start, start + count)]

    @given(bits=st.sampled_from([128, 256, 320, 1000]),
           seed=st.integers(0, 1 << 32), index=st.integers(0, 1 << 40))
    @settings(max_examples=40, deadline=None)
    def test_gauss_draw_is_the_mpmath_floor(self, bits, seed, index):
        gen = metric._substream(seed, index)
        mant = 0
        while not mant:
            u = int.from_bytes(gen.bytes((bits + 7) // 8), "big")
            u &= (1 << bits) - 1
            mant = u and gauss_mantissa(u, bits)
        assert sample_irrational("gauss", bits, seed, index).label == \
            f"bits:{mant:x}@{bits}"

    # free u, small u, and u next to a step i 2^(B-8l) of table level l
    @given(bits=st.sampled_from([128, 129, 256, 320, 1000]),
           u=st.integers(1, (1 << 1000) - 1), shift=st.integers(0, 999),
           step=st.booleans(), level=st.integers(1, 4), i=st.integers(0, 256),
           d=st.integers(-2, 2))
    @example(bits=129, u=1, shift=0, step=True, level=4, i=255, d=2)
    @example(bits=256, u=1, shift=0, step=True, level=4, i=256, d=-1)
    @example(bits=1000, u=1, shift=0, step=True, level=3, i=128, d=0)
    @settings(max_examples=200, deadline=None)
    def test_gauss_mantissa_matches_mpmath(self, bits, u, shift, step, level,
                                           i, d):
        import mpmath
        u = (u % (1 << bits)) >> (shift % bits)
        if step:
            u = ((i << (bits - 8 * level)) + d) % (1 << bits)
        u = u or 1
        assert metric._gauss_mantissa(u, bits) == gauss_mantissa(u, bits)
        # the integer estimate is within its bound of 2^(u/2^B) 2^(B+64)
        with mpmath.workprec(bits + 264):
            true = mpmath.mpf(2) ** (mpmath.mpf(u) / (1 << bits) + bits + 64)
            assert abs(metric._pow2_fixed(u, bits) - true) <= \
                metric._POW2_ERR

    @pytest.mark.parametrize("low", ["lo_edge", "hi_edge"])
    def test_gauss_fallback_is_mpmath(self, monkeypatch, low):
        # an estimate at its cell's edge whose floor is five cells off: only
        # the mpmath fallback gets the draw right
        bits, u = 256, 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251
        margin = metric._POW2_ERR + (1 << 32)
        low = margin if low == "lo_edge" else (1 << 64) - margin
        top = (metric._pow2_fixed(u, bits) >> 64) + 5
        monkeypatch.setattr(metric, "_pow2_fixed",
                            lambda u, bits: (top << 64) + low)
        assert metric._gauss_mantissa(u, bits) == gauss_mantissa(u, bits)
        # one unit inside the margin the floor is taken, as it stands
        monkeypatch.setattr(metric, "_pow2_fixed",
                            lambda u, bits: (top << 64) + margin + 1)
        assert metric._gauss_mantissa(u, bits) == top - (1 << bits)

    def test_truncation_length_distribution(self):
        # with B = 256 and the q^2 > 2^(B-64) cutoff the prefix length sits
        # near 56; it never came out below 41 in 600 calibration draws
        ls = [len(sample_irrational("lebesgue", 256, 1001, i).cf.body.terms)
              for i in range(150)]
        assert min(ls) >= 40
        assert sorted(ls)[len(ls) // 2] >= 50


def lone_score(p, q, estimator):
    """(stat, width) of one fraction p/q, 2 <= q, scored on its own."""
    logsq = math.log(q) ** 2
    alpha = Alpha.from_rational(p, q)
    if estimator == "exact":
        d2sq = d2_exact_fast(build_S(alpha, q)).d2_squared
        return metric.LEVY_COEFF * float(d2sq) / logsq, 0.0
    if estimator == "cf_moment":
        _, terms = oracles.quotients_of_fraction(Fraction(p, q), q)
        s2 = sum(a * a for a in terms)
        return metric.MOMENT_COEFF_RATIONAL * s2 / logsq, 0.0
    lo, hi, _, _ = oracles.enclosure_fraction(alpha, q, None, True)
    return (metric.LEVY_COEFF * float((lo + hi) / 2) / logsq,
            metric.LEVY_COEFF * float(hi - lo) / logsq)


class TestSweeps:
    def test_rational_small(self):
        res = rational_sweep(SweepConfig(mode="farey_full", Q=30))
        assert res.n == farey_count(30) - 2  # both q = 1 entries excluded
        assert 0 < res.ks < 1
        assert all(r.enclosure_width == 0 for r in res.rows)

    def test_rational_threads_agree(self):
        for estimator in ESTIMATORS:
            cfg = SweepConfig(mode="farey_full", Q=25, estimator=estimator)
            assert rational_sweep(cfg, threads=1) == rational_sweep(cfg, threads=2)

    def test_rational_sample_mode(self):
        cfg = SweepConfig(mode="farey_sample", Q=50, M=40, seed=5)
        res = rational_sweep(cfg)
        assert res.n == 40
        assert all(int(r.source.split("/")[1]) >= 2 for r in res.rows)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_sample_scores_each_fraction_once(self, monkeypatch, estimator):
        cfg = SweepConfig(mode="farey_sample", Q=60, M=300, seed=3,
                          estimator=estimator)
        draws = [metric._farey_draw(metric._substream(3, i), 60, 2)
                 for i in range(300)]
        distinct = sorted(set(draws))
        assert len(distinct) == 261 and len({q for _, q in distinct}) == 55
        scored, batches = [], []
        levy, lattices, cf = (metric._levy_stat, metric.d2_exact_lattices,
                              metric.cf_of_rational)

        def levy_stat(alpha, N, est):
            scored.append((alpha.value.numerator, N))
            return levy(alpha, N, est)

        def d2_exact_lattices(steps, mod, N, sym):
            batches.append(mod)
            scored.extend((p, mod) for p in steps)
            return lattices(steps, mod, N, sym)

        def cf_of_rational(p, q):
            scored.append((p, q))
            return cf(p, q)

        monkeypatch.setattr(metric, "_levy_stat", levy_stat)
        monkeypatch.setattr(metric, "d2_exact_lattices", d2_exact_lattices)
        monkeypatch.setattr(metric, "cf_of_rational", cf_of_rational)
        res = rational_sweep(cfg)
        monkeypatch.undo()
        assert sorted(scored) == distinct
        assert len(batches) == (55 if estimator == "exact" else 0)
        assert [r.source for r in res.rows] == [f"{p}/{q}" for p, q in draws]
        for row, (p, q) in zip(res.rows, draws):
            assert (row.stat, row.enclosure_width) == lone_score(p, q,
                                                                 estimator)

    def test_estimators_consistent(self):
        cfg_e = SweepConfig(mode="farey_full", Q=40, estimator="exact")
        cfg_m = SweepConfig(mode="farey_full", Q=40, estimator="enclosure_mid")
        re_, rm = rational_sweep(cfg_e), rational_sweep(cfg_m)
        # midpoint estimator must sit within half the enclosure width
        for a, b in zip(re_.rows, rm.rows):
            assert abs(a.stat - b.stat) <= b.enclosure_width / 2 + 1e-9

    def test_irrational_boundary_N2(self):
        res = irrational_sweep(SweepConfig(mode="irrational", N=2, M=10,
                                           seed=3, estimator="cf_moment"))
        assert res.n == 10 and all(r.stat >= 0 for r in res.rows)

    def test_irrational_exact_vs_mid(self):
        cfg = SweepConfig(mode="irrational", N=500, M=6, seed=12,
                          estimator="exact")
        cfg2 = SweepConfig(mode="irrational", N=500, M=6, seed=12,
                           estimator="enclosure_mid")
        r1, r2 = irrational_sweep(cfg), irrational_sweep(cfg2)
        for a, b in zip(r1.rows, r2.rows):
            assert abs(a.stat - b.stat) <= b.enclosure_width / 2 + 1e-9

    def test_irrational_threads_agree(self):
        cfg = SweepConfig(mode="irrational", N=100, M=12, seed=9,
                          estimator="cf_moment")
        assert irrational_sweep(cfg, threads=1) == irrational_sweep(cfg, threads=2)

    @pytest.mark.parametrize("measure", ["lebesgue", "gauss"])
    def test_irrational_rows_are_the_single_draws(self, measure):
        cfg = SweepConfig(mode="irrational", N=1000, M=30, seed=21,
                          measure=measure, estimator="cf_moment")
        want = [sample_irrational(measure, 256, 21, i).label for i in range(30)]
        for threads in (1, 2):
            res = irrational_sweep(cfg, threads=threads)
            assert [r.source for r in res.rows] == want

    @pytest.mark.parametrize("measure", ["lebesgue", "gauss"])
    @pytest.mark.parametrize("bits, N, threads", [(256, 10 ** 6, 1),
                                                  (128, 10 ** 8, 2)])
    def test_cf_moment_rows_are_the_eager_rows(self, measure, bits, N,
                                               threads):
        # at 128 bits, q_K >= 10^8 leaves the certified prefix (q^2 <= 2^64)
        # often enough that draws are redone
        cfg = SweepConfig(mode="irrational", N=N, M=500, seed=31337,
                          measure=measure, estimator="cf_moment", bits=bits)
        rows, resampled = [], 0
        for i in range(cfg.M):
            for r in range(9):  # each try draws from its own generator
                gen, mant = metric._substream(cfg.seed, i + (r << 32)), 0
                while not mant:
                    u = metric._rand_bits(gen, bits)
                    mant = (gauss_mantissa(u, bits) if measure == "gauss"
                            and u else u)
                a, q = oracles.cf_of_bits(mant, bits), [0, 1]
                for K, ak in enumerate(a, 1):
                    q.append(ak * q[-1] + q[-2])
                    if q[-1] >= N:
                        break
                else:
                    continue  # the prefix ends below N: drawn again
                stat = (metric.MOMENT_COEFF_IRRATIONAL
                        * sum(x * x for x in a[:K]) / (K * K))
                rows.append((str(i), f"bits:{mant:x}@{bits}", stat,
                             "cf_moment", 0.0))
                resampled += r
                break
        res = irrational_sweep(cfg, threads=threads)
        assert [tuple(row) for row in res.rows] == rows
        assert res.ks == oracles.kolmogorov_distance(row[2] for row in rows)
        assert res.resampled == resampled
        assert (resampled > 0) == (bits == 128)

    def test_unknown_measure_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(metric, "_first_draws",
                            lambda *a: pytest.fail("drew before the check"))
        with pytest.raises(ValueError,
                           match="^measure must be 'lebesgue' or 'gauss'$"):
            irrational_sweep(SweepConfig(mode="irrational", N=100, M=5,
                                         measure="uniform"))

    def test_zero_first_draw_is_drawn_again(self, monkeypatch):
        cfg = SweepConfig(mode="irrational", N=1000, M=8, seed=4,
                          estimator="cf_moment")
        want = irrational_sweep(cfg)
        kernel, substream, keys = metric._first_draws, metric._substream, []

        def zero_at_3(seed, index, bits):
            draws = kernel(seed, index, bits)
            draws[3] = 0
            return draws

        monkeypatch.setattr(metric, "_first_draws", zero_at_3)
        assert irrational_sweep(cfg, threads=2) == want
        monkeypatch.setattr(metric, "_substream",
                            lambda *key: keys.append(key) or substream(*key))
        assert irrational_sweep(cfg) == want
        assert keys == [(4, 3)]  # only sample 3 took the scalar path

    def test_pool_never_larger_than_rows_or_cpus(self, monkeypatch):
        started, chunks = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                chunks.append(chunksize)
                return map(fn, args)

        monkeypatch.setattr(metric, "ProcessPoolExecutor", RecordingPool)
        cfg = SweepConfig(mode="farey_full", Q=5, estimator="cf_moment")
        tasks = 4  # one per denominator q = 2..5
        serial = rational_sweep(cfg, threads=1)
        monkeypatch.setattr(metric.os, "cpu_count", lambda: 64)
        assert rational_sweep(cfg, threads=5000) == serial
        monkeypatch.setattr(metric.os, "cpu_count", lambda: 3)
        assert rational_sweep(cfg, threads=5000) == serial
        monkeypatch.setattr(metric.os, "cpu_count", lambda: None)
        assert rational_sweep(cfg, threads=5000) == serial
        assert started == [tasks, 3] and chunks == [1, 1]
        for threads in (0, -1):
            with pytest.raises(ValueError):
                rational_sweep(cfg, threads=threads)
        # each worker takes its share in about eight chunks
        monkeypatch.setattr(metric.os, "cpu_count", lambda: 64)
        icfg = SweepConfig(mode="irrational", N=100, M=50,
                           estimator="cf_moment")
        assert irrational_sweep(icfg, threads=2) == irrational_sweep(icfg)
        assert started[-1] == 2 and chunks[-1] == 50 // 16


class TestTrimmed:
    def test_deterministic(self):
        a = trimmed_quotient_mean("lebesgue", 100, 20, seed=6)
        assert a == trimmed_quotient_mean("lebesgue", 100, 20, seed=6)

    def test_small_K_reported(self):
        # pre-asymptotic but well defined
        v = trimmed_quotient_mean("lebesgue", 10, 30, seed=6)
        assert v > 0

    def test_limit_value(self):
        # trimmed quotient sums approach 1/log 2; at K = 1000 the seeded run
        # sits within 10% (convergence is log-slow, so nearby K drift is real)
        v = trimmed_quotient_mean("lebesgue", 1000, 200, seed=314)
        assert abs(v - 1 / math.log(2)) <= 0.1 / math.log(2)


class TestEstimatorComparison:
    def test_exact_vs_moment_ks_gap_reported(self):
        # the two scorings of the same Farey sample give different but
        # comparably sized distances to the limit law
        cfg_e = SweepConfig(mode="farey_sample", Q=80, M=300, seed=5,
                            estimator="exact")
        cfg_m = SweepConfig(mode="farey_sample", Q=80, M=300, seed=5,
                            estimator="cf_moment")
        ks_e = rational_sweep(cfg_e).ks
        ks_m = rational_sweep(cfg_m).ks
        assert 0 < ks_m < ks_e < 1  # the moment statistic drops the O(1) part
