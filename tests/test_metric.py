"""Levy law, Kolmogorov distance, Farey machinery, random sampling, sweeps."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest

from latdisc import metric
from latdisc.metric import (
    EmpiricalDistribution,
    SweepConfig,
    cf_reversed_fraction,
    farey_count,
    farey_enumerate,
    farey_sample,
    irrational_sweep,
    kolmogorov_distance,
    levy_cdf,
    quotient_tail_count,
    rational_sweep,
    sample_irrational,
    trimmed_quotient_mean,
)

from oracles import levy_cdf_quadrature


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
        emp = EmpiricalDistribution.from_samples([2.0])
        f = levy_cdf(2.0)
        assert kolmogorov_distance(emp, levy_cdf) == pytest.approx(max(f, 1 - f))

    def test_exact_quantiles(self):
        # samples at the (i - 1/2)/n quantiles leave distance 1/(2n)
        from scipy.special import erfinv
        n = 50
        qs = [1 / (2 * erfinv(1 - (i - 0.5) / n) ** 2) for i in range(1, n + 1)]
        emp = EmpiricalDistribution.from_samples(qs)
        assert kolmogorov_distance(emp, levy_cdf) == pytest.approx(1 / (2 * n), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_distance(EmpiricalDistribution((), 0), levy_cdf)


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
        from latdisc.cf import alternate_expansion, cf_of_rational, cf_value

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

    def test_reversal_value(self):
        # the reversed expansion evaluates to q_{r-1}/q_r
        from latdisc.cf import cf_of_rational, convergents
        rng = random.Random(21)
        for _ in range(100):
            q = rng.randrange(2, 3000)
            p = rng.randrange(1, q)
            if gcd(p, q) != 1:
                continue
            cf = cf_of_rational(p, q)
            r = len(cf.body.terms)
            cv = convergents(cf, r)
            assert cf_reversed_fraction(p, q) == (cv[r - 1].q, cv[r].q)


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
            assert 0 < a.value.to_float() < 1
            assert all(x >= 1 for x in a.cf.body.terms)
        with pytest.raises(ValueError):
            sample_irrational("cauchy", 256, 1, 0)

    def test_truncation_length_distribution(self):
        # with B = 256 and the q^2 > 2^(B-64) cutoff the prefix length sits
        # near 56; it never came out below 41 in 600 calibration draws
        ls = [len(sample_irrational("lebesgue", 256, 1001, i).cf.body.terms)
              for i in range(150)]
        assert min(ls) >= 40
        assert sorted(ls)[len(ls) // 2] >= 50


class TestSweeps:
    def test_rational_small(self):
        res = rational_sweep(SweepConfig(mode="farey_full", Q=30))
        assert res.n == farey_count(30) - 2  # both q = 1 entries excluded
        assert 0 < res.ks < 1
        assert all(r.enclosure_width == 0 for r in res.rows)

    def test_rational_threads_agree(self):
        cfg = SweepConfig(mode="farey_full", Q=25)
        assert rational_sweep(cfg, threads=1) == rational_sweep(cfg, threads=2)

    def test_rational_sample_mode(self):
        cfg = SweepConfig(mode="farey_sample", Q=50, M=40, seed=5)
        res = rational_sweep(cfg)
        assert res.n == 40
        assert all(int(r.source.split("/")[1]) >= 2 for r in res.rows)

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

    def test_pool_never_larger_than_rows_or_cpus(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(metric, "ProcessPoolExecutor", RecordingPool)
        cfg = SweepConfig(mode="farey_full", Q=5, estimator="cf_moment")
        rows = farey_count(5) - 2
        serial = rational_sweep(cfg, threads=1)
        monkeypatch.setattr(metric.os, "cpu_count", lambda: 64)
        assert rational_sweep(cfg, threads=5000) == serial
        monkeypatch.setattr(metric.os, "cpu_count", lambda: 3)
        assert rational_sweep(cfg, threads=5000) == serial
        monkeypatch.setattr(metric.os, "cpu_count", lambda: None)
        assert rational_sweep(cfg, threads=5000) == serial
        assert started == [rows, 3]
        for threads in (0, -1):
            with pytest.raises(ValueError):
                rational_sweep(cfg, threads=threads)


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
