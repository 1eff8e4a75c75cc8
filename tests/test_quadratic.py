"""Alternation and growth constants, the Beck-constant regression, and the
log-asymptotics residual tables."""

import math
import random
from fractions import Fraction
from math import isqrt

import pytest

from latdisc.alphas import Alpha
from latdisc.cf import ContinuedFraction, Periodic, QuadraticSurd, cf_of_surd, cf_rule
from latdisc.quadratic import (
    alternation_constant,
    asymptotic_residuals,
    beck_constant_estimate,
    growth_constant,
    period_matrix,
)

C_GOLDEN = 1 / (30 * math.sqrt(5) * math.log((1 + math.sqrt(5)) / 2))
C_SQRT3 = 1 / (12 * math.sqrt(3) * math.log(2 + math.sqrt(3)))


class TestAlternation:
    def test_examples(self):
        assert alternation_constant(cf_of_surd(QuadraticSurd.make(1, 5, 2))) == 0
        assert alternation_constant(cf_of_surd(QuadraticSurd.make(0, 2, 1))) == 0
        assert alternation_constant(cf_of_surd(QuadraticSurd.make(0, 3, 1))) == Fraction(1, 2)

    def test_rotation_invariance(self):
        # the same quotient stream written with a rotated period
        base = ContinuedFraction(1, Periodic((), (1, 2)))
        rotated = ContinuedFraction(1, Periodic((1,), (2, 1)))
        padded = ContinuedFraction(1, Periodic((1, 2), (1, 2)))
        vals = {alternation_constant(cf) for cf in (base, rotated, padded)}
        assert vals == {Fraction(1, 2)}
        lams = {round(growth_constant(cf)[2], 12) for cf in (base, rotated, padded)}
        assert len(lams) == 1

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            alternation_constant(cf_rule("euler_e"))


class TestGrowth:
    def test_golden(self):
        tr, det, lam = growth_constant(cf_of_surd(QuadraticSurd.make(1, 5, 2)))
        assert (tr, det) == (1, -1)
        assert lam == pytest.approx(math.log((1 + math.sqrt(5)) / 2), rel=1e-12)

    def test_sqrt3(self):
        cf = cf_of_surd(QuadraticSurd.make(0, 3, 1))
        assert period_matrix(cf) == (1, 2, 1, 3)
        tr, det, lam = growth_constant(cf)
        assert (tr, det) == (4, 1)
        assert lam == pytest.approx(0.5 * math.log(2 + math.sqrt(3)), rel=1e-12)

    @pytest.mark.parametrize("period, lam_exact", [
        ((1,) * 800, math.log((1 + math.sqrt(5)) / 2)),
        ((1, 2) * 400, 0.5 * math.log(2 + math.sqrt(3))),
    ])
    def test_trace_of_2_500_and_above(self, period, lam_exact):
        # past 2^500 eta is read off the trace alone
        tr, _, lam = growth_constant(ContinuedFraction(0, Periodic((), period)))
        assert tr >= 1 << 500
        assert abs(lam - lam_exact) <= 1e-16

    def test_determinant_sign(self):
        rng = random.Random(8)
        for _ in range(50):
            D = rng.randrange(2, 400)
            if isqrt(D) ** 2 == D:
                continue
            cf = cf_of_surd(QuadraticSurd.make(0, D, 1))
            p = len(cf.body.period)
            _, det, _ = growth_constant(cf)
            assert det == (-1) ** p

    def test_log_denominator_consistency(self):
        # |log q_K - Lambda K| stays bounded over K <= 40
        for spec in ((1, 5, 2), (0, 3, 1), (0, 2, 1), (0, 13, 1)):
            alpha = Alpha.from_surd(*spec)
            _, _, lam = growth_constant(alpha.cf)
            gaps = [abs(math.log(alpha.q(K)) - lam * K) for K in range(5, 41)]
            assert max(gaps) < 3.0


class TestBeck:
    def test_golden_closed_form(self):
        c, err = beck_constant_estimate(
            Alpha.from_surd(-1, 5, 2), [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
        assert abs(c - C_GOLDEN) / C_GOLDEN < 0.05

    def test_grid_doubling_stability(self):
        sq3 = Alpha.from_surd(-1, 3, 1)
        grid = [1000 * 2 ** j for j in range(8)]
        c1, e1 = beck_constant_estimate(sq3, grid)
        c2, e2 = beck_constant_estimate(sq3, [g * 2 for g in grid])
        assert abs(c1 - c2) <= 3 * (e1 + e2) + 0.002

    def test_rational_slope_zero(self):
        grid = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
        c, e = beck_constant_estimate(Alpha.from_rational(13, 30), grid)
        assert abs(c) < 1e-3
        # a bare Fraction is exact too, so it skips the same terms
        assert beck_constant_estimate(Fraction(13, 30), grid) == (c, e)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            beck_constant_estimate(Alpha.from_surd(-1, 5, 2), [10, 100])


class TestResidualTables:
    def test_S_rows_smoke(self):
        phi = Alpha.from_surd(-1, 5, 2)
        tab = asymptotic_residuals(phi, range(5, 11), True, c_alpha=C_GOLDEN)
        assert [r.K for r in tab.rows] == list(range(5, 11))
        assert all(r.residual is not None for r in tab.rows)
        assert tab.fit is None

    def test_L_fit_smoke(self):
        sq3 = Alpha.from_surd(-1, 3, 1)
        tab = asymptotic_residuals(sq3, range(5, 11), False)
        assert tab.fit is not None and set(tab.fit) == {"beta", "gamma", "delta"}

    def test_requires_c_for_S(self):
        with pytest.raises(ValueError):
            asymptotic_residuals(Alpha.from_surd(-1, 5, 2), range(5, 9), True)
