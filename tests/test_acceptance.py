"""Acceptance suite: ten go/no-go checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
Tolerances and thresholds are pinned here; the Kolmogorov-distance ceilings
and residual envelopes marked "frozen" were recorded from the first seeded
calibration run and guard against regressions, since the underlying limit
laws are asymptotic and desk-scale distances retain the O(1) part of the
expansion.
"""

import math
import random
import time
from fractions import Fraction

from scipy.stats import kendalltau

from latdisc.alphas import Alpha
from latdisc.cf import cf_rule, cf_stats
from latdisc.corpus import (
    containment_sweep,
    enclosure_instances,
    feasible_indices,
    gap_sweep,
)
from latdisc.discrepancy import d2_exact_fast, d2_exact_quadratic
from latdisc.lattice import build_L, build_S
from latdisc.metric import (
    FROZEN_KS,
    SweepConfig,
    farey_enumerate,
    irrational_sweep,
    rational_sweep,
    sample_irrational,
)
from latdisc.parseval import dioph_inequalities, enclosure_S

from oracles import (
    cell_integration_d2sq,
    e_fraction,
    merge_sweep_d2sq,
    pairwise_d2sq,
    quotient_tail_count,
    quotients_of_fraction,
    tan1_fraction,
    xi_direct,
)

C_GOLDEN = 1 / (30 * math.sqrt(5) * math.log((1 + math.sqrt(5)) / 2))
C_SQRT3 = 1 / (12 * math.sqrt(3) * math.log(2 + math.sqrt(3)))
LAMBDA_SQRT3 = 0.5 * math.log(2 + math.sqrt(3))
LOG2_COEFF_SQRT3 = 0.25 / (144 * LAMBDA_SQRT3 ** 2)  # 0.0040040...


def report(idx, name, ok, detail):
    line = f"[{idx:2d}/10] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def random_rational_points(rng, n, den_max=64):
    pts = []
    while len(pts) < n:
        x = Fraction(rng.randrange(0, den_max), den_max)
        y = Fraction(rng.randrange(0, den_max), den_max)
        pts.append((x, y))
        if rng.random() < 0.15:
            pts.append((x, Fraction(rng.randrange(0, den_max), den_max)))
    return pts[:n]


def test_01_oracle_equivalence(corpus):
    t0 = time.time()
    rng = random.Random(16180)
    mismatches = 0
    sets = 0
    # 10^3 random rational point sets, sizes up to 200: the merge sweep and
    # the numpy pairwise sum
    for _ in range(1000):
        pts = random_rational_points(rng, rng.randrange(1, 201))
        sets += 1
        want = d2_exact_quadratic(pts).d2_squared
        if merge_sweep_d2sq(pts) != want or pairwise_d2sq(pts) != want:
            mismatches += 1
    # every corpus alpha at a moderate lattice size, both variants
    for alpha in corpus:
        Ks = feasible_indices(alpha, 30, 250)
        N = alpha.q(Ks[-1]) if Ks else 2
        for build in (build_L, build_S):
            P = build(alpha, N)
            sets += 1
            if d2_exact_fast(P).d2_squared != d2_exact_quadratic(P).d2_squared:
                mismatches += 1
    # larger instances, still within the N <= 10^4 envelope: the pairwise
    # sum in numpy
    for alpha, N in ((Alpha.from_surd(-1, 5, 2), 6765),
                     (Alpha.from_rule("euler_e"), 1001)):
        for build in ((build_S,) if N > 2000 else (build_L, build_S)):
            P = build(alpha, N)
            sets += 1
            if d2_exact_fast(P).d2_squared != pairwise_d2sq(P.points()):
                mismatches += 1
    # symbolic piecewise integration agrees on every tiny set
    cell_checked = 0
    for alpha in corpus:
        for N in (1, 2, 3, 6):
            for build in (build_L, build_S):
                P = build(alpha, N)
                if P.size > 12:
                    continue
                cell_checked += 1
                if d2_exact_quadratic(P).d2_squared != cell_integration_d2sq(P.points()):
                    mismatches += 1
    for _ in range(50):
        pts = random_rational_points(rng, rng.randrange(1, 7))
        cell_checked += 1
        if d2_exact_quadratic(pts).d2_squared != cell_integration_d2sq(pts):
            mismatches += 1
    el = time.time() - t0
    report(1, "fast/quadratic/symbolic oracle equivalence",
           mismatches == 0 and el < 120,
           f"{sets} Warnock sets + {cell_checked} cell integrations, "
           f"{mismatches} mismatches, {el:.0f}s")


def test_02_enclosure_containment(corpus):
    t0 = time.time()
    records = containment_sweep(corpus, max_K=14, size_cap=20000, K_count=5)
    bad = [r for r in records if not r.ok]
    instances = len(records) // 2
    el = time.time() - t0
    report(2, "certified enclosures contain exact D2^2 (S and L)",
           instances >= 400 and not bad and el < 600,
           f"{instances} (alpha,N) instances, {len(bad)} violations, {el:.0f}s")


def test_03_quotient_square_gap(corpus):
    t0 = time.time()
    checks = gap_sweep(corpus, max_K=20, sum_cap=300000)
    bad = [c for c in checks if not c[2]]
    report(3, "Diophantine sum within 152*sum(a_k) of (pi^4/90)*sum(a_k^2)",
           len(checks) >= 300 and not bad,
           f"{len(checks)} (alpha,K) checks, {len(bad)} violations, "
           f"{time.time()-t0:.0f}s")


def test_04_certified_inequalities_and_tail_counts(named):
    t0 = time.time()
    failures = []
    # the three quotient-sum bounds on a named-alpha grid plus rationals
    grid_alphas = named + [Alpha.from_rational(211, 299), Alpha.from_rational(3, 8)]
    for alpha in grid_alphas:
        for K in feasible_indices(alpha, 10, 3000)[-2:]:
            br = dioph_inequalities(alpha, K, n=7, N=alpha.q(K))
            if not br.all_hold:
                failures.append((alpha.label, K, "ineq"))
    # the infinite-tail bound at its truncation 8*q_K*n
    phi = named[0]
    for alpha, K, n in ((phi, 9, 34), (Alpha.from_rational(211, 299), 5, 50),
                        (named[2], 8, 0)):
        br = dioph_inequalities(alpha, K, n=n, N=alpha.q(K))
        if not br.tail_min.holds:
            failures.append((alpha.label, K, "tail"))
    # quotient tail counts over the stated grid, one enumeration per Q
    ts = (2, 5, 10, 50)
    for Q in (50, 200, 1000):
        counts = {(k, t): 0 for k in range(1, 11) for t in ts}
        for p, q in farey_enumerate(Q):
            a0, terms = quotients_of_fraction(Fraction(p, q) if p else Fraction(0), 12)
            if p == q:
                terms = [1]
            for k in range(1, min(len(terms), 10) + 1):
                for t in ts:
                    if terms[k - 1] >= t:
                        counts[(k, t)] += 1
        for (k, t), c in counts.items():
            if c > Fraction(2 * Q * Q, t):
                failures.append((Q, k, t))
    # the batch counter must agree with quotient_tail_count
    for (Q, k, t) in ((50, 1, 5), (200, 2, 10), (200, 3, 2)):
        c1, bound = quotient_tail_count(Q, k, t)
        c2 = 0
        for p, q in farey_enumerate(Q):
            _, terms = quotients_of_fraction(Fraction(p, q) if p else Fraction(0), k)
            if p == q:
                terms = [1]
            if len(terms) >= k and terms[k - 1] >= t:
                c2 += 1
        if c1 != c2 or c1 > bound:
            failures.append((Q, k, t, "spot"))
    report(4, "certified quotient-sum and tail-count inequalities",
           not failures, f"{len(failures)} failures, {time.time()-t0:.0f}s")


def test_05_beck_constants():
    from latdisc.quadratic import beck_constant_estimate
    t0 = time.time()
    grid = sorted(set(int(10 ** (3 + j / 3)) for j in range(13)))
    c_phi, _ = beck_constant_estimate(Alpha.from_surd(-1, 5, 2), grid)
    c_sq3, _ = beck_constant_estimate(Alpha.from_surd(-1, 3, 1), grid)
    r1, r2 = c_phi / C_GOLDEN, c_sq3 / C_SQRT3
    el = time.time() - t0
    report(5, "Beck-constant regression matches both closed forms within 5%",
           abs(r1 - 1) < 0.05 and abs(r2 - 1) < 0.05 and el < 300,
           f"golden ratio {r1:.4f}, sqrt(3) ratio {r2:.4f}, {el:.0f}s")


def test_06_quadratic_asymptotics():
    from latdisc.quadratic import asymptotic_residuals
    t0 = time.time()
    phi = Alpha.from_surd(-1, 5, 2)
    tab = asymptotic_residuals(phi, range(5, 25), True, c_alpha=C_GOLDEN)
    resid = [r.residual for r in tab.rows]
    spread = max(resid) - min(resid)
    _, p_trend = kendalltau(range(len(resid)), resid)
    ok_s = spread <= 0.05 and p_trend > 0.05  # frozen: observed spread 0.0016

    sq3 = Alpha.from_surd(-1, 3, 1)
    tab3 = asymptotic_residuals(sq3, range(6, 19), False)
    beta_ratio = tab3.fit["beta"] / LOG2_COEFF_SQRT3
    ok_l = abs(beta_ratio - 1) <= 0.25

    # golden ratio unsymmetrized: vanishing log^2 coefficient, and the log
    # coefficient matches (3/2) c within 15% once the constant is fitted out
    tabp = asymptotic_residuals(phi, range(5, 25), False)
    gamma_ratio = tabp.fit["gamma"] / (1.5 * C_GOLDEN)
    ok_p = abs(tabp.fit["beta"]) <= 1e-4 and abs(gamma_ratio - 1) <= 0.15
    report(6, "log-asymptotics of quadratic irrationals",
           ok_s and ok_l and ok_p,
           f"spread {spread:.4f} trend-p {p_trend:.2f}, sqrt3 log^2-coeff "
           f"ratio {beta_ratio:.3f}, golden log-coeff ratio {gamma_ratio:.3f}, "
           f"{time.time()-t0:.0f}s")


def test_07_named_expansions():
    t0 = time.time()
    e_a0, e_terms = quotients_of_fraction(e_fraction(), 60)
    ce = cf_rule("euler_e")
    ok_e = e_a0 == ce.a0 and e_terms == [ce.quotient(k) for k in range(1, 61)]
    t_a0, t_terms = quotients_of_fraction(tan1_fraction(), 60)
    ct = cf_rule("tan_one")
    ok_t = t_a0 == ct.a0 and t_terms == [ct.quotient(k) for k in range(1, 61)]
    # cubic law for the squared quotients of e, with slack C = 2 on K^2
    worst = 0.0
    for K in range(1, 61):
        st = cf_stats(ce, K)
        worst = max(worst, abs(st.sum_a2 - 4 / 81 * K ** 3) / K ** 2)
    report(7, "e and tan 1 expansions match 300-digit series oracles",
           ok_e and ok_t and worst <= 2,
           f"60 quotients each, cubic-law slack {worst:.2f} <= 2, "
           f"{time.time()-t0:.0f}s")


def test_08_rational_limit_law():
    t0 = time.time()
    r100 = rational_sweep(SweepConfig(mode="farey_full", Q=100))
    r300 = rational_sweep(SweepConfig(mode="farey_full", Q=300))
    r1000 = rational_sweep(SweepConfig(mode="farey_sample", Q=1000, M=8000,
                                       seed=600))
    thr = FROZEN_KS[("farey_full", 300, "exact")]
    ok = (r300.ks <= thr
          and r1000.ks <= r100.ks + 0.02
          and time.time() - t0 < 900)
    report(8, "Farey sweep against the Levy law",
           ok,
           f"ks(100)={r100.ks:.4f} ks(300)={r300.ks:.4f} (frozen <= {thr}) "
           f"ks(1000,sampled)={r1000.ks:.4f}, {time.time()-t0:.0f}s")


def test_09_irrational_limit_law():
    t0 = time.time()
    res = irrational_sweep(SweepConfig(mode="irrational", N=10 ** 6, M=2000,
                                       seed=424242, estimator="cf_moment"))
    thr = FROZEN_KS[("irrational", 10 ** 6, "cf_moment")]
    ok_ks = res.ks <= thr

    # estimator cross-check: the exact value must sit within half the
    # enclosure width of its midpoint (containment is guaranteed, so any
    # failure is an implementation bug)
    bad_cross = 0
    worst_gap = 0.0
    for i in range(100):
        alpha = sample_irrational("lebesgue", 256, 515151, i)
        N = 10 ** 4
        enc = enclosure_S(alpha, N)
        exact = d2_exact_fast(build_S(alpha, N)).d2_squared
        gap = abs(exact - enc.mid)
        worst_gap = max(worst_gap, float(2 * gap / enc.width))
        if gap > enc.width / 2:
            bad_cross += 1
    for i in range(2):  # the stated lattice size, spot checks
        alpha = sample_irrational("lebesgue", 256, 626262, i)
        N = 10 ** 6
        enc = enclosure_S(alpha, N)
        exact = d2_exact_fast(build_S(alpha, N)).d2_squared
        if abs(exact - enc.mid) > enc.width / 2:
            bad_cross += 1

    # first-quotient law under the continued-fraction invariant measure
    M = 10 ** 5
    counts = {}
    for i in range(M):
        a1 = sample_irrational("gauss", 256, 9090, i).cf.quotient(1)
        counts[a1] = counts.get(a1, 0) + 1
    worst_z = 0.0
    for n in range(1, 6):
        pn = math.log2(1 + 1 / (n * (n + 2)))
        z = (counts.get(n, 0) / M - pn) / math.sqrt(pn * (1 - pn) / M)
        worst_z = max(worst_z, abs(z))
    report(9, "random-irrational sweep, estimator cross-check, quotient law",
           ok_ks and bad_cross == 0 and worst_z <= 3,
           f"ks={res.ks:.4f} (frozen <= {thr}), cross-check worst "
           f"|exact-mid|/halfwidth={worst_gap:.3f}, first-quotient worst "
           f"z={worst_z:.2f}, {time.time()-t0:.0f}s")


def test_10_identity_suite(named):
    t0 = time.time()
    # averaged odd-sine identity
    rng = random.Random(17)
    worst_trig = 0.0
    n_trig = 0
    while n_trig < 1000:
        N = rng.randrange(1, 1001)
        x = rng.uniform(0, math.pi)
        if abs(math.sin(2 * x)) < 1e-3:
            continue
        n_trig += 1
        lhs = sum(math.sin((2 * n + 1) * x) ** 2 for n in range(N)) / N
        rhs = 0.5 - math.sin(4 * N * x) / (4 * N * math.sin(2 * x))
        worst_trig = max(worst_trig, abs(lhs - rhs))
    ok_trig = worst_trig < 1e-10

    # sawtooth transform on the cyclic group: exact angle reduction, exactly
    # rounded summation, and the reference in the stable cotangent form
    # 1/(1 - e^(-i t)) = 1/2 - (i/2) cot(t/2) with a symmetric residue
    worst_fourier = 0.0
    for q in (2, 3, 4, 5, 7, 16, 17, 100, 101, 499, 500):
        for m in range(1, q):
            re = []
            im = []
            for x in range(q):
                ang = -2.0 * math.pi * ((m * x) % q) / q
                v = 0.5 - 0.5 / q - x / q
                re.append(v * math.cos(ang))
                im.append(v * math.sin(ang))
            acc = complex(math.fsum(re), math.fsum(im))
            s = m if 2 * m <= q else m - q
            ref = complex(0.5, -0.5 / math.tan(math.pi * s / q))
            worst_fourier = max(worst_fourier, abs(acc - ref))
    ok_fourier = worst_fourier < 1e-12

    # window-term brackets wherever direct evaluation is feasible
    bad_xi = 0
    n_xi = 0
    for alpha in named + [Alpha.from_rational(211, 299), Alpha.from_rational(13, 30)]:
        for K, N in enclosure_instances(alpha, max_K=12, size_cap=2000, K_count=3):
            if N * max(alpha.q(K) - alpha.q(K - 1), 1) > 10 ** 6:
                continue
            n_xi += 1
            x = xi_direct(alpha, N, K, True)
            enc = enclosure_S(alpha, N, K=K)
            if not (enc.parts["xi_lo"] - 1e-9 <= x <= enc.parts["xi_hi"] + 1e-9):
                bad_xi += 1
    report(10, "trigonometric, finite-Fourier and window-term identities",
           ok_trig and ok_fourier and bad_xi == 0,
           f"trig worst {worst_trig:.1e}, Fourier worst {worst_fourier:.1e}, "
           f"{n_xi} window brackets with {bad_xi} failures, {time.time()-t0:.0f}s")
