"""The standing test corpus: named alphas, seeded random rationals and
random 256-bit irrationals, and the (alpha, N) instance grid used by the
containment checks.  Both the CLI's check-bounds command and the acceptance
suite drive the same code so that "zero violations" means the same thing in
both places.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, List, Sequence, Tuple

from .alphas import Alpha
from .cf import ExpansionExhausted, PrecisionExhausted
from .discrepancy import d2_exact_fast, realization_error
from .intervals import Interval
from .lattice import build_L, build_S
from .metric import _substream, sample_irrational
from .parseval import (
    _quotient_gap,
    dioph_inequalities,
    dioph_sum2,
    enclosure_L,
    enclosure_S,
)

NAMED_SPECS = (
    ("phi-1", "surd:-1,5,2"),
    ("sqrt2-1", "surd:-1,2,1"),
    ("sqrt3-1", "surd:-1,3,1"),
    ("e-2", "rule:euler_e"),
    ("tan1-1", "rule:tan_one"),
)


def named_alphas() -> List[Alpha]:
    return [Alpha.parse(spec) for _, spec in NAMED_SPECS]


def random_rational_alphas(count: int = 20) -> List[Alpha]:
    """count reduced p/q with 20 <= q <= 500, from seed 20240."""
    out = []
    i = 0
    while len(out) < count:
        gen = _substream(20240, i)
        i += 1
        q = int(gen.integers(20, 501))
        p = int(gen.integers(1, q))
        if gcd(p, q) == 1:
            out.append(Alpha.from_rational(p, q))
    return out


def random_irrational_alphas(count: int = 20) -> List[Alpha]:
    """count 256-bit Lebesgue-random alphas, from seed 77130."""
    return [sample_irrational("lebesgue", 256, 77130, i) for i in range(count)]


def full_corpus() -> List[Alpha]:
    return (named_alphas() + random_rational_alphas()
            + random_irrational_alphas())


def feasible_indices(alpha: Alpha, max_K: int, size_cap: int) -> List[int]:
    """Indices K <= max_K whose convergent denominator stays under size_cap."""
    out = []
    for K in range(1, max_K + 1):
        try:
            if alpha.q(K) > size_cap:
                break
        except (ExpansionExhausted, PrecisionExhausted):
            break
        out.append(K)
    return out


def _spread(values: Sequence[int], count: int) -> List[int]:
    if len(values) <= count:
        return list(values)
    picks = {values[round(i * (len(values) - 1) / (count - 1))]
             for i in range(count)}
    return sorted(picks)


def enclosure_instances(alpha: Alpha, max_K: int, size_cap: int,
                        K_count: int) -> List[Tuple[int, int]]:
    """(K, N) pairs with N in {q_{K-1}, q_{K-1}+1, mid, q_K} for a spread of
    feasible K values."""
    out = []
    for K in _spread(feasible_indices(alpha, max_K, size_cap), K_count):
        q0, q1 = alpha.q(K - 1), alpha.q(K)
        Ns = {max(q0, 1), min(q0 + 1, q1), (q0 + q1) // 2 or 1, q1}
        for N in sorted(Ns):
            if max(q0, 1) <= N <= q1:
                out.append((K, N))
    return out


@dataclass(frozen=True)
class ContainmentRecord:
    label: str
    K: int
    N: int
    variant: str
    ok: bool


def containment_sweep(alphas: Iterable[Alpha], max_K: int, size_cap: int,
                      K_count: int) -> List[ContainmentRecord]:
    """Exact D2^2 of the stored points against the certified enclosure,
    widened by how far the stored points can sit from the ideal lattice, for
    every corpus instance, both lattices.  Any ok=False entry is an
    implementation bug."""
    records = []
    for alpha in alphas:
        for K, N in enclosure_instances(alpha, max_K, size_cap, K_count):
            for variant, build, enclose in (
                    ("S", build_S, enclosure_S), ("L", build_L, enclosure_L)):
                P = build(alpha, N)
                enc = enclose(alpha, N, K=K)
                pad = realization_error(P)
                exact = d2_exact_fast(P).d2_squared
                records.append(ContainmentRecord(
                    alpha.label, K, N, variant,
                    enc.lo - pad <= exact <= enc.hi + pad))
    return records


def inequality_sweep(alphas: Iterable[Alpha],
                     size_cap: int) -> List[Tuple[str, int, bool]]:
    """The three certified quotient-sum inequalities on a per-alpha grid of
    K <= 8 (small n)."""
    out = []
    for alpha in alphas:
        for K in _spread(feasible_indices(alpha, 8, size_cap), 3):
            N = alpha.q(K)
            br = dioph_inequalities(alpha, K, n=7, N=N)
            out.append((alpha.label, K, br.all_hold))
    return out


def gap_sweep(alphas: Iterable[Alpha], max_K: int,
              sum_cap: int) -> List[Tuple[str, int, bool]]:
    """|sum 1/(m^2||m a||^2) - (pi^4/90) sum a_k^2| <= 152 sum a_k for all
    feasible K (sum length capped for desk-scale runtimes)."""
    out = []
    for alpha in alphas:
        # one running sum per alpha, grown by the block [q_{K-1}, q_K): blocks
        # on the path of the whole sum add up to it exactly, and an exact
        # block of a scaled rational sum only narrows it
        s2 = Interval.exact(0)
        for K in feasible_indices(alpha, max_K, sum_cap):
            s2 += dioph_sum2(alpha, alpha.q(K - 1), alpha.q(K) - 1)
            gap, bound = _quotient_gap(alpha, K, s2)
            ok = gap.hi <= bound and gap.lo >= -bound
            out.append((alpha.label, K, ok))
    return out


def check_bounds(corpus: str) -> Tuple[int, List[str]]:
    """Run the certified-inequality corpus; returns (checks, violations)."""
    if corpus == "small":
        alphas = named_alphas() + random_rational_alphas(5) \
            + random_irrational_alphas(3)
        max_K, size_cap, K_count = 10, 3000, 3
        gap_K, gap_cap = 14, 30000
    elif corpus == "full":
        alphas = full_corpus()
        max_K, size_cap, K_count = 14, 20000, 5
        gap_K, gap_cap = 20, 300000
    else:
        raise ValueError("corpus must be 'small' or 'full'")
    violations = []
    records = containment_sweep(alphas, max_K, size_cap, K_count)
    for r in records:
        if not r.ok:
            violations.append(
                f"containment {r.variant} {r.label} K={r.K} N={r.N}")
    ineqs = inequality_sweep(alphas[:8], size_cap=size_cap)
    for label, K, ok in ineqs:
        if not ok:
            violations.append(f"inequalities {label} K={K}")
    gaps = gap_sweep(alphas, max_K=gap_K, sum_cap=gap_cap)
    for label, K, ok in gaps:
        if not ok:
            violations.append(f"quotient gap {label} K={K}")
    return len(records) + 3 * len(ineqs) + len(gaps), violations
