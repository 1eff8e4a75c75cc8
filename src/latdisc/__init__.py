"""latdisc: exact L2 discrepancy of 2-dimensional lattices.

Builds the lattices L(alpha, N) and S(alpha, N) with exact coordinates,
computes their L2 discrepancy in exact arithmetic, produces certified
Parseval-based enclosures with explicit error budgets, and runs the
distributional sweeps (Farey sets, random irrationals) against the standard
Levy law.
"""

from .alphas import Alpha
from .cf import (
    CFStats,
    ContinuedFraction,
    Convergent,
    ExpansionExhausted,
    PrecisionExhausted,
    QuadraticSurd,
    alternate_expansion,
    cf_of_bits,
    cf_of_rational,
    cf_of_surd,
    cf_rule,
    cf_stats,
    cf_value,
    convergents,
    optimality_stats,
)
from .discrepancy import DiscrepancyValue, d2_exact_fast, d2_exact_quadratic
from .fixedpoint import (
    BirkhoffSums,
    FixedPointReal,
    birkhoff_sums,
    dist_to_int,
    eval_alpha,
    frac_multiple,
    starred_sums,
)
from .intervals import Interval
from .lattice import LatticePointSet, build_L, build_S
from .metric import (
    EmpiricalDistribution,
    SweepConfig,
    SweepResult,
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
from .parseval import (
    Enclosure,
    dioph_inequalities,
    dioph_sum,
    enclosure_L,
    enclosure_S,
    mean_check,
    quotient_gap_check,
    ratio_check,
    variance_check,
    xi_direct,
)
from .quadratic import (
    alternation_constant,
    asymptotic_residuals,
    beck_constant_estimate,
    growth_constant,
)

__version__ = "0.1.0"
