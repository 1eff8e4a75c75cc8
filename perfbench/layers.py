"""Which latdisc calls a traced run spans, and the per-layer metrics.

Per-pass figures (`*_s`, counts) add, over items, what the item's traced
execution spent in that layer times the item's weight, so they compare
with `wall_s`.  Per-unit figures divide a layer's total self time by its
total work (points, terms); per-call figures (metric.sample_us_*,
cf.expand_us, alphas.convergents_us) are whole-call durations.  A layer a
workload never calls reads 0; `missing` lists the workload's own targets
that do.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from latdisc import (alphas, cf, discrepancy, fixedpoint, lattice, metric,
                     parseval)

# name -> (unit, better); the order is the order of the output
PER_LAYER = {
    "lattice.build_s": ("s", "lower"),
    "lattice.ns_per_point": ("ns", "lower"),
    "discrepancy.warnock_s": ("s", "lower"),
    "discrepancy.us_per_point.rational": ("us", "lower"),
    "discrepancy.us_per_point.fixed": ("us", "lower"),
    "discrepancy.points": ("count", "lower"),
    "parseval.main_sum_s": ("s", "lower"),
    "parseval.window_sum_s": ("s", "lower"),
    "parseval.terms": ("count", "lower"),
    "parseval.us_per_term": ("us", "lower"),
    "parseval.assembly_s": ("s", "lower"),
    "parseval.qK_over_N_p50": ("ratio", "lower"),
    "parseval.qK_over_N_p90": ("ratio", "lower"),
    "parseval.exact_path_share": ("frac", "lower"),
    "fixedpoint.block_s": ("s", "lower"),
    "metric.sample_us_p50.lebesgue": ("us", "lower"),
    "metric.sample_us_p90.lebesgue": ("us", "lower"),
    "metric.sample_us_p50.gauss": ("us", "lower"),
    "metric.sample_us_p90.gauss": ("us", "lower"),
    "cf.expand_us": ("us", "lower"),
    "cf.quotients": ("count", "lower"),
    "alphas.convergents_us": ("us", "lower"),
    "metric.ks_s": ("s", "lower"),
    "metric.pool_efficiency": ("frac", "higher"),
    "metric.rows": ("count", "higher"),
    "metric.redraws": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

# may read 0 on their own workload: no draw was retried; tracing cost nothing
MAY_READ_ZERO = {"metric.redraws", "trace.overhead_frac"}


def _quotient_count(args, kwargs, out):
    body = out.body
    if isinstance(body, (cf.Finite, cf.Truncated)):
        return {"quotients": len(body.terms)}
    if isinstance(body, cf.Periodic):
        return {"quotients": len(body.preperiod) + len(body.period)}
    return {"quotients": 0}


def _measure(args, kwargs, out):
    return {"measure": kwargs.get("measure", args[0] if args else "")}


def _qk(args, kwargs, out):
    alpha, N = args[0], args[1]
    return {"qK_over_N": alpha.q(out.K) / N,
            "q_lo": alpha.q(out.K - 1), "q_hi": alpha.q(out.K)}


def instrument(tracer) -> None:
    """Wrap the public calls each layer is entered through."""
    points = lambda a, k, out: {"points": out.size}
    tracer.wrap(lattice, "build_S", "lattice.build", points)
    tracer.wrap(lattice, "build_L", "lattice.build", points)
    tracer.wrap(discrepancy, "d2_exact_fast", "discrepancy.warnock",
                lambda a, k, out: {
                    "points": a[0].size,
                    "kind": "fixed" if a[0].x_err else "rational"})
    tracer.wrap(parseval, "dioph_sum2", "parseval.dioph_sum2",
                lambda a, k, out: {"range": (a[1], a[2]),
                                   "terms": max(0, a[2] - a[1] + 1),
                                   "exact": out.lo == out.hi})
    tracer.wrap(fixedpoint, "birkhoff_quad_block", "fixedpoint.block")
    tracer.wrap(parseval, "enclosure_S", "parseval.enclosure", _qk)
    tracer.wrap(parseval, "enclosure_L", "parseval.enclosure", _qk)
    tracer.wrap(metric, "sample_irrational", "metric.sample", _measure)
    for fn in ("cf_of_bits", "cf_of_rational", "cf_of_surd", "cf_rule"):
        tracer.wrap(cf, fn, "cf.expand", _quotient_count)
    tracer.wrap(alphas.Alpha, "index_for", "alphas.convergents")
    tracer.wrap(metric, "kolmogorov_distance", "metric.ks")
    sweep = lambda a, k, out: {"rows": len(out.rows), "redraws": out.resampled}
    tracer.wrap(metric, "rational_sweep", "metric.sweep", sweep)
    tracer.wrap(metric, "irrational_sweep", "metric.sweep", sweep)


def decile(values: List[float], i: int) -> float:
    """Decile i (5 = median, 9 = p90); 0 for no data."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[i - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, executions: Dict[str, str], weights: Dict[str, int],
              pool_eff: float, overhead: float) -> Dict[str, float]:
    """`executions` maps item name -> id of its traced execution."""
    by_exec = tracer.by_item()

    # a dioph_sum2 under an enclosure is its main sum if it runs over
    # [1, q_{K-1}), its window if over [q_{K-1}, q_K), by its own range
    for s in tracer.spans:
        if s.name == "parseval.dioph_sum2" and s.parent >= 0:
            enc = tracer.spans[s.parent].counters
            if "q_lo" in enc:
                s.counters["part"] = {
                    (1, enc["q_lo"] - 1): "main",
                    (enc["q_lo"], enc["q_hi"] - 1): "window",
                }.get(s.counters["range"])

    def per_pass(select) -> float:
        return sum(weights[item] * sum(select(s) for s in by_exec.get(e, ()))
                   for item, e in executions.items())

    def self_of(name, **match):
        def sel(s):
            if s.name != name:
                return 0.0
            if any(s.counters.get(k) != v for k, v in match.items()):
                return 0.0
            return s.self_time
        return sel

    def count_of(name, key):
        return lambda s: s.counters.get(key, 0) if s.name == name else 0

    def spans(name, **match):
        return [s for s in tracer.spans if s.name == name and all(
            s.counters.get(k) == v for k, v in match.items())]

    def unit_cost(name, key, scale, **match):
        ss = spans(name, **match)
        return scale * _ratio(sum(s.self_time for s in ss),
                              sum(s.counters.get(key, 0) for s in ss))

    sums = spans("parseval.dioph_sum2")
    qk = [s.counters["qK_over_N"] for s in spans("parseval.enclosure")]
    expand = spans("cf.expand")
    conv = spans("alphas.convergents")
    out = {
        "lattice.build_s": per_pass(self_of("lattice.build")),
        "lattice.ns_per_point": unit_cost("lattice.build", "points", 1e9),
        "discrepancy.warnock_s": per_pass(self_of("discrepancy.warnock")),
        "discrepancy.us_per_point.rational": unit_cost(
            "discrepancy.warnock", "points", 1e6, kind="rational"),
        "discrepancy.us_per_point.fixed": unit_cost(
            "discrepancy.warnock", "points", 1e6, kind="fixed"),
        "discrepancy.points": per_pass(
            count_of("discrepancy.warnock", "points")),
        "parseval.main_sum_s": per_pass(
            self_of("parseval.dioph_sum2", part="main")),
        "parseval.window_sum_s": per_pass(
            self_of("parseval.dioph_sum2", part="window")),
        "parseval.terms": per_pass(count_of("parseval.dioph_sum2", "terms")),
        "parseval.us_per_term": unit_cost("parseval.dioph_sum2", "terms", 1e6),
        "parseval.assembly_s": per_pass(self_of("parseval.enclosure")),
        "parseval.qK_over_N_p50": decile(qk, 5),
        "parseval.qK_over_N_p90": decile(qk, 9),
        "parseval.exact_path_share": _ratio(
            sum(1 for s in sums if s.counters.get("exact")), len(sums)),
        "fixedpoint.block_s": per_pass(self_of("fixedpoint.block")),
        "cf.expand_us": 1e6 * _ratio(sum(s.duration for s in expand),
                                     len(expand)),
        "cf.quotients": per_pass(count_of("cf.expand", "quotients")),
        "alphas.convergents_us": 1e6 * _ratio(sum(s.duration for s in conv),
                                              len(conv)),
        "metric.ks_s": per_pass(self_of("metric.ks")),
        "metric.pool_efficiency": pool_eff,
        "metric.rows": per_pass(count_of("metric.sweep", "rows")),
        "metric.redraws": per_pass(count_of("metric.sweep", "redraws")),
        "trace.overhead_frac": overhead,
    }
    for m in ("lebesgue", "gauss"):
        us = [1e6 * s.duration for s in spans("metric.sample", measure=m)]
        out[f"metric.sample_us_p50.{m}"] = decile(us, 5)
        out[f"metric.sample_us_p90.{m}"] = decile(us, 9)
    return {name: out[name] for name in PER_LAYER}


def missing(values: Dict[str, float], targets) -> List[str]:
    """The targets that read 0 although their layer should run."""
    return [name for name in targets
            if name not in MAY_READ_ZERO and not values.get(name)]
