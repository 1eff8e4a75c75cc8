"""Command-line front end.

Every subcommand is deterministic for fixed inputs and seed; floats print
with 17 significant digits, exact rationals as "num/den".  Exit codes:
0 success, 2 validation error, 3 precision exhausted, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from . import quadratic
from .alphas import Alpha
from .cf import PrecisionExhausted
from .discrepancy import d2_exact_fast, realization_error
from .lattice import build_L, build_S
from .metric import (
    ESTIMATORS,
    FROZEN_KS,
    SweepConfig,
    irrational_sweep,
    rational_sweep,
)
from .parseval import dioph_sum, enclosure_L, enclosure_S

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_VIOLATION = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _alpha_from_args(args) -> Alpha:
    return Alpha.parse(args.alpha, bits=args.bits)


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    return int(os.environ.get("LATDISC_THREADS", "1"))


_SHARED = {
    "alpha": dict(required=True),
    "out": dict(choices=("csv", "json"), default="csv"),
    "seed": dict(type=int, default=0),
    "bits": dict(type=int, default=256),
    "threads": dict(type=int, default=None),
}


def _shared(sub, *names):
    """Add the shared flags a subcommand's handler reads, and no others."""
    for name in names:
        sub.add_argument(f"--{name}", **_SHARED[name])


def _cmd_cf(args) -> int:
    print(_alpha_from_args(args).cf.render(max_terms=args.terms))
    return EXIT_OK


def _cmd_lattice(args) -> int:
    alpha = _alpha_from_args(args)
    P = (build_S if args.sym else build_L)(alpha, args.N)
    if args.float:
        print("x,y")
        for x, y in P.points():
            print(f"{_fmt(x)},{_fmt(y)}")
    else:
        print("n,x_num,x_den_or_scale,y_num,y_den")
        for i, xn in enumerate(P.x_num):
            print(f"{i},{xn},{P.mod},{i >> P.sym},{P.N}")
    return EXIT_OK


def _cmd_disc(args) -> int:
    alpha = _alpha_from_args(args)
    P = (build_S if args.sym else build_L)(alpha, args.N)
    v = d2_exact_fast(P).d2_squared
    row = {"N": args.N, "d2sq_num": str(v.numerator),
           "d2sq_den": str(v.denominator), "d2_float": _fmt(float(v) ** 0.5)}
    if args.out == "json":
        row["realization_err"] = _fmt(realization_error(P))
        print(json.dumps(row))
    else:
        print("N,d2sq_num,d2sq_den,d2_float")
        print(f"{row['N']},{row['d2sq_num']},{row['d2sq_den']},{row['d2_float']}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    alpha = _alpha_from_args(args)
    enc = (enclosure_S if args.sym else enclosure_L)(alpha, args.N)
    doc = {"K": enc.K, "lo": _fmt(enc.lo), "hi": _fmt(enc.hi),
           "lo_exact": f"{enc.lo.numerator}/{enc.lo.denominator}",
           "hi_exact": f"{enc.hi.numerator}/{enc.hi.denominator}",
           "parts": {k: _fmt(v) for k, v in enc.parts.items()}}
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_dioph(args) -> int:
    alpha = _alpha_from_args(args)
    iv = dioph_sum(alpha, args.M, args.weight)
    if iv.width == 0:
        v = iv.lo
        print(f"{v.numerator}/{v.denominator}")
    else:
        print(f"{_fmt(iv.lo)},{_fmt(iv.hi)}")
    return EXIT_OK


def _cmd_quadratic(args) -> int:
    alpha = Alpha.parse(f"surd:{args.surd}", bits=args.bits)
    if args.report == "constants":
        A = quadratic.alternation_constant(alpha.cf)
        tr, det, lam = quadratic.growth_constant(alpha.cf)
        doc = {"A": f"{A.numerator}/{A.denominator}",
               "eta_trace": tr, "eta_det": det, "Lambda": _fmt(lam)}
    elif args.report == "beck":
        grid = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7][: args.grid_points]
        c_hat, c_stderr = quadratic.beck_constant_estimate(alpha, grid)
        doc = {"c_hat": _fmt(c_hat), "c_stderr": _fmt(c_stderr),
               "grid_max": grid[-1]}
    elif args.report == "residuals":
        sym = args.variant == "S"
        c_alpha = None
        if sym:  # only S reduces against the Beck slope
            c_alpha, _ = quadratic.beck_constant_estimate(
                alpha, [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
        table = quadratic.asymptotic_residuals(
            alpha, range(args.kmin, args.kmax + 1), sym, c_alpha=c_alpha)
        doc = {"rows": [{"K": r.K, "N": r.N, "d2sq": _fmt(r.d2sq),
                         "residual": None if r.residual is None else _fmt(r.residual)}
                        for r in table.rows],
               "fit": None if table.fit is None else
               {k: _fmt(v) for k, v in table.fit.items()}}
    else:
        raise ValueError(f"unknown report {args.report!r}")
    if args.out == "json" or args.report == "residuals":
        print(json.dumps(doc))
    else:
        print(",".join(f"{k}={v}" for k, v in doc.items()))
    return EXIT_OK


def _emit_sweep(result, args, threshold_key) -> None:
    threshold = FROZEN_KS.get(threshold_key)
    summary = {"n": result.n, "ks": _fmt(result.ks),
               "threshold": None if threshold is None else _fmt(threshold),
               "pass": None if threshold is None else bool(result.ks <= threshold)}
    if args.out == "json":
        print(json.dumps({
            "rows": [{"id": r.ident, "q_or_seed": r.source,
                      "stat": _fmt(r.stat), "estimator": r.estimator,
                      "enclosure_width": _fmt(r.enclosure_width)}
                     for r in result.rows],
            "summary": summary}))
    else:
        print("id,q_or_seed,stat,estimator,enclosure_width")
        for r in result.rows:
            print(f"{r.ident},{r.source},{_fmt(r.stat)},{r.estimator},"
                  f"{_fmt(r.enclosure_width)}")
    # on stderr only, which leaves stdout's format unchanged
    print(json.dumps({**summary, "resampled": result.resampled}),
          file=sys.stderr)


def _cmd_sweep_rational(args) -> int:
    mode = "farey_full" if args.mode == "full" else "farey_sample"
    cfg = SweepConfig(mode=mode, Q=args.Q, M=args.M, seed=args.seed,
                      estimator=args.estimator)
    result = rational_sweep(cfg, threads=_threads(args))
    _emit_sweep(result, args, (mode, args.Q, args.estimator))
    return EXIT_OK


def _cmd_sweep_irrational(args) -> int:
    cfg = SweepConfig(mode="irrational", N=args.N, M=args.M, seed=args.seed,
                      measure=args.measure, estimator=args.estimator,
                      bits=args.bits)
    result = irrational_sweep(cfg, threads=_threads(args))
    _emit_sweep(result, args, ("irrational", args.N, args.estimator))
    return EXIT_OK


def _cmd_check_bounds(args) -> int:
    checks, violations = corpus_mod.check_bounds(args.corpus)
    doc = {"checks": checks, "violations": violations}
    print(json.dumps(doc))
    return EXIT_OK if not violations else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latdisc",
        description="Exact L2 discrepancy of 2-d lattices, certified "
                    "enclosures, and distributional sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("cf", help="print a continued fraction expansion")
    _shared(s, "alpha", "bits")
    s.add_argument("--terms", type=int, default=20)
    s.set_defaults(fn=_cmd_cf)

    s = sub.add_parser("lattice", help="dump lattice points")
    _shared(s, "alpha", "bits")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--sym", action="store_true")
    s.add_argument("--float", action="store_true")
    s.set_defaults(fn=_cmd_lattice)

    s = sub.add_parser("disc", help="exact L2 discrepancy")
    _shared(s, "alpha", "bits", "out")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--sym", action="store_true")
    s.set_defaults(fn=_cmd_disc)

    s = sub.add_parser("estimate", help="certified enclosure of D2^2")
    _shared(s, "alpha", "bits")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--sym", action="store_true")
    s.set_defaults(fn=_cmd_estimate)

    s = sub.add_parser("dioph", help="weighted Diophantine sum")
    _shared(s, "alpha", "bits")
    s.add_argument("--M", type=int, required=True)
    s.add_argument("--weight", default="unit_sq")
    s.set_defaults(fn=_cmd_dioph)

    s = sub.add_parser("quadratic", help="quadratic irrational constants")
    _shared(s, "bits", "out")
    s.add_argument("--surd", required=True, metavar="P,D,Q")
    s.add_argument("--report", choices=("constants", "beck", "residuals"),
                   default="constants")
    s.add_argument("--variant", choices=("S", "L"), default="S")
    s.add_argument("--kmin", type=int, default=5)
    s.add_argument("--kmax", type=int, default=15)
    s.add_argument("--grid-points", type=int, choices=(4, 5), default=5)
    s.set_defaults(fn=_cmd_quadratic)

    s = sub.add_parser("sweep-rational", help="Farey lattice sweep")
    _shared(s, "out", "seed", "threads")
    s.add_argument("--Q", type=int, required=True)
    s.add_argument("--mode", choices=("full", "sample"), default="full")
    s.add_argument("--M", type=int, default=1000)
    s.add_argument("--estimator", choices=ESTIMATORS, default="exact")
    s.set_defaults(fn=_cmd_sweep_rational)

    s = sub.add_parser("sweep-irrational", help="random irrational sweep")
    _shared(s, "out", "seed", "bits", "threads")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--M", type=int, required=True)
    s.add_argument("--measure", choices=("lebesgue", "gauss"),
                   default="lebesgue")
    s.add_argument("--estimator", choices=ESTIMATORS, default="cf_moment")
    s.set_defaults(fn=_cmd_sweep_irrational)

    s = sub.add_parser("check-bounds", help="run the certified-bound corpus")
    s.add_argument("--corpus", choices=("small", "full"), default="small")
    s.set_defaults(fn=_cmd_check_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes -1,5,2 for a flag
        if argv[i - 1] in ("--surd", "--alpha") and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except PrecisionExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
