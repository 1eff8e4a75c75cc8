"""CLI surfaces: grammar round trips, output formats, exit codes, threads."""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from latdisc.alphas import Alpha
from latdisc.cli import build_parser, main
from latdisc.discrepancy import d2_exact_fast
from latdisc.lattice import build_S


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "latdisc.cli", *argv],
                          capture_output=True, text=True)


def test_cf_example(capsys):
    assert main(["cf", "--alpha", "13/30"]) == 0
    assert capsys.readouterr().out.strip() == "[0;2,3,4]"


def test_cf_periodic_render(capsys):
    main(["cf", "--alpha", "surd:0,3,1"])
    assert capsys.readouterr().out.strip() == "[1;overline(1,2)]"


def test_spec_round_trip():
    for spec in ("13/30", "surd:-1,5,2", "rule:euler_e", "rule:constant(4)",
                 "bits:deadbeef" + "0" * 56 + "@256"):
        alpha = Alpha.parse(spec)
        again = Alpha.parse(alpha.spec_string())
        assert alpha.spec_string() == again.spec_string()
        assert alpha.value_fraction() == again.value_fraction()


def test_disc_matches_library(capsys):
    assert main(["disc", "--alpha", "surd:0,5,2", "--N", "89", "--sym",
                 "--algo", "fast"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N,d2sq_num,d2sq_den,d2_float"
    n, num, den, flt = out[1].split(",")
    v = d2_exact_fast(build_S(Alpha.parse("surd:0,5,2"), 89)).d2_squared
    assert (int(num), int(den)) == (v.numerator, v.denominator)
    assert float(flt) == pytest.approx(float(v) ** 0.5)


def test_estimate_json(capsys):
    assert main(["estimate", "--alpha", "13/30", "--N", "30", "--sym"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"K", "lo", "hi", "lo_exact", "hi_exact", "parts"}
    assert float(doc["lo"]) <= float(doc["hi"])


def test_lattice_exact_csv(capsys):
    assert main(["lattice", "--alpha", "2/5", "--N", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,x_num,x_den_or_scale,y_num,y_den"
    assert lines[1] == "0,0,5,0,5"
    assert lines[2] == "1,2,5,1,5"


def test_quadratic_constants(capsys):
    assert main(["quadratic", "--surd", "0,3,1", "--report", "constants"]) == 0
    out = capsys.readouterr().out
    assert "A=1/2" in out and "Lambda=0.65847894846240829" in out


def test_sweep_rational_csv_and_summary(capsys):
    assert main(["sweep-rational", "--Q", "20", "--mode", "full"]) == 0
    cap = capsys.readouterr()
    rows = cap.out.splitlines()
    assert rows[0] == "id,q_or_seed,stat,estimator,enclosure_width"
    summary = json.loads(cap.err.strip().splitlines()[-1])
    assert set(summary) == {"n", "ks", "threshold", "pass", "resampled"}
    assert summary["resampled"] == 0


def test_sweep_irrational_json(capsys):
    assert main(["sweep-irrational", "--N", "100", "--M", "5", "--seed", "4",
                 "--estimator", "cf_moment", "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 5
    assert doc["summary"]["n"] == 5


def test_threads_byte_identical():
    a = run_cli("sweep-rational", "--Q", "25", "--mode", "full", "--threads", "1")
    b = run_cli("sweep-rational", "--Q", "25", "--mode", "full", "--threads", "2")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    c = run_cli("sweep-irrational", "--N", "60", "--M", "8", "--seed", "2",
                "--estimator", "cf_moment", "--threads", "2")
    d = run_cli("sweep-irrational", "--N", "60", "--M", "8", "--seed", "2",
                "--threads", "1", "--estimator", "cf_moment")
    assert c.stdout == d.stdout


def test_env_threads_fallback():
    import os
    env = dict(os.environ, LATDISC_THREADS="2")
    r = subprocess.run([sys.executable, "-m", "latdisc.cli", "sweep-rational",
                        "--Q", "15", "--mode", "full"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0


def test_threads_below_one_exit_2():
    import os
    assert main(["sweep-rational", "--Q", "15", "--threads", "0"]) == 2
    env = dict(os.environ, LATDISC_THREADS="-1")
    r = subprocess.run([sys.executable, "-m", "latdisc.cli", "sweep-rational",
                        "--Q", "15", "--mode", "full"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 2


def test_residuals_L_skips_beck_regression(monkeypatch, capsys):
    from latdisc import quadratic

    def no_regression(*args, **kwargs):
        raise RuntimeError("Beck regression computed")

    monkeypatch.setattr(quadratic, "beck_constant_estimate", no_regression)
    argv = ["quadratic", "--surd=-1,5,2", "--report", "residuals",
            "--kmin", "5", "--kmax", "8"]
    assert main([*argv, "--variant", "L"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 4
    with pytest.raises(RuntimeError):  # S reduces against the slope
        main([*argv, "--variant", "S"])


# the flags each subcommand's handler reads, and only those
SURFACE = {
    "cf": {"--alpha", "--bits", "--terms"},
    "lattice": {"--alpha", "--bits", "--N", "--sym", "--float"},
    "disc": {"--alpha", "--bits", "--out", "--N", "--sym", "--algo"},
    "estimate": {"--alpha", "--bits", "--N", "--sym", "--unsym"},
    "dioph": {"--alpha", "--bits", "--M", "--weight"},
    "quadratic": {"--bits", "--out", "--surd", "--report", "--variant",
                  "--kmin", "--kmax", "--grid-points"},
    "sweep-rational": {"--out", "--seed", "--threads", "--Q", "--mode", "--M",
                       "--estimator"},
    "sweep-irrational": {"--out", "--seed", "--bits", "--threads", "--N",
                         "--M", "--measure", "--estimator"},
    "check-bounds": {"--corpus"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    declared = {name: {o for a in p._actions for o in a.option_strings}
                - {"-h", "--help"} for name, p in sub.choices.items()}
    assert declared == SURFACE
    assert sum(map(len, declared.values())) == 47


@pytest.mark.parametrize("argv", [
    "cf --alpha 13/30 --seed 1",
    "lattice --alpha 2/5 --N 5 --out json",
    "disc --alpha 1/3 --N 3 --threads 2",
    "estimate --alpha 13/30 --N 30 --sym --out csv",
    "dioph --alpha 13/30 --M 10 --seed 1",
    "quadratic --surd 0,3,1 --threads 2",
    "sweep-rational --Q 5 --bits 64",
    "check-bounds --threads 8",
])
def test_unread_flag_exits_2(argv):
    assert main(argv.split()) == 2


def test_exit_codes():
    assert main(["disc", "--alpha", "not-a-spec", "--N", "3"]) == 2
    assert main(["estimate", "--alpha", "2/5", "--N", "6", "--sym"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["disc", "--alpha", "1/3", "--N", "3", "--bogus-flag"]) == 2
    # ||30 * 13/30|| = 0 is an input error on the exact path (M < 3001) and
    # on the scaled one alike, not exhausted precision (exit 3)
    assert main(["dioph", "--alpha", "13/30", "--M", "2000"]) == 2
    assert main(["dioph", "--alpha", "13/30", "--M", "5000"]) == 2


def test_realization_wrap_exits_3():
    # alpha = 1/2 to one ulp: 2 alpha may sit on either side of 1, so the
    # lattice can be built only while N <= 2
    half = "bits:8" + "0" * 63 + "@256"
    for sym in ([], ["--sym"]):
        assert main(["disc", "--alpha", half, "--N", "2", *sym]) == 0
        assert main(["disc", "--alpha", half, "--N", "4", "--out", "json", *sym]) == 3


def test_check_bounds_small(capsys):
    assert main(["check-bounds", "--corpus", "small"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == [] and doc["checks"] > 100


def test_check_bounds_counts_each_check_once(monkeypatch):
    # containment_sweep already returns one record per S/L variant
    from latdisc import corpus
    monkeypatch.setattr(corpus, "containment_sweep",
                        lambda *a, **k: [SimpleNamespace(ok=True)] * 5)
    monkeypatch.setattr(corpus, "inequality_sweep",
                        lambda *a, **k: [("x", 1, True)] * 4)
    monkeypatch.setattr(corpus, "gap_sweep",
                        lambda *a, **k: [("x", 1, True)] * 3)
    assert corpus.check_bounds("small") == (5 + 3 * 4 + 3, [])


# recorded stdout of the README's CLI commands, the two sweeps shrunk to desk
# size: a refactor that keeps results must keep these bytes
GOLDEN = {
    "cf_13_30": "cf --alpha 13/30",
    "cf_surd_3": "cf --alpha surd:0,3,1",
    "disc_surd_5": "disc --alpha surd:0,5,2 --N 89 --sym --algo fast",
    "estimate_euler_e": "estimate --alpha rule:euler_e --N 1001 --sym",
    "estimate_euler_e_unsym": "estimate --alpha rule:euler_e --N 1001 --unsym",
    "dioph_surd_5": "dioph --alpha surd:-1,5,2 --M 10000 --weight quarter_pi4_sq",
    "quadratic_constants": "quadratic --surd 0,3,1 --report constants",
    "quadratic_beck": "quadratic --surd 0,3,1 --report beck --out json",
    "lattice_2_5": "lattice --alpha 2/5 --N 5",
    "sweep_rational": "sweep-rational --Q 60 --mode full --out json",
    "sweep_irrational": "sweep-irrational --N 10000 --M 200 --estimator cf_moment",
    "sweep_rational_sample": "sweep-rational --Q 60 --mode sample --M 300 "
                             "--seed 3 --estimator enclosure_mid --out json",
    "sweep_irrational_mid": "sweep-irrational --N 500 --M 40 --seed 2 "
                            "--estimator enclosure_mid",
    "sweep_irrational_exact": "sweep-irrational --N 500 --M 40 --seed 2 "
                              "--estimator exact",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_readme_commands_match_golden_transcript(name, capsys):
    assert main(GOLDEN[name].split()) == 0
    expected = (Path(__file__).parent / "data" / "cli" / f"{name}.out").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_float_formatting(capsys):
    main(["disc", "--alpha", "1/3", "--N", "3"])
    out = capsys.readouterr().out.splitlines()[1]
    # 17 significant digits round-trip doubles exactly
    flt = out.split(",")[-1]
    assert float(flt) == float(format(float(flt), ".17g"))
