"""CLI surfaces: grammar round trips, output formats, exit codes, threads."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from latdisc import metric
from latdisc.alphas import Alpha
from latdisc.cli import build_parser, main
from latdisc.discrepancy import d2_exact_fast
from latdisc.lattice import build_S


# {pi} to 256 bits
PI_HEX = "243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89"


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "latdisc.cli", *argv],
                          capture_output=True, text=True)


def test_cf_example(capsys):
    assert main(["cf", "--alpha", "13/30"]) == 0
    assert capsys.readouterr().out.strip() == "[0;2,3,4]"


def test_cf_periodic_render(capsys):
    main(["cf", "--alpha", "surd:0,3,1"])
    assert capsys.readouterr().out.strip() == "[1;overline(1,2)]"


@pytest.mark.parametrize("terms", ["0", "-50"])
def test_cf_terms_below_one_exit_2(terms, capsys):
    for alpha in ("13/30", "rule:euler_e", f"bits:{PI_HEX}@256"):
        assert main(["cf", "--alpha", alpha, f"--terms={terms}"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("M", ["0", "-5"])
def test_dioph_M_below_one_exit_2(M, capsys):
    assert main(["dioph", "--alpha", "13/30", f"--M={M}"]) == 2
    assert capsys.readouterr().out == ""


# the block kernel's limb product needs m < 2^32
@pytest.mark.parametrize("alpha", ["13/30", "surd:-1,5,2"])
def test_dioph_M_at_two_to_the_32_exit_2(alpha, capsys):
    assert main(["dioph", "--alpha", alpha, f"--M={1 << 32}"]) == 2
    assert capsys.readouterr().out == ""


# surd: and rule: alphas take their width from --bits, bits: alphas from the
# spec; every route refuses a width below 128 with the same message
@pytest.mark.parametrize("argv", [
    ["disc", "--alpha", "rule:euler_e", "--N", "1", "--bits", "-3"],
    ["disc", "--alpha", "surd:0,5,2", "--N", "2", "--bits", "2",
     "--out", "json"],
    ["quadratic", "--surd=-1,5,2", "--bits", "127"],
    ["disc", "--alpha", "bits:ff@64", "--N", "2"],
])
def test_fixed_point_width_below_128_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bits must be >= 128\n"


def test_spec_round_trip():
    for spec in ("13/30", "surd:-1,5,2", "rule:euler_e", "rule:constant(4)",
                 "bits:deadbeef" + "0" * 56 + "@256"):
        alpha = Alpha.parse(spec)
        again = Alpha.parse(alpha.label)
        assert alpha.label == again.label
        assert alpha.value == again.value


def test_disc_matches_library(capsys):
    assert main(["disc", "--alpha", "surd:0,5,2", "--N", "89", "--sym"]) == 0
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


def test_sweep_json_reports_resampled_on_stderr(capsys):
    argv = ["sweep-irrational", "--M", "40", "--bits", "128", "--N",
            "1000000000", "--estimator", "cf_moment"]
    assert main(argv) == 0
    csv = capsys.readouterr()
    assert main([*argv, "--out", "json"]) == 0
    js = capsys.readouterr()
    assert js.err == csv.err
    summary = json.loads(js.err)
    assert summary.pop("resampled") == 12
    assert json.loads(js.out)["summary"] == summary


def test_threads_byte_identical():
    a = run_cli("sweep-rational", "--Q", "25", "--mode", "full", "--threads", "1")
    b = run_cli("sweep-rational", "--Q", "25", "--mode", "full", "--threads", "2")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    c = run_cli("sweep-irrational", "--N", "60", "--M", "8", "--seed", "2",
                "--estimator", "cf_moment", "--threads", "2")
    d = run_cli("sweep-irrational", "--N", "60", "--M", "8", "--seed", "2",
                "--threads", "1", "--estimator", "cf_moment")
    assert c.stdout == d.stdout


def test_sweep_redraws_samples_that_exhaust_precision(monkeypatch, capsys):
    # at 128 bits some certified expansions stop before q_K >= N; such a
    # sample is redrawn, up to 8 times, and then the sweep exits 3
    argv = ["sweep-irrational", "--M", "40", "--bits", "128",
            "--estimator", "cf_moment"]
    one = run_cli(*argv, "--N", "1000000000", "--threads", "1")
    two = run_cli(*argv, "--N", "1000000000", "--threads", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
    assert json.loads(one.stderr.splitlines()[-1])["resampled"] == 12
    drawn = []
    draw = metric.sample_irrational
    monkeypatch.setattr(metric, "sample_irrational",
                        lambda *a: drawn.append(a[3]) or draw(*a))
    assert main([*argv, "--N", "4000000000", "--threads", "1"]) == 3
    assert capsys.readouterr().out == ""
    index = drawn[-1] & 0xFFFFFFFF
    assert drawn[-9:] == [index + (r << 32) for r in range(9)]


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


@pytest.mark.parametrize("spaced,glued", [
    (["quadratic", "--surd", "-1,5,2"], ["quadratic", "--surd=-1,5,2"]),
    (["disc", "--alpha", "-1/3", "--N", "5"],
     ["disc", "--alpha=-1/3", "--N", "5"]),
])
def test_negative_value_after_a_space(spaced, glued, capsys):
    # argparse alone reads -1,5,2 and -1/3 as options and exits 2
    assert main(glued) == 0
    want = capsys.readouterr().out
    assert main(spaced) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("points", ["-1", "0", "3", "6", "9"])
def test_grid_points_outside_four_to_five_exit_2(points, capsys):
    # a slice of the five-point grid once ran -1 as 4 points and 9 as 5
    assert main(["quadratic", "--surd", "0,3,1", "--report", "beck",
                 f"--grid-points={points}"]) == 2
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("kmin,kmax", [(10, 5), (5, 6)])
def test_residuals_with_too_few_K_exit_2(kmin, kmax, capsys):
    # an empty K range, or fewer rows than the L fit's 3 coefficients
    assert main(["quadratic", "--surd=-1,5,2", "--report", "residuals",
                 "--variant", "L", f"--kmin={kmin}", f"--kmax={kmax}"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kmin", ["0", "-1"])
def test_residuals_with_K_below_one_exit_2(kmin, capsys):
    # q_0 = q_1 = 1 for this surd, so K = 0 once printed a second N = 1 row
    assert main(["quadratic", "--surd", "0,3,1", "--report", "residuals",
                 "--variant", "L", "--kmin", kmin]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: K must be >= 1\n"


# the flags each subcommand's handler reads, and only those
SURFACE = {
    "cf": {"--alpha", "--bits", "--terms"},
    "lattice": {"--alpha", "--bits", "--N", "--sym", "--float"},
    "disc": {"--alpha", "--bits", "--out", "--N", "--sym"},
    "estimate": {"--alpha", "--bits", "--N", "--sym"},
    "dioph": {"--alpha", "--bits", "--M", "--weight"},
    "quadratic": {"--bits", "--out", "--surd", "--report", "--variant",
                  "--kmin", "--kmax", "--grid-points"},
    "sweep-rational": {"--out", "--seed", "--threads", "--Q", "--mode", "--M",
                       "--estimator"},
    "sweep-irrational": {"--out", "--seed", "--bits", "--threads", "--N",
                         "--M", "--measure", "--estimator"},
    "check-bounds": {"--corpus"},
}


def declared_flags():
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings}
            - {"-h", "--help"} for name, p in sub.choices.items()}


def test_each_subcommand_declares_only_the_flags_it_reads():
    declared = declared_flags()
    assert declared == SURFACE
    assert sum(map(len, declared.values())) == 45


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags |\n|---|---|\n", 1)[1]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        _, name, flags, _ = line.split("|")
        rows[name.strip().strip("`")] = set(re.findall(r"`(--[\w-]+)`", flags))
    assert rows == declared_flags()


@pytest.mark.parametrize("argv", [
    "cf --alpha 13/30 --seed 1",
    "lattice --alpha 2/5 --N 5 --out json",
    "disc --alpha 1/3 --N 3 --threads 2",
    "disc --alpha 1/3 --N 3 --algo fast",
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


@pytest.mark.parametrize("argv, err", [
    # 1/1 has q_0 = 1 >= N but no q_K with K >= 1 at all
    ("estimate --alpha 1/1 --N 1",
     "no q_K with K >= 1 reaches 1: the expansion of 1/1 ends at K = 0"),
    ("estimate --alpha 2/5 --N 6",
     "no q_K with K >= 1 reaches 6: the expansion of 2/5 ends at K = 2"),
    ("quadratic --surd 1,2", "bad surd spec: 'surd:1,2'"),
    ("quadratic --surd 1,2,x", "bad surd spec: 'surd:1,2,x'"),
    ("disc --alpha surd:1,2,x --N 3", "bad surd spec: 'surd:1,2,x'"),
    ("disc --alpha 1/x --N 3", "unrecognized alpha spec: '1/x'"),
    ("disc --alpha bits:zz@256 --N 3", "bad bits spec: 'bits:zz@256'"),
    ("disc --alpha bits:ff@x --N 3", "bad bits spec: 'bits:ff@x'"),
    ("sweep-irrational --N 100 --M 5 --seed -1", "seed must be >= 0"),
    ("sweep-rational --Q 5 --mode sample --seed -2", "seed must be >= 0"),
    ("sweep-irrational --N 100 --M 4294967296", "M must be < 2^32"),
    ("sweep-irrational --N 100 --M 5 --bits 0", "bits must be >= 128"),
    ("sweep-irrational --N 100 --M 5 --bits -8", "bits must be >= 128"),
])
def test_input_error_messages_exit_2(argv, err, capsys):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


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


def test_check_bounds_reports_each_violation_and_exits_4(monkeypatch, capsys):
    from latdisc import corpus
    monkeypatch.setattr(corpus, "containment_sweep", lambda *a, **k: [
        corpus.ContainmentRecord("3/7", 2, 5, "L", False)])
    monkeypatch.setattr(corpus, "inequality_sweep",
                        lambda *a, **k: [("3/7", 2, False)])
    monkeypatch.setattr(corpus, "gap_sweep",
                        lambda *a, **k: [("3/7", 3, False)])
    violations = ["containment L 3/7 K=2 N=5", "inequalities 3/7 K=2",
                  "quotient gap 3/7 K=3"]
    assert corpus.check_bounds("small") == (5, violations)
    assert main(["check-bounds"]) == 4
    assert json.loads(capsys.readouterr().out) == {
        "checks": 5, "violations": violations}


# recorded stdout of the README's CLI commands, the two sweeps shrunk to desk
# size: a refactor that keeps results must keep these bytes
GOLDEN = {
    "cf_13_30": "cf --alpha 13/30",
    "cf_surd_3": "cf --alpha surd:0,3,1",
    "disc_surd_5": "disc --alpha surd:0,5,2 --N 89 --sym",
    "estimate_euler_e": "estimate --alpha rule:euler_e --N 1001 --sym",
    "estimate_euler_e_unsym": "estimate --alpha rule:euler_e --N 1001",
    "dioph_surd_5": "dioph --alpha surd:-1,5,2 --M 10000 --weight quarter_pi4_sq",
    "quadratic_constants": "quadratic --surd 0,3,1 --report constants",
    "quadratic_beck": "quadratic --surd 0,3,1 --report beck --out json",
    "lattice_2_5": "lattice --alpha 2/5 --N 5",
    "sweep_rational": "sweep-rational --Q 60 --mode full --out json",
    "sweep_rational_cf_moment": "sweep-rational --Q 60 --mode full "
                                "--estimator cf_moment",
    "sweep_irrational": "sweep-irrational --N 10000 --M 200 --estimator cf_moment",
    "sweep_rational_sample": "sweep-rational --Q 60 --mode sample --M 300 "
                             "--seed 3 --estimator enclosure_mid --out json",
    "sweep_irrational_mid": "sweep-irrational --N 500 --M 40 --seed 2 "
                            "--estimator enclosure_mid",
    "sweep_irrational_exact": "sweep-irrational --N 500 --M 40 --seed 2 "
                              "--estimator exact",
    "check_bounds_small": "check-bounds --corpus small",
    "disc_surd_5_json": "disc --alpha surd:0,5,2 --N 89 --sym --out json",
    "dioph_13_30": "dioph --alpha 13/30 --M 29",
    "cf_euler_e_12": "cf --alpha rule:euler_e --terms 12",
    "cf_bits_pi": f"cf --alpha bits:{PI_HEX}@256",
    "lattice_2_5_float": "lattice --alpha 2/5 --N 5 --float",
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
