"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.NAMES)
def test_tiny_run_reports_every_metric(workload):
    report, result = _run(workload, 0)
    traced_report, traced = _run(workload, 1)
    for res, spec in ((result, BENCH["end_to_end"]),
                      (traced, BENCH["per_layer"])):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec} == {
            k: v["unit"] for k, v in res["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["ops_failed_frac"] == 0
    # every layer the workload exists to measure is reached and read
    targets = workloads.WORKLOADS[workload].targets
    assert traced_report["missing_layers"] == []
    assert [n for n in targets if n not in layers.MAY_READ_ZERO
            and not traced["metrics"][n]["value"] > 0] == []
    # the same results traced and untraced
    names = {i.name for i in workloads.make(workload, 3, "tiny").items()}
    assert set(report["digests"]) == names
    assert report["digests"] == {
        n: d for n, d in traced_report["digests"].items() if n in names}


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.NAMES)
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} \
        == layers.PER_LAYER


def test_fails_without_latdisc(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "levy_sample",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_span_self_time_and_restore():
    import latdisc
    from latdisc import discrepancy, metric
    orig = discrepancy.d2_exact_fast
    tracer = Tracer()
    tracer.wrap(discrepancy, "d2_exact_fast", "warnock")
    assert metric.d2_exact_fast is not orig  # bound wherever latdisc uses it
    tracer.item = "x#0"
    outer = tracer.begin("outer")
    latdisc.d2_exact_fast(latdisc.build_S(latdisc.Alpha.parse("2/7"), 7))
    tracer.end(outer)
    tracer.item = None
    latdisc.d2_exact_fast([(0, 0)])  # outside an item: not recorded
    tracer.restore()
    assert discrepancy.d2_exact_fast is orig and metric.d2_exact_fast is orig
    outer_span, inner = tracer.spans
    assert inner.parent == 0 and inner.item == "x#0"
    assert outer_span.self_time == pytest.approx(
        outer_span.duration - inner.duration)


def test_targets_cover_every_layer():
    named = {n for w in workloads.WORKLOADS.values() for n in w.targets}
    assert named == set(layers.PER_LAYER) - {"trace.overhead_frac"}


def test_main_and_window_sums_told_apart_by_range():
    import latdisc
    from latdisc import parseval
    alpha = latdisc.Alpha.parse("surd:-1,5,2")
    tracer = Tracer()
    layers.instrument(tracer)
    tracer.item = "x#0"
    try:
        latdisc.enclosure_S(alpha, 50)
        parseval.dioph_sum2(alpha, 1, 9)  # outside an enclosure
    finally:
        tracer.item = None
        tracer.restore()
    parts = {}
    layers.per_layer(tracer, {"x": "x#0"}, {"x": 1}, 0.0, 0.0)
    for s in tracer.spans:
        if s.name == "parseval.dioph_sum2":
            parts[s.counters["range"]] = s.counters.get("part")
    K = alpha.index_for(50)
    q_lo, q_hi = alpha.q(K - 1), alpha.q(K)
    assert parts == {(1, q_lo - 1): "main", (q_lo, q_hi - 1): "window",
                     (1, 9): None}
