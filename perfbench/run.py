#!/usr/bin/env python3
"""Benchmark of latdisc: one workload per run, its metrics as one JSON line.

Run from the root of a checkout; latdisc is imported from its `src/`:

    python3 perfbench/run.py --workload enclosure_tail --seed 0 --seconds 22
    python3 perfbench/run.py --workload warnock_large --trace 1
    python3 perfbench/run.py --workload all        # every workload, a table

A run cycles through the workload's items (workloads.py) until every item
has run at least once and the next would end after `--seconds`.  With
`--trace 0` it reports the end-to-end metrics, measured with tracing off:

  setup_s      median over 7 fresh processes of importing latdisc (numpy
               aside, see below) and generating the workload's inputs
  wall_s       one pass: the sum over items of each item's median time
  item_p50_ms  median and p90 over items of each item's median time; a
  item_p90_ms  tail with >= 10 items beyond p90 only on enclosure_tail
  peak_rss_mb  peak RSS of this process and of its children (pool workers,
               set-up processes)

Every time is reported at a reference machine speed.  On a shared
2-vCPU VM, speed drifted by up to 1.7x from one run to the next, and over
ten seeds the raw end-to-end times spread by 9-45% (IQR over median).  So
a run reads `speed_probe()`, a fixed 2 ms loop of 256-bit integer
arithmetic, every half second between items (and each set-up process
once, after its set-up), and scales its times by CAL_REF_S / (mean of the
readings just before and just after each timed run).  In the same runs
the scaled times spread by 3-14%.  The report keeps the raw times and the
run's median factor, which also scales the per-layer times.

A set-up process imports numpy, latdisc's one heavy dependency, first and
on its own, and leaves it out of setup_s (the report keeps its time).
Most of numpy's import is loading shared libraries, which follows the
page cache, not the processor: between two sets of ten runs it took 0.18
and then 0.10 s (medians), while latdisc's own import and the input
generation, scaled, moved by under 1%.  With numpy in, the medians of
scaled setup_s differed by 23-34% between sets.

With `--trace 1` each item runs twice in a row, untraced then traced, and
the run reports the per-layer metrics of layers.py from the spans of each
item's first traced run; trace.overhead_frac compares all traced runs with
their untraced twins.  Spans are written once, at the end, to
perfbench/out/.  A per-layer metric that the workload names in its
`targets` but that reads 0 is listed under "missing_layers" in the report
and on stderr: its layer is no longer reached through the spanned call, so
the figure would show a gain that is not there.

Every result is checked outside the timed code: against reference.json,
against an independent method where one exists (enclosures against exact
values, for instance), and across repeats, traced or not.  An item that
raises or fails a check counts in `failed`; ops_failed_frac is
failed / attempted.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report, with the machine, the generated inputs and every metric with
its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from bisect import bisect_left, bisect_right
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("warnock_large", "enclosure_tail", "farey_sweep", "levy_sample")
SETUP_RUNS = 7
CAL_MODULUS = 2 ** 255 - 19
CAL_REF_S = 2.0e-3   # speed_probe() on the reference 2-vCPU VM, unloaded
CAL_EVERY_S = 0.5
TIME_UNITS = ("s", "ms", "us", "ns")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
             "item_p90_ms": "ms", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the benchmark's tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def machine() -> dict:
    import mpmath
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip() \
            or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "commit": commit}


def speed_probe(rounds: int = 3) -> float:
    """Median time of a fixed loop of 256-bit integer arithmetic (the kind
    latdisc does): how fast the machine runs right now."""
    out = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        x = 12345
        for i in range(4000):
            x = (x * x + i) % CAL_MODULUS
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def setup_probe(args, t0: float) -> None:
    """Time one set-up in this fresh process and print its parts: numpy's
    import, latdisc's own import, input generation and speed_probe()."""
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import latdisc  # noqa: F401
    import workloads
    t2 = time.perf_counter()
    workloads.make(args.workload, args.seed, args.size)
    t3 = time.perf_counter()
    print(t1 - t0, t2 - t1, t3 - t2, speed_probe())


def _setup_times(args) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append([float(x) for x in proc.stdout.split()[-4:]])
    return out


class Runner:
    """Runs items, keeps their timings, digests and first results."""

    def __init__(self, tracer=None, instrument=None):
        self.tracer = tracer
        self.instrument = instrument  # wraps latdisc calls in tracer spans
        self.times = {}       # item -> untraced seconds
        self.starts = {}      # item -> start time of each untraced run
        self.traced = {}      # item -> traced seconds
        self.exec_ids = {}    # item -> id of its first traced execution
        self.digests = {}     # item -> digest of every execution
        self.results = {}     # item -> first result
        self.attempts = {}
        self.errors = []      # (item, message)
        self.cal = []         # (time, speed_probe()) taken between items

    def _once(self, item, exec_id=None):
        self.attempts[item.name] = self.attempts.get(item.name, 0) + 1
        if exec_id is not None:
            self.instrument(self.tracer)
            self.tracer.item = exec_id
        t0 = time.perf_counter()
        try:
            res, text = item.fn()
        except Exception as exc:  # an item failure is counted, not fatal
            self.errors.append((item.name, f"{type(exc).__name__}: {exc}"))
            return None
        finally:
            dt = time.perf_counter() - t0
            if exec_id is not None:
                self.tracer.item = None
                self.tracer.restore()
        self.results.setdefault(item.name, res)
        self.digests.setdefault(item.name, []).append(_digest(text))
        return dt

    def run(self, item) -> None:
        start = time.perf_counter()
        dt = self._once(item)
        if dt is not None:
            self.times.setdefault(item.name, []).append(dt)
            self.starts.setdefault(item.name, []).append(start)
        if self.tracer is not None:
            self.run_traced(item)

    def run_traced(self, item) -> None:
        mark = len(self.tracer.spans)
        exec_id = f"{item.name}#{len(self.traced.get(item.name, []))}"
        dt = self._once(item, exec_id)
        if dt is not None:
            self.traced.setdefault(item.name, []).append(dt)
        if item.name in self.exec_ids or dt is None:
            # the layers need one traced execution per item; later ones
            # are timed for trace.overhead_frac and their spans dropped
            del self.tracer.spans[mark:]
        else:
            self.exec_ids[item.name] = exec_id

    def loop(self, items, seconds: float) -> None:
        """Cycle through `items` until every one has run and the next would
        end after `seconds`."""
        start = time.perf_counter()
        last_cal = start - CAL_EVERY_S
        while True:
            for item in items:
                now = time.perf_counter()
                done = self.times.get(item.name, [0.0])
                if (now - start + statistics.median(done) >= seconds
                        and all(self.attempts.get(i.name) for i in items)):
                    self.cal.append((time.perf_counter(), speed_probe()))
                    return
                if now - last_cal >= CAL_EVERY_S:
                    self.cal.append((time.perf_counter(), speed_probe()))
                    last_cal = time.perf_counter()
                self.run(item)

    def speed(self, t0: float = None, t1: float = None) -> float:
        """CAL_REF_S over the mean of the readings just before t0 and just
        after t1; over the median of all readings without bounds."""
        if t0 is None:
            return CAL_REF_S / statistics.median(c for _, c in self.cal)
        times = [t for t, _ in self.cal]
        near = {bisect_right(times, t0) - 1, bisect_left(times, t1)}
        return CAL_REF_S / statistics.fmean(
            self.cal[k][1] for k in near if 0 <= k < len(self.cal))

    def scaled_times(self, name: str) -> list:
        """The untraced times of item `name`, each at reference speed."""
        return [dt * self.speed(t, t + dt)
                for t, dt in zip(self.starts[name], self.times[name])]


def _failures(runner, items, wl, reference):
    """(failed executions, messages, reference checks made)."""
    bad_items = {}
    checked = 0
    for item in items:
        got = runner.digests.get(item.name)
        if got and item.ref_key in reference:
            checked += 1
            if got[0] != reference[item.ref_key]:
                bad_items[item.name] = "differs from reference.json"
    try:
        checks = wl.check(runner.results)
    except Exception as exc:  # a check that cannot run fails every item
        checks = [(n, f"check raised {type(exc).__name__}: {exc}")
                  for n in runner.digests]
    for name, msg in checks:
        bad_items.setdefault(name, msg)
    failed = len(runner.errors)
    messages = [f"{n}: {m}" for n, m in runner.errors]
    for name, got in runner.digests.items():
        if name in bad_items:
            failed += len(got)
            messages.append(f"{name}: {bad_items[name]}")
        else:
            drift = sum(d != got[0] for d in got)
            if drift:
                failed += drift
                messages.append(f"{name}: {drift} repeats gave another result")
    return failed, messages, checked


def run_workload(args) -> dict:
    """The report of one run; its last key, "result", is the final line."""
    import layers
    import workloads
    from spans import Tracer

    setup = _setup_times(args)
    wl = workloads.make(args.workload, args.seed, args.size)
    items = wl.items()
    tracer = Tracer() if args.trace else None
    runner = Runner(tracer, layers.instrument)
    runner.loop(items, args.seconds)
    layer_items = wl.layer_items() if tracer else []
    for item in layer_items:
        runner.run_traced(item)

    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()).get(wl.name, {}) \
        if ref_path.exists() else {}
    failed, messages, checked = _failures(runner, items + layer_items, wl,
                                          reference)
    attempted = sum(runner.attempts.values())

    ran = [i.name for i in items if i.name in runner.times]
    medians = [statistics.median(runner.times[n]) for n in ran]
    scaled = [statistics.median(runner.scaled_times(n)) for n in ran]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    raw = {
        "setup_s": statistics.median(own + gen for _, own, gen, _ in setup),
        "numpy_import_s": statistics.median(parts[0] for parts in setup),
        "wall_s": sum(medians),
        "item_p50_ms": 1e3 * layers.decile(medians, 5),
        "item_p90_ms": 1e3 * layers.decile(medians, 9),
    }
    speed = runner.speed()
    e2e = {
        "setup_s": statistics.median((own + gen) * CAL_REF_S / probe
                                     for _, own, gen, probe in setup),
        "wall_s": sum(scaled),
        "item_p50_ms": 1e3 * layers.decile(scaled, 5),
        "item_p90_ms": 1e3 * layers.decile(scaled, 9),
        "peak_rss_mb": rss_kb / 1024,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    report = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "machine": machine(), "inputs": wl.inputs(),
        "times_s": runner.times,
        "setup_runs_s": setup, "raw": raw, "speed": speed,
        "speed_probes_s": [c for _, c in runner.cal],
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "reference_checks": checked, "failures": messages[:20],
        "digests": {n: d[0] for n, d in runner.digests.items()},
        "item_max_ms": 1e3 * max(medians, default=0.0),
        "redraws": sum(getattr(r, "resampled", 0)
                       for r in runner.results.values()),
    }
    if tracer is not None:
        pooled = sum(medians)
        serial = sum(i.weight * runner.traced[i.name][0]
                     for i in layer_items if i.name in runner.traced)
        pool_eff = serial / (wl.threads * pooled) \
            if wl.threads > 1 and pooled and serial else 0.0
        paired_t = paired_u = 0.0
        for item in items:
            t = runner.traced.get(item.name, [])
            u = runner.times.get(item.name, [])
            k = min(len(t), len(u))
            paired_t += sum(t[:k])
            paired_u += sum(u[:k])
        overhead = paired_t / paired_u - 1 if paired_u else 0.0
        weights = {i.name: i.weight for i in items + layer_items}
        layer = layers.per_layer(tracer, runner.exec_ids, weights, pool_eff,
                                 overhead)
        report["missing_layers"] = [
            f"{name} reads 0 on {wl.name}, whose layer it should measure"
            for name in layers.missing(layer, wl.targets)]
        for msg in report["missing_layers"]:
            print(f"warning: {msg}", file=sys.stderr)
        report["e2e_untraced"] = metrics
        metrics = {}
        for k, v in layer.items():
            unit = layers.PER_LAYER[k][0]
            metrics[k] = {"value": v * speed if unit in TIME_UNITS else v,
                          "unit": unit}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        report["spans"] = str(spans_path.relative_to(ROOT))
    report["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return report


def run_all(args) -> int:
    """Each workload in its own process, then one table of its metrics."""
    rows, ok = [], True
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            ok = False
            continue
        report = json.loads(lines[-2])
        ok = ok and report["result"]["correct"]
        rows.append((name, "ops_failed_frac", report["ops_failed_frac"],
                     "frac"))
        rows.extend((name, k, m["value"], m["unit"])
                    for k, m in report["result"]["metrics"].items())
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:36s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args, t0)
        return 0
    try:
        import latdisc
    except ImportError as exc:
        print(f"cannot import latdisc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(latdisc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"latdisc imported from {latdisc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args)
    print(json.dumps(report))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
