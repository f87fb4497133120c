#!/usr/bin/env python3
"""exbt benchmark: end-to-end throughput, set-up time and memory per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-large --seed 1 --seconds 25 --trace 0

The run generates the workload's inputs from the seed, runs one warm-up
pass of the workload's `exbt` command in-process and checks its outputs,
then repeats the pass until `--seconds` have gone by. Before each pass it
times `exbt.jmodel.load_repo` on the workload's repository (set-up) a few
times. Every pass's outputs must be byte-identical to the warm-up's. A
fresh child process runs one more pass for peak RSS. Timings are scaled
by the machine's slowdown during the run (see `Gauge` and calibrate.py).

With `--trace 1` the run instead alternates untraced passes with passes
in which the tracer wraps each layer's public functions, and reports the
per-layer spans and counts, the tracing overhead and whether the counts
repeated exactly. Spans of the first traced pass are written to
`.perfbench/traces/` in the checkout.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
An operation is one command pass or one output check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layers
from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, expect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"

MIN_PASSES = 3
SETUP_WARM_REPS = 3  # load_repo calls that only size the per-pass batch
SETUP_S_PER_PASS = 0.1  # load_repo calls before each pass take about this long
RSS_CHILDREN = 1  # peak RSS repeats to within about 1% between processes
CAL_INTERVAL_S = 0.05  # a calibration sample every 50 ms of set-up and passes
CHILD_TIMEOUT_S = 60

CHILD = """\
import contextlib, io, sys
from exbt.cli import main
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    rc = main(sys.argv[1:])
sys.exit(rc)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
}


class Gauge:
    """Calibration samples taken every CAL_INTERVAL_S while set-up or a pass runs.

    A SIGALRM handler runs one calibration sample between two bytecodes of
    the pass; its wall and CPU time are subtracted from the pass's, so the
    samples see the machine in exactly the pass's time window.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(calibrate.sample())
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Run:
    """Operation bookkeeping and the in-process exbt entry point."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def run_cli(self, argv: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(argv)

    def timed_pass(self, wl, out: Path, gauge: Gauge | None = None):
        """(wall s, cpu s) of one pass into a fresh out dir, or None on failure.

        With a gauge, calibration samples run during the pass and their
        time is left out of the pass's.
        """
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        self.attempted += 1
        g_wall, g_cpu = (gauge.wall, gauge.cpu) if gauge else (0.0, 0.0)
        with gauge.running() if gauge else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = self.run_cli(wl.argv(out))
            except Exception as exc:  # a crash is one failed operation
                rc = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if gauge:
            wall -= gauge.wall - g_wall
            cpu -= gauge.cpu - g_cpu
        if rc != 0:
            self.failed += 1
            self.notes.append(f"pass failed: {rc}")
            return None
        return wall, cpu

    def check(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except CheckFailed as exc:
            self.failed += 1
            self.correct = False
            self.notes.append(f"check failed: {label}: {exc}")
        except Exception as exc:
            self.failed += 1
            self.correct = False
            self.notes.append(f"check crashed: {label}: {type(exc).__name__}: {exc}")

    def same_outputs(self, out: Path, reference: str) -> None:
        self.check("outputs byte-identical to the warm-up pass",
                   lambda: _expect_digest(out, reference))


def _expect_digest(out: Path, reference: str) -> None:
    expect(tree_digest(out) == reference, f"{out.name} differs from the warm-up pass")


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def time_setup(repo: Path, reps: int, gauge: Gauge) -> list[float]:
    """load_repo times, less the calibration samples taken meanwhile."""
    from exbt.jmodel import load_repo

    times = []
    with gauge.running():
        for _ in range(reps):
            gc.collect()
            g_wall = gauge.wall
            t0 = time.perf_counter()
            load_repo(repo)
            times.append(time.perf_counter() - t0 - (gauge.wall - g_wall))
    return times


def wait_with_rusage(proc: subprocess.Popen, timeout: float):
    """(exit code, resource usage) of a child; kill it after timeout seconds."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return "timeout", usage
        time.sleep(0.02)


def peak_rss_mb(run: Run, wl, work: Path, reference: str) -> list[float]:
    """Peak RSS of fresh child processes, each running one pass."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    peaks = []
    for k in range(RSS_CHILDREN):
        out = work / f"out-rss{k}"
        out.mkdir(parents=True)
        run.attempted += 1
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD] + wl.argv(out),
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        rc, usage = wait_with_rusage(proc, CHILD_TIMEOUT_S)
        if rc != 0:
            run.failed += 1
            run.notes.append(f"child pass failed with rc {rc}")
            continue
        peaks.append(usage.ru_maxrss / 1024.0)  # Linux reports KiB
        run.same_outputs(out, reference)
    return peaks


def measure(run: Run, wl, work: Path, seconds: float, items: int, reference: str) -> dict:
    """Passes until `seconds` have gone by, each after a few set-up timings.

    One gauge samples the calibration workload throughout the set-up calls
    and the passes, so that its mean sees the same share of the machine's
    slow and fast moments as theirs.
    """
    gauge = Gauge()
    estimate = statistics.median(time_setup(wl.repo, SETUP_WARM_REPS, Gauge()))
    reps = max(1, round(SETUP_S_PER_PASS / estimate))
    setup, walls, cpus = [], [], []
    out = work / "out"
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup += time_setup(wl.repo, reps, gauge)
        timing = run.timed_pass(wl, out, gauge)
        if timing is None:
            if run.failed > 4 * MIN_PASSES:
                break
            continue
        walls.append(timing[0])
        cpus.append(timing[1])
        run.same_outputs(out, reference)
    return {"cal": gauge.samples, "setup": setup, "walls": walls, "cpus": cpus}


def measure_traced(run: Run, wl, work: Path, seconds: float, reference: str):
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    tracer = Tracer()
    untraced, traced, per_pass, counts, first_spans = [], [], [], [], None
    out = work / "out"
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        timing = run.timed_pass(wl, out)
        if timing is not None:
            untraced.append(timing[0])
            run.same_outputs(out, reference)
        tracer.reset()
        tracer.install()
        try:
            timing = run.timed_pass(wl, out)
        finally:
            tracer.uninstall()
        if timing is None:
            if run.failed > 4 * MIN_PASSES:
                break
            continue
        traced.append(timing[0])
        run.same_outputs(out, reference)
        per_pass.append(layers.layer_metrics(tracer.spans, tracer.counts, tree_bytes(out)))
        counts.append(dict(tracer.counts))
        if first_spans is None:
            first_spans = tracer.spans
    return untraced, traced, per_pass, counts, first_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "exbt" / "cli.py").is_file():
        print(f"exbt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from exbt import cli

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK_ROOT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, cli, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, cli, workload_cls, work: Path) -> int:
    run = Run(cli)
    wl = workload_cls(work, args.seed)
    print(f"workload {wl.name}, seed {args.seed}: {wl.describe()}")

    warm = work / "out-warm"
    if run.timed_pass(wl, warm) is None:
        print("\n".join(run.notes), file=sys.stderr)
        return 1
    reference = tree_digest(warm)
    items = wl.items(warm)
    for label, fn in wl.checks(warm, run.run_cli):
        run.check(label, fn)

    if args.trace:
        metrics = _traced_metrics(run, wl, work, args, reference)
    else:
        m = measure(run, wl, work, args.seconds, items, reference)
        rss = peak_rss_mb(run, wl, work, reference)
        metrics = _end_to_end(run, m, rss, items)
    for note in run.notes:
        print(f"  {note}")
    print(f"operations: attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def _end_to_end(run: Run, m: dict, rss: list[float], items: int) -> dict:
    """Scaled means of the timings, and the median peak RSS.

    The machine's slowdown during the run is the mean calibration time over
    calibrate.REFERENCE_S. Slow spells stretch every timing by about the
    same factor, and a mean grows linearly with the share of time spent in
    them, so dividing mean times by the slowdown cancels most of the drift
    between runs; a median would not.
    """
    if not m["walls"] or not rss:
        run.correct = False
        run.notes.append("no pass completed")
        return {}
    slowdown = statistics.fmean(m["cal"]) / calibrate.REFERENCE_S
    mean_wall = statistics.fmean(m["walls"])
    values = {
        "setup_s": statistics.fmean(m["setup"]) / slowdown,
        "items_per_s": items * slowdown / mean_wall,
        "cpu_ms_per_item": 1000.0 * statistics.fmean(m["cpus"]) / slowdown / items,
        "peak_rss_mb": statistics.median(rss),
    }
    raw = {
        "setup_s": statistics.median(m["setup"]),
        "items_per_s": statistics.median(items / w for w in m["walls"]),
        "cpu_ms_per_item": statistics.median(1000.0 * c / items for c in m["cpus"]),
        "peak_rss_mb": statistics.median(rss),
    }
    counts = {"setup_s": len(m["setup"]), "items_per_s": len(m["walls"]),
              "cpu_ms_per_item": len(m["cpus"]), "peak_rss_mb": len(rss)}
    print(f"items per pass: {items}; machine slowdown {slowdown:.3f} "
          f"(mean of {len(m['cal'])} calibration samples over {calibrate.REFERENCE_S} s)")
    print(f"  {'metric':16s} {'reported':>12s} {'unit':8s} {'raw median':>12s}  samples")
    metrics = {}
    for name, value in values.items():
        unit = END_TO_END_UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:16s} {value:12.6g} {unit:8s} {raw[name]:12.6g}  {counts[name]}")
    return metrics


def _traced_metrics(run: Run, wl, work: Path, args, reference: str) -> dict:
    untraced, traced, per_pass, counts, spans = measure_traced(
        run, wl, work, args.seconds, reference
    )
    if not per_pass or not untraced:
        run.correct = False
        run.notes.append("no traced pass completed")
        return {}
    values = {}
    for name, (unit, kind) in layers.PER_LAYER.items():
        series = [p[name] for p in per_pass]
        values[name] = series[0] if kind == "count" else statistics.median(series)
    values["trace.untraced_pass_s"] = statistics.median(untraced)
    values["trace.traced_pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.traced_pass_s"] - values["trace.untraced_pass_s"]
    values["trace.counts_repeat"] = int(all(c == counts[0] for c in counts))
    values["trace.traced_passes"] = len(traced)
    values["trace.spans"] = len(spans)
    metrics = {}
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}")
    for name, value in values.items():
        unit = layers.unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:36s} {value:14.6g} {unit}")
    out_dir = WORK_ROOT / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}.json").write_text(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "metrics": values,
        "counts": counts[0],
        "per_pass": per_pass,
        "spans": {"fields": ["parent", "name", "start", "end"], "rows": spans},
    }))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
