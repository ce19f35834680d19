"""End-to-end and per-layer benchmark of the sigmak-lab CLI workflows.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-images --seed 1 --seconds 30 --trace 0

One process calls `sigmak_lab.cli.main(argv)` once per item, one item at a
time (a closed loop with a single client), over the workload's item list
generated from --seed (see workloads.py). It repeats whole passes over the
list for --seconds seconds, at least two, checks every item's output files
against closed forms and checks that each item writes the same bytes on
every pass. The whole process is pinned to one CPU and SIGMAK_THREADS to
SWEEP_THREADS, so the Harnack sweep's thread pool still runs.

--trace 0 prints the end-to-end metrics. Before each pass a fresh
interpreter imports the package and builds the items (setup_s is the median
of these). wall_s is the median over passes of the pass time; item_p50_ms
and item_tail_ms are percentiles of every untraced call.

Every end-to-end time is given at reference host speed. On a shared host
the CPU runs up to 1.8 times slower or faster for seconds to minutes at a
time, longer than a run, and process CPU time swings with it; the two
CPUs need not swing together. So on the one CPU everything runs on, a fixed
reference kernel (reference_kernel) runs before the first item of a pass
and after every item, and each measured interval is scaled by
REFERENCE_S over the mean of the kernel's two timings around it: the
figures read as seconds on a host where the kernel takes REFERENCE_S. The
report lines give the unscaled times and the speed factors beside them.

--trace 1 alternates untraced and traced passes, derives the per-layer
metrics from the spans of the traced ones (tracer.py, unscaled), and adds
the single-layer probes (probes.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
with the run's metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# The tail is read at a fixed percentile of the pooled untraced calls: every
# full run makes well over 100, so more than ten lie beyond it. The highest
# percentile with ten calls beyond would move with the pass count, which
# moves with host speed.
TAIL_PERCENTILE = 90.0

# Worker threads of the Harnack sweep's pool; they share the one pinned CPU.
SWEEP_THREADS = 2
USABLE_CPUS = sorted(os.sched_getaffinity(0))  # before pin_to_one_cpu()

# Nominal seconds of reference_kernel(); scaled times read as seconds on a
# host that runs the kernel in this time (a 2-vCPU Xeon VM does, typically).
REFERENCE_S = 1.0e-3
_REF_GRID = np.linspace(0.0, 1.0, 64)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter float arithmetic and small numpy
    operations, the kind of work the CLI's items do.

    The median of three repetitions, so one interrupt does not skew it.
    """
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0.0
        for i in range(900):
            acc += math.sin(i * 1e-3) * i
        x = _REF_GRID
        for _ in range(60):
            x = np.sqrt(x * x + 1.0) - 0.5 * x
        times.append(perf_counter() - t0)
    return 3.0 * statistics.median(times)


def pin_to_one_cpu() -> None:
    """Pin every thread of this process, and so every thread and child process
    it starts later, to its lowest usable CPU."""
    for tid in os.listdir("/proc/self/task"):  # numpy's BLAS threads too
        with contextlib.suppress(ProcessLookupError):
            os.sched_setaffinity(int(tid), {USABLE_CPUS[0]})


@dataclass
class ItemRun:
    """Outcome of one item in one pass."""

    item: workloads.Item
    seconds: float
    category: str            # ok | exit1 | exit2 | unexpected
    gate: bool
    error: float | None
    why: str
    digest: str
    scale: float = 1.0       # REFERENCE_S over the host's reference time here

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def run_item(cli, item: workloads.Item) -> ItemRun:
    for path in item.outputs:  # so a check never reads an earlier pass's file
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(item.argv))
        except Exception as exc:  # an escaped exception is counted, not fatal
            print(f"escaped: {exc!r}", file=sys.stderr)
            rc = None
        dt = perf_counter() - t0
    if rc == 0:
        category = "ok"
    elif rc == 1:
        category = "exit1"
    elif rc == 2 and "unexpected failure" not in err.getvalue():
        category = "exit2"
    else:
        category = "unexpected"
    gate, error, why = workloads.check(item, 2 if rc is None else rc)
    if not gate:
        why = f"{why}; stderr: {err.getvalue().strip()[-200:]}"
    return ItemRun(item, dt, category, gate, error, why, workloads.digest(item))


@dataclass
class Pass:
    """One pass over the items; its times include checking every output."""

    scaled: float            # seconds at reference host speed
    raw: float               # seconds as measured
    runs: list[ItemRun]


def run_pass(cli, items) -> Pass:
    scaled = raw = 0.0
    runs = []
    before = reference_kernel()
    for item in items:
        t0 = perf_counter()
        run = run_item(cli, item)
        dt = perf_counter() - t0
        after = reference_kernel()
        run.scale = REFERENCE_S / (0.5 * (before + after))
        scaled += dt * run.scale
        raw += dt
        runs.append(run)
        before = after
    return Pass(scaled, raw, runs)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first item being ready,
    at reference host speed and as measured."""
    before = reference_kernel()
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "setup_child.py"),
                           workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {rc} before getting ready")
    after = reference_kernel()
    return elapsed * REFERENCE_S / (0.5 * (before + after)), elapsed


def _percentile(values: list[float], pct: float) -> float:
    """The smallest value with at least pct percent of the values at or below it."""
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata() -> str:
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return (f"# meta cpu={cpu!r} nproc={len(USABLE_CPUS)} "
            f"pinned_to={sorted(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} commit={_git_commit()} src_lines={src_lines}")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]
    tracer: tracing.Tracer | None = None

    def payload(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Result:
    """Run one benchmark measurement; tiny=True shrinks the items for the self-test."""
    cli = workloads.load_package(ROOT)
    import sigmak_lab as sl
    run_dir = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
    try:
        items = workloads.build_items(workload, seed, run_dir, tiny)
        warmed = set()
        for item in items:  # first call of each subcommand: lazy imports, caches
            if item.argv[0] not in warmed:
                warmed.add(item.argv[0])
                run_item(cli, item)
        plain, traced, setup = [], [], []
        tr = tracing.Tracer() if trace else None
        start = perf_counter()
        while True:
            if tr is None:  # spread over the run, like the passes
                setup.append(measure_setup(workload, seed))
            plain.append(run_pass(cli, items))
            if tr is not None:
                tr.install(sl)
                try:
                    traced.append(run_pass(cli, items))
                finally:
                    tr.uninstall()
            if len(plain) + len(traced) >= 2 and perf_counter() - start >= seconds:
                break
        probe_metrics = probes.run_probes(sl, seed) if trace else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = plain + traced
    runs = [run for ps in passes for run in ps.runs]
    lines = [f"# sigmak-lab CLI benchmark: workload {workload}, seed {seed}, "
             f"trace {int(trace)}", metadata(),
             f"# {len(items)} items per pass x {len(passes)} passes = {len(runs)} "
             f"cli.main calls, closed loop, one at a time, "
             f"SIGMAK_THREADS={os.environ.get('SIGMAK_THREADS')}"]

    counts = {c: sum(r.category == c for r in runs)
              for c in ("exit1", "exit2", "unexpected")}
    failed = sum(counts.values())
    lines.append(f"# fail_ratio {failed}/{len(runs)} = {failed / len(runs):.4f} "
                 f"(exit 1: {counts['exit1']}, exit 2: {counts['exit2']}, "
                 f"unexpected failure: {counts['unexpected']})")
    for run in runs[:len(items)]:
        if run.category != "ok":
            lines.append(f"#   failed: {run.item.label} ({run.category})")

    breaches = [f"{r.item.label}: {r.why}" for r in runs if not r.gate]
    first = [r.digest for r in passes[0].runs]
    for ps in passes[1:]:
        breaches += [f"{r.item.label}: output differs between passes"
                     for r, d in zip(ps.runs, first) if r.digest != d]
    correct = not breaches
    lines.append("# gate: " + ("passed" if correct else f"FAILED ({len(breaches)})"))
    lines += [f"#   {b}" for b in dict.fromkeys(breaches)]

    scored = [r for r in runs if r.error is not None]
    worst_run = max(scored, key=lambda r: r.error, default=None)
    worst = worst_run.error if worst_run else None

    if not trace:
        latencies = [r.scaled_seconds for ps in plain for r in ps.runs]
        metrics = {
            "wall_s": (statistics.median(ps.scaled for ps in plain), "s"),
            "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "item_tail_ms": (1e3 * _percentile(latencies, TAIL_PERCENTILE), "ms"),
            "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (-math.log10(max(worst, 1e-300)) if worst is not None else 0.0,
                                "digits"),
            "ok_ratio": ((len(runs) - failed) / len(runs), "ratio"),
        }
        pooled = len(latencies)
        beyond = pooled - math.ceil(TAIL_PERCENTILE / 100.0 * pooled)
        speeds = [r.scale for r in runs]
        lines.append(f"# host speed factor (reference {REFERENCE_S * 1e3:g} ms over "
                     f"measured) over {len(speeds)} items: min {min(speeds):.3f}, "
                     f"median {statistics.median(speeds):.3f}, max {max(speeds):.3f}")
        notes = {"wall_s": f"median of {len(plain)} passes: "
                           + " ".join(f"{ps.scaled:.3f}" for ps in plain)
                           + "; unscaled: "
                           + " ".join(f"{ps.raw:.3f}" for ps in plain),
                 "item_p50_ms": f"median of all {pooled} calls",
                 "item_tail_ms": f"p{TAIL_PERCENTILE:g} of all {pooled} calls, "
                                 f"{beyond} beyond it",
                 "setup_s": f"median of {len(setup)} fresh interpreters, one "
                            "before each pass; unscaled median "
                            f"{statistics.median(raw for _, raw in setup):.4f}",
                 "accuracy_digits": f"worst error {worst!r} at "
                                    f"{worst_run.item.label if worst_run else '-'}, "
                                    f"over {len(scored)} successful items",
                 "ok_ratio": f"{len(runs) - failed}/{len(runs)}"}
    else:
        metrics = tracing.layer_metrics(tr, sum(ps.raw for ps in traced), len(traced))
        metrics["trace.overhead_ratio"] = (
            sum(ps.scaled for ps in traced) / sum(ps.scaled for ps in plain), "ratio")
        metrics.update(probe_metrics)
        notes = {name: f"ROADMAP {row}: {base}"
                 for name, (row, base) in probes.BASELINE.items()}
        notes["trace.overhead_ratio"] = (f"{len(traced)} traced vs {len(plain)} "
                                         "untraced passes, at reference speed")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:36s} {value:14.6g} {unit}{note}")
    return Result(correct, len(runs), failed, metrics, lines, tr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    os.environ["SIGMAK_THREADS"] = str(SWEEP_THREADS)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result.lines))
    print(json.dumps(result.payload()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
