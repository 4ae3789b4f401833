"""zetalab benchmark: seeded CLI requests checked against mpmath references.

Run from the root of a zetalab checkout (the package is imported from src/):

    python3 perfbench/run.py --workload eval-default --seed 1 --seconds 20 --trace 0

One client sends `zetalab.cli.run(argv)` requests (`--json`) in process,
in a closed loop: each request starts when the previous one has ended.
Every answer is checked against an independent reference
(perfbench/oracle.py) after the loop.  With --trace 0 the last line of
output carries the end-to-end metrics; with --trace 1 the run measures
one untraced and one traced phase of equal composition and the last line
carries the per-layer metrics (perfbench/tracer.py).  Earlier lines are a
human-readable report, and every failed or bound-violating operation is
logged to perfbench/out/<workload>-seed<seed>.jsonl.

A phase is one pass over the workload's design (perfbench/workloads.py),
sized to take about PASS_SECONDS at the commit that defined the
benchmark; --seconds sets the number of passes.  A fixed amount of work
keeps sample counts, and with them the tail percentile, the same on
every commit.  A job may run several rounds in a phase; its time is then
the median of its rounds.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

PASS_SECONDS = 20
MAX_PASSES = workloads.CANDIDATES // 2  # a traced run needs twice as many distinct passes
SETUP_SPAWNS = 7
TAIL_BEYOND = 10
# Shared hosts drift in speed by tens of percent within minutes, and flip
# between a fast and a slow state within seconds.  A fixed calibration
# kernel runs after every request, once per KERNEL_EVERY_S of the request's
# wall time (at least once, at most KERNEL_MAX times).  Each request time is
# scaled by REFERENCE_KERNEL_S over the mean kernel time of the samples taken
# within KERNEL_NEAR_S of the request, or within its own duration if that is
# longer, so request metrics read in seconds at the reference speed.  A mean,
# not a median: it follows the share of time the host spent in its slow
# state.  The report prints the raw wall times beside them.
REFERENCE_KERNEL_S = 0.003
KERNEL_EVERY_S = 0.05
KERNEL_MAX = 8
KERNEL_NEAR_S = 0.25
WARMUP = ("eval", "--kind", "hurwitz", "--s", "2,0", "--json")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: fresh interpreters that import the package
# ---------------------------------------------------------------------------


def kernel_seconds() -> float:
    """Wall time of the calibration kernel: complex arithmetic, a list sort, a dict build.

    The cyclic garbage collector is off meanwhile: a collection of the
    garbage a request left behind would be charged to the kernel.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        pairs = []
        for k in range(1, 3001):
            z = cmath.exp(complex(-1e-4 * k, 0.5 * k)) * math.log(k)
            pairs.append((z.real, k))
        pairs.sort()
        {k: v for v, k in pairs}
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scales(spans: list[tuple[float, float]], kernel: list[tuple[float, float]]) -> list[float]:
    """Per (start, end) span: REFERENCE_KERNEL_S over the mean of the kernel
    times whose samples started within KERNEL_NEAR_S of the span, or within
    the span's own duration if that is longer.

    `kernel` holds (start time, kernel seconds) in time order; every span
    must be followed by a sample, so that no window is empty.
    """
    starts = [t for t, _ in kernel]
    out = []
    for t0, t1 in spans:
        h = max(KERNEL_NEAR_S, t1 - t0)
        near = kernel[bisect.bisect_left(starts, t0 - h): bisect.bisect_right(starts, t1 + h)]
        out.append(REFERENCE_KERNEL_S / statistics.fmean(k for _, k in near))
    return out


def _spawn_import(src: str, importtime: bool) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import zetalab"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - t0, proc.stderr


def setup_seconds(src: str, spawns: int = SETUP_SPAWNS) -> float:
    """Median wall time of a fresh interpreter running `import zetalab`."""
    return statistics.median(_spawn_import(src, False)[0] for _ in range(spawns))


def import_seconds(src: str, spawns: int = SETUP_SPAWNS) -> dict[str, float]:
    """Median cumulative import time of numpy and zetalab, from -X importtime."""
    found = {"numpy": [], "zetalab": []}
    for _ in range(spawns):
        for line in _spawn_import(src, True)[1].splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Record:
    __slots__ = ("index", "job", "status", "stdout", "stderr", "wall", "cpu", "seconds")

    def __init__(self, index, job, status, stdout, stderr, wall, cpu):
        self.index, self.job, self.status, self.stdout, self.stderr = index, job, status, stdout, stderr
        self.wall, self.cpu = wall, cpu
        self.seconds = wall  # scaled to the reference speed by run_phase


def schedule(jobs) -> list[int]:
    """Positions in `jobs`, in the order they run: every job once, then again
    the jobs that have more rounds, in the same order."""
    last = max((job.rounds for job in jobs), default=0)
    return [i for r in range(last) for i, job in enumerate(jobs) if job.rounds > r]


def run_phase(cli, jobs, tracer: Tracer | None = None) -> list[Record]:
    """Send each job through cli.run, one after the other, the calibration kernel after each.

    A job with several rounds runs that many times (see schedule); there is
    one record per run.
    """
    records, spans, kernel = [], [], []
    for index in schedule(jobs):
        job = jobs[index]
        out, err = io.StringIO(), io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.run(list(job.argv))
        except (Exception, SystemExit) as exc:
            status = exc
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.end_request()
        records.append(Record(index, job, status, out.getvalue(), err.getvalue(), dt, cpu))
        spans.append((t0, t0 + dt))
        for _ in range(min(KERNEL_MAX, max(1, math.ceil(dt / KERNEL_EVERY_S)))):
            kernel.append((time.perf_counter(), kernel_seconds()))
    for rec, f in zip(records, scales(spans, kernel)):
        rec.seconds = rec.wall * f
    return records


def known_defect(argv) -> str | None:
    """Why a failure of this request is expected at the commit that defined the benchmark.

    Such failures still count in `failed` and in the log; `correct` turns
    false only when an operation fails outside these routes.
    """
    if argv[0] == "afe":
        return "hybrid route: wrong above t ~ 100, OverflowError from t ~ 270-450 by Re(s) (ROADMAP item 1)"
    if argv[:3] == ("eval", "--kind", "lerch") and "--x" in argv:
        return "Lerch oscillatory tails at a small explicit split and large t: off by far more than the bound"
    return None


def classify_all(records: list[Record], values: dict) -> list[check.Outcome]:
    out = []
    for rec in records:
        o = check.classify(rec.job.argv, rec.status, rec.stdout, values.get(rec.job.key))
        if o.failed and rec.stderr.strip():
            o.error += f" ({rec.stderr.strip().splitlines()[-1]})"
        out.append(o)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def job_times(records, attr: str = "seconds") -> list[float]:
    """Per job of the phase, in list order: the median time of its rounds."""
    times: dict[int, list[float]] = {}
    for rec in records:
        times.setdefault(rec.index, []).append(getattr(rec, attr))
    return [statistics.median(times[i]) for i in sorted(times)]


def end_to_end(records, outcomes, setup_s: float, passes: int, rss_mb: float) -> tuple[dict, list[str]]:
    lat_ms = [x * 1e3 for x in job_times(records)]
    raw_ms = [x * 1e3 for x in job_times(records, "wall")]
    n = len(lat_ms)
    timed = f"n={n}" if len(records) == n else f"n={n}, each the median of its rounds, {len(records)} runs"
    busy = sum(lat_ms) / 1e3
    tail_ms, pct = tail(lat_ms)
    ops = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    checked = sum(o.checked for o in outcomes)
    violations = sum(len(o.violations) for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_ops_s": (n / busy, "1/s"),
        "sweep_s": (busy / passes, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_share": (1.0 - failed / ops, "ratio"),
        "bound_held_share": (1.0 - violations / checked if checked else 1.0, "ratio"),
    }
    v = {k: m[0] for k, m in metrics.items()}
    report = [
        "request times at the reference speed; raw wall times in brackets",
        f"setup_s               {setup_s:.4f} s   (raw; median of {SETUP_SPAWNS} fresh `import zetalab`)",
        f"latency_p50_ms        {v['latency_p50_ms']:.3f} ms [{statistics.median(raw_ms):.3f}]   ({timed})",
        f"latency_tail_ms       {tail_ms:.3f} ms [{tail(raw_ms)[0]:.3f}]   (p{pct:.2f}, {timed},"
        f" {min(TAIL_BEYOND, n - 1)} beyond)",
        f"throughput_ops_s      {v['throughput_ops_s']:.3f} 1/s [{n * 1e3 / sum(raw_ms):.3f}]   ({timed},"
        " closed loop, 1 client)",
        f"sweep_s               {v['sweep_s']:.3f} s [{sum(raw_ms) / 1e3 / passes:.3f}]   (the job list,"
        f" n={n // passes}, {passes} pass{'es' if passes > 1 else ''})",
        f"peak_rss_mb           {rss_mb:.1f} MB",
        f"failed_share          {failed / ops:.4f} ratio   ({failed} of {ops} operations)",
        f"bound_violation_share {violations / checked if checked else 0.0:.4f} ratio"
        f"   ({violations} of {checked} checked results)",
        f"success_share         {v['success_share']:.4f} ratio   (1 - failed_share)",
        f"bound_held_share      {v['bound_held_share']:.4f} ratio   (1 - bound_violation_share)",
    ]
    return metrics, report


def per_layer(tracer: Tracer, traced, untraced, imports: dict, outcomes) -> tuple[dict, list[str]]:
    tot = tracer.totals()
    main_self, main_root = tracer.thread_self_s(threading.main_thread())
    traced_busy = sum(r.wall for r in traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tot["calls"][layer], "count")
        metrics[f"{layer}.self_s"] = (tot["self_s"][layer], "s")
        metrics[f"{layer}.errors"] = (tot["errors"][layer], "count")
    useful = tot["useful"] + sum(o.listed_characters for o in outcomes)
    metrics["characters.built"] = (tot["built"], "count")
    metrics["characters.useful_ratio"] = (useful / tot["built"] if tot["built"] else 1.0, "ratio")
    metrics["bounds.cases"] = (sum(o.bound_cases for o in outcomes), "count")
    metrics["process.cpu_util"] = (sum(r.cpu for r in untraced) / sum(r.wall for r in untraced), "ratio")
    metrics["setup.import_numpy_s"] = (imports["numpy"], "s")
    metrics["setup.import_zetalab_s"] = (imports["zetalab"], "s")
    metrics["trace.harness_s"] = (traced_busy - main_root, "s")
    # throughputs at the reference speed, since the two phases run at different times
    thr = (len(traced) / sum(r.seconds for r in traced)) / (len(untraced) / sum(r.seconds for r in untraced))
    metrics["trace.overhead_share"] = (1.0 - thr, "ratio")
    report = [f"{'layer':<13}{'calls':>10}{'self_s':>12}{'errors':>8}"]
    for layer in LAYERS:
        report.append(f"{layer:<13}{tot['calls'][layer]:>10}{metrics[f'{layer}.self_s'][0]:>12.4f}"
                      f"{tot['errors'][layer]:>8}")
    report += [
        f"harness      {'':>10}{traced_busy - main_root:>12.4f}   (main-thread self times {main_self:.4f} s"
        f" + harness = traced request time {traced_busy:.4f} s)",
        f"characters.built {tot['built']}, useful {useful}; bounds.cases {metrics['bounds.cases'][0]};"
        f" process.cpu_util {metrics['process.cpu_util'][0]:.3f}",
        f"setup.import_numpy_s {imports['numpy']:.4f}, setup.import_zetalab_s {imports['zetalab']:.4f}"
        f" (medians of {SETUP_SPAWNS} -X importtime spawns)",
        f"trace.overhead_share {metrics['trace.overhead_share'][0]:.4f} (traced vs untraced throughput,"
        f" n={len(traced)} each)",
    ]
    return metrics, report


# ---------------------------------------------------------------------------
# failure log
# ---------------------------------------------------------------------------


def log_failures(workload: str, seed: int, outcomes, records) -> tuple[str, list[str]]:
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = []
    with open(path, "w") as fh:
        for o, rec in zip(outcomes, records):
            if not (o.failed or o.violations):
                continue
            worst = max((v["ratio"] for v in o.violations), default=None)
            entry = {"argv": " ".join(o.argv), "failed": o.failed, "error": o.error,
                     "known_defect": known_defect(o.argv) if o.failed else None,
                     "wall_s": rec.wall, "violations": o.violations, "worst_ratio": worst}
            fh.write(json.dumps(entry) + "\n")
            if o.failed:
                lines.append(f"FAILED  {entry['argv']}: {o.error}")
    by_ratio = sorted((o for o in outcomes if o.violations and not o.failed),
                      key=lambda o: -max(v["ratio"] for v in o.violations))
    for o in by_ratio[:5]:
        v = max(o.violations, key=lambda v: v["ratio"])
        lines.append(f"BOUND   {' '.join(o.argv)}: |err| {v['err']:.3e} > bound {v['bound']:.3e}"
                     f" (ratio {v['ratio']:.3g})")
    return path, lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zetalab", "cli.py")):
        print(f"error: no zetalab sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    values = workloads.load_values()
    passes = min(MAX_PASSES, max(1, round(args.seconds / PASS_SECONDS)))
    phases = [
        [j for p in range(first, first + passes) for j in workloads.jobs(args.workload, args.seed, p)]
        for first in range(0, passes * (1 + args.trace), passes)
    ]
    missing = [j.key for ph in phases for j in ph if j.oracle and j.key not in values]
    if missing:
        print(f"error: {len(missing)} requests have no reference value (first: {missing[0]});"
              " run python3 perfbench/oracle.py", file=sys.stderr)
        return 2

    if args.trace:
        imports = import_seconds(src)
    else:
        setup_s = setup_seconds(src)
    sys.path.insert(0, src)
    cli = importlib.import_module("zetalab.cli")
    run_phase(cli, [workloads.Job(WARMUP, False)])

    records = run_phase(cli, phases[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records_all = records
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(cli, phases[1], tracer)
        finally:
            tracer.remove()
        records_all = records + traced
    outcomes = classify_all(records_all, values)

    failed = sum(o.failed for o in outcomes)
    unexpected = [o for o in outcomes if o.failed and not known_defect(o.argv)]
    print(f"workload {args.workload}, seed {args.seed}: {len(phases[0])} requests per phase"
          f" ({passes} pass{'es' if passes > 1 else ''}, {len(records)} runs with rounds), closed loop,"
          f" 1 client, trace {args.trace}")
    if args.trace:
        metrics, report = per_layer(tracer, traced, records, imports, outcomes[len(records):])
    else:
        metrics, report = end_to_end(records, outcomes, setup_s, passes, rss_mb)
    for line in report:
        print(line)
    path, lines = log_failures(args.workload, args.seed, outcomes, records_all)
    checked = sum(o.checked for o in outcomes)
    print(f"oracle: {checked} results checked in {len(outcomes)} operations, {failed} failed"
          f" ({len(unexpected)} outside the known defects); log: {os.path.relpath(path, root)}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
