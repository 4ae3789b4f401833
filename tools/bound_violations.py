"""Bound violations of every benchmark pool request, by route.

Runs each workload's pool in process (tools/pool_digests.runs), classifies
each request with perfbench/check.classify against
perfbench/oracle_values.json, and prints one line per (workload, command,
kind):

    <workload> <command> <kind> <checked results> <violations> <failed requests> <worst err/bound> <median bound> <median err/bound>

A violation is a checked result with |value - reference| > error_bound;
the worst err/bound is that of the worst violation (- if there is none).
The median bound is that of error_bound / max(1, |reference|) over the
checked results (- if there are none), so that a looser bound shows even
where it holds; the median err/bound, that of |value - reference| /
error_bound, shows how much of the bound the error uses.
With --near-lattice it re-runs each eval-fixed-split `eval` request with
--x moved to the lattice point at or below it (alpha + k for hurwitz and
lerch, a + q k for z, the greatest unit of Z/qZ for l) less delta, for
each delta of 1 ulp, 1e-13 and 9e-13, and checks each result against the
unmoved request's reference: the value does not depend on the split.  Its
lines name the workload eval-fixed-split@<delta>.  A request whose moved
split would not be positive is left out.
Run it from the root of a checkout:

    python3 tools/bound_violations.py                 # all workloads
    python3 tools/bound_violations.py eval-default    # one workload
    python3 tools/bound_violations.py --near-lattice  # splits next to a lattice point
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import statistics
import sys

from pool_digests import ROOT, WORKLOADS, cli, pool, runs

sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402
from workloads import load_values  # noqa: E402


def relative_bounds(argv: tuple[str, ...], stdout: str, reference) -> list[tuple[float, float]]:
    """error_bound / max(1, |reference|) and |value - reference| / error_bound
    (the distance less the reference's slack, as check.classify takes it; inf
    for a bound of 0) of each result of an eval, afe or coeff request that
    perfbench/check.classify compared with its reference."""
    doc = json.loads(stdout)
    if argv[0] == "coeff":
        triples = [(e["value"], e["error"], ref) for e, ref in zip(doc["entries"], reference)]
    else:
        triples = [(doc["value"], doc["error_bound"], reference)]
    out = []
    for value, bound, ref in triples:
        size = abs(complex(float(ref[0]), float(ref[1])))
        err = max(0.0, check._distance(value, ref) - check.REFERENCE_SLACK * size)
        out.append((bound / max(1.0, size), err / bound if bound else math.inf))
    return out


def report(label: str, results, values) -> None:
    """Print the per-route lines of results, (argv, exit status, stdout, key
    of the reference) each, under the label."""
    rows = collections.defaultdict(lambda: [0, 0, 0, 0.0, []])  # checked, violations, failed, worst err/bound, bounds
    for argv, status, out, key in results:
        o = check.classify(argv, status, out, values.get(key))
        flag = next((f for f in ("--kind", "--bound") if f in argv), None)
        row = rows[argv[0], argv[argv.index(flag) + 1] if flag else "-"]
        row[0] += o.checked
        row[1] += len(o.violations)
        row[2] += o.failed
        row[3] = max([row[3]] + [v["ratio"] for v in o.violations])
        if o.checked:
            row[4] += relative_bounds(argv, out, values[key])
    for (command, kind), (checked, bad, failed, worst, bounds) in sorted(rows.items()):
        medians = [f"{statistics.median(col):.3g}" for col in zip(*bounds)] or ["-", "-"]
        print(label, command, kind, checked, bad, failed, f"{worst:.3g}" if bad else "-", *medians, flush=True)


def lattice_point(argv: tuple[str, ...], x: float) -> float:
    """The lattice point of the split's finite sum at or below x: alpha + k
    (the float), a + q k, or for l the greatest unit of Z/qZ."""
    opt = lambda name, default: argv[argv.index(name) + 1] if name in argv else default
    kind = opt("--kind", "hurwitz")
    n = math.floor(x)
    if kind in ("hurwitz", "lerch"):
        alpha = float(opt("--alpha", "1"))
        return n - 1 + (x - n >= alpha) + alpha  # x - n is exact, and so is the comparison
    q = int(opt("--q", "1"))
    if kind == "z":
        a = int(opt("--a", "1"))
        return float(a + q * ((n - a) // q))
    while math.gcd(n, q) != 1:
        n -= 1
    return float(n)


def near_lattice(values) -> None:
    """The eval-fixed-split eval requests with --x moved next to a lattice point."""
    jobs = [job for cell in pool("eval-fixed-split") for job in cell if job.argv[0] == "eval" and "--x" in job.argv]
    for label, move in (("1ulp", lambda p: math.nextafter(p, 0.0)), ("1e-13", lambda p: p - 1e-13), ("9e-13", lambda p: p - 9e-13)):
        results = []
        for job in jobs:
            i = job.argv.index("--x") + 1
            x = move(lattice_point(job.argv, float(job.argv[i])))
            if not x > 0.0:
                continue
            argv = job.argv[:i] + (repr(x),) + job.argv[i + 1 :]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.run(list(argv))
            results.append((argv, status, out.getvalue(), job.key))
        report(f"eval-fixed-split@{label}", results, values)


def main(argv: list[str]) -> int:
    values = load_values()
    if argv == ["--near-lattice"]:
        near_lattice(values)
        return 0
    for workload in argv or list(WORKLOADS):
        if workload not in WORKLOADS:
            print(f"error: unknown workload {workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
            return 1
        report(workload, ((job.argv, status, out, job.key) for _, _, job, status, out, _ in runs(workload)), values)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
