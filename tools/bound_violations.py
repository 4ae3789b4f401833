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
Run it from the root of a checkout:

    python3 tools/bound_violations.py                 # all workloads
    python3 tools/bound_violations.py eval-default    # one workload
"""

from __future__ import annotations

import collections
import json
import math
import os
import statistics
import sys

from pool_digests import ROOT, WORKLOADS, runs

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


def main(argv: list[str]) -> int:
    values = load_values()
    for workload in argv or list(WORKLOADS):
        if workload not in WORKLOADS:
            print(f"error: unknown workload {workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
            return 1
        rows = collections.defaultdict(lambda: [0, 0, 0, 0.0, []])  # checked, violations, failed, worst err/bound, bounds
        for _, _, job, status, out, _ in runs(workload):
            o = check.classify(job.argv, status, out, values.get(job.key))
            flag = next((f for f in ("--kind", "--bound") if f in job.argv), None)
            row = rows[job.argv[0], job.argv[job.argv.index(flag) + 1] if flag else "-"]
            row[0] += o.checked
            row[1] += len(o.violations)
            row[2] += o.failed
            row[3] = max([row[3]] + [v["ratio"] for v in o.violations])
            if o.checked:
                row[4] += relative_bounds(job.argv, out, values[job.key])
        for (command, kind), (checked, bad, failed, worst, bounds) in sorted(rows.items()):
            medians = [f"{statistics.median(col):.3g}" for col in zip(*bounds)] or ["-", "-"]
            print(workload, command, kind, checked, bad, failed, f"{worst:.3g}" if bad else "-", *medians, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
