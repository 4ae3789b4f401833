"""Digest of every benchmark pool request, for byte-identity checks.

Runs each request of perfbench.workloads.pool(w) through zetalab.cli.run
in process and prints one line per request:

    <workload> <cell> <candidate> <exit status> <sha256 of stdout> <sha256 of stderr> <argv>

The request's argv ends the line, so a diff names the routes that moved.

Run it from the root of a checkout (the package is imported from src/) on
two commits and diff the outputs:

    python3 tools/pool_digests.py > a.txt            # all workloads
    python3 tools/pool_digests.py sweep > b.txt      # one workload
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import WORKLOADS, pool  # noqa: E402
from zetalab import cli  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def runs(workload: str):
    """(cell, candidate, job, exit status, stdout, stderr) of each request of
    the workload's pool, run in process; tools/bound_violations.py reads it too."""
    for cell, jobs in enumerate(pool(workload)):
        for candidate, job in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.run(list(job.argv))
            yield cell, candidate, job, status, out.getvalue(), err.getvalue()


def main(argv: list[str]) -> int:
    for workload in argv or list(WORKLOADS):
        if workload not in WORKLOADS:
            print(f"error: unknown workload {workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
            return 1
        for cell, candidate, job, status, out, err in runs(workload):
            print(workload, cell, candidate, status, _sha(out), _sha(err), job.key, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
