"""Executable lines of src/zetalab that no run reaches, by a stdlib line trace.

Runs every request of the benchmark pools (perfbench.workloads) through
zetalab.cli.run in process under sys.settrace, and with --tests the Tier-1
suite too, through pytest.main in the same process.  Then prints

    <file>:<line>  <source>

for every line of src/zetalab/*.py that some code object can execute
(co_lines of the compiled module and every code object nested in it) and
no run reached, and on stderr the count.  A module run only in a
subprocess (__main__, cli.main) is listed too: the trace sees this
process alone.

Run it from the root of a checkout:

    python3 tools/unreached_lines.py            # the three pools, a minute or two
    python3 tools/unreached_lines.py --tests    # and Tier-1, several times its untraced time
"""

from __future__ import annotations

import contextlib
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "zetalab")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}  # a module starts at line 0


def _code_lines(code, out: set[int]) -> set[int]:
    """The lines of code and of the code objects nested in it."""
    out |= _lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, out)
    return out


def executable_lines() -> dict[str, set[int]]:
    lines = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            lines[path] = _code_lines(compile(fh.read(), path, "exec"), set())
    return lines


class LineTrace:
    """sys.settrace over the package's frames: the lines each file reached.
    A code object stops being traced once every line of it has run."""

    def __init__(self, files) -> None:
        self.files = set(files)
        self.reached = {path: set() for path in self.files}
        self.open_lines: dict = {}  # code object -> its lines not yet reached

    def _global(self, frame, event, arg):
        code = frame.f_code
        left = self.open_lines.get(code)
        if left is None:  # first call: every line of a package code object is open, none of another's
            left = self.open_lines[code] = _lines(code) if code.co_filename in self.files else set()
        if not left:
            return None
        seen = self.reached[code.co_filename]
        seen.add(frame.f_lineno)
        left.discard(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)


class _TracePlugin:
    """Keeps the trace on through the session: starts it again before a test
    if an earlier test left the process untraced."""

    def __init__(self, trace: LineTrace) -> None:
        self.trace = trace

    def pytest_runtest_call(self, item):
        if sys.gettrace() is None:  # a test that ended a tracer of its own ended ours
            self.trace.start()


def main(argv: list[str]) -> int:
    if argv not in ([], ["--tests"]):
        print("usage: python3 tools/unreached_lines.py [--tests]", file=sys.stderr)
        return 1
    lines = executable_lines()
    trace = LineTrace(lines)
    trace.start()  # before the package is imported, so its module-level lines count
    from perfbench.workloads import WORKLOADS
    from pool_digests import runs

    for workload in WORKLOADS:
        for _ in runs(workload):
            pass
    if argv:
        import pytest

        os.chdir(ROOT)
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds the lines alone
            status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"], plugins=[_TracePlugin(trace)])
        print(f"Tier-1 exit status {int(status)}", file=sys.stderr)
    trace.stop()
    count = 0
    for path, executable in lines.items():
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in sorted(executable - trace.reached[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}  {source[line - 1].strip()}")
            count += 1
    print(f"{count} executable lines of src/zetalab unreached", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
