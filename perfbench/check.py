"""Classification of each operation's outcome.

An operation fails if it raises (SystemExit and OverflowError included),
exits non-zero, prints output that does not parse or is not finite, or
returns a value further from the reference than both its own error bound
and 1e-6 * max(1, |reference|).  A checked result violates its bound if
|value - reference| > error_bound; that is the strict check, counted
separately.  `characters` tables are checked structurally: phi(q) rows,
and every value a root of unity or 0.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

from workloads import euler_phi

REFERENCE_SLACK = 1e-25  # relative accuracy the 30-digit references are trusted to


@dataclass
class Outcome:
    argv: tuple[str, ...]
    failed: bool = False
    error: str = ""
    checked: int = 0  # results compared with a reference value
    violations: list[dict] = field(default_factory=list)  # |err| > bound, per result
    listed_characters: int = 0
    bound_cases: int = 0

    def fail(self, error: str) -> "Outcome":
        self.failed, self.error = True, error
        return self


def _distance(value: list, ref: list[str]) -> float:
    """|value - ref| with the reference kept at its full precision."""
    with localcontext() as ctx:
        ctx.prec = 40
        dre = Decimal(value[0]) - Decimal(ref[0])
        dim = Decimal(value[1]) - Decimal(ref[1])
        return float((dre * dre + dim * dim).sqrt())


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in xs)


def _compare(out: Outcome, value, bound, ref: list[str], r: int | None = None) -> None:
    if not (isinstance(value, list) and len(value) == 2 and _finite(*value) and _finite(bound) and bound >= 0):
        out.fail(f"non-finite or malformed result {value!r} +- {bound!r}")
        return
    size = abs(complex(float(ref[0]), float(ref[1])))
    err = max(0.0, _distance(value, ref) - REFERENCE_SLACK * size)
    out.checked += 1
    if err > bound:
        ratio = err / bound if bound > 0 else math.inf
        out.violations.append({"r": r, "err": err, "bound": bound, "ratio": ratio})
    if err > bound and err > 1e-6 * max(1.0, size):
        out.fail(f"off the reference by {err:.3e} (bound {bound:.3e}, |reference| {size:.3e})")


def classify(argv: tuple[str, ...], status, stdout: str, reference) -> Outcome:
    """status is the exit code of cli.run, or the exception it raised."""
    out = Outcome(argv)
    if isinstance(status, BaseException):
        return out.fail(f"raised {type(status).__name__}: {status}")
    if status != 0:
        return out.fail(f"exit code {status}")
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return out.fail(f"output does not parse: {exc}")
    try:
        _check_document(out, argv, doc, reference)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        out.fail(f"malformed output: {type(exc).__name__}: {exc}")
    return out


def _check_document(out: Outcome, argv, doc: dict, reference) -> None:
    cmd = argv[0]
    if cmd in ("eval", "afe"):
        _compare(out, doc["value"], doc["error_bound"], reference)
    elif cmd == "coeff":
        entries = doc["entries"]
        if len(entries) != len(reference):
            out.fail(f"{len(entries)} entries, expected {len(reference)}")
            return
        for e, ref in zip(entries, reference):
            _compare(out, e["value"], e["error"], ref, e["r"])
    elif cmd == "certify":
        cases = doc["cases"]
        out.bound_cases = len(cases) + len(doc["informational"])
        if not all(_finite(c["measured"], c["bound"], c["margin"]) for c in cases):
            out.fail("non-finite certification case")
        elif doc["all_pass"] != all(c["margin"] >= 0 for c in cases):
            out.fail("all_pass disagrees with the case margins")
    elif cmd == "characters":
        q = int(argv[argv.index("--q") + 1])
        rows = doc["characters"]
        out.listed_characters = len(rows)
        phi = euler_phi(q)
        if len(rows) != phi or sorted(r["label"] for r in rows) != list(range(phi)):
            out.fail(f"{len(rows)} characters with labels not 0..phi(q)-1, expected phi({q}) = {phi}")
            return
        for row in rows:
            if len(row["values"]) != q:
                out.fail(f"label {row['label']}: {len(row['values'])} values, expected {q}")
                return
            for v in row["values"]:
                if not _finite(*v):
                    out.fail(f"non-finite value in label {row['label']}")
                    return
                z = complex(*v)
                if z == 0:
                    continue
                turns = cmath.phase(z) * phi / (2.0 * math.pi)  # the order divides phi(q)
                if abs(abs(z) - 1.0) > 1e-12 or abs(turns - round(turns)) > 1e-9 * phi:
                    out.fail(f"label {row['label']}: {v} is not a root of unity or 0")
                    return
    else:
        raise ValueError(f"unchecked command {cmd}")
