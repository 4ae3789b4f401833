"""Batch command-line frontend.

Subcommands: eval, coeff, certify, afe, characters, tail.  Output is
human-readable by default; --json emits a versioned document (schema
"1") with every float rendered at 17 significant digits and complex
numbers as [re, im] pairs, so identical requests produce byte-identical
output.  --csv is available for the tabular subcommands.

Exit codes: 0 success, 1 validation error (non-finite numbers are refused
while parsing, runaway work before any is done), binary64 overflow or an
unwritable --output file, 2 failed bound assertion.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from functools import lru_cache

from . import bounds as bounds_mod
from .afe import afe_hurwitz, afe_l
from .characters import _unit_group, character, enumerate_characters
from .coefficients import COEFFICIENT_KINDS, coefficient_table
from .evaluate import HurwitzArgs, LerchArgs, hurwitz_deriv, l_deriv, lerch_deriv, z_deriv
from .sawtooth import EvalResult, _check_order, psi_osc_tail_powers, psi_tail_powers

__all__ = ["main", "run", "render_json"]


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


class _Rendered(str):
    """A JSON fragment rendered ahead of time, written as it stands."""


# one renderer per scalar type, in the order of the isinstance ladder that serves subclasses
_RENDER = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: str,
    float: _fmt_float,
    complex: lambda z: (
        f"[{z.real:.17g}, {z.imag:.17g}]" if cmath.isfinite(z) else f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]"
    ),
    str: lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"',
    _Rendered: str,
}


def _render(obj) -> str:
    render = _RENDER.get(type(obj))
    if render is None:  # a subclass such as np.float64: the first isinstance match
        render = next((f for t, f in _RENDER.items() if isinstance(obj, t)), None)
        if render is None:
            raise TypeError(f"cannot serialize {type(obj)!r}")
    return render(obj)


def _emit(obj, out: list[str]) -> None:
    """Append the JSON text of obj to out in pieces: a document is joined, so copied, once."""
    render = _RENDER.get(type(obj))
    if render is not None:
        out.append(render(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{', ' if i else ''}{_render(str(k))}: ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:  # a scalar subclass
        out.append(_render(obj))


def render_json(payload: dict) -> str:
    out: list[str] = []
    _emit({"schema": "1", **payload}, out)
    return "".join(out)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_finite_float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_finite_float(parts[0]), _finite_float(parts[1]))
    raise argparse.ArgumentTypeError("complex values are written re or re,im")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_characters(args) -> tuple[int, str]:
    chars = enumerate_characters(args.q)
    # chi.values[n] is roots[chi.value_logs[n]], the trailing 0 read by the
    # non-units: each of the E + 1 distinct values is formatted once
    roots = _unit_group(args.q).roots.tolist()
    if args.json:
        cells = [_render(z) for z in roots]
        rows = [
            {
                "label": chi.label,
                "conductor": chi.conductor,
                "parity": chi.parity,
                "primitive": chi.is_primitive,
                "principal": chi.is_principal,
                "values": _Rendered("[" + ", ".join(map(cells.__getitem__, chi.value_logs)) + "]"),
            }
            for chi in chars
        ]
        return 0, render_json({"command": "characters", "q": args.q, "characters": rows})
    cells = [f"({z.real:+.3f},{z.imag:+.3f})" for z in roots]
    lines = [f"characters mod {args.q}: {len(chars)}"]
    for chi in chars:
        lines.append(
            f"label {chi.label:>3}  conductor {chi.conductor:>3}  parity {chi.parity:+d}  "
            f"primitive {str(chi.is_primitive):<5}  {' '.join(map(cells.__getitem__, chi.value_logs))}"
        )
    return 0, "\n".join(lines)


def _value_report(args, fields: dict, res: EvalResult) -> tuple[int, str]:
    """The report of one value: the request's fields, the value and its bound."""
    if args.json:
        return 0, render_json({"command": args.command, **fields, "value": res.value, "error_bound": res.error_bound})
    return 0, f"value = {res.value}  error_bound = {res.error_bound:.3e}"


def _cmd_tail(args) -> tuple[int, str]:
    b = complex(args.re_a, args.im_a)
    if not args.x > 0.0:
        raise ValueError("lower limit must be positive")
    if not 0.0 < args.alpha <= 1.0:
        raise ValueError("shift must lie in (0, 1]")
    _check_order(args.r)
    if not 0.0 <= args.lam < 1.0:
        raise ValueError("oscillation must lie in [0, 1)")
    if args.lam:
        vals, errs = psi_osc_tail_powers(args.lam, args.alpha, b, args.r, args.x)
    elif b.real > -1.0:
        raise ValueError("non-oscillatory tail requires Re(exponent) <= -1")
    else:
        vals, errs = psi_tail_powers(args.x, args.alpha, b, args.r)
    fields = {"x": args.x, "alpha": args.alpha, "exponent": b, "r": args.r, "lambda": args.lam}
    return _value_report(args, fields, EvalResult(vals[args.r], errs[args.r]))


def _cmd_eval(args) -> tuple[int, str]:
    s = args.s
    if args.kind == "hurwitz":
        res = hurwitz_deriv(HurwitzArgs(s=s, alpha=args.alpha, order=args.r, split=args.x))
        params = {"alpha": args.alpha}
    elif args.kind == "z":
        res = z_deriv(s, args.a, args.q, args.r, X=args.x)
        params = {"a": args.a, "q": args.q}
    elif args.kind == "l":
        chi = character(args.q, args.label)
        res = l_deriv(s, chi, args.r, X=args.x)
        params = {"q": args.q, "label": args.label}
    else:
        res = lerch_deriv(LerchArgs(lam=args.lam, alpha=args.alpha, s=s, order=args.r, split=args.x))
        params = {"lambda": args.lam, "alpha": args.alpha}
    return _value_report(args, {"kind": args.kind, "s": s, "r": args.r, "x": args.x, **params}, res)


def _cmd_coeff(args) -> tuple[int, str]:
    kind_map = {
        "gamma": "stieltjes_gamma",
        "beta": "beta_at_zero",
        "gamma-aq": "gamma_aq",
        "gamma-chi": "gamma_chi",
        "lerch": "lerch_at_one",
        "l-zero": "l_deriv_at_zero",
    }
    kind = kind_map[args.kind]
    kwargs = {
        name: character(args.q, args.label) if name == "chi" else getattr(args, name)
        for name in COEFFICIENT_KINDS[kind].params
    }
    table = coefficient_table(kind, args.r_max, **kwargs)
    rows = [
        {"r": e.order, "value": e.value, "error": e.error, "route": e.route}
        for e in table.entries
    ]
    if args.json:
        return 0, render_json(
            {"command": "coeff", "kind": args.kind, "parameters": table.parameters, "entries": rows}
        )
    if args.csv:
        lines = ["r,value_re,value_im,error,route"]
        for row in rows:
            v = row["value"]
            lines.append(f"{row['r']},{v.real:.17g},{v.imag:.17g},{row['error']:.17g},{row['route']}")
        return 0, "\n".join(lines)
    lines = [f"{table.kind} {table.parameters}"]
    for row in rows:
        lines.append(f"r={row['r']:>2}  {row['value']}  +- {row['error']:.2e}  [{row['route']}]")
    return 0, "\n".join(lines)


def _certify_report(args):
    # an absent --r-max leaves each sweep at its own default
    if args.r_max is not None and args.r_max < 1:
        raise ValueError("--r-max must be at least 1")
    orders = {} if args.r_max is None else {"r_max": args.r_max}
    if args.bound == "t2-ib":
        return bounds_mod.certify_T2_Ib(**orders)
    if args.bound == "t2-iib":
        return bounds_mod.certify_T2_IIb(**orders)
    if args.bound == "t2-iiib":
        return bounds_mod.certify_T2_IIIb(**orders)
    if args.bound == "t3":
        q_set = tuple(args.q) if args.q else bounds_mod.DEFAULT_Q_SET
        return bounds_mod.certify_T3(q_set=q_set, **orders)
    if args.bound == "ishikawa":
        return bounds_mod.ishikawa_compare(args.q[0] if args.q else 5)
    return bounds_mod.certify_polya_vinogradov()


def _cmd_certify(args) -> tuple[int, str]:
    report = _certify_report(args)
    asserted = report.bound_id not in ("Ishikawa_compare",)
    status = 0 if (report.all_pass or not asserted) else 2
    rows, info = (
        [{"parameters": c.parameters, "measured": c.measured, "bound": c.bound, "margin": c.margin} for c in cases]
        for cases in (report.cases, report.informational)
    )
    if args.json:
        payload = {
            "command": "certify",
            "bound_id": report.bound_id,
            "all_pass": report.all_pass,
            "worst_margin": report.worst_margin if report.cases else None,
            "cases": rows,
            "informational": info,
        }
        return status, render_json(payload)
    if args.csv:
        lines = ["measured,bound,margin,parameters"]
        for row in rows:
            lines.append(
                f"{row['measured']:.17g},{row['bound']:.17g},{row['margin']:.17g},\"{row['parameters']}\""
            )
        return status, "\n".join(lines)
    lines = [
        f"bound {report.bound_id}: {len(rows)} cases, all_pass={report.all_pass}, "
        f"worst_margin={report.worst_margin if rows else 'n/a'}"
    ]
    for row in rows[:40]:
        lines.append(
            f"  {row['parameters']}  measured={row['measured']:.6e}  bound={row['bound']:.6e}  "
            f"margin={row['margin']:.6e}"
        )
    if len(rows) > 40:
        lines.append(f"  ... {len(rows) - 40} further cases")
    return status, "\n".join(lines)


def _cmd_afe(args) -> tuple[int, str]:
    if args.kind == "hurwitz":
        res = afe_hurwitz(args.s, args.alpha, args.r, args.x)
        params = {"alpha": args.alpha}
    else:
        chi = character(args.q, args.label)
        res = afe_l(args.s, chi, args.r, args.x)
        params = {"q": args.q, "label": args.label}
    return _value_report(args, {"kind": args.kind, "s": args.s, "r": args.r, "x": args.x, **params}, res)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)  # parse_args does not change the parser: one per process
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zetalab",
        description="Evaluate Hurwitz/Lerch zeta and Dirichlet L-functions, extract "
        "expansion coefficients, and certify their explicit bounds.",
    )
    p.add_argument("--output", type=str, default=None, help="write the report to this file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("characters", help="tabulate the characters mod q")
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--json", action="store_true")

    pt = sub.add_parser("tail", help="sawtooth/oscillatory tail integral (debugging)")
    pt.add_argument("--x", type=_finite_float, required=True)
    pt.add_argument("--alpha", type=_finite_float, required=True)
    pt.add_argument("--re-a", dest="re_a", type=_finite_float, required=True)
    pt.add_argument("--im-a", dest="im_a", type=_finite_float, default=0.0)
    pt.add_argument("--r", type=int, default=0)
    pt.add_argument("--lambda", dest="lam", type=_finite_float, default=0.0)
    pt.add_argument("--json", action="store_true")

    pe = sub.add_parser("eval", help="evaluate a zeta-family derivative")
    pe.add_argument("--kind", choices=("hurwitz", "z", "l", "lerch"), required=True)
    pe.add_argument("--s", type=_parse_complex, required=True, metavar="RE,IM")
    pe.add_argument("--alpha", type=_finite_float, default=1.0)
    pe.add_argument("--q", type=int, default=1)
    pe.add_argument("--a", type=int, default=1)
    pe.add_argument("--label", type=int, default=1)
    pe.add_argument("--lambda", dest="lam", type=_finite_float, default=0.5)
    pe.add_argument("--r", type=int, default=0)
    pe.add_argument("--x", type=_finite_float, default=None)
    pe.add_argument("--json", action="store_true")

    pco = sub.add_parser("coeff", help="expansion coefficient tables")
    pco.add_argument(
        "--kind", choices=("gamma", "beta", "gamma-aq", "gamma-chi", "lerch", "l-zero"), required=True
    )
    pco.add_argument("--r-max", dest="r_max", type=int, required=True)
    pco.add_argument("--alpha", type=_finite_float, default=1.0)
    pco.add_argument("--q", type=int, default=4)
    pco.add_argument("--a", type=int, default=1)
    pco.add_argument("--label", type=int, default=1)
    pco.add_argument("--lambda", dest="lam", type=_finite_float, default=0.5)
    pco.add_argument("--json", action="store_true")
    pco.add_argument("--csv", action="store_true")

    pce = sub.add_parser("certify", help="run a bound certification sweep")
    pce.add_argument(
        "--bound", choices=("t2-ib", "t2-iib", "t2-iiib", "t3", "ishikawa", "polya"), required=True
    )
    pce.add_argument("--r-max", dest="r_max", type=int, default=None)
    pce.add_argument("--q", type=int, nargs="*", default=None)
    pce.add_argument("--json", action="store_true")
    pce.add_argument("--csv", action="store_true")

    pa = sub.add_parser("afe", help="hybrid strip evaluation")
    pa.add_argument("--kind", choices=("hurwitz", "l"), required=True)
    pa.add_argument("--s", type=_parse_complex, required=True, metavar="RE,IM")
    pa.add_argument("--alpha", type=_finite_float, default=1.0)
    pa.add_argument("--q", type=int, default=4)
    pa.add_argument("--label", type=int, default=1)
    pa.add_argument("--r", type=int, default=0)
    pa.add_argument("--x", type=_finite_float, required=True)
    pa.add_argument("--json", action="store_true")
    return p


_HANDLERS = {
    "characters": _cmd_characters,
    "tail": _cmd_tail,
    "eval": _cmd_eval,
    "coeff": _cmd_coeff,
    "certify": _cmd_certify,
    "afe": _cmd_afe,
}


def run(argv: list[str]) -> int:
    """Execute a request; returns the exit status and prints the report."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        status, text = _HANDLERS[args.command](args)
    except (ValueError, AssertionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        print(text)
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))
