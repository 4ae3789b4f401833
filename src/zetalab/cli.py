"""Batch command-line frontend.

Subcommands: eval, coeff, certify, afe, characters, tail.  Output is
human-readable by default; --json emits a versioned document (schema
"1") with every float rendered at 17 significant digits and complex
numbers as [re, im] pairs, so identical requests produce byte-identical
output.  --csv is available for the tabular subcommands.  A value may
begin with '-' (--im-a -1e3); -h/--help prints a usage line and exits 0.

Exit codes: 0 success, 1 validation error (a parse error, such as an
unknown option or a non-finite number, is one stderr line; runaway work is
refused before any is done), binary64 overflow or an unwritable --output
file, 2 failed bound assertion.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from collections.abc import Iterable
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import bounds as bounds_mod
from . import characters
from .afe import afe_hurwitz, afe_l
from .characters import character
from .coefficients import COEFFICIENT_KINDS, coefficient_table
from .evaluate import HurwitzArgs, LerchArgs, hurwitz_deriv, l_deriv, lerch_deriv, z_deriv
from .sawtooth import EvalResult, _check_tail, psi_osc_tail_powers, psi_tail_powers

__all__ = ["main", "run", "render_json"]


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    text = f"{x:.17g}"
    return text if text[-1] <= "9" else f'"{text}"'  # only nan and inf end in a letter


def _fmt_complex(z: complex) -> str:
    text = f"[{z.real:.17g}, {z.imag:.17g}]"
    return text if "n" not in text else f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]"  # nan, inf


def _fmt_str(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render(obj) -> str:
    """Refuses obj: the writer calls it where _RENDER has no renderer for obj's exact type."""
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _items(values) -> str:
    return ", ".join([(_RENDER.get(type(v)) or _render)(v) for v in values])


# one renderer per type: a dict, list or tuple joins its items' texts once, each
# scalar's from one lookup by its type
_RENDER = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: str,
    float: _fmt_float,
    complex: _fmt_complex,
    str: _fmt_str,
    dict: lambda d: "{" + ", ".join([f"{_fmt_str(str(k))}: {(_RENDER.get(type(v)) or _render)(v)}" for k, v in d.items()]) + "}",
    list: lambda v: f"[{_items(v)}]",
    tuple: lambda v: f"[{_items(v)}]",
    np.float64: _fmt_float,
    np.complex128: _fmt_complex,
}


def render_json(payload: dict) -> str:
    return _RENDER[dict]({"schema": "1", **payload})


def _template(text: str) -> str:
    """The writer's text of a dict as a %-template: each value "" of it or of a dict
    in it becomes a slot %s, the rest %-escaped.  A rendered key's own quotes are
    escaped, so ': ""' marks those values and nothing else, whatever the keys hold."""
    return text.replace("%", "%%").replace(': ""', ": %s")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_finite_float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_finite_float(parts[0]), _finite_float(parts[1]))
    raise ValueError("complex values are written re or re,im")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


_LISTING_BLOCK = 256  # characters whose value table the listing holds at once


def _cmd_characters(args) -> tuple[int, Iterable[str]]:
    q = args.q
    kexps = characters._exponents(q)  # the refusals before the first byte, as is the first block below (next), which may run out of memory
    labels, conductors, parities = map(np.ndarray.tolist, characters._fields(q, kexps))
    # the entries of a row of the log table index the E + 1 distinct values of
    # roots (the trailing 0 read by the non-units): each is formatted once
    roots = characters._unit_group(q).roots.tolist()
    cells = np.array([_fmt_complex(z) if args.json else f"({z.real:+.3f},{z.imag:+.3f})" for z in roots], dtype=object)
    blocks = (cells[characters._log_table(q, kexps[i : i + _LISTING_BLOCK])].tolist() for i in range(0, len(kexps), _LISTING_BLOCK))
    rows = zip(labels, conductors, parities, chain.from_iterable(chain([next(blocks)], blocks)))  # a label is its row's index
    if args.json:
        # the writer's own text of the document, with a null in each slot of its list, and of a row
        head, sep, tail = render_json({"command": "characters", "q": q, "characters": [None, None]}).split("null")
        row = _template(_RENDER[dict](dict.fromkeys(("label", "conductor", "parity", "primitive", "principal", "values"), "")))
        chunks = (
            (sep if label else "") + row % (label, f, parity, _RENDER[bool](f == q), _RENDER[bool](f == 1), f"[{sep.join(values)}]")
            for label, f, parity, values in rows
        )
        return 0, chain([head], chunks, [tail])
    chunks = (
        f"\nlabel {label:>3}  conductor {f:>3}  parity {parity:+d}  primitive {str(f == q):<5}  {' '.join(values)}"
        for label, f, parity, values in rows
    )
    return 0, chain([f"characters mod {q}: {len(kexps)}"], chunks)


def _value_report(args, fields: dict, res: EvalResult) -> tuple[int, str]:
    """The report of one value: the request's fields, the value and its bound."""
    if args.json:
        return 0, render_json({"command": args.command, **fields, "value": res.value, "error_bound": res.error_bound})
    return 0, f"value = {res.value}  error_bound = {res.error_bound:.3e}"


def _cmd_tail(args) -> tuple[int, str]:
    b = complex(args.re_a, args.im_a)
    _check_tail(args.x, [args.alpha], args.r)
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


# (command, --kind) → the library call of an eval or afe request and the options its report
# names after --kind, --s, --r and --x; a command's --kind choices are its keys here, in order
_VALUES = {
    ("eval", "hurwitz"): (lambda a: hurwitz_deriv(HurwitzArgs(s=a.s, alpha=a.alpha, order=a.r, split=a.x)), ("--alpha",)),
    ("eval", "z"): (lambda a: z_deriv(a.s, a.a, a.q, a.r, X=a.x), ("--a", "--q")),
    ("eval", "l"): (lambda a: l_deriv(a.s, character(a.q, a.label), a.r, X=a.x), ("--q", "--label")),
    ("eval", "lerch"): (lambda a: lerch_deriv(LerchArgs(lam=a.lam, alpha=a.alpha, s=a.s, order=a.r, split=a.x)), ("--lambda", "--alpha")),
    ("afe", "hurwitz"): (lambda a: afe_hurwitz(a.s, a.alpha, a.r, a.x), ("--alpha",)),
    ("afe", "l"): (lambda a: afe_l(a.s, character(a.q, a.label), a.r, a.x), ("--q", "--label")),
}


def _cmd_value(args) -> tuple[int, str]:
    call, options = _VALUES[args.command, args.kind]
    fields = {opt[2:]: getattr(args, _DESTS.get(opt, opt[2:])) for opt in ("--kind", "--s", "--r", "--x", *options)}
    return _value_report(args, fields, call(args))


# coeff --kind → its coefficients.COEFFICIENT_KINDS name
_COEFF_KINDS = {
    "gamma": "stieltjes_gamma",
    "beta": "beta_at_zero",
    "gamma-aq": "gamma_aq",
    "gamma-chi": "gamma_chi",
    "lerch": "lerch_at_one",
    "l-zero": "l_deriv_at_zero",
}


def _cmd_coeff(args) -> tuple[int, str]:
    kind = _COEFF_KINDS[args.kind]
    kwargs = {
        name: character(args.q, args.label) if name == "chi" else getattr(args, name)
        for name in COEFFICIENT_KINDS[kind].params
    }
    table = coefficient_table(kind, args.r_max, **kwargs)
    rows = [{"r": e.order, "value": e.value, "error": e.error, "route": e.route} for e in table.entries]
    if args.json:
        return 0, render_json({"command": "coeff", "kind": args.kind, "parameters": table.parameters, "entries": rows})
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


# certify --bound → its sweep of the --q list (None if absent) and --r-max keywords
_CERTIFY = {
    "t2-ib": lambda q, orders: bounds_mod.certify_T2_Ib(**orders),
    "t2-iib": lambda q, orders: bounds_mod.certify_T2_IIb(**orders),
    "t2-iiib": lambda q, orders: bounds_mod.certify_T2_IIIb(**orders),
    "t3": lambda q, orders: bounds_mod.certify_T3(q_set=tuple(q) if q else bounds_mod.DEFAULT_Q_SET, **orders),
    "ishikawa": lambda q, orders: bounds_mod.ishikawa_compare(q[0] if q else 5),
    "polya": lambda q, orders: bounds_mod.certify_polya_vinogradov(),
}


def _certify_report(args):
    # an absent --r-max leaves each sweep at its own default
    if args.r_max is not None and args.r_max < 1:
        raise ValueError("--r-max must be at least 1")
    return _CERTIFY[args.bound](args.q, {} if args.r_max is None else {"r_max": args.r_max})


def _case_rows(cases) -> str:
    """The JSON list of certify cases: each row filled from the template of its
    parameter keys and value types, built once per such shape."""
    shapes, rows = {}, []
    for c in cases:
        p, values = c.parameters, (*c.parameters.values(), c.measured, c.bound, c.margin)
        shape = (*map(str, p), *map(type, values))  # a key renders as its str
        if shape not in shapes:
            row = {"parameters": dict.fromkeys(p, ""), "measured": "", "bound": "", "margin": ""}
            shapes[shape] = _template(_RENDER[dict](row)), [_RENDER.get(type(v)) or _render for v in values]
        template, renders = shapes[shape]
        rows.append(template % tuple([render(v) for render, v in zip(renders, values)]))
    return f"[{', '.join(rows)}]"


def _cmd_certify(args) -> tuple[int, str]:
    report = _certify_report(args)
    status = 0 if report.all_pass else 2
    cases = report.cases
    if args.json:
        payload = {"command": "certify", "bound_id": "", "all_pass": report.all_pass, "worst_margin": report.worst_margin if cases else None, "cases": "", "informational": ""}
        texts = _RENDER[str](report.bound_id), _case_rows(cases), _case_rows(report.informational)
        return status, _template(render_json(payload)) % texts
    if args.csv:
        lines = ["measured,bound,margin,parameters"]
        lines += [f"{c.measured:.17g},{c.bound:.17g},{c.margin:.17g},\"{c.parameters}\"" for c in cases]
        return status, "\n".join(lines)
    lines = [
        f"bound {report.bound_id}: {len(cases)} cases, all_pass={report.all_pass}, "
        f"worst_margin={report.worst_margin if cases else 'n/a'}"
    ]
    for c in cases[:40]:
        lines.append(f"  {c.parameters}  measured={c.measured:.6e}  bound={c.bound:.6e}  margin={c.margin:.6e}")
    if len(cases) > 40:
        lines.append(f"  ... {len(cases) - 40} further cases")
    return status, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# subcommand → option → (converter, choices, default, required): a converter of None
# marks a flag and [int] zero or more ints; the attribute an option sets is its name
# unless _DESTS spells it out
_FLAG = (None, None, False, False)
_OPTIONS = {
    "characters": {"--q": (int, None, None, True), "--json": _FLAG},
    "tail": {
        "--x": (_finite_float, None, None, True), "--alpha": (_finite_float, None, None, True),
        "--re-a": (_finite_float, None, None, True), "--im-a": (_finite_float, None, 0.0, False),
        "--r": (int, None, 0, False), "--lambda": (_finite_float, None, 0.0, False), "--json": _FLAG,
    },
    "eval": {
        "--kind": (str, tuple(kind for command, kind in _VALUES if command == "eval"), None, True), "--s": (_parse_complex, None, None, True),
        "--alpha": (_finite_float, None, 1.0, False), "--q": (int, None, 1, False), "--a": (int, None, 1, False),
        "--label": (int, None, 1, False), "--lambda": (_finite_float, None, 0.5, False), "--r": (int, None, 0, False),
        "--x": (_finite_float, None, None, False), "--json": _FLAG,
    },
    "coeff": {
        "--kind": (str, tuple(_COEFF_KINDS), None, True),
        "--r-max": (int, None, None, True), "--alpha": (_finite_float, None, 1.0, False), "--q": (int, None, 4, False),
        "--a": (int, None, 1, False), "--label": (int, None, 1, False), "--lambda": (_finite_float, None, 0.5, False),
        "--json": _FLAG, "--csv": _FLAG,
    },
    "certify": {
        "--bound": (str, tuple(_CERTIFY), None, True),
        "--r-max": (int, None, None, False), "--q": ([int], None, None, False), "--json": _FLAG, "--csv": _FLAG,
    },
    "afe": {
        "--kind": (str, tuple(kind for command, kind in _VALUES if command == "afe"), None, True), "--s": (_parse_complex, None, None, True),
        "--alpha": (_finite_float, None, 1.0, False), "--q": (int, None, 4, False), "--label": (int, None, 1, False),
        "--r": (int, None, 0, False), "--x": (_finite_float, None, None, True), "--json": _FLAG,
    },
}
_OUTPUT = {"--output": (str, None, None, False)}  # the one option before the subcommand
_DESTS = {"--lambda": "lam", "--r-max": "r_max", "--re-a": "re_a", "--im-a": "im_a"}
_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: zetalab [-h] [--output OUTPUT] {{{','.join(_OPTIONS)}}} ..."
    words = [f"usage: zetalab {command} [-h]"]
    for opt, (conv, choices, _, required) in _OPTIONS[command].items():
        meta = "{" + ",".join(choices) + "}" if choices else _DESTS.get(opt, opt[2:]).upper()
        word = opt if conv is None else f"{opt} [{meta} ...]" if type(conv) is list else f"{opt} {meta}"
        words.append(word if required else f"[{word}]")
    return " ".join(words)


def _convert(opt: str, conv, choices, text: str):
    try:
        value = conv(text)
    except ValueError as exc:
        raise ValueError(f"argument {opt}: {f'invalid int value: {text!r}' if conv is int else exc}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"argument {opt}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The request argv names (--opt v or --opt=v, any unique prefix of an --opt, the last of a
    repeat), or the usage -h/--help asks for; a refusal is a ValueError worded as argparse
    words it. A token after an option is its value even when it begins with '-'; certify --q
    reads the tokens up to one that begins with '-' and no digit."""
    values, extras, options, command, i = {"output": None}, [], _OUTPUT, None, 0
    while i < len(argv):
        token, i = argv[i], i + 1
        if token[:1] != "-" or token == "-":  # a positional: the subcommand, then extras
            if command is None:
                command = _convert("command", str, _OPTIONS, token)
                options = _OPTIONS[command]
                values.update({_DESTS.get(opt, opt[2:]): spec[2] for opt, spec in options.items()}, command=command)
            else:
                extras.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options and name not in _HELP:
            hits = [opt for opt in ("--help", *options) if opt.startswith(name)] if token[:2] == "--" else []
            if len(hits) > 1:
                raise ValueError(f"ambiguous option: {token} could match {', '.join(hits)}")
            if not hits:
                extras.append(token)
                continue
            name = hits[0]
        conv, choices, _, _ = options.get(name, _FLAG)
        if conv is None and eq:
            raise ValueError(f"argument {'-h/--help' if name in _HELP else name}: ignored explicit argument {value!r}")
        if name in _HELP:
            return _usage(command)
        if conv is None:
            value = True
        elif type(conv) is list:
            end = next((j for j in range(i, len(argv)) if argv[j][:1] == "-" and not argv[j][1:2].isdigit()), len(argv))
            texts, i = ([value], i) if eq else (argv[i:end], end)
            value = [_convert(name, conv[0], None, text) for text in texts]
        elif eq or i < len(argv):
            value, i = (value, i) if eq else (argv[i], i + 1)
            value = _convert(name, conv, choices, value)
        else:
            raise ValueError(f"argument {name}: expected one argument")
        values[_DESTS.get(name, name[2:])] = value
    if command is None:
        raise ValueError("the following arguments are required: command")
    # a required option has no default, and no value it is given is None
    missing = [opt for opt, spec in options.items() if spec[3] and values[_DESTS.get(opt, opt[2:])] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


_HANDLERS = {
    "characters": _cmd_characters,
    "tail": _cmd_tail,
    "eval": _cmd_value,
    "coeff": _cmd_coeff,
    "certify": _cmd_certify,
    "afe": _cmd_value,
}


def run(argv: list[str]) -> int:
    """Execute a request; returns the exit status and prints the report, or
    one error line and 1 for a refusal, an unwritable output file or a
    MemoryError (numpy's _ArrayMemoryError), also while a listing streams."""
    try:
        args = _parse(argv)
        if isinstance(args, str):  # the usage, for -h/--help
            print(args)
            return 0
        status, doc = _HANDLERS[args.command](args)
        chunks = (doc, "\n") if isinstance(doc, str) else chain(doc, ["\n"])  # each written as it comes
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(chunks)
    except (ValueError, AssertionError, OverflowError, MemoryError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader left early: main's to handle
            raise
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return status


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early (zetalab ... | head): drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
