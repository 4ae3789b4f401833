"""The JSON writer and the certify and characters reports that zetalab.cli
rendered before its flat writer and its streamed listing, kept verbatim as the
reference of tests/test_cli.py's byte-for-byte checks."""

import cmath
import math


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


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


def certify_report(report, fmt: str) -> tuple[int, str]:
    """The exit status and the text of a certify report in fmt ("json", "csv" or "text")."""
    asserted = report.bound_id not in ("Ishikawa_compare",)
    status = 0 if (report.all_pass or not asserted) else 2
    rows, info = (
        [{"parameters": c.parameters, "measured": c.measured, "bound": c.bound, "margin": c.margin} for c in cases]
        for cases in (report.cases, report.informational)
    )
    if fmt == "json":
        payload = {
            "command": "certify",
            "bound_id": report.bound_id,
            "all_pass": report.all_pass,
            "worst_margin": report.worst_margin if report.cases else None,
            "cases": rows,
            "informational": info,
        }
        return status, render_json(payload)
    if fmt == "csv":
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


def characters_listing(q: int, chars, json: bool) -> str:
    """The characters listing of the characters mod q, one dict row (JSON) or line (text) each."""
    if json:
        rows = [
            {
                "label": chi.label,
                "conductor": chi.conductor,
                "parity": chi.parity,
                "primitive": chi.is_primitive,
                "principal": chi.is_principal,
                "values": list(chi.values),
            }
            for chi in chars
        ]
        return render_json({"command": "characters", "q": q, "characters": rows})
    lines = [f"characters mod {q}: {len(chars)}"]
    for chi in chars:
        cells = " ".join(f"({z.real:+.3f},{z.imag:+.3f})" for z in chi.values)
        lines.append(
            f"label {chi.label:>3}  conductor {chi.conductor:>3}  parity {chi.parity:+d}  "
            f"primitive {str(chi.is_primitive):<5}  {cells}"
        )
    return "\n".join(lines)
