"""The argparse parser that zetalab.cli used before its option table, with its
two converters, kept verbatim as the reference of tests/test_cli.py's
parser-equivalence grid."""

import argparse
import math
from functools import lru_cache


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
