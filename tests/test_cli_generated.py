"""The CLI contract under generated requests: argvs drawn from cli._OPTIONS,
one strategy of edge values per converter, each run through cli.run in
process under an alarm with warnings recorded.

Every request exits 0, 1 or 2; a refusal (1) is one `error: ` line on
stderr, nothing on stdout and no warning; an answer (0) writes nothing on
stderr and, with --json, a document whose error_bound is finite; and an
answered `eval --kind hurwitz|z|l` at |Im s| <= 100 and r <= 2 lies within
its error_bound of the mpmath value (tests/oracles.py).  The moduli and
orders stay small, so that the oracles and the module run in a few seconds;
tools/fuzz_cli.py runs the same contract (contract_defects) over 10 000.
"""

import contextlib
import io
import json
import math
import signal
import warnings

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import cli
from zetalab.characters import character

from .oracles import l_at_one_oracle, l_oracle, z_oracle

# 0, the subnormal ulp and its negative, a tiny normal, 1 and its neighbours,
# the shift sums' cap 31/32, beyond the order cap, -1, a long split, overflow
FLOATS = ["0", "5e-324", "-5e-324", "1e-300", "0.5", "1", "0.9999999999999999", "1.0000000000000002", "0.96875", "2", "25", "-1", "1e7", "1e300"]
# Im(s): small t, a t = 1e7 that every route refuses before its work, and the
# overflow that is refused at once
IMAGINARY = ["0", "5e-324", "-5e-324", "1e-300", "1", "-1", "25", "100", "1e7", "1e300"]
INTS = ["-1", "0", "1", "2", "3", "5", "12", "24", "25"]
MODULI = ["-1", "0", "1", "2", "3", "4", "5", "12"]  # the moduli of certify --q

_CONVERTERS = {
    int: st.sampled_from(INTS),
    cli._finite_float: st.sampled_from(FLOATS),
    cli._parse_complex: st.sampled_from(FLOATS) | st.tuples(st.sampled_from(FLOATS), st.sampled_from(IMAGINARY)).map(",".join),
}


def _values(conv, choices):
    """The strategy of the tokens that follow an option: none for a flag."""
    if conv is None:
        return st.just([])
    if choices is not None:
        return st.sampled_from(choices).map(lambda v: [v])
    if type(conv) is list:  # certify --q: zero or more moduli
        return st.lists(st.sampled_from(MODULI), max_size=3)
    return _CONVERTERS[conv].map(lambda v: [v])


@st.composite
def requests(draw):
    command = draw(st.sampled_from(sorted(cli._OPTIONS)))
    argv = [command]
    for opt, (conv, choices, _, required) in cli._OPTIONS[command].items():
        if required or draw(st.booleans()):
            argv += [opt, *draw(_values(conv, choices))]
    return argv


def _option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _oracle(argv):
    """The mpmath value of an answered `eval --kind hurwitz|z|l` request with
    |Im s| <= 100 and r <= 2, or None for any other request."""
    kind, q = _option(argv, "--kind", ""), int(_option(argv, "--q", "1"))
    s, r = cli._parse_complex(_option(argv, "--s", "0")), int(_option(argv, "--r", "0"))
    if argv[0] != "eval" or kind == "lerch" or abs(s.imag) > 100.0 or r > 2:
        return None
    if kind == "hurwitz":
        return z_oracle(s, float(_option(argv, "--alpha", "1")), 1, r)
    if kind == "z":
        return z_oracle(s, int(_option(argv, "--a", "1")), q, r)
    chi = character(q, int(_option(argv, "--label", "1")))
    return l_at_one_oracle(chi, r) if s == 1 else l_oracle(s, chi, r)


class _TooSlow(BaseException):
    """The alarm of a request that still runs: no handler of cli.run catches it."""


def contract_defects(argv, seconds: float = 15.0) -> list[str]:
    """How the request breaks the CLI contract, run through cli.run in process
    under an alarm of the given seconds with warnings recorded: [] if it keeps
    it.  tools/fuzz_cli.py runs the same checks over many more requests."""

    def too_slow(signum, frame):
        raise _TooSlow

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            status = cli.run(argv)
    except _TooSlow:
        return [f"still ran after {seconds:g} s"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    defects = [] if status in (0, 1, 2) else [f"exit status {status}"]
    defects += [f"warning {str(w.message)!r}" for w in caught]
    if status == 1:
        return defects + ([] if out == "" and err.startswith("error: ") and err.count("\n") == 1 else [f"refusal wrote {out!r} and {err!r}"])
    defects += [f"stderr {err!r}"] if err else []
    if status == 0 and "--json" in argv:
        try:
            doc = json.loads(out)
        except ValueError:
            return defects + [f"not JSON: {out[:80]!r}"]
        if "error_bound" in doc:
            if not math.isfinite(doc["error_bound"]):
                return defects + [f"error_bound {doc['error_bound']}"]
            want = _oracle(argv)
            if want is not None:
                value = complex(*doc["value"])
                if not abs(mp.mpc(value.real, value.imag) - want) <= doc["error_bound"]:
                    defects.append(f"|value - oracle| = {mp.nstr(abs(mp.mpc(value.real, value.imag) - want), 3)} beyond error_bound {doc['error_bound']:.3g}")
    return defects


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(requests())
def test_every_generated_request_keeps_the_cli_contract(argv):
    assert contract_defects(argv) == [], argv
