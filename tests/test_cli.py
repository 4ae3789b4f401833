import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import cli
from zetalab.bounds import BoundCase, BoundReport
from zetalab.characters import enumerate_characters
from zetalab.cli import render_json, run

from . import argparse_reference, render_reference


def run_capture(capsys, argv):
    status = run(argv)
    out = capsys.readouterr().out
    return status, out


def test_eval_hurwitz_known_value(capsys):
    status, out = run_capture(
        capsys, ["eval", "--kind", "hurwitz", "--s", "0.5,0", "--alpha", "1", "--r", "0", "--x", "10"]
    )
    assert status == 0
    assert "-1.46035450880" in out


def test_coeff_gamma_json(capsys):
    status, out = run_capture(
        capsys, ["coeff", "--kind", "gamma", "--alpha", "1", "--r-max", "3", "--json"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    entries = doc["entries"]
    assert len(entries) == 4
    assert entries[0]["value"][0] == pytest.approx(0.5772156649, abs=1e-9)
    assert all("error" in e and "route" in e for e in entries)


def test_json_deterministic(capsys):
    argv = ["eval", "--kind", "lerch", "--s", "1.5,0", "--lambda", "0.3", "--alpha", "0.7", "--r", "1", "--json"]
    _, out1 = run_capture(capsys, argv)
    _, out2 = run_capture(capsys, argv)
    assert out1 == out2


def test_characters_table(capsys):
    status, out = run_capture(capsys, ["characters", "--q", "4", "--json"])
    assert status == 0
    doc = json.loads(out)
    rows = doc["characters"]
    assert len(rows) == 2
    labels = {row["label"]: row for row in rows}
    assert labels[0]["principal"] and not labels[1]["principal"]
    assert labels[1]["conductor"] == 4
    re3, im3 = labels[1]["values"][3]
    assert re3 == pytest.approx(-1.0, abs=1e-15) and im3 == pytest.approx(0.0, abs=1e-15)


LISTING_MODULI = [1, 2, 4, 8, 9, 12, 24, 105, 307, 331, 720]


@pytest.mark.parametrize("q", LISTING_MODULI)
def test_characters_json_joins_each_rendered_root_byte_for_byte(capsys, q):
    # prime, 2^k (two generators at 8 and 24) and multi-factor moduli: the
    # table joined from the E + 1 distinct rendered roots equals the plain
    # rendering of every value
    rows = [
        {
            "label": chi.label,
            "conductor": chi.conductor,
            "parity": chi.parity,
            "primitive": chi.is_primitive,
            "principal": chi.is_principal,
            "values": list(chi.values),
        }
        for chi in enumerate_characters(q)
    ]
    status, out = run_capture(capsys, ["characters", "--q", str(q), "--json"])
    assert status == 0
    assert out == render_json({"command": "characters", "q": q, "characters": rows}) + "\n"
    assert out == render_reference.characters_listing(q, enumerate_characters(q), json=True) + "\n"


@pytest.mark.parametrize("q", LISTING_MODULI)
def test_characters_text_listing_is_the_line_per_character_form(capsys, q):
    status, out = run_capture(capsys, ["characters", "--q", str(q)])
    assert status == 0
    assert out == render_reference.characters_listing(q, enumerate_characters(q), json=False) + "\n"


# sha256 of each listing at q = 2003 and 1009, as the listing held whole in memory printed them
LISTING_DIGESTS = {
    ("characters", "--q", "2003", "--json"): "b3b0765aa419b57bb60d49557fb3fe043feeecc5baca37c6a1ad22c57f032359",
    ("characters", "--q", "2003"): "bad0dadedf6c791050fc6e36a941d215a14a0b90c97640e37fe5fa87f3eee161",
    ("characters", "--q", "1009", "--json"): "7216a2c78226746a134e80cf80b72ea166e5f786724ec1b97c9f9629a70da050",
}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("argv", list(LISTING_DIGESTS), ids=" ".join)
def test_large_listings_stream_in_bounded_memory_byte_for_byte(argv):
    # the q = 2003 JSON listing is 179 MB; held whole, with its copies, it peaked near 580 MB.
    # The child reports VmHWM, the peak RSS of its own image: ru_maxrss keeps the
    # high-water mark of the process it was forked from across exec
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = (
        "import sys\n"
        "from zetalab.cli import run\n"
        "status = run(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", child, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert digest.hexdigest() == LISTING_DIGESTS[argv]
    assert int(err) < 150 * 1024  # in KiB


def test_a_listing_to_an_unwritable_output_writes_nothing(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert run(["--output", str(target), "characters", "--q", "12", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["characters", "--q", "10007", "--json"],
        ["certify", "--bound", "t3", "--q", "10007", "--r-max", "1"],
        ["certify", "--bound", "ishikawa", "--q", "10007"],
    ],
)
def test_character_tables_beyond_memory_are_refused_before_any_is_built(capsys, monkeypatch, argv):
    # phi(q) q = 1.0e8 table entries, about 8 GB of Python objects
    import zetalab.characters as characters

    def no_build(*args, **kwargs):
        raise AssertionError("a character was built")

    # every character, listed or built, takes its fields from this one kernel, and the
    # listing reads its values from the log table
    monkeypatch.setattr(characters, "_fields", no_build)
    monkeypatch.setattr(characters, "_log_table", no_build)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "work budget" in captured.err


def test_character_tables_at_q_2003_are_inside_the_budget(monkeypatch):
    import zetalab.characters as characters

    monkeypatch.setattr(characters, "_fields", lambda q, kexps: (np.zeros(len(kexps), dtype=np.int64),) * 3)
    assert len(enumerate_characters(2003)) == 2002


def test_tail_subcommand(capsys):
    status, out = run_capture(
        capsys, ["tail", "--x", "1", "--alpha", "1", "--re-a", "-2", "--r", "0", "--json"]
    )
    assert status == 0
    doc = json.loads(out)
    # int_1^inf psi(u-1)/u^2 du = 1/2 - gamma
    assert doc["value"][0] == pytest.approx(0.5 - 0.5772156649015329, abs=1e-10)
    assert doc["error_bound"] >= 0.0


def test_certify_exit_zero(capsys):
    status, out = run_capture(capsys, ["certify", "--bound", "t2-ib", "--r-max", "6", "--json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(c["margin"] >= 0 for c in doc["cases"])


def test_certify_csv(capsys):
    status, out = run_capture(capsys, ["certify", "--bound", "polya", "--csv"])
    assert status == 0
    header = out.splitlines()[0]
    assert header == "measured,bound,margin,parameters"


def test_afe_subcommand(capsys):
    t = 20.0
    x = math.sqrt(t / (2 * math.pi))
    status, out = run_capture(
        capsys, ["afe", "--kind", "hurwitz", "--s", f"0.5,{t}", "--alpha", "1", "--r", "0", "--x", str(x), "--json"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["error_bound"] < 1e-6


def test_eval_l_kind(capsys):
    status, out = run_capture(
        capsys, ["eval", "--kind", "l", "--s", "1,0", "--q", "4", "--label", "1", "--r", "0", "--json"]
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["value"][0] == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_validation_error_exit_one(capsys):
    status = run(["eval", "--kind", "hurwitz", "--s", "1,0", "--alpha", "1"])  # the pole
    assert status == 1
    status = run(["eval", "--kind", "hurwitz", "--s", "0.5,0", "--alpha", "7"])  # bad alpha
    assert status == 1
    status = run(["eval", "--kind", "nonsense"])  # a parse refusal
    assert status == 1


def test_exit_two_on_failed_assertion(capsys, monkeypatch):
    import zetalab.bounds as bounds_mod
    from zetalab.bounds import BoundCase, BoundReport

    fake = BoundReport("T2_Ib", (BoundCase({"r": 1}, measured=2.0, bound=1.0),))
    monkeypatch.setattr(bounds_mod, "certify_T2_Ib", lambda r_max=20: fake)
    status = run(["certify", "--bound", "t2-ib"])
    assert status == 2


def test_render_json_escapes_and_formats():
    doc = render_json({"x": 1.5, "c": complex(1, -2), "s": 'a"b', "n": None, "b": True})
    parsed = json.loads(doc)
    assert parsed["c"] == [1.0, -2.0]
    assert parsed["s"] == 'a"b'
    assert parsed["n"] is None and parsed["b"] is True


def test_render_json_serves_subclasses_and_non_finite_numbers_by_the_ladder():
    import numpy as np

    nan, inf = float("nan"), float("inf")
    plain = {"f": 0.1, "c": complex(1.0, -0.0), "w": complex(inf, nan), "i": 3, "t": (1, [None])}
    subclassed = {"f": np.float64(0.1), "c": np.complex128(complex(1.0, -0.0)), "w": complex(inf, nan), "i": 3, "t": (1, [None])}
    doc = render_json(plain)
    assert doc == render_json(subclassed)
    assert doc == ('{"schema": "1", "f": 0.10000000000000001, "c": [1, -0], "w": ["inf", "nan"], "i": 3, "t": [1, [null]]}')
    with pytest.raises(TypeError):
        render_json({"x": np.int64(3)})


_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, math.nan, -math.nan, math.inf, -math.inf])
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_STRINGS = st.text(st.sampled_from('ab"\\ \u00e9\n'), max_size=6) | st.text(max_size=6)
_SCALARS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), _COMPLEX, _COMPLEX.map(np.complex128), st.booleans(), st.none(), st.integers(), _STRINGS
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple) | st.dictionaries(_STRINGS | st.integers(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.dictionaries(_STRINGS, _DOCUMENTS, max_size=6))
def test_the_flat_writer_renders_every_document_as_the_recursive_one_did(payload):
    assert render_json(payload) == render_reference.render_json(payload)


_KEYS = st.sampled_from(["q", "label", 'a"b', "c\\d", "%s", "%", "{}", "{0}", ': ""', "null", ""]) | _STRINGS
_PARAMETERS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.booleans(), st.none(), st.integers(), _STRINGS, st.sampled_from(["%s", "{}", '"', "\\", ': ""'])
)
_MEASURES = _FLOATS | _FLOATS.map(np.float64) | st.integers(-(10**6), 10**6)


@st.composite
def _bound_reports(draw):
    """BoundReports whose cases share a few parameter key lists, each case with
    its own value types."""
    shapes = draw(st.lists(st.lists(_KEYS, unique=True, max_size=4), min_size=1, max_size=3))

    def case():
        params = {key: draw(_PARAMETERS) for key in draw(st.sampled_from(shapes))}
        return BoundCase(params, draw(_MEASURES), draw(_MEASURES))

    cases, info = (tuple(case() for _ in range(draw(st.integers(0, 6)))) for _ in range(2))
    return BoundReport(draw(_KEYS), cases, info)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_bound_reports())
def test_certify_rows_of_mixed_parameter_shapes_render_as_the_recursive_writer_rendered_them(report):
    # each row is filled from its shape's template: keys holding quotes, backslashes,
    # %, braces or the slot text itself, and a report with no cases (worst_margin null)
    out = io.StringIO()
    with mock.patch.dict(cli._CERTIFY, {"t3": lambda q, orders: report}), contextlib.redirect_stdout(out):
        status = run(["certify", "--bound", "t3", "--json"])
    want_status, want = render_reference.certify_report(report, "json")
    assert (status, out.getvalue()) == (want_status, want + "\n")


@pytest.mark.parametrize("bound", ["t2-ib", "t2-iib", "t2-iiib", "t3", "ishikawa", "polya"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_every_certify_report_renders_as_the_recursive_writer_rendered_it(capsys, bound, fmt):
    argv = ["certify", "--bound", bound, *({"json": ["--json"], "csv": ["--csv"]}.get(fmt, []))]
    status, text = render_reference.certify_report(cli._certify_report(cli._parse(argv)), fmt)
    assert run_capture(capsys, argv) == (status, text + "\n")


@pytest.mark.parametrize("kind", ["gamma-chi", "l-zero"])
def test_an_l_table_below_order_zero_is_refused_with_one_line(capsys, kind):
    # the L routes reached the core with no order, and ended in an IndexError traceback
    assert run(["coeff", "--kind", kind, "--r-max", "-1", "--q", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order must lie in 0..24\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "z", "--s", "3e5", "--x", "0.5"],
        ["eval", "--kind", "hurwitz", "--s", "0.5", "--x", "5e-324"],
        ["eval", "--kind", "hurwitz", "--s", "1e-3", "--r", "7", "--x", "1e-300"],
        ["eval", "--kind", "lerch", "--s", "0.5", "--x", "5e-324"],
        ["tail", "--x", "5e-324", "--alpha", "1", "--re-a", "-2"],
        ["tail", "--x", "5e-324", "--alpha", "1", "--re-a", "-2", "--lambda", "0.5"],
    ],
)
def test_a_split_far_from_the_default_is_refused_without_a_warning(capsys, argv):
    # numpy printed RuntimeWarnings from the tail and the core before the refusal;
    # pytest keeps warnings away from capsys, so they are recorded here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["eval", "--kind", "lerch", "--s", "0.5", "--x", "5e-324"], ["tail", "--x", "5e-324", "--alpha", "1", "--re-a", "-2", "--lambda", "0.5"]],
)
def test_a_walk_from_a_split_of_an_ulp_at_real_s_is_refused_in_words(capsys, argv):
    # its length was 0 inf, and the refusal read "about nan units of work"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the panel walk from u = 4.94066e-324 is not finite in binary64\n"


def test_threads_flag_is_refused(capsys):
    # the certify thread pool is gone (it only added cost under the GIL):
    # the flag is refused like any unknown option, and the sweep runs serially
    status, out = run_capture(
        capsys, ["--threads", "2", "certify", "--bound", "t3", "--r-max", "2", "--q", "3", "4", "--json"]
    )
    assert status == 1
    assert out == ""
    status, out = run_capture(capsys, ["certify", "--bound", "t3", "--r-max", "2", "--q", "3", "4", "--json"])
    assert status == 0
    assert json.loads(out)["all_pass"] is True


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status = run(["--output", str(target), "coeff", "--kind", "beta", "--alpha", "0.3", "--r-max", "2", "--json"])
    assert status == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["entries"][0]["value"][0] == pytest.approx(0.2, abs=1e-12)


def test_unwritable_output_is_refused_with_one_line(tmp_path, capsys):
    # the report used to end in a FileNotFoundError traceback
    target = tmp_path / "missing" / "out.txt"
    assert run(["--output", str(target), "eval", "--kind", "hurwitz", "--s", "2,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(target) in captured.err


@pytest.mark.parametrize("r_max", ["0", "-2"])
@pytest.mark.parametrize("bound", ["t2-ib", "t3", "polya"])
def test_certify_r_max_below_one_is_refused(capsys, bound, r_max):
    # --r-max 0 used to run the default 240 cases, --r-max -2 none with exit 0
    assert run(["certify", "--bound", bound, "--r-max", r_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --r-max must be at least 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--kind", "l", "--s", "1,0", "--q", "7", "--label", "6"], "no character mod 7 has label 6"),
        (["eval", "--kind", "l", "--s", "1,0", "--q", "7", "--label", "-1"], "no character mod 7 has label -1"),
        (["coeff", "--kind", "gamma-chi", "--q", "0", "--r-max", "2"], "no character mod 0 has label 1"),
        # and the domain refusals of the Z and L routes and of two sweeps
        (["eval", "--kind", "z", "--s", "0,5", "--q", "5", "--a", "2"], "evaluation requires Re(s) > 0"),
        (["eval", "--kind", "l", "--s", "-0.5,3", "--q", "5", "--label", "1"], "evaluation requires Re(s) > 0"),
        (["certify", "--bound", "t2-ib", "--r-max", "21"], "grid is capped at r <= 20"),
        (["certify", "--bound", "ishikawa", "--q", "2"], "q = 2 has no primitive characters"),
    ],
)
def test_bad_character_label_is_refused_with_one_line(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "z", "--q", "3", "--a", "1", "--s", "2", "--x", "0"],
        ["eval", "--kind", "l", "--q", "5", "--label", "1", "--s", "1,0", "--x", "0"],
        ["eval", "--kind", "l", "--q", "5", "--label", "1", "--s", "1,0", "--x=-2"],
    ],
)
def test_a_split_that_is_not_positive_is_refused_with_one_line(capsys, argv):
    # the Z and L routes refuse it as Hurwitz and Lerch do, before log(X) fails
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: split parameter must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "hurwitz", "--s", "inf,0"],
        ["eval", "--kind", "l", "--s", "inf,0", "--q", "5", "--label", "1"],
        ["eval", "--kind", "hurwitz", "--s", "2,inf"],
        ["eval", "--kind", "hurwitz", "--s", "nan,0"],
        ["eval", "--kind", "hurwitz", "--s", "0.5,0", "--x", "inf"],
        ["afe", "--kind", "hurwitz", "--s", "0.5,10", "--x=-inf"],
        ["tail", "--x", "inf", "--alpha", "1", "--re-a", "-2"],
        ["tail", "--x", "1", "--alpha", "nan", "--re-a", "-2"],
        ["coeff", "--kind", "gamma", "--alpha", "nan", "--r-max", "2"],
    ],
)
def test_non_finite_numbers_are_refused_at_parse_time(capsys, argv):
    # these used to hang (inf real part), overflow or fail in an int conversion
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "not a finite number" in captured.err


def test_shifted_sums_past_their_cap_exit_one_with_one_line(capsys):
    # lambda = 0.999 lies past the shifted Fourier sums' cap of nu = 31/32:
    # there the rounding of their phase, which no bound books, outgrows the
    # bound (at rate nu the sums had reached their old cap of 4000 terms, and
    # the value they gave was off by 1.4e-2 against a bound of 4.1e-9)
    assert run(["eval", "--kind", "lerch", "--lambda", "0.999", "--alpha", "0.7", "--s", "0.5,10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the shifted Fourier sums at nu = 0.999 are refused above nu = 0.96875, where the rounding of their phase is not booked\n"


def test_overflow_exits_one_with_one_line(capsys):
    # the pure tail's remainder scale (2 pi lambda)^{-16} leaves binary64 as an
    # OverflowError at lambda = 1e-30
    argv = ["eval", "--kind", "lerch", "--s", "0.5,10", "--lambda", "1e-30", "--alpha", "0.5"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "hurwitz", "--s", "1e300,0"],
        ["eval", "--kind", "lerch", "--s", "1e200,0"],
        ["eval", "--kind", "hurwitz", "--s", "0.5,1e7"],
        ["coeff", "--kind", "gamma", "--alpha", "1e-300", "--r-max", "3"],
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--x", "1e10"],
        ["eval", "--kind", "z", "--s", "2,0", "--a", "1", "--q", "3", "--x", "1e10"],
        ["eval", "--kind", "l", "--s", "2,0", "--q", "5", "--label", "2", "--x", "1e10"],
        ["eval", "--kind", "lerch", "--s", "2,0", "--lambda", "0.3", "--alpha", "0.5", "--x", "1e10"],
        ["afe", "--kind", "hurwitz", "--s", "0.5,0", "--alpha", "0.5", "--x", "1e10"],
        ["afe", "--kind", "l", "--s", "0.5,0", "--q", "5", "--label", "2", "--x", "1e10"],
        ["afe", "--kind", "hurwitz", "--s", "0.5,1e7", "--alpha", "0.5", "--x", "1"],
        ["afe", "--kind", "l", "--s", "0.5,1e7", "--q", "5", "--label", "2", "--x", "5"],
        ["certify", "--bound", "t3", "--r-max", "14"],
        ["certify", "--bound", "t3", "--r-max", "20"],
        ["eval", "--kind", "lerch", "--s", "1e300,1e-300", "--alpha", "0.9999999999999999", "--r", "12", "--x", "0.96875"],
    ],
)
def test_runaway_work_and_overflow_are_refused_quickly(capsys, argv):
    # the first three would march or walk panels for minutes (a huge cutoff);
    # the fourth printed log^3(alpha)/alpha as -inf with a tiny bound; an
    # explicit split of 1e10 would build finite sums of 1e10 terms (80 GB);
    # an AFE split far below t would sum the plain tail over an interval of
    # about 2 t per class; t3 at r_max = 20 would build a
    # truncated sum of q e^{r-1} = 2e9 terms (r_max = 13 still runs); the
    # last multiplies a derivative table past binary64 by tail integrals that
    # underflow to 0, a NaN remainder, to be refused without a warning; a
    # request that runs past 5 s is stopped there and fails, so a hang fails
    def too_slow(signum, frame):
        pytest.fail(f"{' '.join(argv)} still ran after 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        start = time.perf_counter()
        assert run(argv) == 1
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 5.0


@pytest.mark.parametrize("argv", [["eval", "--kind", "lerch", "--s", "0.5,1e7"], ["eval", "--kind", "lerch", "--s", "1.0000000000000002,1e7", "--r", "12"]])
def test_a_lerch_walk_beyond_the_budget_is_refused_before_any_panel(capsys, argv):
    # the pure tail's walk passed its own check and ran for 1.0 s and 4.4 s
    # before the first weighted walk was refused; the finite sum, the kinks
    # and every panel of every walk are charged before any panel is walked.
    # The refusal comes before the kinks are listed, and its figure holds a
    # floor on the walks' panels (without them it read 9.75e6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        assert run(argv) == 1
        elapsed = time.perf_counter() - start
    assert [str(w.message) for w in caught] == [] and elapsed < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the request would take about 2.17e+07 units of work, beyond the work budget of 2e+06\n"


@pytest.mark.parametrize("x", ["0.05", "0.03"])
def test_an_afe_split_far_below_the_balanced_one_answers_within_its_bound(capsys, x):
    # these walked more dual-sum panels than the work budget allows and were
    # refused; as the Z core they sum the plain tail from x to its cutoff
    start = time.perf_counter()
    status, out = run_capture(capsys, ["afe", "--kind", "hurwitz", "--s", "0.5,300", "--alpha", "0.5", "--r", "0", "--x", x, "--json"])
    assert time.perf_counter() - start < 5.0
    doc = json.loads(out)
    assert status == 0
    with mp.workdps(30):
        assert abs(complex(*doc["value"]) - complex(mp.zeta(mp.mpc(0.5, 300), 0.5))) <= doc["error_bound"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--alpha", "1e-200"],
        ["coeff", "--kind", "gamma", "--alpha", "1e-300", "--r-max", "3"],
        ["tail", "--x", "1e-300", "--alpha", "0.3", "--re-a", "-1.5", "--lambda", "0.3"],
    ],
)
def test_a_value_that_overflows_is_refused_with_one_stderr_line(argv):
    # alpha^{-2} and log^3(alpha)/alpha leave binary64 in the finite sum, and
    # u^{-1.5} in the panels from 1e-300 (one panel to the first kink answered
    # 31.24-19.41i with a bound of 3.8e-14, as from 1e-10 and 1e-100); numpy
    # printed two RuntimeWarning lines before the error.  A fresh process, since
    # pytest's capture hides such warnings in process
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "zetalab", *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "not finite in binary64" in proc.stderr


def test_walks_reaching_two_to_the_52_are_refused_with_one_line(capsys):
    # from 2^52 the kinks of the sawtooth round onto integers (at 1e17 they
    # are not even distinct floats); both printed a tight but meaningless bound
    for flags in (["--im-a", repr(5e16 + 5e5 - 14)], ["--im-a", repr((1e17 + 1e6) * math.pi * 0.5 - 22.0), "--lambda", "0.5"]):
        assert run(["tail", "--x", "1e17", "--alpha", "0.5", "--re-a", "-1.5"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and "2^52" in captured.err


def test_weighted_tail_from_two_to_the_52_is_refused_with_one_line(capsys):
    # it printed the same value for every alpha at 1e17, and 0j with a bound of 0 at 1e300
    for x, alpha in (("1e17", "0.25"), ("1e17", "0.75"), ("1e300", "0.5")):
        assert run(["tail", "--x", x, "--alpha", alpha, "--re-a", "-1.5", "--lambda", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and "2^52" in captured.err


@pytest.mark.parametrize("kind", [["--kind", "hurwitz", "--alpha", "0.5"], ["--kind", "z"]])
def test_pole_term_near_one_is_refused_with_one_line(capsys, kind):
    # (s - 1)^3 underflowed to 0 (a ZeroDivisionError traceback); 24!/(s - 1)^25
    # overflowed (["nan", "nan"] with exit 0)
    for s, r in (("1,1e-300", "2"), ("1.000000000001,0", "24")):
        assert run(["eval", *kind, "--s", s, "--r", r, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and "pole" in captured.err


def test_tail_from_two_to_the_52_keeps_its_shift(capsys):
    # a tail that walks nothing from x = 1e17 expands its far tail at {-alpha}
    # (it printed -2.635e-27, the value at alpha = 1, for every alpha)
    assert run(["tail", "--x", "1e17", "--alpha", "0.5", "--re-a", "-1.5", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["value"]
    want = -(0.25 - 0.5 + 1.0 / 6.0) / 2.0 * 10.0**-25.5  # -psi2(-1/2) x^{-3/2}
    assert abs(complex(*got) - want) <= 1e-12 * abs(want)


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # the option table is read and never written: a refused argv, an eval, a
    # certify to a file and another eval in sequence each give what they give
    # with a fresh copy of the table
    target = tmp_path / "sweep.json"
    sequence = [
        ["eval", "--kind", "hurwitz", "--s", "0.5,3", "--bogus"],
        ["eval", "--kind", "hurwitz", "--s", "0.5,3", "--json"],
        ["--output", str(target), "certify", "--bound", "t3", "--r-max", "2", "--q", "3", "4", "--json"],
        ["eval", "--kind", "l", "--s", "0.5,3", "--q", "5", "--label", "2"],
    ]

    def outcome(argv):
        target.unlink(missing_ok=True)
        status = run(argv)
        captured = capsys.readouterr()
        return status, captured.out, captured.err, target.read_text() if target.exists() else None

    pristine = copy.deepcopy(cli._OPTIONS)
    shared = [outcome(argv) for argv in sequence]
    assert cli._OPTIONS == pristine
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_OPTIONS", copy.deepcopy(pristine))
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [o[0] for o in shared] == [1, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in shared[0][2] and shared[2][3].startswith("{")


# the option table against the argparse parser it replaced (tests/argparse_reference.py)

REFERENCE = argparse_reference._build_parser()
SAMPLES = {
    None: None,  # a choice: every choice is a sample
    int: ["3", "-2"],
    argparse_reference._finite_float: ["0.5", "-1.5", "-1e3"],
    argparse_reference._parse_complex: ["0.5,3", "2", "-0.5,3"],
}
BAD = {
    None: ["nonsense"],
    int: ["1.5", "x", ""],
    argparse_reference._finite_float: ["abc", "inf", "-inf", "nan", ""],
    argparse_reference._parse_complex: ["1,2,3", "inf,0", "0,nan", "1,x"],
}


def reference_outcome(argv):
    """(namespace, None) as the argparse parser read argv, or (None, its message)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return vars(REFERENCE.parse_args(argv)), None
    except SystemExit:
        return None, err.getvalue().splitlines()[-1].split(" error: ", 1)[1]


def table_outcome(argv):
    try:
        return vars(cli._parse(argv)), None
    except ValueError as exc:
        return None, str(exc)


def equivalence_grid():
    """Argvs for each subcommand and each of its options."""
    for command, parser in REFERENCE._subparsers._group_actions[0].choices.items():
        actions = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        base = [command]
        for a in actions:
            if a.required:
                base += [a.option_strings[0], (SAMPLES[a.type] or a.choices)[0]]
        yield from (
            base,
            base + ["--bogus"],
            base + ["--bogus", "3"],
            base + ["stray"],
            base + ["-x", "3"],
            ["--output", "f"] + base,
            ["--output=f"] + base,
            ["--out", "f"] + base,
            ["--output", "f", "--output", "g"] + base,
            base + ["--output", "f"],
            ["--output"],
            [],
            ["nonsense"] + base[1:],
        )
        for a in actions:
            opt = a.option_strings[0]
            if a.required:  # the option missing
                at = base.index(opt)
                yield base[:at] + base[at + 2 :]
            if a.nargs == 0:  # a flag
                values = [None]
                yield base + [f"{opt}=1"]
                yield base + [opt, "1"]
            elif a.nargs == "*":  # certify --q
                values = ["7"]
                for ints in ([], ["3"], ["3", "4", "5"]):
                    yield base + [opt, *ints]
                    yield base + [opt, *ints, "--json"]
                for argv in ([f"{opt}=3"], [f"{opt}=3", "4"], [opt, "-3", "4"], [opt, "3", "x"], [opt, "-1e3"]):
                    yield base + argv
            else:
                values = SAMPLES[a.type] or list(a.choices)
                for bad in BAD[a.type]:
                    yield base + [opt, bad]
                yield base + [opt]  # no value
                for value in values:
                    yield base + [f"{opt}={value}"]
                    yield base + [opt, value]
            for value in values:
                given = [opt] if value is None else [opt, value]
                yield base + given + [opt] + ([] if value is None else [values[-1]])  # a repeat
                for k in range(3, len(opt)):  # every prefix, unique or not
                    yield base + [opt[:k], *given[1:]]


def joined(argv):
    """argv with each value that begins with '-' and is no negative number
    (argparse took it for an option) joined to its option as --opt=value."""
    out = []
    for token in argv:
        dashed = token[:1] == "-" and token[:2] != "--" and not REFERENCE._negative_number_matcher.match(token)
        if dashed and out and out[-1][:2] == "--" and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


GRID = list(equivalence_grid())


@pytest.mark.parametrize("argv", GRID, ids=[" ".join(argv) or "(none)" for argv in GRID])
def test_the_option_table_parses_each_argv_as_argparse_did(argv):
    # the two deliberate differences: a value that begins with '-' and is no
    # negative number reads as argparse read its --opt=value spelling, where
    # argparse refused it ("expected one argument"), and a refusal is one line
    want, want_error = reference_outcome(joined(argv))
    if joined(argv) != argv:
        spaced, spaced_error = reference_outcome(argv)
        assert spaced is None
        if spaced_error.startswith("ambiguous option"):  # read before any value
            want_error = spaced_error
    got, got_error = table_outcome(argv)
    assert got == want
    if want is None:
        # argparse named the converter's private function for text that is no
        # number; the table says which number it expected
        want_error = re.sub(r"invalid _\w+ value: '.*'$", "invalid float value", want_error)
        assert re.sub(r"invalid float value: '.*'$", "invalid float value", got_error) == want_error


def test_the_equivalence_grid_holds_every_kind_of_case():
    accepted = sum(reference_outcome(argv)[0] is not None for argv in GRID)
    assert len(GRID) > 600 and 200 < accepted < len(GRID) - 200
    assert sum(joined(argv) != argv for argv in GRID) >= 10


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["eval", "--kind", "nonsense", "--s", "2,0"],
        ["eval", "--kind", "hurwitz"],
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--r", "1.5"],
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--bogus"],
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--json=1"],
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--l", "1"],
        ["tail", "--x", "2", "--alpha", "0.3", "--re-a"],
        ["nonsense"],
    ],
)
def test_each_parse_refusal_is_one_line(capsys, argv):
    # argparse printed a usage block of three or four lines before its error
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_names_every_option_and_exits_zero(capsys):
    for command, parser in REFERENCE._subparsers._group_actions[0].choices.items():
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: zetalab {command} ")
        words = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out))
        assert words == {"-h"} | {s for a in parser._actions if a.dest != "help" for s in a.option_strings}
    for argv in (["-h"], ["--output", "f", "--help"]):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: zetalab ") and all(command in out for command in cli._OPTIONS)


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["tail", "--x", "2", "--alpha", "0.3", "--re-a", "-1.5"], "--im-a", "-1e3"),
        (["eval", "--kind", "hurwitz"], "--s", "-0.5,3"),
        (["eval", "--kind", "lerch", "--s", "0.5,3"], "--x", "-1e-3"),
    ],
)
def test_a_value_that_begins_with_a_dash_reads_as_its_equals_spelling(capsys, argv, option, value):
    # argparse refused the spaced spelling ("expected one argument")
    spaced = run(argv + [option, value]), capsys.readouterr()
    joined = run(argv + [f"{option}={value}"]), capsys.readouterr()
    assert spaced == joined
    assert spaced[0] in (0, 1) and "expected one argument" not in spaced[1].err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--json"],  # written when stdout is flushed at exit
        ["characters", "--q", "307", "--json"],  # larger than the buffer: written inside run
    ],
)
def test_a_reader_that_left_early_ends_the_request_with_exit_one(argv):
    # zetalab ... | head -c 10 ended in a BrokenPipeError traceback
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zetalab", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


TAIL_REFUSALS = [
    (["--x", "-1"], "lower limit must be positive"),
    (["--alpha", "1.5"], "shift must lie in (0, 1]"),
    (["--lambda", "1"], "oscillation must lie in [0, 1)"),
    (["--r", "25"], "order must lie in 0..24"),
    (["--r", "-1"], "order must lie in 0..24"),
    (["--re-a", "-0.5"], "non-oscillatory tail requires Re(exponent) <= -1"),
    (["--re-a", "0.5", "--lambda", "0.3"], "oscillatory tail requires Re(exponent) < 0"),
]


@pytest.mark.parametrize(
    "flags, message",
    TAIL_REFUSALS,
    ids=[",".join(f"{k.lstrip('-')}={v}" for k, v in zip(f[::2], f[1::2])) for f, _ in TAIL_REFUSALS],
)
def test_tail_refuses_parameters_outside_its_domain(capsys, flags, message):
    # the last flag given wins, so each case overrides one valid default
    argv = ["tail", "--x", "1", "--alpha", "0.5", "--re-a", "-2"] + flags
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_tail_accepts_the_edges_of_its_domain(capsys):
    # Re(exponent) = -1 without oscillation, alpha = 1, the order cap and
    # Re(exponent) > -1 with oscillation
    for flags in (["--re-a", "-1"], ["--alpha", "1"], ["--r", "24"], ["--re-a", "-0.5", "--lambda", "0.3"]):
        status, out = run_capture(capsys, ["tail", "--x", "1", "--alpha", "0.5", "--re-a", "-2", "--json"] + flags)
        assert status == 0
        assert json.loads(out)["error_bound"] >= 0.0


def test_tail_log_power_is_capped(capsys):
    # beyond MAX_ORDER the tail printed -1886112 with a bound of 2.65e7
    assert run(["tail", "--x", "1", "--alpha", "1", "--re-a", "-2", "--r", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order must lie in 0..24\n"


# SHA-256 of the --json stdout, recorded before the characters were built
# from a discrete-log table; the output must stay byte-identical.  The
# `eval --kind hurwitz|z|l` entries were re-recorded when their default
# split moved to the tail cutoff and their bounds gained the rounding term;
# the `coeff --kind gamma|beta|gamma-aq|gamma-chi|l-zero` and `certify
# --bound t2-ib|t2-iib|t3` entries when those routes became readings of the
# Z core at s = 1 and s = 0, all orders from one pass, with rounding booked;
# the L (`eval --kind l`, `gamma-chi`, `l-zero`, `t3`), explicit-split, AFE
# and plain `tail` entries when the march and the character weighting ran
# in plain complex arithmetic, the march booking its rounding; the Lerch
# entries (`eval --kind lerch`, `coeff --kind lerch`) when one Lerch core
# gave every order from one tail pass, with its rounding booked, and again
# (the default-split `eval --kind lerch` and `coeff --kind lerch` entries)
# when the Lerch default split moved to its oscillatory tails' cutoff; the
# `certify --bound polya` entry when its partial sums became one cumsum per
# modulus (maxima within 2 ulp), `certify --bound t2-ib|t2-iib` when
# their measured deviations took in the value's error_bound, and `certify
# --bound t3` when its truncated sums became one finite-sum kernel pass per
# (modulus, point, order) weighed for every character; the entries that walk
# Gauss-Legendre panels (`afe`, the explicit-split `eval --kind lerch` and
# `tail --lambda`) when the panels were sized by the whole phase and their
# rounding was booked; the `afe` entries again when the AFE became the Z core
# plus its dual sum and booked the rounding of the core, the pole term, the
# dual assembly and the segments; the `certify --bound t3`, plain `tail`,
# explicit-split `eval` and `afe` entries when the plain tail's intervals
# became first-order Euler-Maclaurin sums over the kinks of psi; the entries
# whose finite sums run at real s (`coeff`, `certify --bound t2-ib|t2-iib|t3`,
# `eval --kind l --s 1,0`) or take (-log p)^r beyond the square (`eval --kind
# z ... --r 3`) when the kernel took p^{-s} real at real s and (-log p)^r
# from |log p|^r, the Lerch entries (`eval --kind lerch`, `coeff --kind
# lerch`) when it took p^{-s} e^{2 pi i lam k} once per block, plain
# `tail` when it booked its far tail's rounding, the `afe` entries when
# the AFE became its Z core (its dual sum adds to 0), and the `certify
# --bound t3`, default-split Lerch (`eval --kind lerch`, `coeff --kind
# lerch`) and plain `tail` entries when the far tails took the derivatives
# of every order from one (k, r - i) table, the plain tail's coefficients
# from one polynomial pass and the shift sums their terms n = +-1 in closed form;
# the `certify --bound t3` entry when its exact side moved to the Z core's
# default split and each case took in the exact value's error_bound; and the
# lambda = 0.3 Lerch entries when the finite sum took its phase at every
# lambda from the split lam_hi + lam_lo and the far tails' remainders came
# from one recurrence, rounded up
GOLDEN_DIGESTS = [
    (["characters", "--q", "12"], "2e79c3688e64fe5b121c5bff7f0a832e8b64525734dd95a138390c1eef6942bd"),
    (["characters", "--q", "105"], "39a15d579e86692fa8595c00493199f70c13db28bf36a1b9dd4e78de1734bc60"),
    (
        ["coeff", "--kind", "gamma-chi", "--q", "311", "--label", "211", "--r-max", "2"],
        "113ddc29f3c2682337ee356e0d37959ceb880a5ba0b263dec7b69da2943665cf",
    ),
    (
        ["eval", "--kind", "l", "--s", "1,0", "--q", "313", "--label", "256", "--r", "1"],
        "de8617fc770ae4f8a434940d6ca8f88e9aa13528e39c06377d9b744c5866716c",
    ),
    (["certify", "--bound", "polya"], "1f7516ed03ef4cfe2e207807f2adb9dbc4d57149e02e7f02356b6e0dd4e6b53d"),
    (["certify", "--bound", "t3"], "8a8a2a1774e8b53512e2383ac553c20262fd180203dc5a1c24a9959dcea0059a"),
    (
        ["coeff", "--kind", "l-zero", "--q", "311", "--label", "268", "--r-max", "3"],
        "a0089386fa176e04157d7e5ddca0f2f8179685f5a2b1cf5dc3e5505254118581",
    ),
    # recorded before the panel, far-tail, s-tail and coefficient-table code
    # was merged into one kernel per term; both afe requests are past y = 1
    # (y = 2.18 and 5.79), where the dual sum that adds to 0 was summed
    (
        ["coeff", "--kind", "gamma", "--alpha", "0.37", "--r-max", "6"],
        "da67e3bf1df5dcedb7119b3e94ae67c87a6c4790d34b8360a6df7448dcb0dea2",
    ),
    (
        ["coeff", "--kind", "beta", "--alpha", "0.3", "--r-max", "6"],
        "1ecb8e97fb4fb7f20676e2c5f09f2095e86993047ba3f83b7dbefc24e6a8019e",
    ),
    (
        ["coeff", "--kind", "gamma-aq", "--a", "2", "--q", "5", "--r-max", "6"],
        "a4fc4cff6232674c54727994a6f4f7e19a6711cf7245ae7acff6a44727d2e0e1",
    ),
    (
        ["coeff", "--kind", "lerch", "--lambda", "0.3", "--alpha", "0.7", "--r-max", "4"],
        "83fb09e84e4655726bc5d72594d9c6799574efb2b433084f0499762983bf786a",
    ),
    (
        ["eval", "--kind", "hurwitz", "--s", "0.5,10", "--alpha", "0.3", "--r", "2"],
        "83733ac6f82d685848732d0a6c3b6c30151e1240cb75f8dd4f19018331a5327f",
    ),
    (
        ["eval", "--kind", "z", "--s", "0.7,5", "--a", "2", "--q", "5", "--r", "2"],
        "0d533123a553710b52448acf94d038fb491576e1238c7c4484238b9d7f9c24b7",
    ),
    (
        ["eval", "--kind", "lerch", "--s", "0.6,3", "--lambda", "0.3", "--alpha", "0.7", "--r", "2"],
        "0547e39fa3adc15de3a79eb642b03f2bce4d5c666c10a68855306d8d6f927b16",
    ),
    (
        ["afe", "--kind", "hurwitz", "--s", "0.5,30", "--alpha", "1", "--r", "2", "--x", "2.19"],
        "dcb5bc2a8807027748c752d53d0655dee3ffa3d056c4fd460a99ac605363f058",
    ),
    (
        ["afe", "--kind", "l", "--s", "0.3,40", "--q", "5", "--label", "2", "--r", "1", "--x", "5.5"],
        "c03f895f12edf26bb79509ee5b7637ae1940278df6697691d5994274dc1cec2a",
    ),
    # re-recorded, with the explicit Lerch split below and the text twin, when
    # the panels became 16-node ones under a per-panel Bernstein bound
    (
        ["tail", "--x", "2", "--alpha", "0.3", "--re-a", "-1.5", "--im-a", "20", "--r", "2", "--lambda", "0.3"],
        "c34af1f5af8c40301a8e4a0fe2a163bcb377a43b751f5b6aaafb42758af0e7aa",
    ),
    # recorded before the plain-tail march ran as one numpy kernel over rows x
    # segments: a march longer than one block, a batched complex exponent, the
    # certify sweeps to r = 20, and plain complex tails
    (
        ["eval", "--kind", "hurwitz", "--s", "0.5,1000", "--alpha", "0.3", "--r", "1"],
        "e972df84e1c40d650b1bafc05c24c5fac0db28d5443f839ccb5207d2bc74a0fe",
    ),
    (
        ["eval", "--kind", "l", "--s", "0.6,300", "--q", "7", "--label", "3", "--r", "2"],
        "9f23507b3531888575ea51d3df9a7fc0e27ee25d129933a089ead9540f737ce4",
    ),
    (["certify", "--bound", "t2-ib"], "339ec0508570a680b6707d92259b074159c094b2fbe9413d91b3c0b033992a50"),
    (["certify", "--bound", "t2-iib"], "71a5a236363f37c268f283fcc8abc0c1b9a334576ff4883711a072d64013b934"),
    (
        ["tail", "--x", "3", "--alpha", "0.4", "--re-a", "-1.5", "--im-a", "40", "--r", "3"],
        "416d889442f6cf99519cf83a9ab65af519b42b049ff2608b972122766f4c10f7",
    ),
    (
        ["eval", "--kind", "z", "--s", "0.6,200", "--a", "3", "--q", "7", "--r", "3"],
        "4480a27032371ca6c78497532660f313c344675889b58518b51e6ef5d16f8c86",
    ),
    (
        ["eval", "--kind", "hurwitz", "--s", "2.5,0", "--alpha", "0.7", "--r", "8", "--x", "1.2"],
        "09763f28cfcfc18a187a6fe9fd12dafb6fdd96f2b5e22e4457871dd581336308",
    ),
    # recorded before the Gauss-Legendre panels ran as (block x 32) arrays: a
    # panel walk longer than one block, an explicit Lerch split at t = 300,
    # and an L-function AFE with two dual-sum terms
    (
        ["eval", "--kind", "lerch", "--s", "0.5,1000", "--lambda", "0.3", "--alpha", "0.7", "--r", "1"],
        "655872541fb32f8dd2aa5098978500d8a2cd9874e3adf31c029dd9765e681224",
    ),
    (
        ["eval", "--kind", "lerch", "--s", "0.5,300", "--lambda", "0.3", "--alpha", "0.7", "--r", "2", "--x", "3"],
        "1e3dd00e3c99e379715214693c80260e364c73c3751013cf0d904870dac21b1c",
    ),
    (
        ["afe", "--kind", "l", "--s", "0.5,60", "--q", "3", "--label", "1", "--r", "1", "--x", "10"],
        "060517dbce7dfdc0524254ca99bcd2fee1e90c1f464a3523299bf2602e9a5196",
    ),
    # recorded before every residue class and order of a request came from one
    # (orders x rows x terms) finite-sum kernel: tables at q = 977 that span
    # more than one row block, and a split X = 6.5 below q = 13, where the
    # classes a > X have an empty finite sum
    (
        ["coeff", "--kind", "l-zero", "--q", "977", "--label", "550", "--r-max", "3"],
        "d547b2502fdf2383c73a0f7c6c2d1957406c9660604e11f4f83766e2c7dd2ed5",
    ),
    (
        ["coeff", "--kind", "gamma-chi", "--q", "977", "--label", "528", "--r-max", "2"],
        "9e29e78421e9fa8466124e28422d1c698b8cdab434e299932afd8c93ab315085",
    ),
    (
        ["eval", "--kind", "l", "--s", "1,0", "--q", "13", "--label", "2", "--r", "1", "--x", "6.5"],
        "09d7b424f76442694396e3f7be35bcf799e23113df8037f358d72496bccbc7ef",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS, ids=[" ".join(a) for a, _ in GOLDEN_DIGESTS])
def test_json_output_matches_golden_digest(capsys, argv, digest):
    status, out = run_capture(capsys, argv + ["--json"])
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the text (no --json) stdout, recorded before eval, afe and tail
# shared one value report; the afe and plain tail entries re-recorded with
# the GOLDEN_DIGESTS of the plain complex march, and the Lerch entry with
# the Lerch ones, both times; the characters entries recorded before each
# distinct root was formatted once per table; the afe and `tail --lambda`
# entries re-recorded with the GOLDEN_DIGESTS of the panels sized by the
# whole phase, and the afe entry with those of the AFE as the Z core plus
# its dual sum; the afe and plain tail entries with the GOLDEN_DIGESTS of the
# Euler-Maclaurin intervals, the plain tail and Lerch entries with those
# of the far tail's rounding and of the kernel's p^{-s} e^{2 pi i lam k},
# the afe entry with those of the AFE as its Z core, and the plain tail and
# Lerch entries with those of the far-tail layer from one (k, r - i) table,
# the `tail --lambda` entry with those of the 16-node panels, and the
# lambda = 0.3 Lerch entries with those of the one Lerch phase path and the
# remainders' recurrence; the coeff entries, one per kind, and their --csv
# twins in CSV_DIGESTS were recorded before the character values and the
# work prices each moved behind one module, the coeff --kind lerch pair
# re-recorded with the Lerch entries
TEXT_DIGESTS = [
    (["characters", "--q", "12"], "dc08bfcebcb4444eff019f761656c31fb0607726b4adac5bbb1654fce6a27069"),
    (["characters", "--q", "105"], "af8b7204655e431b63072f5705c4aa32cab3dce14d2f607b1d656b968f63bc44"),
    (
        ["eval", "--kind", "lerch", "--s", "0.6,3", "--lambda", "0.3", "--alpha", "0.7", "--r", "2"],
        "17623c5c2990e2fe381dd1242d21e23b3c3eb2bfa5b983686dcf5b772cd9b936",
    ),
    (
        ["afe", "--kind", "hurwitz", "--s", "0.5,30", "--alpha", "1", "--r", "2", "--x", "2.19"],
        "f2a60858074a592c091a3f20a591e2f7d22ffbe81349a7fdbe9a2f59a9cc9004",
    ),
    (
        ["tail", "--x", "3", "--alpha", "0.4", "--re-a", "-1.5", "--im-a", "40", "--r", "3"],
        "6e16da5bf8142d17820e6a66dc9d12fdf8b2c713d920bc32a9f0c00035de627c",
    ),
    (
        ["tail", "--x", "2", "--alpha", "0.3", "--re-a", "-1.5", "--im-a", "20", "--r", "2", "--lambda", "0.3"],
        "06ce600f7ced21b1f93fca2ae43351bc198cdfb577f5298f1cff591ca1133fc1",
    ),
    (["coeff", "--kind", "gamma", "--alpha", "0.3", "--r-max", "3"], "4761621e14dfba3227a1ab46e6e7640896f39c00a8a5c4ef113fbbefefcae1fd"),
    (["coeff", "--kind", "beta", "--alpha", "0.7", "--r-max", "3"], "e49c5254d63d71e8d20ff45bb72677ae81402e11161caa4e241024998ef7b903"),
    (["coeff", "--kind", "gamma-aq", "--a", "2", "--q", "5", "--r-max", "3"], "52a6e49b36da888cf5f458658f8992f9382468e5d78edd6a4d2b38ea3b2499bc"),
    (["coeff", "--kind", "gamma-chi", "--q", "7", "--label", "2", "--r-max", "3"], "96806e097a2020456c3f6d5ca4e4267c470d1a44481cbf339070c545fc4e3570"),
    (["coeff", "--kind", "lerch", "--lambda", "0.3", "--alpha", "0.7", "--r-max", "3"], "e789d28d447e767a366995939dedb686f3637fe2ba5150dbfe9888cf6f36096e"),
    (["coeff", "--kind", "l-zero", "--q", "5", "--label", "1", "--r-max", "3"], "a0b7b6f3e13a1b18fef338b17b87cd93a46bad6f57cdddd88c34cbb59460e34c"),
]

CSV_DIGESTS = [
    (["coeff", "--kind", "gamma", "--alpha", "0.3", "--r-max", "3", "--csv"], "7013c340f002b89216a09f43828bee27ced2543441b19dd56762df6cc37fad00"),
    (["coeff", "--kind", "beta", "--alpha", "0.7", "--r-max", "3", "--csv"], "7072353a83431ea340d27e76e0b935ee8bcf3cac5ea69c296eb5347e6c0915cd"),
    (["coeff", "--kind", "gamma-aq", "--a", "2", "--q", "5", "--r-max", "3", "--csv"], "d4ce71704694cac3b2bd77839d9688eafe059f686ef38d6a9107d46b266fc003"),
    (["coeff", "--kind", "gamma-chi", "--q", "7", "--label", "2", "--r-max", "3", "--csv"], "c1692813fa5208d13a8271f28db57f7cbe31d47854b53a178b894d3a0be89749"),
    (["coeff", "--kind", "lerch", "--lambda", "0.3", "--alpha", "0.7", "--r-max", "3", "--csv"], "64f051bc5fb3753b34b953630bb88b8ae790627196f63a56ed3f4e6ad9520281"),
    (["coeff", "--kind", "l-zero", "--q", "5", "--label", "1", "--r-max", "3", "--csv"], "23a809a1dfd23d845ddceecb72eb86838e5e6afed186891b3e1ab62d0dac65bc"),
]


@pytest.mark.parametrize("argv, digest", TEXT_DIGESTS + CSV_DIGESTS, ids=[" ".join(a) for a, _ in TEXT_DIGESTS + CSV_DIGESTS])
def test_text_output_matches_golden_digest(capsys, argv, digest):
    status, out = run_capture(capsys, argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cutoff_split_answers_what_the_march_answered(capsys):
    # two requests that marched for about 6 s each and now sum to the tail
    # cutoff (2e6 terms), and every Hurwitz, Z and L request of the benchmark
    # pools, all of which answer (exit 0) at the march-based default split
    import perfbench.workloads as workloads

    argvs = [
        ["eval", "--kind", "hurwitz", "--s", "0.5,1000000", "--alpha", "0.3", "--r", "1", "--json"],
        ["eval", "--kind", "l", "--s", "0.5,1000", "--q", "1009", "--label", "1", "--r", "1", "--json"],
    ]
    routes = {("eval", "--kind", kind) for kind in ("hurwitz", "z", "l")}
    for name in workloads.WORKLOADS:
        argvs += [list(job.argv) for cell in workloads.pool(name) for job in cell if job.argv[:3] in routes]
    assert len(argvs) == 2 + 3 * 240 + 3 * 180 + 8
    for argv in argvs:
        status, out = run_capture(capsys, argv)
        doc = json.loads(out)
        assert status == 0 and all(map(math.isfinite, doc["value"] + [doc["error_bound"]])), argv
