import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

from zetalab import cli
from zetalab.cli import render_json, run


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
    status = run(["eval", "--kind", "nonsense"])  # argparse rejection
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


def test_overflow_exits_one_with_one_line(capsys):
    # Gamma(1-s) and (2 pi i n)^{s-1} overflow as separate factors at t = 342
    argv = ["afe", "--kind", "hurwitz", "--s", "0.841005,342.234378", "--r", "0", "--alpha", "0.61979"]
    assert run(argv + ["--x", "7.380264"]) == 1
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
        ["afe", "--kind", "hurwitz", "--s", "0.5,300", "--alpha", "0.5", "--r", "0", "--x", "0.1"],
        ["afe", "--kind", "hurwitz", "--s", "0.5,300", "--alpha", "0.5", "--r", "0", "--x", "0.03"],
        ["certify", "--bound", "t3", "--r-max", "14"],
        ["certify", "--bound", "t3", "--r-max", "20"],
    ],
)
def test_runaway_work_and_overflow_are_refused_quickly(capsys, argv):
    # the first three would march or walk panels for minutes (a huge cutoff);
    # the fourth printed log^3(alpha)/alpha as -inf with a tiny bound; an
    # explicit split of 1e10 would build finite sums of 1e10 terms (80 GB);
    # a small AFE split walks 2 t/(2 pi x) dual-sum frequencies (4.1e6 and
    # 4.5e7 panels, 18.6 s and over 100 s); t3 at r_max = 20 would build a
    # truncated sum of q e^{r-1} = 2e9 terms (r_max = 13 still runs)
    start = time.perf_counter()
    assert run(argv) == 1
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "hurwitz", "--s", "2,0", "--alpha", "1e-200"],
        ["coeff", "--kind", "gamma", "--alpha", "1e-300", "--r-max", "3"],
    ],
)
def test_a_value_that_overflows_is_refused_with_one_stderr_line(argv):
    # alpha^{-2} and log^3(alpha)/alpha leave binary64 in the finite sum; numpy
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


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; a refused argv, an eval, a
    # certify to a file and another eval each give what a fresh parser gives
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

    cli._build_parser.cache_clear()
    shared = [outcome(argv) for argv in sequence]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [o[0] for o in shared] == [1, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in shared[0][2] and shared[2][3].startswith("{")


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
# Z core at s = 1 and s = 0, all orders from one pass, with rounding booked
GOLDEN_DIGESTS = [
    (["characters", "--q", "12"], "2e79c3688e64fe5b121c5bff7f0a832e8b64525734dd95a138390c1eef6942bd"),
    (["characters", "--q", "105"], "39a15d579e86692fa8595c00493199f70c13db28bf36a1b9dd4e78de1734bc60"),
    (
        ["coeff", "--kind", "gamma-chi", "--q", "311", "--label", "211", "--r-max", "2"],
        "92b37feebb1cedb98f19cda77bede758dabbe49dee6a7e1535f7fd3d96e38050",
    ),
    (
        ["eval", "--kind", "l", "--s", "1,0", "--q", "313", "--label", "256", "--r", "1"],
        "03398cfcf32b18a683590dfaaf51893eb6df3d122c1440204758fd86e4c6442b",
    ),
    (["certify", "--bound", "polya"], "3e8ce6099de813211a1361cd57463cb6845ec34db38b26ff557a3f5c16a6f047"),
    (["certify", "--bound", "t3"], "e2f7e027e7d814af693e44ba2c5f9190879aafb9dd41afaa2a1c396fdd8bc13c"),
    (
        ["coeff", "--kind", "l-zero", "--q", "311", "--label", "268", "--r-max", "3"],
        "510330e29e9f3f6b96dbee5bfb78e9728d8d151cc758431eb38ef3ef40ba05b3",
    ),
    # recorded before the panel, far-tail, s-tail and coefficient-table code
    # was merged into one kernel per term; both afe requests have a nonempty
    # dual sum (y = 2.18 and 5.79)
    (
        ["coeff", "--kind", "gamma", "--alpha", "0.37", "--r-max", "6"],
        "468e6702b4ca574b12cc938172eef270480c38930c64473f167d96b6fbb3e80b",
    ),
    (
        ["coeff", "--kind", "beta", "--alpha", "0.3", "--r-max", "6"],
        "5d3918f6f6fc5484d4148ed0219762f7730989685e5fbbf159bd2192cfec9cd7",
    ),
    (
        ["coeff", "--kind", "gamma-aq", "--a", "2", "--q", "5", "--r-max", "6"],
        "e6e2ba75cf344ef1368a71d183b5dfc06bd47cc203f1f076231ec32006959afa",
    ),
    (
        ["coeff", "--kind", "lerch", "--lambda", "0.3", "--alpha", "0.7", "--r-max", "4"],
        "4231a1403aee651acb356d57935024f362e439597bf9b19b1000ac0786bcb7a3",
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
        "235c9dc9bbe66f4f8662abf9867f1e7dc0e333ebe461c588a9fcac7414d96c22",
    ),
    (
        ["afe", "--kind", "hurwitz", "--s", "0.5,30", "--alpha", "1", "--r", "2", "--x", "2.19"],
        "b2f0b489b31bb378d25ad9c695d4c33f0b794a52c38cfc0d11a41dde64bc6778",
    ),
    (
        ["afe", "--kind", "l", "--s", "0.3,40", "--q", "5", "--label", "2", "--r", "1", "--x", "5.5"],
        "c425ee2479e96885cbd183b6f634fd7a5a00d2a45afa53868fe9c5715749179c",
    ),
    (
        ["tail", "--x", "2", "--alpha", "0.3", "--re-a", "-1.5", "--im-a", "20", "--r", "2", "--lambda", "0.3"],
        "7729601a08c92e91a18a06314a07f5fc9615dcce7792905ecb49c8ef340ea67c",
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
        "0a1143c77cdc9f8c216022ffe18339a081dedc9915964cdd542ff45af9ca5cb8",
    ),
    (["certify", "--bound", "t2-ib"], "cfa26b893de93fd6704868b07c69e5dbbb3614d626d641d6398dffe3693d311c"),
    (["certify", "--bound", "t2-iib"], "7a9c82b3a04f67a64e9481201dc5197e9e029f12676b00e6311f76417e0e65b0"),
    (
        ["tail", "--x", "3", "--alpha", "0.4", "--re-a", "-1.5", "--im-a", "40", "--r", "3"],
        "64bdf990e2a507a038a919c764b3f884f3a8f8e7726abebeba76de67d9fe7873",
    ),
    (
        ["eval", "--kind", "z", "--s", "0.6,200", "--a", "3", "--q", "7", "--r", "3"],
        "d126a746adc20a903b27e9514f59ebce56223356233064fe89b78e5279b7fe08",
    ),
    (
        ["eval", "--kind", "hurwitz", "--s", "2.5,0", "--alpha", "0.7", "--r", "8", "--x", "1.2"],
        "666ea05f7cc8316dfed466972d9eb2471bdd61e56d160d368fb973912e132c21",
    ),
    # recorded before the Gauss-Legendre panels ran as (block x 32) arrays: a
    # panel walk longer than one block, an explicit Lerch split at t = 300,
    # and an L-function AFE with two dual-sum terms
    (
        ["eval", "--kind", "lerch", "--s", "0.5,1000", "--lambda", "0.3", "--alpha", "0.7", "--r", "1"],
        "08f7eda514d72905dfc506c63bedec49b985c84f9a5ac5a63fc657bc96cc3b0b",
    ),
    (
        ["eval", "--kind", "lerch", "--s", "0.5,300", "--lambda", "0.3", "--alpha", "0.7", "--r", "2", "--x", "3"],
        "e712dcb7bb543ce0f040a42f0c0111383808f0526fe03ba76299bef8e63ee16a",
    ),
    (
        ["afe", "--kind", "l", "--s", "0.5,60", "--q", "3", "--label", "1", "--r", "1", "--x", "10"],
        "95b0b44cef274d04942a1a125ab03aeed3239eff49f2228c36156afb3c51a962",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS, ids=[" ".join(a) for a, _ in GOLDEN_DIGESTS])
def test_json_output_matches_golden_digest(capsys, argv, digest):
    status, out = run_capture(capsys, argv + ["--json"])
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the text (no --json) stdout, recorded before eval, afe and tail
# shared one value report
TEXT_DIGESTS = [
    (
        ["eval", "--kind", "lerch", "--s", "0.6,3", "--lambda", "0.3", "--alpha", "0.7", "--r", "2"],
        "d5547ffc8702d3311aa8ffdb82391a1c16cde1a58a0a4d60a82a522772daebd7",
    ),
    (
        ["afe", "--kind", "hurwitz", "--s", "0.5,30", "--alpha", "1", "--r", "2", "--x", "2.19"],
        "8b86ab7baea32572748e6322b827a3eb67a941f25efe07a605cbea3fd1da3cb5",
    ),
    (
        ["tail", "--x", "3", "--alpha", "0.4", "--re-a", "-1.5", "--im-a", "40", "--r", "3"],
        "3c01bd247fb3dc85ad11e25909ceb01280252fcf9e96d47f0159cd4fd6edfffe",
    ),
    (
        ["tail", "--x", "2", "--alpha", "0.3", "--re-a", "-1.5", "--im-a", "20", "--r", "2", "--lambda", "0.3"],
        "78e8ddce5527a611fe03e06bddb5d44f9eabe6d20e581b99a070e73c3db9b5c9",
    ),
]


@pytest.mark.parametrize("argv, digest", TEXT_DIGESTS, ids=[" ".join(a) for a, _ in TEXT_DIGESTS])
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
