"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q (from the repo root)."""

import json
import random
import threading

import mpmath
import pytest

import check
import oracle
import run
import workloads
from tracer import LAYERS, Tracer

import zetalab
import zetalab.cli
from zetalab.characters import enumerate_characters


def _snapshot():
    import sys

    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "zetalab" or name.startswith("zetalab.")
    }


DIRECT_TERMS = 3000
SMALL_JOBS = [
    workloads.Job(("eval", "--kind", "hurwitz", "--s", "0.5,20", "--alpha", "0.3", "--r", "1", "--json"), True),
    workloads.Job(("eval", "--kind", "l", "--s", "0.7,5", "--q", "5", "--label", "2", "--json"), True),
    workloads.Job(("coeff", "--kind", "gamma", "--alpha", "0.5", "--r-max", "3", "--json"), True),
    workloads.Job(("afe", "--kind", "hurwitz", "--s", "0.5,600", "--x", "9.8", "--json"), True),
    workloads.Job(("characters", "--q", "7", "--json"), False),
]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv_lists(name):
    first = [j.argv for j in workloads.jobs(name, 11)]
    assert first == [j.argv for j in workloads.jobs(name, 11)]
    assert first != [j.argv for j in workloads.jobs(name, 12)]
    phase1 = {j.key for j in workloads.jobs(name, 11, 1) if j.oracle}
    assert not phase1 & {j.key for j in workloads.jobs(name, 11) if j.oracle}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pool_request_has_a_reference_value(name):
    values = workloads.load_values()
    assert all(job.key in values for cell in workloads.pool(name) for job in cell if job.oracle)


@pytest.mark.parametrize(
    "argv, point, phase",
    [
        ("eval --kind hurwitz --s 7.5,3.25 --alpha 0.375 --r 2 --json", lambda n: n + 0.375, lambda n: 1),
        ("eval --kind z --s 7.25,-1.5 --q 7 --a 3 --r 1 --json", lambda n: 3 + 7 * n, lambda n: 1),
        (
            "eval --kind lerch --s 6.75,8.5 --lambda 0.375 --alpha 0.625 --r 3 --json",
            lambda n: n + 0.625,
            lambda n: mpmath.expjpi(0.75 * n),
        ),
    ],
)
def test_reference_agrees_with_direct_sum(argv, point, phase):
    """Second route for Re(s) > 1: the direct series of the differentiated terms, whose
    tail beyond DIRECT_TERMS is below 1e-18 at these points."""
    argv = argv.split()
    opts = dict(zip(argv[1::2], argv[2::2]))
    r = int(opts["--r"])
    with mpmath.workdps(30):
        s = mpmath.mpc(*map(float, opts["--s"].split(",")))
        direct = mpmath.fsum(phase(n) * point(n) ** -s * (-mpmath.log(point(n))) ** r for n in range(DIRECT_TERMS))
        ref = oracle.reference(argv)
        assert abs(mpmath.mpc(*ref) - direct) < 1e-15 * max(1, abs(direct))


def test_l_reference_agrees_with_direct_sum():
    q, label = 12, 3
    chi = oracle.character_values(q, label)
    with mpmath.workdps(30):
        s = mpmath.mpc(7, 2)
        direct = mpmath.fsum(chi.get(n % q, 0) * mpmath.mpf(n) ** -s for n in range(1, DIRECT_TERMS))
        ref = oracle.reference(["eval", "--kind", "l", "--s", "7,2", "--q", str(q), "--label", str(label)])
        assert abs(mpmath.mpc(*ref) - direct) < 1e-15


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 9, 12, 16, 25, 30, 45, 64, 105])
def test_characters_follow_the_labelling(q):
    for chi in enumerate_characters(q):
        phases = oracle.character_phases(q, chi.label)
        for n in range(q):
            if n % q in phases:
                f = phases[n % q]
                assert abs(chi.values[n] - complex(mpmath.expjpi(2 * mpmath.mpf(f.numerator) / f.denominator))) < 1e-12
            else:
                assert chi.values[n] == 0


def test_stored_values_reproduce():
    values = workloads.load_values()
    keys = sorted(k for k in values if k.startswith(("eval --kind hurwitz", "coeff --kind beta")))
    for key in random.Random(5).sample(keys, 4):
        assert oracle.reference(key.split(" ")) == values[key]


def test_untraced_run_leaves_module_attributes_untouched():
    before = _snapshot()
    run.run_phase(zetalab.cli, SMALL_JOBS)
    assert _snapshot() == before
    tracer = Tracer()
    tracer.install()
    try:
        assert zetalab.cli.hurwitz_deriv is not before["zetalab.cli"]["hurwitz_deriv"]
        run.run_phase(zetalab.cli, SMALL_JOBS, tracer)
    finally:
        tracer.remove()
    assert _snapshot() == before


def test_self_times_and_harness_add_up_to_traced_wall_time():
    tracer = Tracer()
    tracer.install()
    try:
        records = run.run_phase(zetalab.cli, SMALL_JOBS * 3, tracer)
    finally:
        tracer.remove()
    self_sum, root_sum = tracer.thread_self_s(threading.main_thread())
    wall = sum(r.wall for r in records)
    harness = wall - root_sum
    assert self_sum == pytest.approx(root_sum, rel=1e-9)
    assert 0 < harness < 0.5 * wall
    assert self_sum + harness == pytest.approx(wall, rel=1e-9)
    tot = tracer.totals()
    assert tot["calls"]["cli"] == len(records) + 12  # run, plus render_json for each answered request
    assert tot["errors"]["cli"] == 3  # the OverflowError at t = 600 escapes cli.run, once per repeat
    assert tot["errors"]["afe"] >= 3
    assert set(tot["self_s"]) == set(LAYERS)
    assert tot["built"] == 3 * (4 + 6)  # enumerate_characters(5) for the label, and the q = 7 listing


def test_classify_counts_failures_and_violations():
    ref = ["1.0", "0.0"]
    ok = check.classify(("eval",), 0, json.dumps({"value": [1.0, 0.0], "error_bound": 1e-15}), ref)
    assert not ok.failed and ok.checked == 1 and not ok.violations
    tight = check.classify(("eval",), 0, json.dumps({"value": [1.0 + 1e-12, 0.0], "error_bound": 1e-15}), ref)
    assert not tight.failed and tight.violations[0]["ratio"] == pytest.approx(1e3, rel=1e-3)
    wrong = check.classify(("eval",), 0, json.dumps({"value": [1.1, 0.0], "error_bound": 1e-15}), ref)
    assert wrong.failed
    assert check.classify(("eval",), OverflowError("math range error"), "", ref).failed
    assert check.classify(("eval",), SystemExit(2), "", ref).failed
    assert check.classify(("eval",), 0, json.dumps({"value": ["nan", 0.0], "error_bound": 1.0}), ref).failed
    assert check.classify(("certify",), 2, "", None).failed


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_scales_follow_the_mean_kernel_time_near_each_request():
    ref = run.REFERENCE_KERNEL_S
    spans = [(0.0, 0.1), (10.0, 10.1)]
    kernel = [(0.1, ref), (0.11, 3 * ref), (10.1, 2 * ref)]  # the first two are near the first span only
    assert run.scales(spans, kernel) == pytest.approx([0.5, 0.5])
    assert run.scales(spans[:1], [(0.1, ref)] * 5) == [1.0]
    # a long request looks as far out as it lasts
    assert run.scales([(5.0, 7.0)], [(3.5, ref), (7.0, 3 * ref), (9.5, 5 * ref)]) == pytest.approx([0.5])


def test_jobs_with_more_rounds_run_again_and_count_their_median():
    jobs = [workloads.Job((name,), False, rounds) for name, rounds in (("a", 1), ("b", 3), ("c", 2))]
    order = run.schedule(jobs)
    assert order == [0, 1, 2, 1, 2, 1]
    records = [run.Record(i, jobs[i], 0, "", "", float(k), 0.0) for k, i in enumerate(order)]
    assert run.job_times(records, "wall") == [0.0, 3.0, 3.0]
