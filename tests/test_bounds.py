import math

import pytest

from zetalab.bounds import (
    berndt_bound,
    certify_polya_vinogradov,
    certify_T2_Ib,
    certify_T2_IIb,
    certify_T2_IIIb,
    certify_T3,
    ishikawa_compare,
)
from zetalab.characters import enumerate_characters
from zetalab.coefficients import l_deriv_at_0_truncated


def test_t2_ib_all_pass_and_example_case():
    rep = certify_T2_Ib(r_max=8)
    assert rep.bound_id == "T2_Ib"
    assert rep.all_pass
    case = next(c for c in rep.cases if c.parameters["r"] == 1 and c.parameters["alpha"] == 1.0)
    assert case.measured == pytest.approx(0.0728158454, abs=1e-8)
    assert case.bound == pytest.approx(0.5, abs=1e-12)  # e (1/2e) = 1/2
    assert case.margin > 0


def test_t2_ib_berndt_column():
    rep = certify_T2_Ib(r_max=8)
    case = next(c for c in rep.cases if c.parameters["r"] == 1)
    assert case.parameters["berndt"] == pytest.approx(4.0 / math.pi, abs=1e-12)
    # measured deviations stay below the Berndt baseline as well
    assert all(c.margin >= 0 for c in rep.informational)


def test_bound_comparison_directions():
    # r = 1: this certification's bound (1/2) beats 4/pi; from r = 2 on the
    # Berndt baseline is the smaller one
    assert 0.5 < berndt_bound(1)
    for r in range(2, 21):
        asserted = math.exp(1.0 + r * (math.log(r) - 1.0 - math.log(2.0)) - math.lgamma(r + 1.0))
        assert berndt_bound(r) < asserted


def test_t2_iib_margins_and_printed_form():
    rep = certify_T2_IIb(r_max=8)
    assert rep.all_pass
    case = next(c for c in rep.cases if c.parameters["r"] == 1 and c.parameters["alpha"] == 1.0)
    assert case.measured == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-8)
    assert case.bound == pytest.approx(4.0 / 3.0, abs=1e-12)
    # the printed additive constant 1/r! fails from r = 2 on; recorded only
    printed_r2 = [c for c in rep.informational if c.parameters["r"] == 2]
    assert any(c.margin < 0 for c in printed_r2)
    printed_r1 = next(
        c
        for c in rep.informational
        if c.parameters["r"] == 1 and c.parameters["alpha"] == 1.0
    )
    assert printed_r1.bound == pytest.approx(4.0 / 3.0, abs=1e-12)  # identical at r = 1


def test_t2_iiib_small_grid():
    rep = certify_T2_IIIb(r_max=4, lam_grid=(0.25, 0.5), alpha_grid=(0.5, 1.0))
    assert rep.all_pass


def test_t3_small_sweep():
    rep = certify_T3(q_set=(3, 4, 5), r_max=4)
    assert rep.all_pass
    # observed implied constants are recorded and comfortably below the guard
    observed = [c.parameters["observed"] for c in rep.cases if "observed" in c.parameters]
    assert observed and max(observed) < 10.0
    case = next(
        c
        for c in rep.cases
        if c.parameters["q"] == 3 and c.parameters["r"] == 1 and c.parameters["point"] == 0
    )
    assert case.bound == pytest.approx(
        10.0 * math.sqrt(3) * math.log(3) * (math.log(3) + 1.0), abs=1e-9
    )


def test_t3_computes_each_tail_integral_once(monkeypatch):
    # the tails depend on (q, a, point) but not on chi or r: one row per unit a
    # mod q and point, at the largest order, reaches the batched kernel, 28 units
    # x 2 points (448 when run per order, 2304 per character and order)
    import zetalab.evaluate as evaluate

    rows = []
    real = evaluate.psi_tail_powers_batch

    def counting(x, alphas, b, rmax, **kwargs):
        rows.extend((x, alpha, b, rmax) for alpha in alphas)
        return real(x, alphas, b, rmax, **kwargs)

    monkeypatch.setattr(evaluate, "psi_tail_powers_batch", counting)
    rep = certify_T3()
    assert len(rows) == 56
    assert len(set(rows)) == 56
    assert {row[3] for row in rows} == {8}
    assert rep.all_pass


def test_t3_refuses_runaway_truncated_sums_before_any_work(monkeypatch):
    # the s = 0 truncated sum has q e^{r-1} terms: at q = 11 that is 1.8e6 at
    # r = 13, inside the work budget, and 4.9e6 at r = 14, beyond it
    import zetalab.bounds as bounds_mod

    def no_pass(*args, **kwargs):
        raise AssertionError("a residue pass ran")

    monkeypatch.setattr(bounds_mod, "enumerate_characters", no_pass)
    with pytest.raises(ValueError, match="work budget"):
        certify_T3(r_max=14)
    with pytest.raises(ValueError, match="work budget"):
        certify_T3(q_set=(3,), r_max=20)
    monkeypatch.undo()
    chi = next(c for c in enumerate_characters(11) if c.is_primitive and not c.is_principal)
    with pytest.raises(ValueError, match="work budget"):
        l_deriv_at_0_truncated(14, chi)
    assert math.isfinite(abs(l_deriv_at_0_truncated(13, chi).value))


def test_t3_rejects_modulus_without_primitive_characters():
    with pytest.raises(ValueError):
        certify_T3(q_set=(6,), r_max=2)


def test_bound_formulas_survive_large_r():
    rep = certify_T2_Ib(r_max=20, alpha_grid=(1.0,))
    for c in rep.cases:
        assert math.isfinite(c.bound) and c.bound > 0.0
    rep = certify_T2_IIb(r_max=20, alpha_grid=(1.0,))
    for c in rep.cases:
        assert math.isfinite(c.bound) and c.bound > 0.0


def test_reports_deterministic():
    a = certify_T2_Ib(r_max=5, alpha_grid=(0.5, 1.0))
    b = certify_T2_Ib(r_max=5, alpha_grid=(0.5, 1.0))
    assert a == b


def test_polya_vinogradov_report():
    rep = certify_polya_vinogradov(3, 30)
    assert rep.all_pass
    assert all(c.measured <= c.bound for c in rep.cases)


def test_ishikawa_informational():
    rep = ishikawa_compare(5, range(5, 13))
    assert rep.cases == ()  # nothing asserted
    assert len(rep.informational) == 8
    for c in rep.informational:
        assert math.isfinite(c.parameters["shape_bound"]) and c.parameters["shape_bound"] > 0
        assert math.isfinite(c.parameters["ishikawa"])
    # measured |L^{(r)}(1,chi)| recorded where the exact route was run
    assert all(math.isfinite(c.measured) for c in rep.informational if c.parameters["r"] <= 12)


def test_ishikawa_large_q_columns():
    rep = ishikawa_compare(101, range(5, 9))
    assert len(rep.informational) == 4
