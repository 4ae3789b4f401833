import math

import numpy as np
import pytest

from zetalab.bounds import (
    DEFAULT_ALPHA_GRID,
    berndt_bound,
    certify_polya_vinogradov,
    certify_T2_Ib,
    certify_T2_IIb,
    certify_T2_IIIb,
    certify_T3,
    ishikawa_compare,
)
from zetalab.characters import _units, character, enumerate_characters, euler_phi, partial_character_sum
from zetalab.coefficients import (
    _beta_all,
    _gamma_all,
    _lerch_at_one,
    _truncated_all,
    _truncated_orders,
    beta_coefficient_all,
    l_deriv_at_0_all,
    l_deriv_at_0_truncated,
    l_deriv_at_1_exact_all,
    l_deriv_at_1_truncated,
    stieltjes_gamma_all,
)
from zetalab.evaluate import _cores
from zetalab.sawtooth import _tail_cutoff

EPS = 2.0**-53  # unit roundoff of binary64


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
    with pytest.raises(ValueError, match="r >= 1"):
        berndt_bound(0)
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


def _count_lerch_tails(monkeypatch) -> list[str]:
    """Patch the Lerch core's oscillatory tails to log each tail by kind."""
    import zetalab.evaluate as evaluate

    walks, real = [], evaluate._osc_tails

    def counting(nu, alpha, rmax, x, tails, **pieces):
        walks.extend("psi_osc_tail_powers" if weighted else "pure_osc_tail_powers" for _, weighted, _ in tails)
        return real(nu, alpha, rmax, x, tails, **pieces)

    monkeypatch.setattr(evaluate, "_osc_tails", counting)
    return walks


def test_t2_iiib_takes_one_tail_pass_per_table(monkeypatch):
    # every order of a (lambda, alpha) table reads one pass of the three
    # tails: 6 pure and 12 sawtooth-weighted walks for the default grid
    # (180 when each order ran its own), and 3 for a table to r = 8
    from zetalab.coefficients import coefficient_table

    walks = _count_lerch_tails(monkeypatch)
    assert certify_T2_IIIb().all_pass
    assert (walks.count("pure_osc_tail_powers"), walks.count("psi_osc_tail_powers")) == (6, 12)
    walks.clear()
    coefficient_table("lerch_at_one", 8, lam=0.3, alpha=0.7)
    assert len(walks) == 3


def test_t2_iiib_walks_no_panel(monkeypatch):
    # a finite-sum term is priced per point whatever the number of orders, so
    # every table of the default grid passes its three oscillatory tails: each
    # is its closed-form far tail from the split, as at one order
    from zetalab import sawtooth

    def no_panel(*args):
        raise AssertionError("a panel was walked")

    monkeypatch.setattr(sawtooth, "_gl_panels", no_panel)
    assert certify_T2_IIIb().all_pass


def test_t2_iiib_refuses_the_order_cap_before_any_tail(monkeypatch):
    import zetalab.evaluate as evaluate
    from zetalab import cli

    def no_walk(*args):
        raise AssertionError("a tail was walked")

    monkeypatch.setattr(evaluate, "_osc_tails", no_walk)
    with pytest.raises(ValueError, match=r"order must lie in 0\.\.24"):
        certify_T2_IIIb(r_max=30)
    assert cli.run(["certify", "--bound", "t2-iiib", "--r-max", "30"]) == 1


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
    # mod q and point, at the largest order, reaches the default split's tail
    # call, 28 units x 2 points (448 when run per order, 2304 per character and order)
    import zetalab.evaluate as evaluate

    rows = []
    real = evaluate._tail_cutoff

    def counting(alphas, b, rmax):
        rows.extend((alpha, b, rmax) for alpha in alphas)
        return real(alphas, b, rmax)

    monkeypatch.setattr(evaluate, "_tail_cutoff", counting)
    rep = certify_T3()
    assert len(rows) == 56
    assert len(set(rows)) == 56
    assert {row[2] for row in rows} == {8}
    assert rep.all_pass


def test_t3_measures_each_deviation_plus_the_exact_bound_at_the_default_split():
    # the exact side is one pass of every order at the Z core's default split:
    # at that split each order's own public call gives its values and bounds
    # bit for bit, and at its own default split a value within the two bounds
    r_max = 4
    rep = certify_T3(q_set=(3, 5, 8), r_max=r_max)
    cases = iter(rep.cases)
    for q in (3, 5, 8):
        prim = [c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal]
        exact = {}
        for point, s, fn in ((1, 1.0 + 0.0j, l_deriv_at_1_exact_all), (0, 0.0j, l_deriv_at_0_all)):
            X = _cores(s, q, _units(q), range(1, r_max + 1), None)[0]
            for r in range(1, r_max + 1):
                exact[point, r] = fn(r, prim, X)
                for at_split, alone in zip(exact[point, r], fn(r, prim)):
                    assert abs(at_split.value - alone.value) <= at_split.error_bound + alone.error_bound
        lq = math.log(q)
        for i, chi in enumerate(prim):
            for r in range(1, r_max + 1):
                shapes = (q**-0.5 * math.exp(-r / 2.0) * lq * (lq + r / 2.0) ** r, math.sqrt(q) * lq * (lq + r) ** r)
                for point, fn, shape in zip((1, 0), (l_deriv_at_1_truncated, l_deriv_at_0_truncated), shapes):
                    case, ex = next(cases), exact[point, r][i]
                    assert (case.parameters["q"], case.parameters["label"], case.parameters["r"], case.parameters["point"]) == (q, chi.label, r, point)
                    assert case.measured == abs(fn(r, chi).value - ex.value) + ex.error_bound
                    assert case.parameters["observed"] == case.measured / shape
                case, ex = next(cases), exact[1, r][i]
                assert case.parameters == {"q": q, "label": chi.label, "r": r, "point": "size"}
                assert case.measured == abs(ex.value) + ex.error_bound
    assert next(cases, None) is None and rep.all_pass


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


def test_polya_vinogradov_cumsum_agrees_with_the_scalar_partial_sums():
    # every non-principal character mod q <= 50: the maxima of one cumsum
    # per modulus against max_x |partial_character_sum(chi, x)|
    rep = certify_polya_vinogradov(1, 50)
    assert len(rep.cases) == sum(euler_phi(q) - 1 for q in range(3, 51))
    for case in rep.cases:
        q = case.parameters["q"]
        chi = character(q, case.parameters["label"])
        want = max(abs(partial_character_sum(chi, x)) for x in range(1, q + 1))
        assert abs(case.measured - want) <= 8 * q * EPS * want, (q, chi.label)


def test_t2_measured_deviations_take_in_the_error_bound():
    # the margin certifies |value - true| too: measured is the deviation of
    # the computed value plus its error_bound, normalized alike
    alpha, r = 0.3, 5
    case = next(c for c in certify_T2_Ib(r_max=r, alpha_grid=(alpha,)).cases if c.parameters["r"] == r)
    gam = stieltjes_gamma_all(r, alpha)[r]
    assert gam.error_bound > 0.0
    dev = abs(gam.value.real - math.log(alpha) ** r / alpha)
    assert case.measured == (dev + gam.error_bound) / math.factorial(r)
    case = next(c for c in certify_T2_IIb(r_max=r, alpha_grid=(alpha,)).cases if c.parameters["r"] == r)
    bet = beta_coefficient_all(r, alpha)[r]
    main = (-1.0) ** r * math.log(alpha) ** r / math.factorial(r)
    assert case.measured == abs(bet.value.real - main) + bet.error_bound
    case = next(c for c in certify_T2_IIIb(r_max=r, lam_grid=(0.5,), alpha_grid=(alpha,)).cases if c.parameters["r"] == r)
    lerch = _lerch_at_one(r, 0.5, alpha)[r]
    main = (-1.0) ** r * math.log(alpha) ** r / (math.factorial(r) * alpha)
    assert case.measured == abs(lerch.value - main) + lerch.error_bound


def test_t2_grid_batch_equals_the_per_alpha_passes():
    # certify_T2_Ib and certify_T2_IIb send their whole alpha grid through one
    # Z core pass; at the default grid every alpha stops at the same cutoff, so
    # the batch is each alpha's own pass, values and bounds bit for bit
    grid = list(DEFAULT_ALPHA_GRID)
    for s, orders in ((1.0 + 0j, range(21)), (0j, range(1, 21))):
        split = _cores(s, 1, grid, orders, None)[0]
        assert all(split == _tail_cutoff([alpha], -s - 1.0, 20)[0] for alpha in grid), s
    gam, bet = [stieltjes_gamma_all(20, alpha) for alpha in grid], [beta_coefficient_all(20, alpha) for alpha in grid]
    assert _gamma_all(20, grid, 1) == gam and _beta_all(20, grid) == bet
    # each certified case is the per-alpha pass's deviation plus error_bound
    for case in certify_T2_Ib().cases:
        r, alpha = case.parameters["r"], case.parameters["alpha"]
        g = gam[grid.index(alpha)][r]
        assert case.measured == (abs(g.value.real - math.log(alpha) ** r / alpha) + g.error_bound) / math.factorial(r)
    for case in certify_T2_IIb().cases:
        r, alpha = case.parameters["r"], case.parameters["alpha"]
        b = bet[grid.index(alpha)][r]
        assert case.measured == abs(b.value.real - (-1.0) ** r * math.log(alpha) ** r / math.factorial(r)) + b.error_bound


def test_t3_truncated_sums_weigh_one_kernel_pass_per_order():
    # sum_{n <= X} chi(n) log^r n / n^s as sum_a chi(a) S_a: the batch of every
    # primitive character mod q is each character's own value, bit for bit,
    # and the direct n-sum agrees to within the rounding of its terms
    for q in (5, 11):
        prim = [c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal]
        for r in (1, 4):
            for point, fn in ((1, l_deriv_at_1_truncated), (0, l_deriv_at_0_truncated)):
                batch = _truncated_all(r, prim, point)
                assert batch == [fn(r, chi) for chi in prim]
                assert _truncated_orders([1, r, 6], prim, point)[1] == batch
                n = np.arange(1, math.floor(q * math.exp(r / 2.0 if point else r - 1.0) + 1e-12) + 1)
                for chi, res in zip(prim, batch):
                    terms = np.asarray(chi.values)[n % q] * np.log(n) ** r / n**point
                    assert abs(res.value - (-1.0) ** r * terms.sum()) <= 1e-13 * np.abs(terms).sum(), (q, chi.label, r, point)


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
