import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zetalab.characters import character, enumerate_characters
from zetalab.coefficients import (
    _beta_all,
    _gamma_all,
    _gamma_aq_all,
    beta_coefficient,
    beta_coefficient_all,
    coefficient_table,
    gamma_aq,
    l_deriv_at_0,
    l_deriv_at_0_all,
    l_deriv_at_0_truncated,
    l_deriv_at_1_exact,
    l_deriv_at_1_exact_all,
    l_deriv_at_1_truncated,
    lerch_taylor_at_1,
    reconstruct_series,
    stieltjes_gamma,
    stieltjes_gamma_all,
)
from zetalab.evaluate import HurwitzArgs, LerchArgs, _split_floor, hurwitz_deriv, l_deriv, lerch_deriv
from zetalab.sawtooth import EvalResult, psi_tail_powers

from .oracles import (
    convolution_coefficient,
    gamma_aq_oracle,
    l_at_one_oracle,
    l_oracle,
    leibniz_pi_4,
    lerch_oracle,
    limit_gamma_aq_extrapolated,
    limit_gamma_extrapolated,
    limit_oracle_gamma,
    limit_oracle_gamma_aq,
    log2_series,
    richardson_fit,
    stieltjes_oracle,
    zeta_eta,
)

mp.mp.dps = 25


# ---------------------------------------------------------------------------
# Stieltjes constants
# ---------------------------------------------------------------------------


def test_gamma0_is_euler_constant():
    got = stieltjes_gamma(0, 1.0).value.real
    oracle = limit_gamma_extrapolated(0, 1.0)
    assert abs(got - oracle) < 1e-9
    assert abs(got - 0.5772156649) < 1e-9


def test_gamma0_at_half():
    got = stieltjes_gamma(0, 0.5).value.real
    oracle = limit_gamma_extrapolated(0, 0.5)
    assert abs(got - oracle) < 1e-9
    assert abs(got - 1.9635100260) < 1e-9  # gamma + 2 log 2


def test_gamma1_known_value():
    got = stieltjes_gamma(1, 1.0).value.real
    oracle = limit_gamma_extrapolated(1, 1.0)
    assert abs(got - oracle) < 1e-8
    assert abs(got - (-0.0728158454)) < 1e-8


@pytest.mark.parametrize("r,alpha", [(0, 0.25), (1, 0.5), (2, 1.0), (3, 0.7), (5, 0.3), (6, 1.0)])
def test_gamma_against_mpmath(r, alpha):
    got = stieltjes_gamma(r, alpha).value
    want = float(mp.stieltjes(r, mp.mpf(alpha)))
    assert abs(got.real - want) < 1e-10 * max(1.0, abs(want))
    assert abs(got.imag) <= 1e-12


def test_limit_oracle_small_n_hand_value():
    # raw partial expression: sum_{n=0}^{10} 1/(n+1) - log(11)
    got = limit_oracle_gamma(0, 1.0, 10)
    h11 = sum(1.0 / k for k in range(1, 12))
    assert got == pytest.approx(h11 - math.log(11.0), abs=1e-14)


def test_limit_oracle_convergence_pattern():
    gaps = []
    for n in (10**3, 10**4, 10**5):
        gaps.append(abs(limit_oracle_gamma(0, 1.0, n) - 0.5772156649015329))
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.1)
    assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.1)


def test_limit_oracle_approaches_closed_form():
    for r, alpha in [(1, 1.0), (2, 0.5)]:
        closed = stieltjes_gamma(r, alpha).value.real
        prev = None
        for n in (20_000, 80_000, 320_000):
            gap = abs(limit_oracle_gamma(r, alpha, n) - closed)
            if prev is not None:
                assert gap < prev
            prev = gap


def test_richardson_fit_on_limit_oracle():
    # the spec's extrapolation shape c log^r N / N on the geometric ladder
    r, alpha = 1, 1.0
    ns = (100_000, 200_000, 400_000)
    vals = [limit_oracle_gamma(r, alpha, n) for n in ns]
    shapes = [[math.log(n) ** r / n, 1.0 / n] for n in ns]
    fitted = richardson_fit(vals, shapes)
    assert abs(fitted - stieltjes_gamma(r, alpha).value.real) < 1e-8


# ---------------------------------------------------------------------------
# Taylor coefficients at 0
# ---------------------------------------------------------------------------


def test_beta0_closed_form():
    for alpha in (0.1, 0.3, 0.5, 1.0):
        assert beta_coefficient(0, alpha).value.real == pytest.approx(0.5 - alpha, abs=1e-15)


def test_beta1_is_zeta_prime_at_zero():
    got = beta_coefficient(1, 1.0).value.real
    assert abs(got - (-0.5 * math.log(2.0 * math.pi))) < 1e-8


@pytest.mark.parametrize("r,alpha", [(1, 0.5), (2, 1.0), (3, 0.35)])
def test_beta_against_mpmath(r, alpha):
    got = beta_coefficient(r, alpha).value.real
    want = float(mp.zeta(0, mp.mpf(alpha), r)) / math.factorial(r)
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# progression constants
# ---------------------------------------------------------------------------


def test_gamma_aq_reduces_at_q1():
    for r in (0, 1, 3):
        got = gamma_aq(r, 1, 1).value.real
        assert abs(got - stieltjes_gamma(r, 1.0).value.real) < 1e-13


def test_gamma_aq_against_limit_oracle():
    got = gamma_aq(1, 2, 3).value.real
    oracle = limit_gamma_aq_extrapolated(1, 2, 3)
    assert abs(got - oracle) < 1e-6


def test_gamma_aq_proposition_grid():
    for q in (3, 4, 5, 7):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            for r in range(0, 7):
                got = gamma_aq(r, a, q).value.real
                oracle = limit_gamma_aq_extrapolated(r, a, q, N=400_000)
                assert abs(got - oracle) < 1e-6, (q, a, r)


def test_gamma_aq_partition_identity():
    for q in (2, 3, 5):
        for r in (0, 2, 4):
            total = sum(gamma_aq(r, a, q).value.real for a in range(1, q + 1))
            want = stieltjes_gamma(r, 1.0).value.real
            assert abs(total - want) < 1e-6


def test_limit_oracle_aq_residues_partition_exactly():
    # the two progressions mod 2 telescope to the q = 1 bracket
    n = 100_000
    lhs = limit_oracle_gamma_aq(0, 1, 2, n) + limit_oracle_gamma_aq(0, 2, 2, n)
    rhs = sum(1.0 / k for k in range(1, n + 1)) - math.log(n)
    assert abs(lhs - rhs) < 1e-12


def test_convolution_coefficient_at_q1():
    c0 = convolution_coefficient(0, 1, 0.37)
    assert abs(c0 - stieltjes_gamma(0, 0.37).value.real) < 1e-13


def test_gamma_aq_matches_the_laurent_convolution_route():
    # second route: (-1)^r gamma_r(a,q) = (r!/q) c_r(q, a/q) + pole-mismatch term
    for q in range(1, 13):
        lq = math.log(q)
        for a in range(1, q + 1):
            for r in range(0, 9):
                res = gamma_aq(r, a, q)
                val = res.value.real
                cr = convolution_coefficient(r, q, a / q)
                val2 = (-1.0) ** r * (
                    math.factorial(r) / q * cr + (-1.0) ** (r + 1) * lq ** (r + 1) / (q * (r + 1))
                )
                scale = max(abs(val), abs(val2), 1e-6)
                assert abs(val - val2) <= 1e-12 * scale + q * res.error_bound, (q, a, r)


def test_gamma_aq_validation():
    with pytest.raises(ValueError):
        gamma_aq(0, 5, 3)
    with pytest.raises(ValueError):
        gamma_aq(0, 0, 3)


# ---------------------------------------------------------------------------
# L-values at 1 and 0
# ---------------------------------------------------------------------------


def test_l1_exact_leibniz(chi4):
    res = l_deriv_at_1_exact(0, chi4)
    assert abs(res.value - leibniz_pi_4()) < 1e-9


def test_l1_exact_split_independence():
    chars5 = [c for c in enumerate_characters(5) if not c.is_principal]
    chi = chars5[1]
    a = l_deriv_at_1_exact(2, chi, X=5.0)
    b = l_deriv_at_1_exact(2, chi, X=40.0)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-13


def test_l1_exact_equals_progression_assembly():
    for q in (3, 4, 5):
        for chi in enumerate_characters(q):
            if chi.is_principal:
                continue
            for r in (0, 1, 2):
                lhs = l_deriv_at_1_exact(r, chi).value
                rhs = sum(
                    chi(a) * (-1.0) ** r * gamma_aq(r, a, q).value for a in range(1, q + 1)
                )
                assert abs(lhs - rhs) < 1e-8


def test_l1_exact_matches_general_evaluator(chi4):
    for r in (0, 1, 2):
        a = l_deriv_at_1_exact(r, chi4, X=9.0)
        b = l_deriv(1.0, chi4, r, X=9.0)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-12


def test_l1_truncated_contained(chi4):
    ex = l_deriv_at_1_exact(1, chi4)
    tr = l_deriv_at_1_truncated(1, chi4)
    assert abs(tr.value - ex.value) <= tr.error_bound


def test_l1_truncated_sweep_mod5():
    prim = [c for c in enumerate_characters(5) if c.is_primitive and not c.is_principal]
    for chi in prim:
        for r in range(1, 9):
            ex = l_deriv_at_1_exact(r, chi)
            tr = l_deriv_at_1_truncated(r, chi)
            assert abs(tr.value - ex.value) <= tr.error_bound
            # size estimate from the same sweep
            assert abs(ex.value) <= 10.0 * (math.log(5) + r / 2.0) ** (r + 1)


def test_l1_truncated_requires_primitive():
    chars12 = [c for c in enumerate_characters(12) if not c.is_principal and not c.is_primitive]
    with pytest.raises(ValueError):
        l_deriv_at_1_truncated(1, chars12[0])
    with pytest.raises(ValueError, match="r >= 1"):
        l_deriv_at_1_truncated(0, next(c for c in enumerate_characters(5) if c.is_primitive))


def test_l0_value_half(chi4):
    res = l_deriv_at_0(0, chi4)
    assert abs(res.value - 0.5) < 1e-10
    # empty-sum route: X below 1 keeps only the sawtooth boundary terms
    res2 = l_deriv_at_0(0, chi4, X=0.5)
    assert abs(res2.value - 0.5) < 1e-12
    # hand value: -(1/q) sum_a a chi(a) = -(1 - 3)/4
    assert abs(res.value - (-(1.0 - 3.0) / 4.0)) < 1e-10


@pytest.mark.parametrize("route", [l_deriv_at_1_exact, l_deriv_at_0])
def test_residue_pass_refuses_a_huge_split_before_any_work(chi4, route):
    # the finite sums over n <= X would take 1e10 points (80 GB per array)
    with pytest.raises(ValueError, match="work budget"):
        route(1, chi4, X=1e10)


def test_l0_split_independence(chi3):
    for r in (0, 1, 2):
        a = l_deriv_at_0(r, chi3, X=2.0)
        b = l_deriv_at_0(r, chi3, X=50.0)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-12


def test_l0_truncated_contained(chi3):
    for r in (1, 2, 3):
        ex = l_deriv_at_0(r, chi3)
        tr = l_deriv_at_0_truncated(r, chi3)
        assert abs(tr.value - ex.value) <= tr.error_bound


def test_l_values_reject_principal(principal4):
    for fn in (
        lambda: l_deriv_at_1_exact(0, principal4),
        lambda: l_deriv_at_0(0, principal4),
    ):
        with pytest.raises(ValueError):
            fn()


def _l_at_1_per_character(r, chi, X):
    """The per-character residue loop the batched route replaced (reference)."""
    q = chi.modulus
    lX = math.log(X)
    lq = math.log(q)
    main = bnd = tail = 0.0 + 0.0j
    err = 0.0
    for a in range(1, q + 1):
        ca = chi(a)
        if ca == 0:
            continue
        kmax = _split_floor((X - a) / q)
        if kmax >= 0:
            n = a + q * np.arange(0, kmax + 1, dtype=float)
            logs = np.log(n)
            main += ca * complex(np.sum((logs**r if r else 1.0) / n))
        bnd += ca * ((X - a) / q - kmax - 0.5)
        tails, terrs = psi_tail_powers(X / q, a / q, -2.0, r)
        combo, cerr = 0.0 + 0.0j, 0.0
        for m in range(r + 1):
            cm = 0.0
            if r and m <= r - 1:
                cm += r * math.comb(r - 1, m) * lq ** (r - 1 - m)
            cm -= 1.0 * math.comb(r, m) * lq ** (r - m)
            combo += cm * tails[m]
            cerr += abs(cm) * terrs[m]
        tail += ca * combo
        err += cerr
    return EvalResult((-1.0) ** r * (main + (lX**r / X) * bnd + tail / q), err / q)


def _l_at_0_per_character(r, chi, X):
    """The per-character residue loop the batched route replaced (reference)."""
    q = chi.modulus
    lX = math.log(X)
    lq = math.log(q)
    main = bnd = val = 0.0 + 0.0j
    err = 0.0
    for a in range(1, q + 1):
        ca = chi(a)
        if ca == 0:
            continue
        kmax = _split_floor((X - a) / q)
        if kmax >= 0:
            n = a + q * np.arange(0, kmax + 1, dtype=float)
            main += ca * complex(np.sum(np.log(n) ** r if r else np.ones_like(n)))
        bnd += ca * ((X - a) / q - kmax - 0.5)
        if r:
            tails, terrs = psi_tail_powers(X / q, a / q, -1.0, r - 1)
            combo = sum(math.comb(r - 1, mm) * lq ** (r - 1 - mm) * tails[mm] for mm in range(r))
            val += ca * r * combo
            err += r * sum(math.comb(r - 1, mm) * lq ** (r - 1 - mm) * terrs[mm] for mm in range(r))
    val += main + (lX**r if r else 1.0) * bnd
    return EvalResult((-1.0) ** r * val, err)


@pytest.mark.parametrize("q", [7, 8, 293])
def test_batched_l_routes_equal_the_single_character_routes(q):
    chars = [c for c in enumerate_characters(q) if not c.is_principal]
    # mod 293 the batch holds all 291 characters; three are checked: labels 1, 146 (real) and 291
    checked = range(len(chars)) if q < 100 else (0, 145, 290)
    for X in (None, 2.5):
        for r in range(0, 5 if q < 100 else 3):
            batch1 = l_deriv_at_1_exact_all(r, chars, X=X)
            batch0 = l_deriv_at_0_all(r, chars, X=X)
            assert len(batch1) == len(batch0) == len(chars)
            for chi, got1, got0 in ((chars[i], batch1[i], batch0[i]) for i in checked):
                # exact equality, value and error_bound alike
                single1 = l_deriv_at_1_exact(r, chi, X=X)
                single0 = l_deriv_at_0(r, chi, X=X)
                assert got1.value == single1.value and got1.error_bound == single1.error_bound
                assert got0.value == single0.value and got0.error_bound == single0.error_bound
                if q > 100 and (X is None or chi.label != 146):
                    continue  # the per-class loops take a second each at q = 293
                # the per-class loops are a second route (split 4q by default):
                # the two agree within the sum of their bounds
                ref1 = _l_at_1_per_character(r, chi, 4.0 * q if X is None else X)
                ref0 = _l_at_0_per_character(r, chi, 4.0 * q if X is None else X)
                for got, ref in ((got1, ref1), (got0, ref0)):
                    assert abs(got.value - ref.value) <= got.error_bound + ref.error_bound, (chi.label, r, X)


def test_batched_l_routes_refuse_mixed_batches(principal4):
    chars5 = [c for c in enumerate_characters(5) if not c.is_principal]
    chars7 = [c for c in enumerate_characters(7) if not c.is_principal]
    for fn in (l_deriv_at_1_exact_all, l_deriv_at_0_all):
        for batch in ([], chars5 + chars7, chars5 + [principal4], [principal4]):
            with pytest.raises(ValueError):
                fn(1, batch)
        with pytest.raises(ValueError):
            fn(-1, chars5)


# ---------------------------------------------------------------------------
# the bounds are true bounds: |value - oracle| <= error_bound, rounding included
# ---------------------------------------------------------------------------


def _held(res, ref) -> bool:
    """|value - ref| <= error_bound, the distance taken at the reference's precision."""
    with mp.workdps(30):
        return abs(mp.mpc(res.value.real, res.value.imag) - ref) <= res.error_bound


@pytest.mark.parametrize("alpha", [1e-6, 0.029714, 0.37, 1.0])
def test_gamma_and_beta_bounds_hold_against_mpmath(alpha):
    # mpmath.stieltjes and mpmath's zeta derivatives at s = 0, r <= 12, at the
    # default split and an explicit one; the bounds without rounding failed at
    # alpha = 0.029714 (gamma) and 1e-6 (beta)
    for X in (None, 7.3):
        gam, bet = _gamma_all(12, [alpha], 1, X)[0], _beta_all(12, [alpha], X)[0]
        for r in range(13):
            assert _held(gam[r], stieltjes_oracle(r, alpha)), (alpha, r, X, gam[r])
            assert _held(bet[r], mp.zeta(0, mp.mpf(alpha), r) / math.factorial(r)), (alpha, r, X, bet[r])
    assert stieltjes_gamma_all(12, alpha) == _gamma_all(12, [alpha], 1)[0] and beta_coefficient_all(12, alpha) == _beta_all(12, [alpha])[0]


@pytest.mark.parametrize("a, q", [(1, 2), (2, 5), (3, 7), (7, 12)])
def test_gamma_aq_bounds_hold_against_mpmath(a, q):
    for X in (None, 7.3):
        gam = _gamma_all(12, [a], q, X)[0]
        for r in range(13):
            assert _held(gam[r], gamma_aq_oracle(r, a, q)), (a, q, r, X, gam[r])
    assert _gamma_aq_all(12, a, q) == _gamma_all(12, [a], q)[0] and gamma_aq(12, a, q) == _gamma_all(12, [a], q)[0][12]


@pytest.mark.parametrize("q, label, rmax", [(5, 1, 12), (12, 2, 6), (30, 3, 4)])
def test_l_at_one_and_zero_bounds_hold_against_hurwitz_sums(q, label, rmax):
    # mpmath's Hurwitz constants at s = 1 and zeta derivatives at s = 0, summed over the classes
    chi = character(q, label)
    for X in (None, 7.3):
        for r in range(rmax + 1):
            got1, got0 = l_deriv_at_1_exact(r, chi, X=X), l_deriv_at_0(r, chi, X=X)
            assert _held(got1, l_at_one_oracle(chi, r)), (q, label, r, X, got1)
            assert _held(got0, l_oracle(0j, chi, r)), (q, label, r, X, got0)


def test_l_at_zero_order_zero_books_its_rounding():
    # the finite sums of 1 over each class: the bound was exactly 0 against an error of 6.5e-14
    chi = character(311, 268)
    got = l_deriv_at_0(0, chi)
    assert got.error_bound > 0.0 and _held(got, l_oracle(0j, chi, 0))


# ---------------------------------------------------------------------------
# Lerch Taylor coefficients
# ---------------------------------------------------------------------------


def test_lerch_taylor_log2():
    res = lerch_taylor_at_1(0, 0.5, 1.0)
    assert abs(res.value - log2_series()) < 1e-9
    # the oracle's s = 1 branch, where the Hurwitz poles cancel, against the series
    assert abs(complex(lerch_oracle(1.0, Fraction(1, 2), 1.0, 0)) - log2_series()) < 1e-15


def test_lerch_taylor_matches_evaluator():
    for r, lam, alpha in [
        (0, 0.3, 0.7),
        (1, 0.3, 0.7),
        (2, 0.6, 0.25),
        (3, 0.5, 1.0),
        (4, 0.1, 0.5),
        (5, 0.9, 0.25),
        (6, 0.3, 0.7),
        (7, 0.75, 1.0),
        (8, 0.5, 0.4),
    ]:
        coef = lerch_taylor_at_1(r, lam, alpha)
        ev = lerch_deriv(LerchArgs(lam=lam, alpha=alpha, s=1.0, order=r, split=2.5))
        want = ev.value / math.factorial(r)
        tol = coef.error_bound + ev.error_bound / math.factorial(r) + 1e-11
        assert abs(coef.value - want) <= tol


def test_lerch_taylor_rejects_integer_lambda():
    with pytest.raises(ValueError):
        lerch_taylor_at_1(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        lerch_taylor_at_1(0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# tables and round trips
# ---------------------------------------------------------------------------


def test_table_real_valuedness():
    table = coefficient_table("stieltjes_gamma", 8, alpha=0.37)
    assert all(abs(e.value.imag) <= 1e-12 for e in table.entries)
    assert [e.order for e in table.entries] == list(range(9))


def test_reconstruct_hurwitz_series():
    table = coefficient_table("stieltjes_gamma", 12, alpha=1.0)
    got = reconstruct_series(table, 1.25)
    want = zeta_eta(complex(1.25))
    assert abs(got - want) < 1e-6


def test_reconstruct_gamma_chi_series(chi4):
    table = coefficient_table("gamma_chi", 12, chi=chi4)
    got = reconstruct_series(table, 1.1)
    want = l_deriv(1.1, chi4, 0)
    assert abs(got - want.value) < 1e-7


def test_reconstruct_beta_center():
    table = coefficient_table("beta_at_zero", 8, alpha=0.3)
    got = reconstruct_series(table, 0.0)
    assert got == table.entries[0].value


def test_reconstruct_z_series():
    table = coefficient_table("gamma_aq", 12, a=2, q=3)
    from zetalab.evaluate import z_deriv

    got = reconstruct_series(table, 1.2)
    want = z_deriv(1.2, 2, 3, 0)
    assert abs(got - want.value) < 1e-6


def test_reconstruct_lerch_series():
    table = coefficient_table("lerch_at_one", 12, lam=0.3, alpha=0.7)
    got = reconstruct_series(table, 1.2)
    want = lerch_deriv(LerchArgs(lam=0.3, alpha=0.7, s=1.2))
    assert abs(got - want.value) < 1e-7


def test_reconstruct_l_at_zero_series():
    for q, label in ((4, 1), (5, 2), (7, 3)):
        chi = character(q, label)
        table = coefficient_table("l_deriv_at_zero", 12, chi=chi)
        got = reconstruct_series(table, 0.3)
        want = l_deriv(0.3, chi, 0)
        assert abs(got - want.value) < 1e-7, (q, label)


def test_reconstruct_radius_guard():
    table = coefficient_table("stieltjes_gamma", 8, alpha=1.0)
    with pytest.raises(ValueError):
        reconstruct_series(table, 2.0)
    with pytest.raises(ValueError, match="cannot reconstruct kind 'nope'"):
        reconstruct_series(dataclasses.replace(table, kind="nope"), 1.0)
    with pytest.raises(ValueError, match="unknown coefficient kind 'nope'"):
        coefficient_table("nope", 3)


def test_gamma0_split_parameterized_forms():
    # the regularized value at s = 1 equals the split representation at any
    # split, checked at x = 1 and x = 5.  The - log x comes from the pole
    # mismatch (x^{1-s} - 1)/(s-1) -> -log x and vanishes only at x = 1.
    from zetalab.sawtooth import psi, psi_tail_powers

    for alpha in (0.3, 1.0):
        want = stieltjes_gamma(0, alpha).value.real
        for x in (1.0, 5.0):
            nmax = math.floor(x - alpha + 1e-12)
            head = sum(1.0 / (n + alpha) for n in range(0, nmax + 1))
            tails, terrs = psi_tail_powers(x, alpha, -2.0, 0)
            got = head + psi(x - alpha) / x - tails[0].real - math.log(x)
            assert abs(got - want) <= terrs[0] + 1e-12
