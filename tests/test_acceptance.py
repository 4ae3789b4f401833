"""Acceptance criteria, one test per criterion.

Each test pins the stated tolerance and prints a single PASS line
(visible with pytest -s); any assertion failure marks the criterion
FAILED.  Stated runtime budgets are asserted as well.
"""

import math
import time

import numpy as np
import pytest

from zetalab.afe import afe_hurwitz, afe_l
from zetalab.bounds import berndt_bound, certify_polya_vinogradov, certify_T2_Ib, certify_T2_IIb, certify_T2_IIIb, certify_T3
from zetalab.characters import enumerate_characters, gauss_sum, partial_character_sum
from zetalab.coefficients import (
    beta_coefficient,
    beta_coefficient_all,
    gamma_aq,
    l_deriv_at_0,
    l_deriv_at_1_exact,
    stieltjes_gamma,
)
from zetalab.evaluate import (
    HurwitzArgs,
    LerchArgs,
    hurwitz_deriv,
    l_deriv,
    lerch_deriv,
    z_deriv,
)

from .oracles import (
    direct_series_oracle,
    hurwitz_series_cutoff,
    limit_gamma_aq_extrapolated,
    limit_oracle_gamma,
    oscillating_series_cutoff,
    richardson_fit,
)


def _report(k, text):
    print(f"ACCEPTANCE {k:>2}: PASS - {text}")


def test_acceptance_01_stieltjes_baseline():
    t0 = time.time()
    # limit-definition oracle with Richardson extrapolation on the stated shape
    ns = (100_000, 200_000, 400_000)
    for r, tol in ((0, 1e-9), (1, 1e-8)):
        vals = [limit_oracle_gamma(r, 1.0, n) for n in ns]
        shapes = [[math.log(n) ** r / n if r else 1.0 / n, 1.0 / n**2 if not r else 1.0 / n] for n in ns]
        oracle = richardson_fit(vals, shapes)
        got = stieltjes_gamma(r, 1.0).value.real
        assert abs(got - oracle) < tol
    assert abs(stieltjes_gamma(0, 1.0).value.real - 0.5772156649) <= 1e-9
    assert abs(stieltjes_gamma(1, 1.0).value.real - (-0.0728158454)) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, f"gamma_0, gamma_1 vs limit oracle at 1e-9/1e-8 ({elapsed:.2f}s)")


def test_acceptance_02_progression_convolution_identity():
    t0 = time.time()
    checked = 0
    for q in (3, 4, 5, 7):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            for r in range(0, 7):
                got = gamma_aq(r, a, q).value.real
                oracle = limit_gamma_aq_extrapolated(r, a, q, N=400_000)
                assert abs(got - oracle) < 1e-6, (q, a, r, got, oracle)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, f"{checked} progression coefficients vs extrapolated limits at 1e-6 ({elapsed:.1f}s)")


def test_acceptance_03_t2_ib_certification():
    rep = certify_T2_Ib(r_max=20)
    assert rep.all_pass and rep.worst_margin >= 0.0
    # informational comparison columns present; the certified bound beats the
    # Berndt baseline only at r = 1, and the baseline is smaller for r >= 2
    assert all("berndt" in c.parameters for c in rep.cases)
    assert rep.cases[0].parameters["berndt"] == pytest.approx(4.0 / math.pi, rel=1e-12)
    for r in range(4, 21):
        asserted = math.exp(1.0 + r * (math.log(r) - 1.0 - math.log(2.0)) - math.lgamma(r + 1.0))
        assert berndt_bound(r) < asserted
    # every measured deviation also sits below the Berndt baseline
    assert all(c.margin >= 0 for c in rep.informational)
    _report(3, f"{len(rep.cases)} cases, worst margin {rep.worst_margin:.3e}, comparison column present")


def test_acceptance_04_t2_ii_values_and_bounds():
    for alpha in [k / 10.0 for k in range(1, 11)]:
        assert abs(beta_coefficient(0, alpha).value.real - (0.5 - alpha)) <= 1e-10
    assert abs(beta_coefficient(1, 1.0).value.real - (-0.9189385332)) <= 1e-8
    rep = certify_T2_IIb(r_max=20)
    assert rep.all_pass and rep.worst_margin >= 0.0
    _report(4, f"beta_0 grid exact, beta_1(1) = -log(2 pi)/2, {len(rep.cases)} corrected margins >= 0")


def test_acceptance_05_t2_iiib_lerch_bound():
    t0 = time.time()
    rep = certify_T2_IIIb(r_max=10, lam_grid=(0.1, 0.5, 0.9), alpha_grid=(0.25, 1.0))
    assert rep.all_pass
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(5, f"{len(rep.cases)} Lerch coefficient deviations under the guarded bound ({elapsed:.1f}s)")


def test_acceptance_06_l_value_baselines(chi4):
    got1 = l_deriv_at_1_exact(0, chi4)
    assert abs(got1.value - math.pi / 4.0) <= 1e-9
    got0 = l_deriv_at_0(0, chi4)
    assert abs(got0.value - 0.5) <= 1e-10
    _report(6, "L(1, chi mod 4) = pi/4 at 1e-9; L(0, chi mod 4) = 1/2 at 1e-10")


def test_acceptance_07_t3_truncation():
    t0 = time.time()
    rep = certify_T3(q_set=(3, 4, 5, 7, 8, 11), r_max=8)
    assert rep.all_pass and rep.worst_margin >= 0.0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, f"{len(rep.cases)} truncation/size cases across q in {{3,4,5,7,8,11}} ({elapsed:.1f}s)")


def test_acceptance_08_gauss_sums():
    t0 = time.time()
    checked = 0
    for q in range(3, 101):
        prim = [c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal]
        for chi in prim:
            tau = gauss_sum(chi, 1)
            assert abs(abs(tau) - math.sqrt(q)) <= 1e-10 * math.sqrt(q)
            for n in range(q):
                assert abs(gauss_sum(chi, n) - np.conj(chi(n)) * tau) <= 1e-10
            checked += 1
    elapsed = time.time() - t0
    _report(8, f"{checked} primitive characters with |tau| = sqrt(q) and shift factorization ({elapsed:.1f}s)")


def test_acceptance_09_split_independence_and_series_oracle(chi4):
    rng = np.random.default_rng(1234)
    # 100 random split pairs per evaluator
    for _ in range(100):
        s = complex(rng.uniform(0.1, 1.0), rng.uniform(0.0, 4.0))
        alpha = float(rng.uniform(0.05, 1.0))
        r = int(rng.integers(0, 5))
        x1, x2 = (float(v) for v in rng.uniform(0.7, 20.0, size=2))
        a = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x1))
        b = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x2))
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-13 + 5e-15 * (abs(a.value) + abs(b.value))
    for _ in range(100):
        s = complex(rng.uniform(0.1, 1.0), rng.uniform(0.0, 4.0))
        q = int(rng.integers(2, 8))
        aa = int(rng.integers(1, q + 1))
        r = int(rng.integers(0, 5))
        x1, x2 = (float(v) for v in rng.uniform(1.0, 20.0, size=2))
        a = z_deriv(s, aa, q, r, X=q * x1)
        b = z_deriv(s, aa, q, r, X=q * x2)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-13 + 5e-15 * (abs(a.value) + abs(b.value))
    chars = {q: [c for c in enumerate_characters(q) if not c.is_principal] for q in (3, 4, 5, 7)}
    for _ in range(100):
        s = complex(rng.uniform(0.1, 1.0), rng.uniform(0.0, 4.0))
        q = int(rng.choice((3, 4, 5, 7)))
        chi = chars[q][int(rng.integers(0, len(chars[q])))]
        r = int(rng.integers(0, 5))
        x1, x2 = (float(v) for v in rng.uniform(1.0, 15.0, size=2))
        a = l_deriv(s, chi, r, X=q * x1)
        b = l_deriv(s, chi, r, X=q * x2)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-13 + 5e-15 * (abs(a.value) + abs(b.value))
    for _ in range(100):
        s = complex(rng.uniform(0.1, 1.0), rng.uniform(0.0, 3.0))
        alpha = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.15, 0.85))
        r = int(rng.integers(0, 5))
        x1, x2 = (float(v) for v in rng.uniform(0.7, 12.0, size=2))
        a = lerch_deriv(LerchArgs(lam=lam, alpha=alpha, s=s, order=r, split=x1))
        b = lerch_deriv(LerchArgs(lam=lam, alpha=alpha, s=s, order=r, split=x2))
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-13 + 5e-15 * (abs(a.value) + abs(b.value))

    # 50-case sigma > 1 grid against the direct partial sums at 1e-8
    cases = 0
    while cases < 50:
        kind = cases % 4
        r = int(rng.integers(0, 3))
        if kind == 0:
            sigma = float(rng.uniform(2.4 + 0.2 * r, 3.0))
            s = complex(sigma, rng.uniform(0.0, 2.0))
            alpha = float(rng.uniform(0.1, 1.0))
            n = hurwitz_series_cutoff(sigma, r, 2e-9)
            want = direct_series_oracle(s, alpha, 0.0, r, n)
            got = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r)).value
        elif kind == 1:
            sigma = float(rng.uniform(2.4 + 0.2 * r, 3.0))
            s = complex(sigma, rng.uniform(0.0, 2.0))
            q = int(rng.integers(2, 6))
            aa = int(rng.integers(1, q + 1))
            n = hurwitz_series_cutoff(sigma, r, 2e-9)
            pts = np.arange(aa, n + 1, q, dtype=float)
            logs = np.log(pts)
            want = complex(np.sum(np.exp(-s * logs) * ((-logs) ** r if r else 1.0)))
            got = z_deriv(s, aa, q, r).value
        elif kind == 2:
            # sigma floor keeps the Abel-bounded oracle cutoff within 8e6 terms
            sigma = float(rng.uniform(1.8 + 0.1 * r, 3.0))
            s = complex(sigma, rng.uniform(0.0, 2.0))
            chi = chars[4][0]
            n = oscillating_series_cutoff(sigma, r, 0.25, 1e-9) * 4
            nn = np.arange(1, n + 1)
            vals = np.asarray(chi.values, dtype=complex)[nn % 4]
            logs = np.log(nn.astype(float))
            want = complex(np.sum(vals * np.exp(-s * logs) * ((-logs) ** r if r else 1.0)))
            got = l_deriv(s, chi, r).value
        else:
            sigma = float(rng.uniform(1.8 + 0.1 * r, 3.0))
            lam = float(rng.choice((0.25, 0.5, 0.75)))
            s = complex(sigma, rng.uniform(0.0, 2.0))
            alpha = float(rng.uniform(0.1, 1.0))
            n = oscillating_series_cutoff(sigma, r, lam, 1e-9)
            want = direct_series_oracle(s, alpha, lam, r, n)
            got = lerch_deriv(LerchArgs(lam=lam, alpha=alpha, s=s, order=r)).value
        assert abs(got - want) < 1e-8, (kind, s, r)
        cases += 1
    _report(9, "400 split-independence pairs within bounds; 50 sigma > 1 oracle cases at 1e-8")


def test_acceptance_10_afe_cross_method(chi4):
    t0 = time.time()
    for sigma in (0.25, 0.5, 0.75):
        for t in (5.0, 10.0, 20.0, 50.0):
            s = complex(sigma, t)
            x = math.sqrt(t / (2.0 * math.pi))
            for alpha in (0.3, 1.0):
                for r in (0, 1, 2):
                    a = afe_hurwitz(s, alpha, r, x)
                    b = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x))
                    assert abs(a.value - b.value) < 1e-6, (sigma, t, alpha, r)
    for t in (5.0, 10.0):
        s = complex(0.5, t)
        X = 4.0 * math.sqrt(t / (2.0 * math.pi))
        for r in (0, 1, 2):
            a = afe_l(s, chi4, r, X)
            b = l_deriv(s, chi4, r)
            assert abs(a.value - b.value) < 1e-6
    # exact reduction at y < 1: the plain split representation, bit for bit
    s = 0.5 + 3j
    x = 3.0 / (2 * math.pi) + 1.0
    a = afe_hurwitz(s, 0.7, 1, x)
    b = hurwitz_deriv(HurwitzArgs(s=s, alpha=0.7, order=1, split=x))
    assert repr(a) == repr(b)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(10, f"hybrid vs plain route on the strip grid at 1e-6; exact y<1 reduction ({elapsed:.1f}s)")


def test_acceptance_11_polya_vinogradov():
    rep = certify_polya_vinogradov(3, 50)
    assert rep.all_pass
    _report(11, f"{len(rep.cases)} non-principal characters under sqrt(q) log q")
