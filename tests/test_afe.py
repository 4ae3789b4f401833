import cmath
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

import zetalab.afe as afe
import zetalab.sawtooth as sawtooth
from zetalab.afe import afe_hurwitz, afe_l, gamma_factor_derivs
from zetalab.characters import character, enumerate_characters
from zetalab.evaluate import HurwitzArgs, hurwitz_deriv, l_deriv

from .oracles import l_oracle

mp.mp.dps = 25


def balanced_split(t: float) -> float:
    return math.sqrt(t / (2.0 * math.pi))


def test_reduction_when_cutoff_below_one():
    # y = t/(2 pi x) < 1 leaves no dual terms: the plain split representation,
    # value and bound, bit for bit
    for s, alpha, r in [(0.5 + 3j, 1.0, 0), (0.25 + 2j, 0.4, 1), (0.75 + 0.5j, 0.9, 2)]:
        x = abs(complex(s).imag) / (2 * math.pi) + 1.0
        a = afe_hurwitz(s, alpha, r, x)
        b = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x))
        assert repr(a) == repr(b)


@pytest.mark.parametrize("t", [10.0, 20.0, 30.0, 50.0])
def test_hybrid_matches_plain_route(t):
    s = 0.5 + 1j * t
    x = balanced_split(t)
    a = afe_hurwitz(s, 1.0, 0, x)
    b = hurwitz_deriv(HurwitzArgs(s=s, alpha=1.0, order=0, split=x))
    assert abs(a.value - b.value) < 1e-6


def test_hybrid_against_mpmath_with_dual_sum():
    t = 30.0
    s = 0.5 + 1j * t
    x = balanced_split(t)  # y ~ 2.19: dual terms active
    res = afe_hurwitz(s, 1.0, 0, x)
    want = complex(mp.zeta(mp.mpc(s)))
    assert abs(res.value - want) <= res.error_bound + 1e-9


def test_hybrid_derivatives_against_mpmath():
    s = 0.5 + 20j
    x = balanced_split(20.0)
    for r in (1, 2):
        res = afe_hurwitz(s, 0.4, r, x)
        want = complex(mp.zeta(mp.mpc(s), mp.mpf(0.4), r))
        assert abs(res.value - want) <= res.error_bound + 1e-9


def test_hybrid_first_derivative_by_finite_difference():
    s = 0.5 + 20j
    x = balanced_split(20.0)
    h = 1e-5
    lo = afe_hurwitz(s - h, 0.4, 0, x).value
    hi = afe_hurwitz(s + h, 0.4, 0, x).value
    want = afe_hurwitz(s, 0.4, 1, x).value
    assert abs((hi - lo) / (2 * h) - want) <= 1e-4 * max(1.0, abs(want))


def test_split_robustness():
    s = 0.25 + 12j
    x = balanced_split(12.0)
    a = afe_hurwitz(s, 0.3, 1, x)
    b = afe_hurwitz(s, 0.3, 1, 2.0 * x)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-10


def test_grid_cross_method():
    rng = np.random.default_rng(5)
    for sigma in (0.25, 0.5, 0.75):
        for t in (5.0, 10.0, 20.0):
            for alpha in (0.3, 1.0):
                r = int(rng.integers(0, 3))
                s = complex(sigma, t)
                x = balanced_split(t)
                a = afe_hurwitz(s, alpha, r, x)
                b = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x))
                assert abs(a.value - b.value) < 1e-6, (sigma, t, alpha, r)


def test_gamma_factor_derivatives_by_finite_difference():
    s = 0.3 + 4j
    h = 1e-4  # larger step: the second difference divides rounding by h^2
    for n in (1, -1, 3):
        d = gamma_factor_derivs(s, n, 2)
        g = lambda ss: gamma_factor_derivs(ss, n, 0)[0]
        fd1 = (g(s + h) - g(s - h)) / (2 * h)
        fd2 = (g(s + h) - 2 * g(s) + g(s - h)) / (h * h)
        scale = max(1.0, abs(d[0]), abs(d[1]), abs(d[2]))
        assert abs(fd1 - d[1]) <= 1e-5 * scale
        assert abs(fd2 - d[2]) <= 1e-4 * scale


def test_afe_l_reduction(chi4):
    s = 0.5 + 2j
    X = 4.0 * (2.0 / (2 * math.pi)) + 4.0  # y < 1
    for r in range(3):
        assert repr(afe_l(s, chi4, r, X)) == repr(l_deriv(s, chi4, r, X=X))


def test_afe_l_cross_method(chi4):
    t = 10.0
    s = 0.5 + 1j * t
    X = 4.0 * balanced_split(t)
    a = afe_l(s, chi4, 0, X)
    b = l_deriv(s, chi4, 0)
    assert abs(a.value - b.value) < 1e-6


def test_afe_l_derivatives(chi4):
    t = 10.0
    s = 0.5 + 1j * t
    X = 4.0 * balanced_split(t)
    for r in (1, 2):
        a = afe_l(s, chi4, r, X)
        b = l_deriv(s, chi4, r)
        assert abs(a.value - b.value) < 1e-6


def test_afe_l_walks_each_dual_frequency_once(monkeypatch):
    # the gamma factors, segment integrals and oscillatory tails of the dual
    # sum depend neither on alpha = a/q nor on the order l <= r: a gamma
    # factor per +-n for the whole request, and n and -n share the walk of
    # their segment and the walk of their tail
    chi = next(c for c in enumerate_characters(5) if not c.is_principal)
    s, r, X = 0.5 + 30j, 2, 3.0
    nmid = math.floor(s.imag / (2.0 * math.pi * X / 5))
    assert nmid == 7
    calls, walked = Counter(), Counter()
    gamma, walk = afe.gamma_factor_derivs, sawtooth._walk
    monkeypatch.setattr(afe, "gamma_factor_derivs", lambda *args: calls.update(["gamma_factor_derivs"]) or gamma(*args))
    monkeypatch.setattr(sawtooth, "_walk", lambda ends, nu, c, geom: walked.update([(abs(nu), geom)]) or walk(ends, nu, c, geom))
    afe_l(s, chi, r, X)
    assert calls == Counter({"gamma_factor_derivs": 2 * nmid})
    assert walked == Counter({(n, geom): 1 for n in range(1, nmid + 1) for geom in (0.6, 1.0)})  # a tail (0.6) and a segment (1.0)


def test_afe_l_weighs_like_the_hurwitz_classes():
    # L^{(r)} = sum_a chi(a) q^{-s} sum_l C(r,l) (-log q)^{r-l} zeta^{(l)}(s, a/q), each
    # zeta^{(l)} an AFE at the split X/q: the one core and dual pass of afe_l agrees
    # with the per-class, per-order Hurwitz AFEs within the sum of their bounds
    s, X = 0.5 + 30j, 3.0
    for q in (5, 12):
        lq = math.log(q)
        qs = cmath.exp(-s * lq)
        for chi in [c for c in enumerate_characters(q) if not c.is_principal][:2]:
            for r in range(3):
                val, err = 0.0 + 0.0j, 0.0
                for a in (a for a in range(1, q + 1) if chi(a) != 0):
                    for l in range(r + 1):
                        c = math.comb(r, l) * (-lq) ** (r - l)
                        res = afe_hurwitz(s, a / q, l, X / q)
                        val += chi(a) * qs * c * res.value
                        err += abs(qs) * abs(c) * res.error_bound
                got = afe_l(s, chi, r, X)
                assert abs(got.value - val) <= got.error_bound + err, (q, chi.label, r)


def test_afe_l_conjugation():
    chars5 = [c for c in enumerate_characters(5) if not c.is_principal]
    chi = chars5[0]
    s = 0.5 + 5j
    X = 5.0 * balanced_split(5.0)
    a = afe_l(s, chi, 0, X)
    # Im(conj s) < 0 is outside the stated range; compare against the
    # conjugated plain-route value instead
    b = l_deriv(s.conjugate(), chi.conjugate(), 0)
    assert abs(a.value - b.value.conjugate()) < 1e-6


def test_afe_validation(chi4, principal4):
    with pytest.raises(ValueError):
        afe_hurwitz(1.5 + 3j, 1.0, 0, 1.0)  # outside the strip
    with pytest.raises(ValueError):
        afe_hurwitz(0.5 - 3j, 1.0, 0, 1.0)  # negative t
    with pytest.raises(ValueError):
        afe_hurwitz(1.0, 1.0, 0, 1.0)  # the pole
    with pytest.raises(ValueError):
        afe_hurwitz(0.5 + 3j, 1.0, 3, 1.0)  # derivative order cap
    with pytest.raises(ValueError):
        afe_l(0.5 + 3j, principal4, 0, 4.0)
    with pytest.raises(ValueError):
        afe_hurwitz(1.0 + 30j, 1.0, 0, balanced_split(30.0))  # singular segments


# the grid points where the gamma factor of the dual sum overflows (ROADMAP item 16)
AFE_REFUSED = {(0.9, 250.0)}


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("t", [50.0, 100.0, 200.0, 250.0])
def test_afe_bounds_hold_against_the_oracles(sigma, t):
    # the balanced split walks the dual segments and tails; with panels that
    # followed only e^{2 pi i n u} the value at alpha = 1, s = 0.5+200i was off
    # by 1.35 against a bound of 5.5e-11
    s = complex(sigma, t)
    for r in range(3):
        if (sigma, t) in AFE_REFUSED:
            with pytest.raises(OverflowError, match="math range error"):
                afe_hurwitz(s, 1.0, r, balanced_split(t))
            continue
        res = afe_hurwitz(s, 1.0, r, balanced_split(t))
        assert abs(res.value - complex(mp.zeta(s, 1, r))) <= res.error_bound, (s, r)
        for chi in (character(3, 1), character(4, 1)):
            res = afe_l(s, chi, r, balanced_split(chi.modulus * t))
            with mp.workdps(30):
                assert abs(mp.mpc(res.value) - l_oracle(s, chi, r)) <= res.error_bound, (s, chi.modulus, r)


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
def test_dual_walk_charge_bounds_the_panels_walked(monkeypatch, t):
    # the dual sum's walks are charged before any term is summed; the panels
    # are counted, not evaluated, and the gamma factor, which overflows at
    # t = 1000 (ROADMAP item 16), is stubbed out
    charged, walked = [], []
    monkeypatch.setattr(afe, "gamma_factor_derivs", lambda s, n, r: [0j] * (r + 1))
    monkeypatch.setattr(sawtooth, "_check_work", charged.append)
    # a pass serves each frequency of one |n|: its panels count once per frequency
    monkeypatch.setattr(sawtooth, "_gl_panels", lambda vals, errs, pts, nus, *rest: walked.append(len(nus) * (len(pts) - 1)))
    s = complex(0.5, t)
    for x in (0.5, 5.0, 20.0):
        for r in range(3):
            charged.clear()
            sawtooth._dual_cutoffs(s, r, x, math.floor(t / (2.0 * math.pi * x) + 1e-12))
            estimate = charged[-1] if charged else 0.0
            walked.clear()
            afe_hurwitz(s, 0.3, r, x)
            assert sum(walked) <= estimate, (x, r)
