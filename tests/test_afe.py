import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zetalab.afe import afe_hurwitz, afe_l
from zetalab.characters import character, enumerate_characters
from zetalab.evaluate import HurwitzArgs, hurwitz_deriv, l_deriv
from zetalab.sawtooth import MAX_ORDER

from .oracles import afe_dual_bracket, l_oracle

mp.mp.dps = 25


def balanced_split(t: float) -> float:
    return math.sqrt(t / (2.0 * math.pi))


def test_reduction_when_cutoff_below_one():
    # y = t/(2 pi x) < 1 leaves no dual terms, and from y >= 1 on they add to 0
    # (afe_dual_bracket): at every y the plain split representation, value and
    # bound, bit for bit
    cases = [(0.5 + 3j, 1.0, 0, 3.0 / (2 * math.pi) + 1.0), (0.25 + 2j, 0.4, 1, 2.0 / (2 * math.pi) + 1.0), (0.75 + 0.5j, 0.9, 2, 1.5)]
    cases += [(0.5 + 30j, 1.0, 2, balanced_split(30.0)), (0.1 + 460j, 0.3, 0, balanced_split(460.0)), (0.9 - 250j, 0.7, 4, 0.5), (1.0 + 30j, 1.0, 1, 2.0)]
    for s, alpha, r, x in cases:
        a = afe_hurwitz(s, alpha, r, x)
        b = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x))
        assert repr(a) == repr(b), (s, r, x)
    chi = character(5, 2)
    for s, r, X in [(0.5 + 2j, 1, 5.0), (0.5 + 60j, 0, 4.0), (0.3 - 40j, 3, 5.5)]:
        assert repr(afe_l(s, chi, r, X)) == repr(l_deriv(s, chi, r, X=X)), (s, r, X)


@pytest.mark.parametrize("s, alpha, x", [(0.3 + 25j, 0.7, 1.3), (0.8 + 40j, 1.0, 2.1)])
@pytest.mark.parametrize("n", [1, 2])
def test_the_dual_terms_of_plus_and_minus_n_add_to_zero(s, alpha, x, n):
    # the gamma factors, boundary modes, segments and tails of +-n in mpmath,
    # terms of size 1 (a gamma factor, a segment or a tail left out reads 1.1
    # to 2.5), add to 0 at r = 0 (15 digits) and, by mp.diff, at r = 1 (at 20
    # digits): what the AFE leaves out of its Z core is 0, not small
    assert abs(afe_dual_bracket(s, alpha, x, n, 0, dps=15)) < 1e-12
    assert abs(afe_dual_bracket(s, alpha, x, n, 1, dps=10)) < 1e-12


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
    x = balanced_split(t)  # y ~ 2.19: a dual sum of four terms, which add to 0
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


def test_afe_l_weighs_like_the_hurwitz_classes():
    # L^{(r)} = sum_a chi(a) q^{-s} sum_l C(r,l) (-log q)^{r-l} zeta^{(l)}(s, a/q), each
    # zeta^{(l)} an AFE at the split X/q: the one core pass of afe_l agrees
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
    # L(conj s, conj chi) = conj L(s, chi), from the AFE at Im(s) < 0 and the plain route
    for b in (afe_l(s.conjugate(), chi.conjugate(), 0, X), l_deriv(s.conjugate(), chi.conjugate(), 0)):
        assert abs(a.value - b.value.conjugate()) <= a.error_bound + b.error_bound


def test_afe_validation(chi4, principal4):
    with pytest.raises(ValueError, match="stated for 0 <= Re"):
        afe_hurwitz(1.5 + 3j, 1.0, 0, 1.0)  # outside the strip
    with pytest.raises(ValueError, match="stated for 0 <= Re"):
        afe_l(-0.5 + 3j, chi4, 0, 4.0)
    with pytest.raises(ValueError, match="the pole"):
        afe_hurwitz(1.0, 1.0, 0, 1.0)
    with pytest.raises(ValueError, match="alpha must lie"):
        afe_hurwitz(0.5 + 3j, 1.5, 0, 1.0)
    with pytest.raises(ValueError, match="split must be positive"):
        afe_hurwitz(0.5 + 3j, 1.0, 0, 0.0)
    with pytest.raises(ValueError, match="split must be positive"):
        afe_l(0.5 + 3j, chi4, 0, -4.0)
    with pytest.raises(ValueError, match="order must lie"):
        afe_hurwitz(0.5 + 3j, 1.0, MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError, match="order must lie"):
        afe_l(0.5 + 3j, chi4, -1, 4.0)
    with pytest.raises(ValueError, match="non-principal"):
        afe_l(0.5 + 3j, principal4, 0, 4.0)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("t", [50.0, 100.0, 200.0, 250.0])
def test_afe_bounds_hold_against_the_oracles(sigma, t):
    # every grid point answers within its bound: s = 0.9+250i overflowed in
    # the gamma factor of the dual sum
    s = complex(sigma, t)
    for r in range(3):
        res = afe_hurwitz(s, 1.0, r, balanced_split(t))
        assert abs(res.value - complex(mp.zeta(s, 1, r))) <= res.error_bound, (s, r)
        for chi in (character(3, 1), character(4, 1)):
            res = afe_l(s, chi, r, balanced_split(chi.modulus * t))
            with mp.workdps(30):
                assert abs(mp.mpc(res.value) - l_oracle(s, chi, r)) <= res.error_bound, (s, chi.modulus, r)


@pytest.mark.parametrize("s, r", [(0.5 + 100j, 3), (0.5 + 100j, 4), (0.1 - 200j, 1), (0.9 - 60j, 4)])
def test_afe_beyond_order_two_and_below_the_real_axis_holds_against_the_oracles(s, r):
    # the order cap of two and Im(s) >= 0 served only the dual sum's gamma factors
    res = afe_hurwitz(s, 1.0, r, balanced_split(abs(s.imag)))
    assert abs(res.value - complex(mp.zeta(s, 1, r))) <= res.error_bound, (s, r)
    chi = character(4, 1)
    res = afe_l(s, chi, r, balanced_split(4.0 * abs(s.imag)))
    with mp.workdps(30):
        assert abs(mp.mpc(res.value) - l_oracle(s, chi, r)) <= res.error_bound, (s, r)
