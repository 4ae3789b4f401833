import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zetalab.characters import enumerate_characters
from zetalab.evaluate import (
    HurwitzArgs,
    LerchArgs,
    _finite_power_sum,
    _psi_at_split,
    _s_tail,
    _split_floor,
    _z_core,
    default_split,
    hurwitz_deriv,
    l_deriv,
    lerch_deriv,
    pole_term_derivs,
    z_deriv,
)
from zetalab.sawtooth import EvalResult, psi_tail_powers

from .oracles import (
    catalan_constant,
    direct_series_oracle,
    hurwitz_series_cutoff,
    leibniz_pi_4,
    log2_series,
    oscillating_series_cutoff,
    zeta_eta,
)

mp.mp.dps = 25


# ---------------------------------------------------------------------------
# Hurwitz
# ---------------------------------------------------------------------------


def test_zeta_half_known_value():
    res = hurwitz_deriv(HurwitzArgs(s=0.5, alpha=1.0, order=0, split=10.0))
    want = zeta_eta(complex(0.5))
    assert abs(res.value - want) < 1e-9


def test_zeta_near_zero_limit():
    # zeta(0, alpha) = 1/2 - alpha, probed just inside the half-plane
    res = hurwitz_deriv(HurwitzArgs(s=1e-6, alpha=0.3, order=0, split=1.0))
    assert abs(res.value - 0.2) < 1e-5


def test_split_independence_examples():
    s = 0.7 + 3j
    a = hurwitz_deriv(HurwitzArgs(s=s, alpha=0.37, order=2, split=1.0))
    b = hurwitz_deriv(HurwitzArgs(s=s, alpha=0.37, order=2, split=23.6))
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_split_boundary_convention():
    # crossing the kink x - alpha in Z must not move the value
    s, alpha = 0.6 + 1.1j, 0.4
    for n in (2, 7):
        mid = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=1, split=n + alpha))
        lo = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=1, split=n + alpha - 1e-3))
        hi = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=1, split=n + alpha + 1e-3))
        tol = mid.error_bound + lo.error_bound + hi.error_bound + 1e-12
        assert abs(mid.value - lo.value) <= tol
        assert abs(mid.value - hi.value) <= tol


@pytest.mark.parametrize(
    "s,alpha,r",
    [(0.5 + 2j, 1.0, 0), (0.9 + 7j, 0.37, 1), (0.3 + 0.5j, 0.61, 3), (2.4 + 1j, 0.8, 2)],
)
def test_hurwitz_against_mpmath(s, alpha, r):
    res = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r))
    want = complex(mp.zeta(mp.mpc(s), mp.mpf(alpha), r))
    assert abs(res.value - want) <= res.error_bound + 1e-11


def test_derivative_consistency_finite_difference():
    s, alpha, h = 0.8 + 1.7j, 0.55, 1e-5
    for r in range(4):
        lo = hurwitz_deriv(HurwitzArgs(s=s - h, alpha=alpha, order=r)).value
        hi = hurwitz_deriv(HurwitzArgs(s=s + h, alpha=alpha, order=r)).value
        want = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r + 1)).value
        assert abs((hi - lo) / (2 * h) - want) <= 1e-4 * max(1.0, abs(want))


def test_half_parameter_identity():
    for s in (0.4 + 0.9j, 0.25 + 5j, 0.95 + 0.1j):
        lhs = hurwitz_deriv(HurwitzArgs(s=s, alpha=0.5, order=0)).value
        rhs = (2.0**s - 1.0) * hurwitz_deriv(HurwitzArgs(s=s, alpha=1.0, order=0)).value
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_hurwitz_validation():
    with pytest.raises(ValueError):
        HurwitzArgs(s=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        HurwitzArgs(s=-0.5, alpha=1.0)
    with pytest.raises(ValueError):
        HurwitzArgs(s=0.5, alpha=1.5)
    with pytest.raises(ValueError):
        HurwitzArgs(s=0.5, alpha=1.0, order=25)
    with pytest.raises(ValueError):
        HurwitzArgs(s=0.5, alpha=1.0, split=-2.0)


def ref_hurwitz_core(s, alpha, r, x):
    """The Hurwitz core that Z(s, alpha, 1) replaced (reference): finite sum
    + boundary + tail, without the pole term."""
    nmax = _split_floor(x - alpha)
    tail, err = _s_tail(*psi_tail_powers(x, alpha, -s - 1.0, r), s, r)
    pts = alpha + np.arange(0, nmax + 1, dtype=float) if nmax >= 0 else np.empty(0)
    val = _finite_power_sum(pts, s, r)
    lx = math.log(x)
    val += _psi_at_split(x - alpha) * cmath.exp(-s * lx) * (-lx) ** r
    return val + tail, err


def test_hurwitz_is_z_at_q1_bit_for_bit():
    # real and complex s, the default split, an explicit one and one below alpha
    rng = np.random.default_rng(9)
    for alpha in (1e-9, 0.3, 1.0):
        for i in range(12):
            s = complex(rng.uniform(0.05, 3.0), 0.0 if i % 2 else rng.uniform(-200.0, 200.0))
            r = int(rng.integers(0, 7))
            for x in (None, float(rng.uniform(0.5, 30.0)), alpha / 2.0):
                got = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x))
                split = default_split(s, alpha) if x is None else x
                core, err = ref_hurwitz_core(s, alpha, r, split)
                assert repr(got) == repr(EvalResult(core + pole_term_derivs(s, split, r)[r], err)), (s, alpha, r, x)


# ---------------------------------------------------------------------------
# Z (progressions)
# ---------------------------------------------------------------------------


def test_z_reduces_to_hurwitz_at_q1():
    s = 0.5 + 1j
    for r in range(4):
        zres = z_deriv(s, 1, 1, r, X=7.3)
        href = hurwitz_deriv(HurwitzArgs(s=s, alpha=1.0, order=r, split=7.3))
        assert abs(zres.value - href.value) < 1e-13 * max(1.0, abs(href.value))


def test_z_direct_series_pi_squared_over_8():
    res = z_deriv(2.0, 1, 2, 0)
    assert abs(res.value - math.pi**2 / 8.0) < 1e-10


def test_z_split_independence():
    a = z_deriv(0.6, 2, 5, 1, X=3.0)
    b = z_deriv(0.6, 2, 5, 1, X=17.0)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-14


def test_z_leibniz_consistency():
    s, a, q, r, X = 0.6 + 1.3j, 2, 5, 2, 9.0
    direct = z_deriv(s, a, q, r, X=X)
    lq = math.log(q)
    combo = sum(
        math.comb(r, l)
        * (-lq) ** (r - l)
        * cmath.exp(-s * lq)
        * hurwitz_deriv(HurwitzArgs(s=s, alpha=a / q, order=l, split=X / q)).value
        for l in range(r + 1)
    )
    assert abs(direct.value - combo) <= direct.error_bound + 1e-12


def test_z_validation():
    with pytest.raises(ValueError):
        z_deriv(1.0, 1, 2, 0)
    with pytest.raises(ValueError):
        z_deriv(0.5, 3, 2, 0)


# ---------------------------------------------------------------------------
# Dirichlet L
# ---------------------------------------------------------------------------


def test_l_at_one_leibniz(chi4):
    res = l_deriv(1.0, chi4, 0)
    assert abs(res.value - leibniz_pi_4()) < 1e-9


def test_l_at_two_catalan(chi4):
    res = l_deriv(2.0, chi4, 0)
    assert abs(res.value - catalan_constant()) < 1e-10


def test_l_split_independence():
    chars7 = [c for c in enumerate_characters(7) if not c.is_principal]
    chi = chars7[2]
    a = l_deriv(0.8, chi, 1, X=7.0)
    b = l_deriv(0.8, chi, 1, X=70.0)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-13


def test_l_character_decomposition(chi4):
    s, r = 0.7 + 2j, 1
    total = sum(chi4(a) * z_deriv(s, a, 4, r, X=11.0).value for a in (1, 3))
    res = l_deriv(s, chi4, r, X=11.0)
    assert abs(res.value - total) < 1e-10 * max(1.0, abs(res.value))


def test_l_deriv_matches_the_per_class_loop_with_empty_classes():
    # q = 15 with X = 7.5 < q: the classes a > X have no term in their finite sums
    q, X = 15, 7.5
    for chi in [c for c in enumerate_characters(q) if not c.is_principal][::2]:
        for s, r in ((0.7 + 3j, 2), (1.0 + 0j, 0), (2.0 + 0j, 1)):
            val, err = 0.0 + 0.0j, 0.0
            for a in range(1, q + 1):
                if chi(a) != 0:
                    core, cerr = _z_core(s, a, q, r, X, psi_tail_powers(X / q, a / q, -s - 1.0, r))
                    val += chi(a) * core
                    err += cerr
            assert repr(l_deriv(s, chi, r, X=X)) == repr(EvalResult(val, err)), (chi.label, s, r)


def test_l_principal_rejected(principal4):
    with pytest.raises(ValueError):
        l_deriv(0.5, principal4, 0)


def test_l_conjugation_symmetry():
    chars5 = [c for c in enumerate_characters(5) if not c.is_principal]
    chi = chars5[0]
    s = 0.5 + 5j
    a = l_deriv(s.conjugate(), chi.conjugate(), 0)
    b = l_deriv(s, chi, 0)
    assert abs(a.value - b.value.conjugate()) < 1e-12


# ---------------------------------------------------------------------------
# Lerch
# ---------------------------------------------------------------------------


def test_lerch_log2():
    res = lerch_deriv(LerchArgs(lam=0.5, alpha=1.0, s=1.0, order=0, split=1.0))
    assert abs(res.value - log2_series()) < 1e-9


@pytest.mark.parametrize(
    "lam,alpha,s,r",
    [(0.3, 0.7, 1.2, 0), (0.1, 1.0, 0.5 + 2j, 0), (0.9, 0.25, 2.5, 0), (0.3, 0.7, 1.5, 1), (0.25, 0.5, 0.7 + 1j, 2)],
)
def test_lerch_against_mpmath(lam, alpha, s, r):
    res = lerch_deriv(LerchArgs(lam=lam, alpha=alpha, s=s, order=r))
    f = lambda ss: mp.lerchphi(mp.exp(2j * mp.pi * lam), ss, mp.mpf(alpha))
    want = complex(f(mp.mpc(s))) if r == 0 else complex(mp.diff(f, mp.mpc(s), r))
    assert abs(res.value - want) <= res.error_bound + 1e-9


def test_lerch_conjugation_pair():
    lam, alpha, s, r = 0.3, 0.7, 1.2, 1
    a = lerch_deriv(LerchArgs(lam=1.0 - lam, alpha=alpha, s=s, order=r))
    b = lerch_deriv(LerchArgs(lam=lam, alpha=alpha, s=s, order=r))
    assert abs(a.value - b.value.conjugate()) <= a.error_bound + b.error_bound + 1e-11


def test_lerch_small_lambda_approaches_hurwitz():
    s, alpha = 1.5, 0.5
    href = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=0)).value
    gaps = []
    for lam in (1e-2, 1e-3, 1e-4):
        res = lerch_deriv(LerchArgs(lam=lam, alpha=alpha, s=s, order=0))
        gaps.append(abs(res.value - href))
    assert gaps[0] > gaps[1] > gaps[2]


def test_lerch_split_independence():
    args1 = LerchArgs(lam=0.3, alpha=0.7, s=0.4 + 1.1j, order=2, split=1.3)
    args2 = LerchArgs(lam=0.3, alpha=0.7, s=0.4 + 1.1j, order=2, split=17.9)
    a, b = lerch_deriv(args1), lerch_deriv(args2)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_lerch_validation():
    with pytest.raises(ValueError):
        LerchArgs(lam=0.0, alpha=0.5, s=1.5)
    with pytest.raises(ValueError):
        LerchArgs(lam=1.0, alpha=0.5, s=1.5)
    with pytest.raises(ValueError):
        LerchArgs(lam=0.5, alpha=0.5, s=-1.0)


# ---------------------------------------------------------------------------
# direct series oracle
# ---------------------------------------------------------------------------


def test_direct_series_basel():
    val = direct_series_oracle(2.0, 1.0, 0.0, 0, 10**6)
    assert abs(val - math.pi**2 / 6.0) < 1e-6


def test_direct_series_single_term():
    assert direct_series_oracle(2.0, 1.0, 0.0, 0, 0) == 1.0


def test_direct_series_matches_hurwitz():
    s, alpha, r = 3.0, 0.5, 1
    n = hurwitz_series_cutoff(3.0, r, 1e-9)
    val = direct_series_oracle(s, alpha, 0.0, r, n)
    res = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r))
    assert abs(val - res.value) < 1e-8


def test_direct_series_needs_sigma_above_one():
    with pytest.raises(ValueError):
        direct_series_oracle(1.0, 1.0, 0.0, 0, 100)


# ---------------------------------------------------------------------------
# the master property: split independence on a random grid
# ---------------------------------------------------------------------------


def test_split_independence_random_grid():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        s = complex(rng.uniform(0.1, 1.0), rng.uniform(0.0, 5.0))
        alpha = float(rng.uniform(0.05, 1.0))
        r = int(rng.integers(0, 5))
        x1, x2 = sorted(rng.uniform(0.6, 25.0, size=2))
        a = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=float(x1)))
        b = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=float(x2)))
        # the last term allows for binary64 rounding, which the reported
        # bounds deliberately exclude
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-13 + 5e-15 * (
            abs(a.value) + abs(b.value)
        )
