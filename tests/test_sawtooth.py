import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.evaluate import LerchArgs, lerch_deriv
from zetalab.sawtooth import (
    MAX_ORDER,
    EvalResult,
    TailIntegralSpec,
    _osc_remainder_const,
    _psi_fourier_shift_sum,
    oscillatory_tail,
    periodic_bernoulli,
    psi,
    psi2,
    psi_osc_tail_powers,
    psi_piecewise_integral,
    psi_tail_powers,
    pure_osc_tail_powers,
    sawtooth_tail,
)

from .oracles import euler_gamma_limit, quad_psi_osc_tail, quad_psi_tail


# ---------------------------------------------------------------------------
# the kernel itself
# ---------------------------------------------------------------------------


def test_psi_basic_values():
    assert psi(0.25) == pytest.approx(-0.25, abs=1e-15)
    assert psi(1.3) == pytest.approx(-0.2, abs=1e-15)
    assert psi(0.5) == 0.0
    assert psi(3.0) == -0.5  # formula convention at integers


@settings(max_examples=500)
@given(st.floats(min_value=-500, max_value=500, allow_nan=False))
def test_psi_periodicity(u):
    # stay away from the jump: u + 1.0 may round across it in binary64
    if abs(u - round(u)) < 1e-6 * max(1.0, abs(u)):
        return
    assert psi(u + 1.0) == pytest.approx(psi(u), abs=1e-9)


@settings(max_examples=500)
@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=-50, max_value=50))
def test_psi_odd_symmetry(frac, k):
    u = k + frac
    assert psi(-u) == pytest.approx(-psi(u), abs=1e-9)


def test_psi2_values():
    assert psi2(0.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert psi2(0.5) == pytest.approx(-1.0 / 24.0, abs=1e-15)


def test_psi2_fourier_partial_sum():
    u = 0.3
    n = np.arange(1, 10_001)
    # -sum_{|n|>=1} e^{2 pi i n u}/(2 pi i n)^2 = sum 2 cos(2 pi n u)/(2 pi n)^2
    partial = float(np.sum(2.0 * np.cos(2 * np.pi * n * u) / (2 * np.pi * n) ** 2))
    assert abs(partial - psi2(u)) < 1e-8


def test_psi2_derivative_matches_psi():
    rng = np.random.default_rng(7)
    h = 1e-6
    for u in rng.uniform(0.01, 0.99, size=1000) + rng.integers(-3, 4, size=1000):
        fd = (psi2(u + h) - psi2(u - h)) / (2 * h)
        assert abs(fd - psi(u)) < 1e-6


def test_periodic_bernoulli_fourier_consistency():
    # polynomial branch against a long Fourier partial sum, within the
    # partial sum's own truncation 2/((2 pi)^m (m-1) N^{m-1})
    N = 400_000
    for m in (2, 3, 4, 8, 12):
        for v in (0.0, 0.21, 0.5, 0.83):
            n = np.arange(1, N)
            phase = -0.5 * math.pi * m
            fourier = -float(np.sum(2.0 * np.cos(2 * np.pi * n * v + phase) / (2 * np.pi * n) ** m))
            trunc = 2.0 / ((2 * math.pi) ** m * (m - 1) * float(N - 1) ** (m - 1))
            assert abs(periodic_bernoulli(m, v) - fourier) < trunc + 1e-12


# ---------------------------------------------------------------------------
# piecewise-exact finite integrals
# ---------------------------------------------------------------------------


def test_unit_interval_integral_of_psi_vanishes():
    a = 1e-8
    got = psi_piecewise_integral(a, 1.0, alpha=1.0)
    want = -(a * a / 2.0 - a / 2.0)  # minus int_0^a (u - 1/2) du
    assert abs(got - want) < 1e-15


def test_piecewise_additivity():
    x, y = 1.7, 9.2
    b, r, alpha = -1.5, 2, 1.0
    total, terr = psi_tail_powers(x, alpha, b, r)
    part = psi_piecewise_integral(x, y, alpha=alpha, exponent=b, log_power=r)
    rest, rerr = psi_tail_powers(y, alpha, b, r)
    assert abs(total[r] - (part + rest[r])) < 1e-11 + terr[r] + rerr[r]


# ---------------------------------------------------------------------------
# plain sawtooth tails
# ---------------------------------------------------------------------------


def test_tail_reference_value_euler_gamma():
    # int_1^inf psi(u-1)/u^2 du = 1/2 - gamma
    res = sawtooth_tail(TailIntegralSpec(lower=1.0, shift=1.0, exponent=-2.0, log_power=0))
    gamma = euler_gamma_limit()
    assert abs(res.value - (0.5 - gamma)) < 1e-9


def test_tail_smallness_far_out():
    res = sawtooth_tail(TailIntegralSpec(lower=100.0, shift=0.5, exponent=-2.0, log_power=0))
    assert abs(res.value) <= 1.0 / (6.0 * 100.0**2)


def test_tail_cutoff_independence():
    vals1, errs1 = psi_tail_powers(1.3, 0.4, -1.7, 3)
    vals2, errs2 = psi_tail_powers(1.3, 0.4, -1.7, 3, u_start=260.0)
    for r in range(4):
        assert abs(vals1[r] - vals2[r]) <= errs1[r] + errs2[r] + 1e-15


def test_error_bound_honest_grid():
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = float(rng.uniform(0.5, 6.0))
        alpha = float(rng.uniform(0.05, 1.0))
        br = float(rng.uniform(-3.0, -1.1))
        bi = float(rng.uniform(-2.0, 2.0))
        r = int(rng.integers(0, 4))
        b = complex(br, bi)
        vals, errs = psi_tail_powers(x, alpha, b, r)
        oracle, otail = quad_psi_tail(x, alpha, b, r)
        assert abs(vals[r] - oracle) <= errs[r] + otail + 1e-12


def test_tail_requires_decaying_exponent():
    with pytest.raises(ValueError):
        sawtooth_tail(TailIntegralSpec(lower=1.0, shift=1.0, exponent=-0.5, log_power=0))


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------


def test_pure_oscillatory_far_tail_bound():
    lam = 0.5
    spec = TailIntegralSpec(lower=1e6, shift=1.0, exponent=-1.0, log_power=0, oscillation=lam)
    res = oscillatory_tail(spec, weighted=False)
    # one integration by parts: boundary + derivative terms
    assert abs(res.value) <= (1.0 / (2.0 * math.pi * lam)) * 2.0 / 1e6


def test_pure_oscillatory_against_quadrature():
    # sum over sawtooth Fourier modes is not needed here: direct panel check
    from .oracles import GL64_NODES, GL64_WEIGHTS

    nu, b, x = 0.5, -1.5, 1.0
    vals, errs = pure_osc_tail_powers(nu, b, 0, x)
    pts = np.linspace(x, 2000.0, 4000)
    lo, hi = pts[:-1], pts[1:]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    u = mid[:, None] + half[:, None] * GL64_NODES[None, :]
    f = np.exp(2j * np.pi * nu * u) * np.exp(b * np.log(u))
    oracle = complex(np.sum(half * (f @ GL64_WEIGHTS)))
    # oracle truncation ~ g(2000)/(2 pi nu)
    assert abs(vals[0] - oracle) <= errs[0] + 2000.0**b / (2 * math.pi * nu) + 1e-12


def test_weighted_oscillatory_against_quadrature():
    for nu, alpha, b, r in [(0.3, 0.7, -2.0, 0), (0.5, 1.0, -2.0, 1), (0.77, 0.25, -1.8, 2)]:
        vals, errs = psi_osc_tail_powers(nu, alpha, b, r, 1.0)
        oracle, oscale = quad_psi_osc_tail(nu, alpha, b, r, 1.0)
        assert abs(vals[r] - oracle) <= errs[r] + oscale + 1e-10


def test_weighted_tail_at_reflected_frequencies():
    # the slowly-decaying alpha-shifted case at lam and 1 - lam, each checked
    # against direct quadrature (the bare tail is not conjugate-symmetric;
    # the assembled Lerch values are, which test_evaluate covers)
    for lam in (0.3, 0.7):
        vals, errs = psi_osc_tail_powers(lam, 1.0, -1.0, 1, 1.0)
        oracle, oscale = quad_psi_osc_tail(lam, 1.0, -1.0, 1, 1.0, u_cut=8000.0)
        assert abs(vals[1] - oracle) <= errs[1] + oscale + 1e-9


def test_oscillatory_rejects_lambda_zero_divergent():
    spec = TailIntegralSpec(lower=1.0, shift=1.0, exponent=-0.5, log_power=0, oscillation=0.0)
    with pytest.raises(ValueError):
        oscillatory_tail(spec, weighted=False)


def test_eval_result_validates_bound():
    with pytest.raises(ValueError):
        EvalResult(1.0 + 0j, -1.0)
    with pytest.raises(ValueError):
        EvalResult(1.0 + 0j, math.inf)


def test_tail_integral_spec_validation():
    with pytest.raises(ValueError):
        TailIntegralSpec(lower=-1.0, shift=0.5, exponent=-2.0, log_power=0)
    with pytest.raises(ValueError):
        TailIntegralSpec(lower=1.0, shift=1.5, exponent=-2.0, log_power=0)
    with pytest.raises(ValueError):
        TailIntegralSpec(lower=1.0, shift=0.5, exponent=-2.0, log_power=0, oscillation=1.0)
    # log powers share the derivative-order cap of every other route
    TailIntegralSpec(lower=1.0, shift=0.5, exponent=-2.0, log_power=MAX_ORDER)
    with pytest.raises(ValueError):
        TailIntegralSpec(lower=1.0, shift=0.5, exponent=-2.0, log_power=MAX_ORDER + 1)
    with pytest.raises(ValueError):
        TailIntegralSpec(lower=1.0, shift=0.5, exponent=-2.0, log_power=-1)


def test_psi_fourier_shift_cache_stays_bounded():
    # every alpha adds fresh float keys: 300 calls ask for more entries than the bound
    for i in range(300):
        lerch_deriv(LerchArgs(lam=0.3, alpha=0.1 + i / 400, s=complex(1.5, 0.0), order=1))
    info = _psi_fourier_shift_sum.cache_info()
    assert info.maxsize == 4096
    assert info.misses > info.maxsize and info.currsize <= info.maxsize


def test_osc_remainder_cache_stays_bounded():
    # every lambda adds a fresh float key: 200 calls ask for more entries than the bound
    first = lerch_deriv(LerchArgs(lam=0.05, alpha=0.7, s=complex(1.5, 0.0), order=1))
    for i in range(200):
        lerch_deriv(LerchArgs(lam=0.05 + (i + 1) / 250, alpha=0.7, s=complex(1.5, 0.0), order=1))
    info = _osc_remainder_const.cache_info()
    assert info.maxsize == 128
    assert info.misses > info.maxsize and info.currsize <= info.maxsize
    # the evicted entry is recomputed to the same value
    again = lerch_deriv(LerchArgs(lam=0.05, alpha=0.7, s=complex(1.5, 0.0), order=1))
    assert again == first
