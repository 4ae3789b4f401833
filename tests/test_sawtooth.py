import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetalab.sawtooth as sawtooth
from zetalab.evaluate import HurwitzArgs, LerchArgs, hurwitz_deriv, lerch_deriv
from zetalab.sawtooth import (
    _K_TAIL,
    EvalResult,
    _osc_remainder_const,
    _psi_fourier_shift_sums,
    power_log_tails,
    psi,
    psi2,
    psi_osc_tail_powers,
    psi_tail_powers,
    psi_tail_powers_batch,
    pure_osc_tail_powers,
)

from .oracles import euler_gamma_limit, periodic_bernoulli, psi_piecewise_integral, psi_tail_oracle, quad_psi_osc_tail, quad_psi_tail


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
    vals, _ = psi_tail_powers(1.0, 1.0, -2.0, 0)
    gamma = euler_gamma_limit()
    assert abs(vals[0] - (0.5 - gamma)) < 1e-9


def test_tail_smallness_far_out():
    vals, _ = psi_tail_powers(100.0, 0.5, -2.0, 0)
    assert abs(vals[0]) <= 1.0 / (6.0 * 100.0**2)


def test_tail_cutoff_independence():
    # the tail from 1.3 against the march to 260 plus the tail from 260
    vals1, errs1 = psi_tail_powers(1.3, 0.4, -1.7, 3)
    vals2, errs2 = psi_tail_powers(260.0, 0.4, -1.7, 3)
    for r in range(4):
        part = psi_piecewise_integral(1.3, 260.0, alpha=0.4, exponent=-1.7, log_power=r)
        assert abs(vals1[r] - (part + vals2[r])) <= errs1[r] + errs2[r] + 1e-15


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


@pytest.mark.parametrize("b", [-1.0, complex(-1.0, 1e-9), -2.0, complex(-2.0, 1e-9)])
def test_tail_next_to_a_zero_antiderivative_exponent_holds_against_mpmath(monkeypatch, b):
    # g' = u^b log^m u and G' = g have the exponents c = b + 1 and c + 1: 0 at
    # s = 0 and s = 1 (the log form), next to 0 beside them (its Taylor series
    # in b); the intervals to the cutoff U against mpmath on each piece of psi,
    # plus the far tail from U, which both share
    from .oracles import psi_march_oracle

    walked = []
    interval = sawtooth._psi_interval
    monkeypatch.setattr(sawtooth, "_psi_interval", lambda sums, lo, hi, *rest: walked.append((lo, hi)) or interval(sums, lo, hi, *rest))
    for r in (0, 3, 8):
        for x in (0.5, 4.0, 200.0):
            walked.clear()
            vals, errs = psi_tail_powers(x, 0.3, b, r)
            U = walked[-1][1] if walked else x
            far, ferrs = psi_tail_powers(U, 0.3, b, r)
            want = complex(psi_march_oracle(x, U, 0.3, complex(b), r, dps=20)) + far[r] if U > x else far[r]
            assert abs(vals[r] - want) <= errs[r] + ferrs[r], (r, x)
            # next to the zero the bound stays the zero's (the recursion's 1/c would blow it up)
            assert errs[r] <= 1.1 * psi_tail_powers(x, 0.3, complex(b).real, r)[1][r], (r, x)


@pytest.mark.parametrize("alpha, b", [(0.3, complex(-1.5, -300.0)), (0.25, complex(-1.5, -300.0)), (0.7, complex(-2.5, 40.0)), (0.6, -3.0)])
def test_tail_from_its_first_cutoff_and_beyond_holds_against_the_hurwitz_identity(alpha, b):
    # from x at or past the first cutoff u0 no interval is integrated: the
    # bound is the remainder and the far tail's rounding, led by that of
    # v = u0 - alpha (x - alpha is exact at alpha = 0.25) and the phase of
    # u0^{b-k}; booked without it, the error at 50 u0 was up to 3e25 times the bound
    rmax = 2
    u0 = sawtooth._first_cutoff(complex(b), rmax)
    for x in (u0, 1.5 * u0, 4.0 * u0, 50.0 * u0):
        vals, errs = psi_tail_powers(x, alpha, b, rmax)
        for m in range(rmax + 1):
            err = abs(mp.mpc(vals[m]) - psi_tail_oracle(x, alpha, b, m))
            assert err <= errs[m], (x, m, float(err), errs[m])


@pytest.mark.parametrize("c", [-1.5, -14.5, -40.0])
def test_power_log_tails_bound_the_integrals_within_their_booked_rounding(c):
    # the recurrence's values are rounded up past their rounding: never below
    # the exact integral Gamma(j + 1, lam log u)/lam^{j+1} (mpmath, 40 digits),
    # above it by at most twice the booked eps (3 lam log u + 4 j + 6), and
    # as close to the closed form summed one term at a time (oracles)
    from .oracles import power_log_tail_abs

    lam, eps = -(c + 1.0), sawtooth._EPS
    for u in (1.5, 8.0, 64.0, 1e6):
        got = power_log_tails(c, 24, u)
        assert len(got) == 25
        with mp.workdps(40):
            ll = mp.log(mp.mpf(u))
            for j, value in enumerate(got):
                exact = mp.gammainc(j + 1, lam * ll) / mp.mpf(lam) ** (j + 1)
                booked = eps * (3.0 * lam * math.log(u) + 4.0 * j + 6.0)
                assert exact <= value <= exact * (1 + 2 * booked), (u, j)
                assert abs(value - power_log_tail_abs(c, j, u)) <= 2 * booked * value, (u, j)


def test_tail_requires_decaying_exponent():
    # the tail subcommand asks for Re(exponent) <= -1 without oscillation (test_cli)
    with pytest.raises(ValueError, match="Re\\(exponent\\) < 0"):
        psi_tail_powers(1.0, 1.0, complex(0.0, 3.0), 0)
    with pytest.raises(ValueError, match="exponent < -1"):
        power_log_tails(-1.0, 0, 2.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: psi_tail_powers(1.0, 0.5, -2, 30), r"order must lie in 0\.\.24"),
        (lambda: psi_osc_tail_powers(0.5, 0.5, -2, 30, 1.0), r"order must lie in 0\.\.24"),
        (lambda: psi_tail_powers(1.0, 0.5, -2, -1), r"order must lie in 0\.\.24"),
        (lambda: psi_tail_powers_batch(1.0, [0.5], -2, -1), r"order must lie in 0\.\.24"),
        (lambda: pure_osc_tail_powers(0.5, -2, -1, 1.0), r"order must lie in 0\.\.24"),
        (lambda: psi_tail_powers(0.0, 0.5, -2, 0), "lower limit must be positive"),
        (lambda: pure_osc_tail_powers(0.5, -2, 0, -1.0), "lower limit must be positive"),
        (lambda: psi_osc_tail_powers(0.5, 3.0, -2, 0, 1.0), r"shift must lie in \(0, 1\]"),
        (lambda: psi_tail_powers_batch(1.0, [0.5, 0.0], -2, 0), r"shift must lie in \(0, 1\]"),
        (lambda: pure_osc_tail_powers(0.0, -2, 0, 1.0), "oscillation frequency must be nonzero"),
        (lambda: psi_osc_tail_powers(1.0, 0.5, -2, 0, 1.0), r"oscillation in \(0, 1\)"),
    ],
)
def test_tail_entry_points_refuse_their_arguments_before_any_work(monkeypatch, call, message):
    # one ValueError from the tail's own checks, before any work is charged
    charged = []
    monkeypatch.setattr(sawtooth, "_check_work", lambda **pieces: charged.append(pieces))
    with pytest.raises(ValueError, match=message):
        call()
    assert charged == []


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------


def test_pure_oscillatory_far_tail_bound():
    # the Fresnel-type tail int_x^inf e^{2 pi i lam (u - 1)} u^{-1} du at x = 1e6
    lam = 0.5
    vals, _ = pure_osc_tail_powers(lam, -1.0, 0, 1e6)
    value = cmath.exp(-2j * math.pi * lam) * vals[0]
    # one integration by parts: boundary + derivative terms
    assert abs(value) <= (1.0 / (2.0 * math.pi * lam)) * 2.0 / 1e6


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


def test_pure_tail_with_shared_panel_ends_is_within_its_bound():
    # nodes mid + half x left gaps of about eps u between panels: this tail was
    # off by 1.5e-10 at m = 8 against a booked 8.5e-11.  The reference is
    # d^m/ds^m (-i w)^{-s} Gamma(s, -i w x) at s = 0, w = 2 pi nu, in 40 digits
    nu, x = 7 / 16, 1.393642
    vals, errs = pure_osc_tail_powers(nu, -1.0, 8, x)
    with mp.workdps(40):
        z = -2j * mp.pi * mp.mpf(7) / 16
        for m in range(9):
            want = mp.diff(lambda s: z ** (-s) * mp.gammainc(s, z * mp.mpf(x)), 0, m)
            assert abs(mp.mpc(vals[m]) - want) <= errs[m], m


def test_a_panel_that_turns_by_the_whole_budget_is_within_its_bound():
    # one panel over which 2 pi nu u - 300 log u turns by exactly THETA (it spans
    # less than the factor 1.6): the 16-node rule is held to its booked
    # quadrature and rounding against mpmath.quad
    nu, b, lo = 0.5, complex(-1.5, -300.0), 20.0
    turn = lambda u: (2.0 * math.pi * nu * (u - lo) + 300.0 * math.log(u / lo)) / sawtooth._THETA
    a, hi = lo, 2.0 * lo
    while (mid := 0.5 * (a + hi)) not in (a, hi):
        a, hi = (mid, hi) if turn(mid) < 1.0 else (a, mid)
    assert hi < 1.6 * lo
    vals, errs = [0j] * 4, [0.0] * 4
    sawtooth._gl_panels(vals, errs, [lo, hi], nu, b, 3)
    with mp.workdps(40):
        for m in range(4):
            want = mp.quad(lambda u: mp.expjpi(2 * mp.mpf(nu) * u) * u ** mp.mpc(b.real, b.imag) * mp.log(u) ** m, [lo, hi])
            assert abs(mp.mpc(vals[m]) - want) <= errs[m], m


def _limit_panel(nu, c, lo, alpha=None):
    """The panel from lo at the walk's limits: its right end, bisected to the
    float, turns 2 pi nu u + c log u by _THETA or spans the factor 1.6,
    whichever comes first; with alpha, cut at the next kink of psi(u - alpha)."""
    turn = lambda u: (2.0 * math.pi * abs(nu) * (u - lo) + abs(c) * math.log(u / lo)) / sawtooth._THETA
    a, hi = lo, 1.6 * lo
    if turn(hi) > 1.0:
        while (mid := 0.5 * (a + hi)) not in (a, hi):
            a, hi = (mid, hi) if turn(mid) < 1.0 else (a, mid)
    return hi if alpha is None else min(hi, math.floor(lo - alpha) + 1.0 + alpha)


def _panel_integrand(nu, b, alpha, m, k):
    """The panel's integrand in mpmath; with alpha, psi(u - alpha) as its line u - k - alpha - 1/2."""
    bb, nn = mp.mpc(b.real, b.imag), mp.mpf(nu)
    if alpha is None:
        return lambda u: mp.expjpi(2 * nn * u) * u**bb * mp.log(u) ** m
    return lambda u: (u - k - alpha - 0.5) * mp.expjpi(2 * nn * (u - alpha)) * u**bb * mp.log(u) ** m


# (nu, b, lo, alpha): panels that turn by the whole budget, that span the factor
# 1.6, from a = 1 to 1e4 and Im b to +-1200, pure and sawtooth-weighted
LIMIT_PANELS = [
    (0.5, complex(-1.5, -300.0), 20.0, None),
    (0.01, complex(-0.5, 2.0), 1.0, None),
    (0.3, complex(-1.5, 1200.0), 1e4, None),
    (0.3, complex(-0.5, -1200.0), 1.0, None),
    (0.05, complex(-2.5, 0.0), 300.0, None),
    (0.3, complex(-0.5, 1200.0), 1.7, 0.7),
    (0.01, complex(-1.5, 1.0), 1.7, 0.7),
    (0.9, complex(-1.5, -1200.0), 1e4 + 0.25, 0.25),
    (0.5, complex(-1.0, 40.0), 3.0, 1.0),
]


@pytest.mark.parametrize("nu, b, lo, alpha", LIMIT_PANELS)
def test_a_panel_at_the_walks_limits_is_within_its_bound(nu, b, lo, alpha):
    # value and booked bound, r <= 8, against a 40-digit mpmath.quad
    hi, rmax = _limit_panel(nu, b.imag, lo, alpha), 8
    vals, errs = [0j] * (rmax + 1), [0.0] * (rmax + 1)
    sawtooth._gl_panels(vals, errs, [lo, hi], nu, b, rmax, alpha)
    k = None if alpha is None else math.floor(0.5 * (lo + hi) - alpha)
    with mp.workdps(40):
        for m in range(rmax + 1):
            want = mp.quad(_panel_integrand(nu, b, alpha, m, k), [lo, hi])
            assert abs(mp.mpc(vals[m].real, vals[m].imag) - want) <= errs[m], m


@pytest.mark.parametrize("nu, b, lo, alpha", LIMIT_PANELS)
def test_the_booked_quadrature_covers_sixteen_against_sixty_four_nodes(monkeypatch, nu, b, lo, alpha):
    # with eps at 0 a panel books its Bernstein term alone: at least the
    # distance of the 16-node rule from the 64-node one, both in 40 digits
    hi, rmax = _limit_panel(nu, b.imag, lo, alpha), 8
    monkeypatch.setattr(sawtooth, "_EPS", 0.0)
    vals, quad = [0j] * (rmax + 1), [0.0] * (rmax + 1)
    sawtooth._gl_panels(vals, quad, [lo, hi], nu, b, rmax, alpha)
    k = None if alpha is None else math.floor(0.5 * (lo + hi) - alpha)
    with mp.workdps(40):
        half = (mp.mpf(hi) - lo) / 2
        rules = [mp.gauss_quadrature(n, "legendre") for n in (16, 64)]
        for m in range(rmax + 1):
            f = _panel_integrand(nu, b, alpha, m, k)
            g16, g64 = (half * mp.fsum(w * f(lo + half * (1 + x)) for x, w in zip(*rule)) for rule in rules)
            assert 0.0 < abs(g16 - g64) <= quad[m], m


def test_the_booked_quadrature_is_the_theorems_term_for_sixteen_nodes():
    # ATAP Thm 19.3: the (n + 1)-point Gauss rule errs by at most (64/15) M
    # rho^{-2n}/(rho^2 - 1) on [-1, 1]; 16 nodes are n = 15, so rho^{-30}
    assert sawtooth._GL_NODES.size == 16 and sawtooth._RHO == 5.0
    assert sawtooth._GL_QUAD == pytest.approx(64.0 / 15.0 * 5.0**-30 / 24.0, rel=1e-15)


def test_a_panel_near_zero_books_a_finite_bound():
    # on the panel [1e-300, 1.6e-300] the product (c - A)(c + A) of the ellipse's
    # ends underflowed to 0, so that its argument bound read inf and, at a real b,
    # the bound 0 inf = nan: `tail --x 1e-300 ... --lambda 5e-324` was refused
    for b in (complex(-1.0, 0.0), complex(-0.5, 3.0)):
        vals, errs = [0j] * 2, [0.0] * 2
        sawtooth._gl_panels(vals, errs, [1e-300, 1.6e-300], 0.5, b, 1)
        assert all(math.isfinite(e) for e in errs), b


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


def test_eval_result_validates_bound():
    with pytest.raises(ValueError):
        EvalResult(1.0 + 0j, -1.0)
    with pytest.raises(ValueError):
        EvalResult(1.0 + 0j, math.inf)


def test_psi_fourier_shift_cache_stays_bounded():
    # one entry of K = 16 sums per oscillation nu: 300 shifts alpha at one
    # lambda (each was a fresh cutoff, and so a fresh key) add one entry, and
    # every lambda a fresh float key, 200 of them more than the bound
    _psi_fourier_shift_sums.cache_clear()
    for i in range(300):
        lerch_deriv(LerchArgs(lam=0.3, alpha=0.1 + i / 400, s=complex(1.5, 0.0), order=1))
    assert _psi_fourier_shift_sums.cache_info().currsize == 1
    for i in range(200):
        lerch_deriv(LerchArgs(lam=0.05 + (i + 1) / 250, alpha=0.7, s=complex(1.5, 0.0), order=1))
    info = _psi_fourier_shift_sums.cache_info()
    assert info.maxsize == 128
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


# ---------------------------------------------------------------------------
# the vectorised plain-tail kernel against the scalar march it replaced
# ---------------------------------------------------------------------------
#
# The scalar functions below are the march as it ran before the kernel
# worked on rows x segments arrays of plain complex numbers; the kernel must
# agree with them within the rounding it books.


def ref_psi_breaks(lo: float, hi: float, alpha: float) -> list[float]:
    """Breakpoints where psi(u - alpha) has kinks, one at a time: the floats
    m + alpha with lo < m + alpha < hi (a kink whose float is an end is that
    end; rounding is monotone, so these are the kinks of (lo, hi))."""
    pts = [lo]
    m = math.floor(lo - alpha) - 1  # the rounded lo - alpha is off by at most one
    while m + alpha < hi:
        if m + alpha > lo:
            pts.append(m + alpha)
        m += 1
    pts.append(hi)
    return pts


def ref_moments_exp(z: complex, imax: int) -> list[complex]:
    az = abs(z)
    if az <= 2.0:
        out = []
        for i in range(imax + 1):
            c = 1.0 + 0.0j
            s = c / (i + 1)
            k = 1
            while True:
                c *= z / k
                s += c / (i + k + 1)
                if abs(c) < 1e-19 * (i + k + 1):
                    break
                k += 1
                if k > 80:
                    break
            out.append(s)
        return out
    ez = cmath.exp(z)
    if az >= imax:
        out = [(ez - 1.0) / z]
        for i in range(1, imax + 1):
            out.append((ez - i * out[i - 1]) / z)
        return out
    start = imax + int(az) + 60
    m = 0.0 + 0.0j
    out = [0.0 + 0.0j] * (imax + 1)
    for i in range(start, 0, -1):
        m = (ez - z * m) / i
        if i - 1 <= imax:
            out[i - 1] = m
    return out


def ref_power_log_segments(beta: complex, rmax: int, t1: float, t2: float) -> list[complex]:
    delta = t2 - t1
    if beta == 0:
        t1p = [1.0]
        t2p = [1.0]
        for _ in range(rmax):
            t1p.append(t1p[-1] * t1)
            t2p.append(t2p[-1] * t2)
        out = []
        for r in range(rmax + 1):
            acc = 0.0
            for k in range(r + 1):
                acc += t2p[k] * t1p[r - k]
            out.append(complex(delta * acc / (r + 1)))
        return out
    mom = ref_moments_exp(beta * delta, rmax)
    pref = cmath.exp(beta * t1)
    t1p = [1.0]
    dp = [delta]
    for _ in range(rmax):
        t1p.append(t1p[-1] * t1)
        dp.append(dp[-1] * delta)
    dm = [dp[i] * mom[i] for i in range(rmax + 1)]
    out = []
    for r in range(rmax + 1):
        acc = 0.0 + 0.0j
        for i in range(r + 1):
            acc += math.comb(r, i) * t1p[r - i] * dm[i]
        out.append(pref * acc)
    return out


def ref_march_exact(vals, lo, hi, alpha, b, rmax, mags=None) -> None:
    pts = ref_psi_breaks(lo, hi, alpha)
    for u1, u2 in zip(pts, pts[1:]):
        mseg = math.floor(0.5 * (u1 + u2) - alpha)
        c = alpha + mseg + 0.5
        t1, t2 = math.log(u1), math.log(u2)
        j_hi = ref_power_log_segments(b + 2.0, rmax, t1, t2)
        j_lo = ref_power_log_segments(b + 1.0, rmax, t1, t2)
        for m in range(rmax + 1):
            vals[m] += j_hi[m] - c * j_lo[m]
            if mags is not None:
                mags[m] += abs(j_hi[m]) + abs(c) * abs(j_lo[m])


def ref_deriv_table(b: complex, rmax: int, kmax: int) -> list[list[complex]]:
    """Rows k = 0..kmax of d[k, j], j = 0..rmax, one scalar product and sum at
    a time: d[k + 1, j] = (b - k) d[k, j] + d[k, j - 1] from d[0] = (1, 0,
    ...), so that g_r^(k)(u) = u^{b-k} sum_j r!/(r - j)! d[k, j] log^{r-j} u
    for g = u^b log^r u, every r <= rmax."""
    rows = [[1.0 + 0.0j] + [0.0 + 0.0j] * rmax]
    for k in range(kmax):
        prev = rows[-1]
        nxt = [(b - k) * prev[0]]
        for j in range(1, rmax + 1):
            nxt.append((b - k) * prev[j] + prev[j - 1])
        rows.append(nxt)
    return rows


def ref_row_sum(rows, k: int, r: int, u: float) -> complex:
    """sum_j d[k, j] r!/(r - j)! log^{r-j} u from the table rows: the terms (0
    beyond j = r, the powers of log u by a running product) added in turn
    from j = 0; times u^{b-k} it is g_r^(k)(u)."""
    ll = math.log(u)
    powers = [1.0]
    for _ in range(len(rows[k]) - 1):
        powers.append(powers[-1] * ll)
    terms = [c * (float(math.perm(r, j)) * powers[r - j] if j <= r else 0.0) for j, c in enumerate(rows[k])]
    acc = terms[0]
    for t in terms[1:]:
        acc += t
    return acc


def ref_far_tail(rows, b, u0, coeffs) -> np.ndarray:
    """sawtooth._far_tail from the scalar table: one ref_row_sum per (k, r) and
    one exponential u0^{b-k} per k, each coefficient times its exponential
    times the sums, the terms of each row of coefficients added in k order."""
    c = np.asarray(coeffs).T[:, :, None]  # (k, row, 1)
    s = np.array([[ref_row_sum(rows, k, r, u0) for r in range(len(rows[0]))] for k in range(c.shape[0])])[:, None, :]
    e = np.array([cmath.exp((b - k) * math.log(u0)) for k in range(c.shape[0])])[:, None, None]
    terms = c * e * s
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def ref_far_remainders(rows, b, u0, scale) -> list[float]:
    """sawtooth._far_remainders from the scalar table: scale sum_i r!/i! |d[K,
    r - i]| int_u0^inf u^{Re b - K} log^i u du, the terms added from i = 0."""
    K, size = len(rows) - 1, len(rows[0])
    ints = power_log_tails(b.real - K, size - 1, u0)
    out = []
    for r in range(size):
        terms = [(float(math.perm(r, r - i)) * abs(rows[K][r - i]) if i <= r else 0.0) * ints[i] for i in range(size)]
        acc = terms[0]
        for t in terms[1:]:
            acc += t
        out.append(scale * acc)
    return out


def ref_tail_coefficient(m: int, v: float) -> float:
    """(-1)^{m-1} B_m({v})/m!, one order at one point, in y = {v} - 1/2 from
    B_m(1/2 + y)/m! = sum_k C(m, k) B_k(1/2) y^{m-k}/m!, B_k(1/2) = (2^{1-k}
    - 1) B_k (mpmath's exact Bernoulli numbers), whose terms are all even or
    all odd in y: the terms in z = y^2, the powers of z by a running product,
    the 8 terms z^0..z^7 (0 above degree m) added in turn, times y for odd m."""
    y = v - math.floor(v) - 0.5
    powers = [1.0]
    for _ in range(7):
        powers.append(powers[-1] * (y * y))
    coeff = [0.0] * 8  # by power of z
    for k in range(0, m + 1, 2):  # B_k(1/2) = 0 for odd k
        p, q = mp.bernfrac(k)
        coeff[(m - k) // 2] = float((-1) ** (m - 1) * math.comb(m, k) * (Fraction(2) ** (1 - k) - 1) * Fraction(int(p), int(q)) / math.factorial(m))
    acc = coeff[0] * powers[0]
    for i in range(1, 8):
        acc += coeff[i] * powers[i]
    return acc * y if m % 2 else acc


def ref_psi_tail_powers(x, alpha, b, rmax):
    return ref_psi_tail_search(x, alpha, b, rmax)[:2]


def ref_psi_tail_search(x, alpha, b, rmax, march=True):
    """The plain tail as its own doubling loop ran it: (values, bounds, the
    cutoff u0 where it stopped, the remainders there, whether they met the
    tolerance, whether u0 > 5e6 stopped it); without march, each cutoff's far
    tail alone, as the search for the final cutoff (_tail_cutoff) tests it."""
    b = complex(b)
    kt = _K_TAIL
    u0 = max(x, 2.0 * (abs(b) + rmax + kt), 8.0)
    vals = [0.0 + 0.0j] * (rmax + 1)
    mags = [0.0] * (rmax + 1)
    cur = x
    rows = ref_deriv_table(b, rmax, kt - 1)
    while True:
        if march:
            ref_march_exact(vals, cur, u0, alpha, b, rmax, mags)
        cur = u0
        v = u0 - alpha if u0 < 2.0**52 else -alpha  # from 2^52 on u0 is an integer
        coeffs = [ref_tail_coefficient(k + 2, v) for k in range(kt - 1)]
        tails = ref_far_tail(rows, b, u0, [coeffs])[0].tolist()
        rems = ref_far_remainders(rows, b, u0, 2.5 / (2.0 * math.pi) ** kt)  # |B_m({v})/m!| <= 2.5/(2 pi)^m
        tol_abs, tol_rel = sawtooth._TOL_ABS, sawtooth._TOL_REL
        ok = all(rem <= max(tol_abs, tol_rel * abs(vals[r] + tails[r])) for r, rem in enumerate(rems))
        if ok or u0 > 5e6:
            return (
                [vals[r] + tails[r] for r in range(rmax + 1)],
                [rems[r] + 5e-16 * mags[r] for r in range(rmax + 1)],
                u0,
                rems,
                ok,
                u0 > 5e6,
            )
        u0 *= 2.0


def _interval_sums(lo, hi, alphas, b, rmax):
    """(values, rounding) of one interval integral of the rows alphas from lo to hi."""
    sums = [np.zeros((rmax + 1, len(alphas)), dtype=complex), np.zeros((rmax + 1, len(alphas)))]
    sawtooth._psi_interval(sums, lo, hi, np.array(alphas, dtype=float), complex(b), rmax)
    return sums


def _ref_interval_rows(lo, hi, alphas, b, rmax):
    """One scalar march per row over (lo, hi): values and the rounding stand-in
    5e-16 sum |pieces| of ref_psi_tail_powers, as (rmax + 1, rows) arrays."""
    vals, bounds = [], []
    for alpha in alphas:
        v, mags = [0.0 + 0.0j] * (rmax + 1), [0.0] * (rmax + 1)
        ref_march_exact(v, lo, hi, alpha, complex(b), rmax, mags)
        vals.append(v)
        bounds.append([5e-16 * m for m in mags])
    return np.array(vals).T, np.array(bounds).T


def _assert_within_bounds(got, want):
    """Each (values, bounds) row of got holds the values of want within the sum of both bounds."""
    for (vals, bounds), (ref, rbounds) in zip(got, want, strict=True):
        assert all(abs(v - w) <= e + f for v, w, e, f in zip(vals, ref, bounds, rbounds, strict=True))


def _segments(beta: complex, rmax: int, u1, u2):
    """int_{u1}^{u2} u^{beta - 1} log^r u du, r = 0..rmax, as the difference of
    two _power_log_lower antiderivatives, and its bound: theirs and the difference."""
    (lo, elo), (hi, ehi) = (sawtooth._power_log_lower(beta - 1.0, rmax, np.asarray(u)) for u in (u1, u2))
    return hi - lo, ehi + elo + sawtooth._EPS * np.abs(hi - lo)


def ref_power_log_lower(c: complex, rmax: int, u: float) -> list[complex]:
    """The antiderivative int u^c log^m u du, m = 0..rmax, one order at a time:
    u^{c+1} log^m u/(c + 1) - m I_{m-1}/(c + 1), log^{m+1} u/(m + 1) at c = -1."""
    ld = math.log(u)
    if c == -1:
        return [complex(ld ** (m + 1) / (m + 1)) for m in range(rmax + 1)]
    dc = cmath.exp((c + 1.0) * ld)
    vals = [dc / (c + 1.0)]
    for m in range(1, rmax + 1):
        vals.append(dc * ld**m / (c + 1.0) - m / (c + 1.0) * vals[-1])
    return vals


@pytest.mark.parametrize("beta", [0j, complex(-1.0), complex(1.0), complex(-0.7, 3.0), complex(0.4, -250.0)])
def test_power_log_segments_match_the_scalar_antiderivatives(beta):
    # segments of u = e^t from t below 0 to 8, with u1 = 1 and zero-width segments,
    # at beta and beta -+ 1 (0 at beta = +-1: the log form), against the scalar recursion
    rng = np.random.default_rng(11)
    u1 = np.exp(np.concatenate([[0.0, 0.0], rng.uniform(-0.7, 8.0, 60)]))
    u2 = u1 * np.exp(np.concatenate([[0.0, 0.3], rng.uniform(0.0, 0.5, 60)]))
    for rmax in (0, 2, 8):
        for b in (beta, beta + 1.0, beta - 1.0):
            got, err = _segments(b, rmax, u1, u2)
            ends = [np.array([ref_power_log_lower(b - 1.0, rmax, u) for u in us.tolist()]).T for us in (u1, u2)]
            assert np.all(np.abs(got - (ends[1] - ends[0])) <= err)


@pytest.mark.parametrize(
    "x, b, rmax, q, kw",
    [
        (1.0, -2.0, 8, 1, {}),  # Stieltjes: u^0 segments take the closed power branch
        (1.0, -1.0, 5, 1, {}),
        (4.0, -2.0, 3, 7, {}),  # one residue pass at s = 1
        (4.0, -1.0, 2, 12, {}),  # at s = 0: unit and non-unit classes alike
        (0.5, complex(-1.3, 7.0), 4, 7, {}),
        (2.5, complex(-1.6, 40.0), 8, 5, {}),  # all three moment branches
        (1.0, complex(-1.5, 1500.0), 1, 1, {}),  # one row longer than a block
        (3.0, complex(-1.2, -60.0), 2, 101, {}),  # rows x segments over many blocks
        (1.3, complex(-1.7, 115.0), 0, 3, {}),  # a first cutoff of 258 from a large Im b
        (0.5, -1.0, 2, 7, {"_TOL_ABS": 0.0, "_TOL_REL": 1e-17}),  # one row doubles its cutoff
        (0.5, complex(-1.3, 7.0), 2, 7, {"_TOL_ABS": 0.0, "_TOL_REL": 1e-18}),  # three rows double
        (0.5, -2.0, 2, 7, {"_TOL_ABS": 0.0, "_TOL_REL": 1e-20}),  # six of seven double
        (1e17, -1.5, 2, 4, {}),  # from 2^52: no walk, the far tail at {-alpha}
    ],
)
def test_batched_tail_matches_the_scalar_march_bit_for_bit(monkeypatch, x, b, rmax, q, kw):
    # within its bounds of the scalar march; bit for bit its one-row result,
    # which psi_tail_powers gives with the rounding of its far tail added
    for name, value in kw.items():
        monkeypatch.setattr(sawtooth, name, value)
    alphas = [a / q for a in range(1, q + 1)]
    vals, errs, _ = psi_tail_powers_batch(x, alphas, b, rmax)
    got = list(zip(vals.T.tolist(), errs.T.tolist()))
    _assert_within_bounds(got, [ref_psi_tail_powers(x, alpha, b, rmax) for alpha in alphas])
    vals, errs, (u0,) = psi_tail_powers_batch(x, alphas[-1:], b, rmax)
    vals, errs = vals[:, 0].tolist(), errs[:, 0].tolist()
    assert repr((vals, errs)) == repr(got[-1])
    far = sawtooth._far_tail_rounding(complex(b), rmax, u0, alphas[-1]).tolist()
    assert repr(psi_tail_powers(x, alphas[-1], b, rmax)) == repr((vals, [e + f for e, f in zip(errs, far)]))


def test_batch_rows_have_unequal_segment_counts():
    # alpha shifts the kinks: within one batch the rows march over different counts
    count = [sawtooth._kinks(0.5, 36.0, a / 7)[1] for a in range(1, 8)]
    assert len(set(count)) > 1
    assert count == [len(ref_psi_breaks(0.5, 36.0, a / 7)) - 1 for a in range(1, 8)]
    # the kink 2.3 lies 1e-12 above lo: it is a break point, as every kink of
    # (lo, hi) is, however close to an end
    lo, hi, alpha = 2.2999999999989997, 5.0, 0.3
    kinks = [m for m in range(7) if lo < m + alpha < hi]
    assert sawtooth._kinks(lo, hi, alpha) == (float(kinks[0]), len(kinks) + 1) == (2.0, 4)
    # a kink whose float is an end is that end, one a few ulps inside is a kink
    for m, alpha in ((2, 0.3), (3, 0.7), (5, 1.0)):
        kink = m + alpha
        assert sawtooth._kinks(kink, kink + 2.5, alpha) == (m + 1.0, 3)
        assert sawtooth._kinks(kink - 2.5, kink, alpha) == (m - 2.0, 3)
        below, above = math.nextafter(kink, 0.0), math.nextafter(kink, 9.0)
        assert sawtooth._kinks(below, kink + 0.5, alpha) == (float(m), 2)
        assert sawtooth._kinks(kink - 0.5, above, alpha) == (float(m), 2)


def test_random_marches_match_the_scalar_march():
    rng = np.random.default_rng(23)
    for _ in range(40):
        lo = float(rng.uniform(0.05, 30.0))
        hi = lo + float(rng.uniform(0.0, 60.0))
        alpha = float(rng.uniform(1e-6, 1.0))
        b = complex(rng.uniform(-3.0, -0.5), rng.choice([0.0, rng.uniform(-300.0, 300.0)]))
        rmax = int(rng.integers(0, 9))
        vals, bounds = _ref_interval_rows(lo, hi, [alpha], b, rmax)
        sums = _interval_sums(lo, hi, [alpha], b, rmax)
        assert np.all(np.abs(sums[0] - vals) <= sums[1] + bounds)


def test_piecewise_integral_matches_the_scalar_march():
    cases = [(1e-8, 1.0, 1.0, 0.0, 0), (1.7, 9.2, 1.0, -1.5, 2), (0.3, 2500.0, 0.25, complex(-0.5, 3.0), 1)]
    for lo, hi, alpha, b, m in cases:
        vals, bounds = _ref_interval_rows(lo, hi, [alpha], b, m)
        got, sums = psi_piecewise_integral(lo, hi, alpha=alpha, exponent=b, log_power=m), _interval_sums(lo, hi, [alpha], b, m)
        assert got == sums[0][m, 0] and abs(got - vals[m, 0]) <= sums[1][m, 0] + bounds[m, 0]


# the kinks of an interval are summed in blocks of at most _SUM_BLOCK terms:
# intervals with one block less one kink, one block and one more, at two block sizes
BLOCK_EDGES = [(b, n) for b, block in ((complex(-1.3, 5.0), 1024), (-1.0, 2048)) for n in (1, block - 1, block, block + 1)]


@pytest.mark.parametrize("b, segments", BLOCK_EDGES)
def test_blocks_sized_to_the_walk_match_the_scalar_march(monkeypatch, b, segments):
    # alpha = 1: the kinks 1, 2, ..., segments in (0.5, segments + 0.5)
    monkeypatch.setattr(sawtooth, "_SUM_BLOCK", 1024 if b != -1.0 else 2048)
    lo, hi, rmax = 0.5, segments + 0.5, 2
    sums = _interval_sums(lo, hi, [1.0], b, rmax)
    vals, bounds = _ref_interval_rows(lo, hi, [1.0], b, rmax)
    assert np.all(np.abs(sums[0] - vals) <= sums[1] + bounds)


def _segments_in_every_branch(beta: complex) -> tuple[np.ndarray, np.ndarray]:
    """Segments (u1, u2), u = e^t, from t = -0.7 to log 2^51, from a fraction
    of the scale 1/|beta| of e^{beta t} to forty of it, and the widths log(1 +
    1/u) of a unit step at u."""
    t1 = np.array([-0.7, 0.0, 0.1, 3.0, 12.0, 51.0 * math.log(2.0)])
    reach = np.array([0.5, 1.9, 2.1, 5.0, 7.9, 8.1, 40.0]) / max(abs(beta), 1.0)
    starts = np.concatenate([np.repeat(t1, reach.size), t1])
    widths = np.concatenate([np.tile(reach, t1.size), np.log1p(np.exp(-t1))])
    return np.exp(starts), np.exp(starts + widths)


@pytest.mark.parametrize("beta", [0j, complex(-0.5, -2000.0), complex(0.5, 1000.0), complex(-1.0, 40.0), complex(0.3, 7.0), complex(-2.5, 0.0), complex(1.0, 0.0)])
def test_power_log_segments_are_within_their_rounding_of_mpmath(beta):
    # the segment integrals of u^{beta - 1} log^r u from the antiderivative
    # recursion, and their booked rounding, against 50-digit antiderivatives
    from .oracles import power_log_segment_oracle

    rmax = 8
    u1, u2 = _segments_in_every_branch(beta)
    got, bound = _segments(beta, rmax, u1, u2)
    for j, (a, b) in enumerate(zip(u1.tolist(), u2.tolist())):
        for r in range(rmax + 1):
            want = complex(power_log_segment_oracle(beta, r, a, b))
            assert abs(got[r, j] - want) <= bound[r, j], (r, a, b)


@pytest.mark.parametrize("lo, hi", [(3.7 - 5e-13, 12.0), (3.7 + 5e-13, 12.0), (3.2, 11.7 + 5e-13), (3.2, 11.7 - 5e-13), (3.0 + 0.7, 11.0 + 0.7)])
def test_march_next_to_a_kink_is_within_its_bound(lo, hi):
    # kinks within 5e-13 of lo or hi, and ends on a kink to within the rounding
    # of u - alpha, against mpmath on the exact pieces
    from .oracles import psi_march_oracle

    b, rmax = complex(-1.5, 3.0), 1
    sums = _interval_sums(lo, hi, [0.7], b, rmax)
    for m in range(rmax + 1):
        assert abs(sums[0][m, 0] - complex(psi_march_oracle(lo, hi, 0.7, b, m))) <= sums[1][m, 0]


def ref_walk_breaks(lo: float, hi: float, nu: float, c: float) -> list[float]:
    """The break points lo, ... below hi of one interval of the walk, one panel
    at a time: the level sets F(u) = F(lo) + k of F(u) = (2 pi |nu| u + |c|
    log u)/THETA + log u/log 1.6, each bisected to the float, while
    F(hi) - F(lo) > k."""

    def length(u):
        w = math.log1p((u - lo) / lo)
        return (2.0 * math.pi * abs(nu) * (u - lo) + abs(c) * w) / sawtooth._THETA + w / math.log1p(0.6)

    pts, k = [lo], 1
    while k < length(hi):
        a, b = pts[-1], hi
        while (mid := 0.5 * (a + b)) not in (a, b):
            a, b = (mid, b) if length(mid) < k else (a, mid)
        pts.append(b)
        k += 1
    return pts


def test_panel_break_points_match_the_one_panel_loop():
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(40):
        nu = float(10.0 ** rng.uniform(-2.0, 2.5))
        c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 3.5))
        x = float(rng.uniform(0.02, 60.0))
        cases.append(([x, x + float(rng.uniform(0.0, 400.0 / nu))], nu, c))
    # nu = 0, an empty walk, and the kinks of a sawtooth-weighted walk
    cases += [([0.04, 30.0], 0.0, -200.0), ([3.0, 3.0], 0.7, 10.0), (ref_psi_breaks(0.3, 40.0, 0.7), 0.3, -300.0)]
    for ends, nu, c in cases:
        got = sawtooth._walk(ends, nu, c, sawtooth._panel_counts(ends, nu, c))
        want = np.array([p for lo, hi in zip(ends, ends[1:]) if hi > lo for p in ref_walk_breaks(lo, hi, nu, c)] + [ends[-1]])
        assert got.size == want.size and got[0] == want[0] and got[-1] == want[-1]
        assert np.all(np.abs(got - want) <= 1e-13 * want), (ends[:2], nu, c)
        # no panel turns the phase by more than THETA or spans more than a factor 1.6
        assert np.all(sawtooth._walk_length(got[:-1], got[1:], nu, c) <= 1.0 + 1e-9)


def test_panel_walk_that_stops_moving_is_refused():
    # beyond 2^56 panels of about 7.6 round onto the float spacing of 16: the
    # points would coincide and the panels between them turn by 50 radians
    ends = [1e17, 1e17 + 1e6]
    with pytest.raises(ValueError, match="no longer change"):
        sawtooth._walk(ends, 0.5, 0.0, sawtooth._panel_counts(ends, 0.5, 0.0))


def test_walks_reaching_two_to_the_52_are_refused():
    # from 2^52 the kinks m + alpha round onto integers and two of one alpha
    # can coincide: these returned tight but meaningless bounds (1.8e-20 and 4.7e-16)
    with pytest.raises(ValueError, match="2\\^52"):
        psi_tail_powers(1e17, 0.5, complex(-1.5, 5e16 + 5e5 - 14), 0)
    with pytest.raises(ValueError, match="2\\^52"):
        psi_osc_tail_powers(0.5, 0.5, complex(-1.5, (1e17 + 1e6) * math.pi * 0.5 - 22.0), 0, 1e17)
    # walks that end inside [2^52, 2^53), where m + 1 is still a distinct float
    x = 2.0**52 + 2.0
    with pytest.raises(ValueError, match="2\\^52"):
        psi_osc_tail_powers(0.5, 0.5, complex(-1.5, (x + 1e6) * math.pi * 0.5 - 22.0), 0, x)
    for lo, hi in ((2.0**52 + 2.0, 2.0**52 + 6.0), (2.0**53 - 4.0, 2.0**53 - 2.0), (2.0**52 - 2.0, 2.0**52)):
        with pytest.raises(ValueError, match="2\\^52"):
            psi_piecewise_integral(lo, hi)
    # a walk that ends below 2^52 still runs; a sawtooth-weighted tail that
    # walks nothing from 1e300 is refused too (it answered 0j with a bound of 0)
    assert cmath.isfinite(psi_piecewise_integral(2.0**52 - 4.0, 2.0**52 - 2.0))
    with pytest.raises(ValueError, match="2\\^52"):
        psi_osc_tail_powers(0.5, 0.5, -1.5, 0, 1e300)


def test_weighted_tail_from_two_to_the_52_is_refused():
    # from 2^52 alpha is lost in x0 - alpha and the phase 2 pi nu x0 is off by
    # order 1: at 1e17 every alpha printed (1.698e-27+2.717e-27j), at 1e300 0j
    for x in (1e17, 2.0**52, 1e300):
        for alpha in (0.25, 0.75):
            with pytest.raises(ValueError, match="2\\^52"):
                psi_osc_tail_powers(0.5, alpha, -1.5, 0, x)
    # below 2^52 the tail still answers, and moves with alpha
    x = 2.0**52 - 2.0**20
    got = [psi_osc_tail_powers(0.5, alpha, -1.5, 0, x)[0][0] for alpha in (0.25, 0.75)]
    assert all(cmath.isfinite(v) for v in got) and got[0] != got[1]


def test_tail_from_two_to_the_52_is_expanded_at_minus_alpha():
    # from 2^52 u0 = x is an integer, so psi~_k(u0 - alpha) = psi~_k(-alpha);
    # expanded at u0 - alpha, alpha was lost and every alpha gave -2.635e-27
    for alpha in (0.25, 0.5, 0.75, 1.0):
        vals, errs = psi_tail_powers(1e17, alpha, -1.5, 0)
        want = -psi2(-alpha) * 10.0**-25.5  # the leading term -psi2(x - alpha) x^{-3/2}
        assert abs(vals[0] - want) <= 1e-12 * abs(want)
        assert errs[0] <= 1e-12 * abs(want)


def test_march_memory_does_not_grow_with_its_length():
    # s = 0.5 + 2e5 i from the split x = 1 marches about 4e5 segments of one row
    # (the default split, at the tail's cutoff, marches none)
    args = HurwitzArgs(s=complex(0.5, 2e5), alpha=0.3, split=1.0)
    tracemalloc.start()
    try:
        hurwitz_deriv(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_work_budget_refuses_before_any_work(monkeypatch):
    marched = []
    monkeypatch.setattr(sawtooth, "_psi_interval", lambda *args: marched.append(args))
    # 1000 rows x (u0 - x) = 1000 x 2300 segments
    with pytest.raises(ValueError, match="work budget"):
        psi_tail_powers_batch(1.0, [a / 1000 for a in range(1, 1001)], complex(-1.5, 1130.0), 2)
    with pytest.raises(ValueError, match="work budget"):
        psi_tail_powers(1.0, 0.5, complex(-1.5, 1e7), 0)
    with pytest.raises(ValueError, match="work budget"):
        psi_piecewise_integral(1.0, 3e6)
    assert not marched
    # oscillatory walks: their panel counts, and the kinks of a weighted walk before they are listed
    with pytest.raises(ValueError, match="work budget"):
        pure_osc_tail_powers(0.5, complex(-0.5, 5e6), 0, 1.0)
    with pytest.raises(ValueError, match="work budget"):
        psi_osc_tail_powers(0.5, 0.3, complex(-1.5, 4e6), 0, 1.0)
    # the budget sits far above what the default routes walk
    assert psi_tail_powers(1.0, 0.5, complex(-1.5, 1e4), 0)[1][0] < 1e-9


# ---------------------------------------------------------------------------
# the batched Gauss-Legendre panels against the one-panel-at-a-time loop
# ---------------------------------------------------------------------------
#
# ref_gl_panels and ref_psi_fourier_shift_sum are the panel integrator, one
# panel at a time, and the shifted Fourier sums as they ran before the K sums
# shared one row of Bernoulli values; the kernels, whose panels run as
# (block x 16) arrays, must give the same bits.


def ref_gl_panels(vals, errs, pts, nu, b, rmax, alpha=None) -> None:
    eps, pi_nu, rho = sawtooth._EPS, math.pi * nu, sawtooth._RHO
    shift = 0.0 if alpha is None else pi_nu * alpha
    for u1, u2 in zip(pts, pts[1:]):
        half = np.array([0.5 * (u2 - u1)])  # the panel's own quantities as 1-element arrays: numpy's loops, as the kernel's
        mid = u1 + half
        u = u1 + half * (1.0 + sawtooth._GL_NODES)
        logs = np.log(u)
        amp = np.exp(b.real * logs)
        A, B = (0.5 * (rho + 1.0 / rho)) * half, (0.5 * (rho - 1.0 / rho)) * half
        near, far = np.fmax(mid - A, 0.0), mid + A
        beta = B / np.sqrt(near) / np.sqrt(far)
        lmax = np.fmax(np.abs(np.log(near)), np.abs(np.log(far))) + beta
        quad = (sawtooth._GL_QUAD * half) * np.exp(2.0 * math.pi * abs(nu) * B + abs(b.imag) * beta) * np.power(near, b.real)
        wt = amp
        if alpha is not None:
            k = np.floor(mid - alpha)
            wt, quad = amp * (u - k - alpha - 0.5), quad * (np.abs(mid - k - alpha - 0.5) + A)
        mag = np.abs(wt)
        book = mag * (eps * (12.0 * abs(pi_nu) * u + 3.0 * (abs(b.real) + abs(b.imag)) * (np.abs(logs) + 1.0) + 51.0))
        if alpha is not None:
            book = book + eps * (4.0 * u + 2.0) * amp
        t = np.tan(pi_nu * u + (0.5 * b.imag) * logs - shift)
        g = wt / (1.0 + t * t)
        base = g * (1.0 - t * t) + 1j * (g * (2.0 * t))
        lp, lq, alp = np.ones_like(u), 1.0, None
        for m in range(rmax + 1):
            vals[m] += complex(half[0] * np.dot(sawtooth._GL_WEIGHTS, base * lp))
            prev, alp = alp, np.abs(lp)
            e = book * alp + eps * m * mag * (2.0 * alp + 3.0 * prev) if m else book
            errs[m] += float(half[0] * np.dot(sawtooth._GL_WEIGHTS, e) + (quad * lq)[0] + eps * np.abs(vals[m]))
            lp, lq = lp * logs, lq * lmax


def ref_shift_columns(K: int, nu: float) -> int:
    """The column count of the shifted sums, one column j at a time: j + 1 at
    the first j > 4 where every row's bound C(k + j - 1, j) 2.6 (nu/2)^j
    2^{-(k+1)} (1 - nu)^k, k = 1..K, is below 1e-18."""
    binom, half, j = [1.0] * K, 2.6, 0
    while not (j > 4 and all(c * half * (0.5 ** (k + 1) * (1.0 - nu) ** k) < 1e-18 for k, c in zip(range(1, K + 1), binom))):
        j += 1
        half *= 0.5 * nu
        binom = [c * ((k + j - 1) / j) for k, c in zip(range(1, K + 1), binom)]
    return j + 1


def ref_phi_shifted(m: int) -> float:
    """-sum_{|n|>=2} (-1)^n/(i n)^m at one order, 0 at odd m: up to m = 14,
    (2 pi)^m B_m(1/2)/m! - 2 cos(pi m/2), else its terms 2 (-1)^{n+1} cos(pi
    m/2)/n^m, n = 2, 3, ... while n^{-m} >= 1e-20 and n <= 64, added to 0 in
    turn; cos(pi m/2) exact, 1 or -1 by m mod 4."""
    if m % 2:
        return 0.0
    c = 2.0 * (1.0 if m % 4 == 0 else -1.0)
    if m <= 14:
        return ref_tail_coefficient(m, 0.5) * ((-1.0) ** (m - 1) * sawtooth.TWO_PI**m) - c
    acc, n = 0.0, 2
    while n <= 64 and (n == 2 or n ** (-m) >= 1e-20):
        acc += c * (-1.0) ** (n + 1) / float(n**m)
        n += 1
    return acc


def ref_psi_fourier_shift_sum(k: int, nu: float, K: int) -> complex:
    """Psi_k(1/2, nu) one term at a time: the j-series of the terms |n| >= 2
    to the column count of K rows, added to 0 in turn, and the terms n = +-1
    by k products each."""
    acc, binom, zj = 0j, 1.0, 1.0 + 0.0j
    for j in range(ref_shift_columns(K, nu)):
        if j:
            binom *= (k + j - 1) / j
            zj *= -1j * nu
        acc += binom * zj * ref_phi_shifted(k + 1 + j)
    c0 = 1.0 / (2j * math.pi)
    plus, minus = -c0, -c0  # e^{+-2 pi i/2} = -1
    for _ in range(k):
        plus *= c0 / (1.0 + nu)
        minus *= c0 / (nu - 1.0)
    return cmath.exp(1j * math.pi * nu) * (plus - minus - sawtooth.TWO_PI ** (-(k + 1)) * acc)


def _panel_walk(x: float, panels: int, nu: float, alpha: float | None, rng) -> list[float]:
    """Break points of a walk of the given length; with alpha, inside the kinks."""
    if alpha is not None:
        return ref_psi_breaks(x, math.floor(x) + panels + 0.5, alpha)[: panels + 1]
    steps = rng.uniform(0.05, 0.45 / nu, panels)
    return [x] + (x + np.cumsum(steps)).tolist()


@pytest.mark.parametrize("panels", [1, 7, sawtooth._PANEL_BLOCK, sawtooth._PANEL_BLOCK + 1, 3 * sawtooth._PANEL_BLOCK + 40])
@pytest.mark.parametrize("weighted", [False, True])
def test_panels_match_the_one_panel_loop_bit_for_bit(panels, weighted):
    rng = np.random.default_rng(panels + 7 * weighted)
    for rmax in range(9):
        nu = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(1e-6, 1.0)) if weighted else None
        b = complex(rng.uniform(-2.5, -0.2), rng.uniform(-1200.0, 1200.0))
        pts = _panel_walk(float(rng.uniform(0.3, 40.0)), panels, nu, alpha, rng)
        assert len(pts) == panels + 1
        start = [complex(rng.normal(), rng.normal()) for _ in range(rmax + 1)]
        got, want = list(start), list(start)
        start_m = [float(v) for v in rng.uniform(0.0, 1.0, rmax + 1)]
        got_m, want_m = list(start_m), list(start_m)
        sawtooth._gl_panels(got, got_m, pts, nu, b, rmax, alpha)
        ref_gl_panels(want, want_m, pts, nu, b, rmax, alpha)
        assert repr(got) == repr(want)
        assert repr(got_m) == repr(want_m)


def test_shift_sums_match_the_per_k_sums_bit_for_bit():
    # at rate nu/2 up to the float below 1 (the old cap of 4000 terms at rate
    # nu refused nu above about 0.965, and nu above 31/32 was refused until
    # the sums were taken at v = 1/2 alone)
    K = sawtooth._K_OSC
    for nu in (0.05, 0.3, 0.5, 0.9, 31 / 32, 255 / 256, 0.999, math.nextafter(1.0, 0.0)):
        got = sawtooth._psi_fourier_shift_sums(K, nu)
        want = tuple(ref_psi_fourier_shift_sum(k, nu, K) for k in range(1, K + 1))
        assert repr(got) == repr(want)
    for nu in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"need nu in \(0, 1\)"):
            sawtooth._psi_fourier_shift_sums(K, nu)


@pytest.mark.parametrize("nu", [1 / 16, 1 / 2, 15 / 16, 255 / 256])
def test_shift_sums_hold_against_mpmath(nu):
    # Psi_k(N + 1/2, nu) = e^{2 pi i nu N} Psi_k(1/2, nu), k = 1..16, within
    # 1e-13 of its modulus of a 40-digit sum by Hurwitz zeta values at v = N +
    # 1/2 (oracles.shift_sum_oracle), the phase from _phase's exact
    # reduction: e^{2 pi i nu v} taken at the rounded v erred by about 7e-11
    # at N = 10^5
    from .oracles import shift_sum_oracle

    K = sawtooth._K_OSC
    for n in (0, 12, 10**3, 10**5):
        phase = complex(sawtooth._phase(nu, n))
        got = [phase * p for p in sawtooth._psi_fourier_shift_sums(K, nu)]
        want = shift_sum_oracle(K, Fraction(2 * n + 1, 2), nu)
        for k in range(1, K + 1):
            assert abs(got[k - 1] - complex(want[k - 1])) <= 1e-13 * abs(want[k - 1]), (n, k)


def test_phase_is_the_kernels_phase_bit_for_bit():
    # the one reduction of every Lerch phase, at k up to the 1.6e7 terms of
    # the work budget: as an array and one k at a time, bit for bit the
    # phase of the finite-sum kernel's reference (ref_progression_sum)
    rng = np.random.default_rng(40)
    k = np.concatenate([np.arange(0.0, 40.0), rng.integers(0, 16_000_001, 200).astype(float), [2.0**24 - 1.0, 1.6e7]])
    for lam in [p / 16 for p in range(1, 16)] + [0.3, 1e-6, 255 / 256, math.nextafter(1.0, 0.0)] + rng.uniform(0.0, 1.0, 5).tolist():
        lam_hi = math.floor(lam * 2.0**26) / 2.0**26
        want = np.exp(2j * np.pi * (lam_hi * k % 1.0 + (lam - lam_hi) * k))
        got = sawtooth._phase(lam, k)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), lam
        assert [complex(sawtooth._phase(lam, int(j))) for j in k[::10]] == got[::10].tolist(), lam


def test_shift_columns_match_the_scan_of_every_column():
    # the count from one array of columns must be the column-by-column scan's,
    # and at rate nu/2 it stays below 110 up to the float below 1
    for nu in [p / 16 for p in range(1, 16)] + [1e-3, 0.5, 0.9, 0.95, 0.96, 0.999, 31 / 32, 255 / 256, math.nextafter(1.0, 0.0)]:
        n = sawtooth._shift_table(sawtooth._K_OSC, nu)[0]
        assert n == ref_shift_columns(sawtooth._K_OSC, nu) and n < 110, nu


@pytest.mark.parametrize("K", [13, 16])
def test_far_tails_match_the_scalar_rows_bit_for_bit(K):
    # the table of every order at once, its far tails and remainders as arrays:
    # the table itself (the signs of its zeros too), the values and remainders
    # are those of the scalar loops, for real b (of either zero sign) and complex b,
    # for real coefficients (the plain tail's) and complex ones
    rng = np.random.default_rng(K)
    for case in range(40):
        rmax = [0, 1, 4, 8, 24][case // 2 % 5]
        if case % 4 < 2:  # a real b with a zero of either sign in turn: equal by ==, a table each
            b = complex(-0.5 - case // 4, [0.0, -0.0][case % 2])
        else:
            b = complex(rng.uniform(-30.0, -0.05), rng.uniform(-1000.0, 1000.0))
        u0 = float(np.exp(rng.uniform(math.log(8.0), math.log(5e7))))
        rows = ref_deriv_table(b, rmax, K)
        table = sawtooth._deriv_table(b, rmax, K, math.copysign(1.0, b.imag))
        assert np.array_equal(np.ascontiguousarray(table[0]).view(np.uint64), np.array(rows).view(np.uint64)), (b, rmax)
        coeffs = rng.normal(size=(3, K)) + 1j * rng.normal(size=(3, K))
        for c in (coeffs, coeffs.real + 0j, coeffs.real):
            got = sawtooth._far_tail(table, b, u0, c)
            assert np.array_equal(got.view(np.uint64), ref_far_tail(rows, b, u0, c).view(np.uint64)), (b, rmax, u0)
        scale = float(rng.uniform(1e-12, 1.0))
        assert repr(sawtooth._far_remainders(table, b, u0, scale)) == repr(ref_far_remainders(rows, b, u0, scale))


@pytest.mark.parametrize("b", [complex(-2.0), complex(-1.5, -30.0), complex(-0.5, 1e4)])
def test_far_tail_and_its_table_hold_against_exact_derivatives(b):
    # the table to k = 16 within the 5 k eps M[k, j] that _far_tail_rounding books
    # for it (M the recursion of the moduli), against the product
    # (x + b)...(x + b - k + 1) in 60-digit mpmath; the plain far tail at the
    # first cutoff and twice it within _far_tail_rounding, against sum_k c_k
    # g_r^(k)(u0) from the exact B_m({u0 - alpha})/m! and the coefficients'
    # own recursion c[k + 1, i] = (b - k) c[k, i] + (i + 1) c[k, i + 1]
    from .oracles import far_tail_oracle

    eps, K = sawtooth._EPS, 16
    table = sawtooth._deriv_table(b, 24, K, math.copysign(1.0, b.imag))[0]
    with mp.workdps(60):
        poly, moduli = [mp.mpc(1)], np.eye(1, 25)[0]
        for k in range(K + 1):
            exact = [complex(c) for c in poly] + [0j] * (25 - len(poly))
            assert np.all(np.abs(table[k] - exact) <= 5 * k * eps * moduli), k
            poly = [(mp.mpc(b) - k) * (poly[j] if j < len(poly) else 0) + (poly[j - 1] if j else 0) for j in range(len(poly) + 1)]
            moduli = abs(b - k) * moduli + np.concatenate([[0.0], moduli[:-1]])
    for rmax in (0, 8, 24):
        first = sawtooth._first_cutoff(b, rmax)
        for u0, alpha in ((first, 0.3), (2.0 * first, 1.0)):
            cut = sawtooth._deriv_table(b, rmax, sawtooth._K_TAIL - 1, math.copysign(1.0, b.imag))
            got = sawtooth._far_tail(cut, b, u0, sawtooth._bernoulli_rows(np.array([u0 - alpha])).T)[0]
            bound = sawtooth._far_tail_rounding(b, rmax, u0, alpha)
            want = far_tail_oracle(b, rmax, u0, alpha)
            for r in range(rmax + 1):
                assert abs(got[r] - complex(want[r])) <= bound[r], (rmax, u0, r)


def test_plain_tail_charges_each_interval_before_it_is_integrated(monkeypatch):
    # two rows from x = 1 at b = -1.0001 + 50i, r = 24 double their first cutoff
    # 176 twice: each interval, 1 -> 176 -> 352 -> 704, is charged for the rows
    # still open just before it is integrated (only the first one was)
    events, check, interval = [], sawtooth._check_work, sawtooth._psi_interval
    monkeypatch.setattr(sawtooth, "_check_work", lambda **pieces: events.append(pieces) or check(**pieces))
    monkeypatch.setattr(sawtooth, "_psi_interval", lambda sums, lo, hi, alphas, *rest: events.append((lo, hi, alphas.size)) or interval(sums, lo, hi, alphas, *rest))
    psi_tail_powers_batch(1.0, [0.3, 0.7], complex(-1.0001, 50.0), 24)
    walks = [(i, e) for i, e in enumerate(events) if isinstance(e, tuple)]
    assert [round(hi) for _, (_, hi, _) in walks] == [176, 352, 704] and walks[0][1][0] == 1.0
    for i, (lo, hi, rows) in walks:
        assert events[i - 1] == {"interval": rows * (hi - lo)}


def _per_k_shift_sums(K, nu):
    return tuple(ref_psi_fourier_shift_sum(k, nu, K) for k in range(1, K + 1))


@pytest.mark.parametrize(
    "route, args",
    [
        (pure_osc_tail_powers, (0.3, complex(-0.5, -5000.0), 1, 160.0)),  # 1144 panels: many blocks
        (pure_osc_tail_powers, (0.3, complex(-1.5, -300.0), 8, 3.0)),
        (pure_osc_tail_powers, (-2.0, complex(-1.5, 40.0), 2, 1.2)),  # a negative frequency
        (pure_osc_tail_powers, (0.7, complex(-1.2, 0.0), 0, 1.0)),  # 11 panels: one short block
        (psi_osc_tail_powers, (0.3, 0.7, complex(-1.5, -1000.0), 1, 160.0)),
        (psi_osc_tail_powers, (0.3, 0.7, complex(-0.5, -300.0), 2, 3.0)),
        (psi_osc_tail_powers, (0.95, 0.25, complex(-1.5, 20.0), 5, 1.0)),  # nu near 1: long shift sums
        (psi_osc_tail_powers, (0.125, 1.0, complex(-2.0, 0.0), 8, 0.5)),
    ],
)
def test_oscillatory_routes_match_the_one_panel_loop_bit_for_bit(monkeypatch, route, args):
    got = route(*args)
    monkeypatch.setattr(sawtooth, "_gl_panels", ref_gl_panels)
    monkeypatch.setattr(sawtooth, "_psi_fourier_shift_sums", _per_k_shift_sums)
    assert repr(got) == repr(route(*args))


# ---------------------------------------------------------------------------
# the sawtooth-weighted walk takes its break points from the march's kinks
# ---------------------------------------------------------------------------


def ref_psi_osc_tail_powers(nu, alpha, b, rmax, x):
    """psi_osc_tail_powers as it ran with its own cutoff loop and its break
    points from ref_psi_breaks, each interval between them cut by its phase;
    the far tail and its remainders from the first middle n + alpha + 1/2 of
    a kink interval at or above x and the cutoff less 1 (its phase e^{2 pi i
    nu n}), to which the panels are added."""
    b = complex(b)
    K = sawtooth._K_OSC
    x0 = max(x, (abs(b) + rmax + K + 6.0) / (math.pi * (1.0 - nu)), 12.0)
    rows = ref_deriv_table(b, rmax, K)
    sk = _osc_remainder_const(nu)
    while max(ref_far_remainders(rows, b, x0, sk)) > 1e-15 and 2.0 * x0 - x < 4000.0 and x0 < 5e7:
        x0 *= 2.0
    u = max(x0 - 1.0, x)  # the middle below the cutoff where x allows
    n = math.floor(u - alpha) - 1
    while n + alpha + 0.5 < u:
        n += 1
    coeffs, phase = [(-1.0) ** k * p for k, p in enumerate(_psi_fourier_shift_sums(K, nu))], complex(sawtooth._phase(nu, n))
    vals, errs = [phase * t for t in ref_far_tail(rows, b, n + alpha + 0.5, [coeffs])[0].tolist()], ref_far_remainders(rows, b, n + alpha + 0.5, sk)
    ends = ref_psi_breaks(x, n + alpha + 0.5, alpha)
    sawtooth._gl_panels(vals, errs, sawtooth._walk(ends, nu, b.imag, sawtooth._panel_counts(ends, nu, b.imag)), nu, b, rmax, alpha)
    return vals, errs


@pytest.mark.parametrize(
    "nu, alpha, b, rmax, x",
    [
        (0.3, 0.7, complex(-1.5, 20.0), 2, 1.0),
        (0.3, 0.7, complex(-1.5, 20.0), 2, 3.7),  # x on a kink
        (0.3, 0.7, complex(-1.5, 20.0), 2, 3.7 - 5e-14),  # within 1e-13 of a kink, below
        (0.3, 0.7, complex(-1.5, 20.0), 2, 3.7 + 5e-14),  # and above
        (0.5, 0.25, complex(-1.0, -300.0), 1, 7.25 + 2e-12),  # 2e-12 above a kink
        (0.5, 1.0, -2.0, 0, 2.0),  # alpha = 1: kinks at the integers, the far tail at 14.5, the middle below the cutoff 15.28
        (0.9, 1e-9, complex(-0.5, 40.0), 4, 0.5),
        (0.125, 0.5, complex(-1.2, 2.0), 3, 4500.25),  # past the cutoff: the walk to the middle 4501 alone
        (0.125, 0.5, complex(-1.2, 2.0), 3, 4501.0),  # x0 = x, a middle: no panel
        (0.7, 0.3, complex(-1.5, 2000.0), 0, 160.0),  # a walk longer than one panel block
    ],
)
def test_weighted_walk_breaks_at_the_kinks_of_the_march(nu, alpha, b, rmax, x):
    assert repr(psi_osc_tail_powers(nu, alpha, b, rmax, x)) == repr(ref_psi_osc_tail_powers(nu, alpha, b, rmax, x))


@pytest.mark.parametrize(
    "nu, alpha, s, rmax, x",
    [
        (0.3, 0.7, complex(0.5, 300.0), 2, 3.0),  # weighted cutoffs 1178.7 and 589.3, far tails at the middles below them, 1178.2 and 589.2
        (0.875, 0.727297, complex(1.825026, 716.331486), 4, 31.605887),  # 3780.675 and 3780.692, both at 3780.227297
        (0.5, 0.25, complex(0.5, 1000.0), 1, 1.0),
        (0.125, 0.5, complex(1.2, 2.0), 3, 4500.25),  # the weighted tails walk to the middle 4501 alone
        (0.125, 0.5, complex(1.2, 2.0), 3, 4501.0),  # no panel
    ],
)
def test_the_lerch_tails_of_one_call_are_each_its_walk_alone(nu, alpha, s, rmax, x):
    # the Lerch core's three tails, charged together before any is walked: each
    # is bit for bit its route alone
    shared = sawtooth._osc_tails(nu, alpha, rmax, x, [(-s, False, None), (-s, True, None), (-s - 1.0, True, None)])
    alone = [pure_osc_tail_powers(nu, -s, rmax, x), psi_osc_tail_powers(nu, alpha, -s, rmax, x), psi_osc_tail_powers(nu, alpha, -s - 1.0, rmax, x)]
    assert repr(shared) == repr(alone)


@pytest.mark.parametrize("x", [1e10, 1e12, 123456789012.25])
def test_far_tails_from_beyond_2_27_book_their_phase(monkeypatch, x):
    # from N = 2^27 on N hi rounds, and the far tail's phase e^{2 pi i nu N}
    # errs by up to 8 pi eps nu N: each tail is held to its bound against the
    # same tail with every phase taken exactly in mpmath
    nu, alpha, b, rmax = 0.3, 0.7, complex(-1.5, 2.0), 2
    got = [pure_osc_tail_powers(nu, b, rmax, x), psi_osc_tail_powers(nu, alpha, b, rmax, x)]
    vals, errs = got[0]  # a pure tail from its cutoff walks no panel: its bound is its far tail's
    assert all(e >= 8.0 * math.pi * sawtooth._EPS * nu * math.floor(x) * abs(v) for v, e in zip(vals, errs))

    def exact(lam, k):
        with mp.workdps(40):
            return complex(mp.expjpi(2 * mp.mpf(lam) * int(k)))

    monkeypatch.setattr(sawtooth, "_phase", exact)
    want = [pure_osc_tail_powers(nu, b, rmax, x), psi_osc_tail_powers(nu, alpha, b, rmax, x)]
    for (vals, errs), (ref, _) in zip(got, want):
        for m in range(rmax + 1):
            assert abs(vals[m] - ref[m]) <= errs[m], (x, m)


def test_kink_search_ends_where_a_unit_step_leaves_the_float_unchanged():
    # beyond 2^53 first + 1 == first: the kink search used to spin forever
    # (the weighted walk at 1e300); the walk is refused from 2^52, before it
    with pytest.raises(ValueError, match="2\\^52"):
        psi_osc_tail_powers(0.5, 0.5, -1.5, 0, 1e300)


def test_bernoulli_rows_hold_against_mpmath():
    # the plain far tail's coefficients (-1)^{m-1} B_m({v})/m!, m = 2..14, from
    # one polynomial pass over all entries at once, within their booked
    # rounding (_tail_coeff_bounds, v exact here) of 40-digit B_m({v})/m!;
    # and the series without n = +-1 of the shift sums at v = 1/2, m = 2..40,
    # within the rounding of its pieces: below 15 that of the pass, scaled,
    # and of the cosine; from 15 on, each term 2 cos(2 pi n/2 - pi m/2)/n^m by
    # eps (2 pi n + 4)
    eps, two_pi = sawtooth._EPS, sawtooth.TWO_PI
    rng = np.random.default_rng(13)
    v = np.concatenate([rng.uniform(-3.0, 5000.0, 60), [0.0, -0.25, 0.5, 0.25 - 2.0**-60, 2.0**40 + 0.75]])
    rows, (_, coeff) = sawtooth._bernoulli_rows(v), sawtooth._tail_coeff_bounds()
    with mp.workdps(40):
        for j, x in enumerate(v.tolist()):
            f = mp.mpf(x) - mp.floor(x)
            for m in range(2, 15):
                want = (-1) ** (m - 1) * mp.bernpoly(m, f) / mp.factorial(m)
                assert abs(rows[m - 2, j] - want) <= coeff[m - 2] * eps, (m, x)
        f = mp.mpf(1) / 2
        for m in range(2, 41):
            got = sawtooth._phi_shifted(m)
            want = (2 * mp.pi) ** m * mp.bernpoly(m, f) / mp.factorial(m) + 2 * mp.cos(2 * mp.pi * f - mp.pi * m / 2)
            if m < 15:
                bound = (coeff[m - 2] * two_pi**m + 2.0 * (two_pi + 4.0)) * eps
            else:
                bound = sum(2.0 * (two_pi * n + 4.0) * n ** -float(m) for n in range(2, 65)) * eps + 2e-20
            assert abs(got - want) <= bound, m


@pytest.mark.parametrize("b, rmax, q", [(complex(-1.5, -1000.0), 1, 1), (complex(-1.5, -10.0), 24, 1), (-2.0, 1, 12), (complex(-1.05, 300.0), 8, 7)])
def test_batch_from_its_final_cutoff_marches_nothing(monkeypatch, b, rmax, q):
    walked = []
    interval = sawtooth._psi_interval
    monkeypatch.setattr(sawtooth, "_psi_interval", lambda sums, lo, hi, *rest: walked.append((lo, hi)) or interval(sums, lo, hi, *rest))
    alphas = [a / q for a in range(1, q + 1)]
    u, vals, errs = sawtooth._tail_cutoff(alphas, b, rmax)
    first = sawtooth._first_cutoff(complex(b), rmax)
    assert u / first == 2.0 ** round(math.log2(u / first))  # one of the batch's own cutoffs
    got_vals, got_errs, _ = psi_tail_powers_batch(u, alphas, b, rmax)
    got = list(zip(got_vals.T.tolist(), got_errs.T.tolist()))
    assert walked and all(lo == hi for lo, hi in walked)
    want = [ref_psi_tail_powers(u, alpha, b, rmax) for alpha in alphas]
    _assert_within_bounds(got, want)
    assert [bounds for _, bounds in got] == [bounds for _, bounds in want]  # nothing marched, no rounding booked
    at_cutoff = list(zip(vals.T.tolist(), errs.T.tolist()))
    assert repr(at_cutoff) == repr(got)  # the search hands over the batch's result, bit for bit


# ---------------------------------------------------------------------------
# one cutoff driver: every stop reason against the doubling loops it replaced
# ---------------------------------------------------------------------------


def ref_osc_remainder_const(K, nu):
    """_osc_remainder_const as it ran with its order K and its cap of n = 200000:
    (S_K(nu) with its tail bound, the n where the series stopped)."""
    two_pi, acc, n = 2.0 * math.pi, 0.0, 1
    while n <= 200000:
        t = 1.0 / ((two_pi * n) * (two_pi * (n + nu)) ** K) + 1.0 / ((two_pi * n) * (two_pi * abs(n - nu)) ** K)
        acc += t
        if t < 1e-19 * acc:
            break
        n += 1
    return acc + 2.0 / (two_pi ** (K + 1) * K * max(n - 1, 1) ** K), n


def ref_osc_search(nu, b, rmax, x, weighted, final):
    """_osc_cutoff as its own doubling loop ran it: (x0, its remainders,
    whether they met the tolerance, whether a cap stopped the search)."""
    b, K = complex(b), sawtooth._K_OSC
    reach = abs(b) + rmax + K + 6.0
    if weighted:
        x0, scale, cap = max(x, reach / (math.pi * (1.0 - nu)), 12.0), ref_osc_remainder_const(K, nu)[0], 4000.0
    else:
        x0, scale, cap = max(x, reach / (math.pi * abs(nu)), 8.0), (2.0 * math.pi * abs(nu)) ** -K, 4000.0 * max(0.45 / abs(nu), 0.5)
    cap, rel = (math.inf, sawtooth._TOL_REL) if final else (cap, 0.0)
    rows = ref_deriv_table(b, rmax, K)
    while True:
        rems = ref_far_remainders(rows, b, x0, scale)
        met = all(rem <= max(sawtooth._TOL_ABS, rel * x0**b.real * math.log(x0) ** m) for m, rem in enumerate(rems))
        capped = not (2.0 * x0 - x < cap and x0 < 5e7)
        if met or capped:
            return x0, rems, met, capped
        x0 *= 2.0


@pytest.fixture
def driven(monkeypatch):
    """Every cutoff the one driver yields, (u, table, remainders, capped), in order."""
    seen, cutoffs = [], sawtooth._cutoffs

    def recording(*args):
        for cutoff in cutoffs(*args):
            seen.append(cutoff)
            yield cutoff

    monkeypatch.setattr(sawtooth, "_cutoffs", recording)
    return seen


def test_osc_remainder_constant_stops_by_n_14_and_matches_its_capped_loop():
    # the cap of n = 200000 never bound: at K = 16 every nu in (0, 1) stops by n = 14
    for nu in [*np.linspace(0.0, 1.0, 2001)[1:-1].tolist(), 5e-324, 1e-300, math.nextafter(1.0, 0.0)]:
        want, n = ref_osc_remainder_const(sawtooth._K_OSC, nu)
        assert n <= 14 and _osc_remainder_const(nu) == want, nu


@pytest.mark.parametrize(
    "nu, b, rmax, x, weighted, final, steps, capped",
    [
        (0.5, complex(-0.5, -1e4), 0, 1.0, True, False, 1, True),  # the weighted walk's cap of 4000 at x0 = 6380
        (0.9, complex(-0.5, -300.0), 0, 1.0, True, False, 2, True),  # doubles, then the walk's cap
        (0.05, -0.5, 8, 1.0, True, False, 2, False),  # doubles to the tolerance
        (0.05, complex(-0.5, -1e4), 0, 1.0, False, False, 1, True),  # the pure walk's cap of 4000 * 9
        (0.05, -0.5, 0, 1.0, False, False, 2, False),
        (0.5, complex(-0.5, -1e8), 0, 1e8 / (2.0 * math.pi), False, True, 1, True),  # the final cutoff's 5e7 at x0 = 6.4e7
        (0.05, -1.5, 2, 1.0, False, True, 2, False),
        (0.05, complex(-0.5, -20.0), 0, 1.0, True, True, 2, False),
    ],
)
def test_oscillatory_search_stops_where_its_own_loop_did(driven, nu, b, rmax, x, weighted, final, steps, capped):
    _, x0, rems = sawtooth._osc_cutoff(nu, b, rmax, x, weighted, final)
    want_x0, want_rems, met, want_capped = ref_osc_search(nu, b, rmax, x, weighted, final)
    assert (x0, rems, driven[-1][0], driven[-1][3]) == (want_x0, want_rems, want_x0, want_capped)
    assert (len(driven), want_capped, met) == (steps, capped, not capped)


def test_a_capped_search_books_its_unmet_remainder():
    # the weighted walk from x = 1 at t = 1e4 stops at its cap, its remainder far above the tolerance
    _, x0, rems = sawtooth._osc_cutoff(0.5, complex(-0.5, -1e4), 0, 1.0, True)
    assert x0 == pytest.approx(6380.2, rel=1e-4) and rems[0] == pytest.approx(1.2e-5, rel=0.01)
    assert psi_osc_tail_powers(0.5, 0.7, complex(-0.5, -1e4), 0, 1.0)[1][0] >= rems[0]
    # the final pure cutoff at t = 1e8 starts past 5e7
    _, x0, rems = sawtooth._osc_cutoff(0.5, complex(-0.5, -1e8), 0, 1e8 / (2.0 * math.pi), False, True)
    assert x0 == pytest.approx(6.3662e7, rel=1e-4) and rems[0] == pytest.approx(7.9e-3, rel=0.01)


@pytest.mark.parametrize(
    "b, rmax, alpha, steps, met, capped",
    [
        (complex(-1.5, -3e6), 0, 0.3, 1, True, True),  # the first cutoff 6.0e6: the tolerance and the 5e6 cap stop it
        (complex(-1.5, -300.0), 4, 0.3, 2, True, False),  # a default split that doubles
        (complex(-1.5, -1000.0), 4, 1.0, 2, True, False),
    ],
)
def test_final_plain_search_stops_where_its_own_loop_did(driven, b, rmax, alpha, steps, met, capped):
    u, vals, errs = sawtooth._tail_cutoff([alpha], b, rmax)
    want_vals, want_errs, want_u, rems, want_met, want_capped = ref_psi_tail_search(0.0, alpha, b, rmax, march=False)
    assert (u, driven[-1][0], driven[-1][2], driven[-1][3]) == (want_u, want_u, rems, want_capped)
    assert (len(driven), want_met, want_capped) == (steps, met, capped)
    _assert_within_bounds(list(zip(vals.T.tolist(), errs.T.tolist())), [(want_vals, want_errs)])


def test_explicit_split_rows_stop_where_their_own_loops_did(driven):
    b, rmax, alphas = complex(-1.5, -200.0), 4, [1 / 3, 2 / 3, 1.0]
    x = 0.9 * sawtooth._first_cutoff(b, rmax)
    *_, cutoffs = psi_tail_powers_batch(x, alphas, b, rmax)
    at = {u: (rems, capped) for u, _, rems, capped in driven}
    assert sorted(set(cutoffs.tolist())) == sorted(at)  # the rows stop at two cutoffs
    assert len(at) == 2
    for alpha, u0 in zip(alphas, cutoffs.tolist(), strict=True):
        _, _, want_u, rems, met, capped = ref_psi_tail_search(x, alpha, b, rmax)
        assert (u0, *at[u0], met) == (want_u, rems, capped, True)


def test_explicit_split_past_the_plain_cap_stops_at_once(driven):
    b, rmax = complex(-1.5, -10.0), 1
    _, _, (u0,) = psi_tail_powers_batch(6e6, [0.3], b, rmax)
    _, _, want_u, rems, _, capped = ref_psi_tail_search(6e6, 0.3, b, rmax)
    assert (u0, len(driven), driven[0][2], driven[0][3]) == (want_u, 1, rems, capped) and capped
