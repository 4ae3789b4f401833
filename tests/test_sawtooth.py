import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetalab.sawtooth as sawtooth
from zetalab.evaluate import HurwitzArgs, LerchArgs, hurwitz_deriv, lerch_deriv
from zetalab.sawtooth import (
    _K_TAIL,
    _PSI_TILDE_ABS,
    EvalResult,
    _deriv_rows,
    _far_remainders,
    _osc_remainder_const,
    _psi_fourier_shift_sums,
    _row_eval,
    psi,
    psi2,
    psi_osc_tail_powers,
    psi_tail_powers,
    psi_tail_powers_batch,
    pure_osc_tail_powers,
    segment_osc_power_log,
)

from .oracles import euler_gamma_limit, periodic_bernoulli, psi_piecewise_integral, quad_psi_osc_tail, quad_psi_tail


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


def test_tail_requires_decaying_exponent():
    # the tail subcommand asks for Re(exponent) <= -1 without oscillation (test_cli)
    with pytest.raises(ValueError, match="Re\\(exponent\\) < 0"):
        psi_tail_powers(1.0, 1.0, complex(0.0, 3.0), 0)


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
    # every alpha adds a fresh float key: 300 calls ask for more entries than the bound;
    # an entry holds the K = 16 sums of one cutoff, so 256 entries hold 4096 sums
    for i in range(300):
        lerch_deriv(LerchArgs(lam=0.3, alpha=0.1 + i / 400, s=complex(1.5, 0.0), order=1))
    info = _psi_fourier_shift_sums.cache_info()
    assert info.maxsize == 256
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
# worked on rows x segments arrays; the kernel must give the same bits.


def ref_psi_breaks(lo: float, hi: float, alpha: float) -> list[float]:
    """Breakpoints lo < m + alpha < hi where psi(u - alpha) has kinks, one at a time."""
    pts = [lo]
    m = math.floor(lo - alpha + 1e-12) + 1
    v = m + alpha
    while v < hi - 1e-12:
        if v > lo + 1e-12:
            pts.append(v)
        m += 1
        v = m + alpha
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


def ref_psi_tail_powers(x, alpha, b, rmax):
    b = complex(b)
    kt = _K_TAIL
    u0 = max(x, 2.0 * (abs(b) + rmax + kt), 8.0)
    vals = [0.0 + 0.0j] * (rmax + 1)
    mags = [0.0] * (rmax + 1)
    cur = x
    rows_all = [_deriv_rows(b, r, kt - 1) for r in range(rmax + 1)]
    while True:
        ref_march_exact(vals, cur, u0, alpha, b, rmax, mags)
        cur = u0
        v = u0 - alpha if u0 < 2.0**52 else -alpha  # from 2^52 on u0 is an integer
        coeffs = [(-1.0) ** (k + 1) * periodic_bernoulli(k + 2, v) for k in range(kt - 1)]
        tails = []
        for rows in rows_all:
            acc = 0.0 + 0.0j
            for k, c in enumerate(coeffs):
                acc += c * _row_eval(rows[k], b - k, u0)
            tails.append(acc)
        rems = _far_remainders(rows_all, b, u0, _PSI_TILDE_ABS[kt])
        tol_abs, tol_rel = sawtooth._TOL_ABS, sawtooth._TOL_REL
        ok = all(rem <= max(tol_abs, tol_rel * abs(vals[r] + tails[r])) for r, rem in enumerate(rems))
        if ok or u0 > 5e6:
            return (
                [vals[r] + tails[r] for r in range(rmax + 1)],
                [rems[r] + 5e-16 * mags[r] for r in range(rmax + 1)],
            )
        u0 *= 2.0


def test_moments_match_the_scalar_recurrences_in_every_branch():
    # |z| <= 2 (series), 2 < |z| < imax (downward), |z| >= imax (upward)
    rng = np.random.default_rng(5)
    for imax in (0, 1, 3, 8, 24):
        radii = np.concatenate(
            [rng.uniform(0.0, 2.0, 40), rng.uniform(2.0, max(imax, 2.5), 40), rng.uniform(imax, imax + 40.0, 40)]
        )
        angles = rng.uniform(-math.pi, math.pi, radii.size)
        zs = [complex(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)] + [0j, 2.0 + 0j, complex(imax)]
        zr = np.array([z.real for z in zs])
        zi = np.array([z.imag for z in zs])
        mr, mi = sawtooth._moments_exp(zr, zi, imax)
        got = sawtooth._complex(mr, mi).T.tolist()
        assert repr(got) == repr([ref_moments_exp(z, imax) for z in zs])


@pytest.mark.parametrize("beta", [0j, complex(-1.0), complex(1.0), complex(-0.7, 3.0), complex(0.4, -250.0)])
def test_power_log_segments_match_the_scalar_antiderivatives(beta):
    # t = log u from below 0 to 8, with t1 = 0 (u = 1) and zero-width segments
    rng = np.random.default_rng(11)
    t1 = np.concatenate([[0.0, 0.0], rng.uniform(-0.7, 8.0, 60)])
    t2 = t1 + np.concatenate([[0.0, 0.3], rng.uniform(0.0, 0.5, 60)])
    # alone, and stacked with a second exponent in either place (beta -+ 1 is 0 at beta = +-1)
    for rmax in (0, 2, 8):
        for betas in ((beta,), (beta + 1.0, beta), (beta, beta - 1.0)):
            for k, (re, im) in enumerate(sawtooth._power_log_segments(betas, rmax, t1, t2)):
                got = sawtooth._complex(re, im).T.tolist()
                want = [ref_power_log_segments(betas[k], rmax, a, b) for a, b in zip(t1.tolist(), t2.tolist())]
                assert repr(got) == repr(want)


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
    for name, value in kw.items():
        monkeypatch.setattr(sawtooth, name, value)
    alphas = [a / q for a in range(1, q + 1)]
    got = psi_tail_powers_batch(x, alphas, b, rmax)
    want = [ref_psi_tail_powers(x, alpha, b, rmax) for alpha in alphas]
    assert repr(got) == repr(want)
    assert repr(psi_tail_powers(x, alphas[-1], b, rmax)) == repr(want[-1])


def test_batch_rows_have_unequal_segment_counts():
    # alpha shifts the kinks: within one batch the rows march over different counts
    first, count = sawtooth._kinks(0.5, 36.0, np.array([a / 7 for a in range(1, 8)]))
    assert len(set(count.tolist())) > 1
    assert count.tolist() == [len(ref_psi_breaks(0.5, 36.0, a / 7)) - 1 for a in range(1, 8)]


def test_random_marches_match_the_scalar_march():
    rng = np.random.default_rng(23)
    for _ in range(40):
        lo = float(rng.uniform(0.05, 30.0))
        hi = lo + float(rng.uniform(0.0, 60.0))
        alpha = float(rng.uniform(1e-6, 1.0))
        b = complex(rng.uniform(-3.0, -0.5), rng.choice([0.0, rng.uniform(-300.0, 300.0)]))
        rmax = int(rng.integers(0, 9))
        vals = [0.0 + 0.0j] * (rmax + 1)
        mags = [0.0] * (rmax + 1)
        ref_march_exact(vals, lo, hi, alpha, b, rmax, mags)
        sums = [np.zeros((rmax + 1, 1)) for _ in range(3)]
        sawtooth._march(sums, lo, hi, np.array([alpha]), b, rmax)
        assert repr(sawtooth._complex(sums[0], sums[1])[:, 0].tolist()) == repr(vals)
        assert repr(sums[2][:, 0].tolist()) == repr(mags)


def test_piecewise_integral_matches_the_scalar_march():
    cases = [(1e-8, 1.0, 1.0, 0.0, 0), (1.7, 9.2, 1.0, -1.5, 2), (0.3, 2500.0, 0.25, complex(-0.5, 3.0), 1)]
    for lo, hi, alpha, b, m in cases:
        vals = [0.0 + 0.0j] * (m + 1)
        ref_march_exact(vals, lo, hi, alpha, complex(b), m)
        assert repr(psi_piecewise_integral(lo, hi, alpha=alpha, exponent=b, log_power=m)) == repr(vals[m])


def _ref_march_rows(lo, hi, alphas, b, rmax):
    """sums as _march leaves them, from one scalar march per row."""
    vals, mags = [], []
    for alpha in alphas:
        v, m = [0.0 + 0.0j] * (rmax + 1), [0.0] * (rmax + 1)
        ref_march_exact(v, lo, hi, alpha, b, rmax, m)
        vals.append(v)
        mags.append(m)
    return np.array(vals).T.tolist(), np.array(mags).T.tolist()


# a block holds _BLOCK moments: _BLOCK // 2 segments with two nonzero exponents,
# _BLOCK with one (b = -1: u^{b+1} = u^0 has a closed form)
BLOCK_EDGES = [(b, n) for b, block in ((complex(-1.3, 5.0), sawtooth._BLOCK // 2), (-1.0, sawtooth._BLOCK)) for n in (1, block - 1, block, block + 1)]


@pytest.mark.parametrize("b, segments", BLOCK_EDGES)
def test_blocks_sized_to_the_walk_match_the_scalar_march(b, segments):
    # alpha = 1: the kinks 1, 2, ..., segments - 1 cut (0.5, segments - 0.5)
    lo, hi, b, rmax = 0.5, segments - 0.5, complex(b), 2
    sums = [np.zeros((rmax + 1, 1)) for _ in range(3)]
    sawtooth._march(sums, lo, hi, np.array([1.0]), b, rmax)
    vals, mags = _ref_march_rows(lo, hi, [1.0], b, rmax)
    assert repr(sawtooth._complex(sums[0], sums[1]).tolist()) == repr(vals)
    assert repr(sums[2].tolist()) == repr(mags)


def test_rows_of_unequal_length_end_in_a_partial_block(monkeypatch):
    # three rows, two exponents: blocks of _BLOCK // 2 // 3 segments, the last one narrower
    lo, hi, b, rmax = 0.5, 1500.3, complex(-1.6, -40.0), 3
    alphas = np.array([0.2, 0.5, 0.9])
    count = sawtooth._kinks(lo, hi, alphas)[1]
    assert count.tolist() == [1501, 1500, 1501]
    sizes = []
    moments = sawtooth._moments_exp
    monkeypatch.setattr(sawtooth, "_moments_exp", lambda zr, zi, imax: sizes.append(zr.size) or moments(zr, zi, imax))
    sums = [np.zeros((rmax + 1, 3)) for _ in range(3)]
    sawtooth._march(sums, lo, hi, alphas, b, rmax)
    width = sawtooth._BLOCK // 2 // 3
    full, rest = divmod(1501, width)
    assert rest and sizes == [2 * 3 * width] * full + [2 * 3 * rest]
    vals, mags = _ref_march_rows(lo, hi, alphas.tolist(), b, rmax)
    assert repr(sawtooth._complex(sums[0], sums[1]).tolist()) == repr(vals)
    assert repr(sums[2].tolist()) == repr(mags)


def test_a_short_march_makes_one_moment_pass_over_its_segments(monkeypatch):
    # 39 segments of one row: both exponents in one call over 2 x 39 elements,
    # not one call per exponent over a full block of 2048 each
    sizes = []
    moments = sawtooth._moments_exp
    monkeypatch.setattr(sawtooth, "_moments_exp", lambda zr, zi, imax: sizes.append(zr.size) or moments(zr, zi, imax))
    psi_piecewise_integral(0.5, 38.5, alpha=1.0, exponent=complex(-1.5, 3.0))
    assert sizes == [2 * 39]


def ref_pure_osc_breaks(x: float, x0: float, step_cap: float) -> list[float]:
    """The break points of pure_osc_tail_powers as its loop made them, one panel at a time."""
    pts = [x]
    u = x
    while u < x0 - 1e-12:
        step = min(max(0.5, 0.6 * u), step_cap)
        u = min(u + step, x0)
        pts.append(u)
    return pts


def ref_segment_breaks(delta: float, x: float, step_cap: float) -> list[float]:
    """The break points of segment_osc_power_log as its loop made them."""
    pts = [delta]
    u = delta
    while u < x - 1e-14 * x:
        step = min(u, step_cap)
        u = min(u + step, x)
        pts.append(u)
    return pts


def test_panel_break_points_match_the_one_panel_loop():
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(60):
        nu = float(10.0 ** rng.uniform(-2.0, 2.5))
        x = float(rng.uniform(0.02, 60.0))
        cases.append((x, x + float(rng.uniform(0.0, 4000.0 * max(0.45 / nu, 0.5))), 0.45 / nu))
    # the run ends just below its stop (x0 - 1e-12): the last point is not clipped to x0
    near = ref_pure_osc_breaks(3.0, 40.0, 0.7)[-2] + 0.7
    cases += [(3.0, near + 5e-13, 0.7), (3.0, near - 5e-13, 0.7), (3.0, 3.0, 0.7), (8.0, 9.0, 100.0)]
    # and exactly on it: 10.000000000001 - 1e-12 == 10.0, a point of the run 8.5, 9.0, ...
    cases.append((8.0, 10.000000000001, 0.5))
    for x, x0, cap in cases:
        got = sawtooth._walk(x, lambda u: max(0.5, 0.6 * u), cap, x0, x0 - 1e-12)
        assert repr(got) == repr(ref_pure_osc_breaks(x, x0, cap))
        delta = min(x0, 0.04 * cap)
        got = sawtooth._walk(delta, lambda u: u, cap, x0, x0 - 1e-14 * x0)
        assert repr(got) == repr(ref_segment_breaks(delta, x0, cap))
    # a constant run longer than one accumulated chunk of 2^16 points
    got = sawtooth._walk(1.0, lambda u: u, 1e-3, 150.0, 150.0 - 1.5e-12)
    assert repr(got) == repr(ref_segment_breaks(1.0, 150.0, 1e-3))


def test_panel_walk_that_stops_moving_is_refused():
    # beyond 2^56 a step of 4 rounds away; the loop used to spin forever
    with pytest.raises(ValueError, match="no longer change"):
        sawtooth._walk(1e17, lambda u: u, 4.0, 1e17 + 1e6, 1e17 + 1e6)


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
    monkeypatch.setattr(sawtooth, "_march", lambda *args: marched.append(args))
    # 1000 rows x (u0 - x) = 1000 x 2300 segments
    with pytest.raises(ValueError, match="work budget"):
        psi_tail_powers_batch(1.0, [a / 1000 for a in range(1, 1001)], complex(-1.5, 1130.0), 2)
    with pytest.raises(ValueError, match="work budget"):
        psi_tail_powers(1.0, 0.5, complex(-1.5, 1e7), 0)
    with pytest.raises(ValueError, match="work budget"):
        psi_piecewise_integral(1.0, 3e6)
    assert not marched
    # oscillatory walks: panels of at most half a cycle, one per unit interval when weighted
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
# ref_gl_panels and ref_psi_fourier_shift_sum are the panel integrator and
# the shifted Fourier sums as they ran before the panels were evaluated as
# (block x 32) arrays and the K sums shared one row of Bernoulli values;
# the kernel must give the same bits.


def ref_gl_panels(vals, mags, pts, nu, b, rmax, alpha=None) -> None:
    for u1, u2 in zip(pts, pts[1:]):
        half = 0.5 * (u2 - u1)
        mid = 0.5 * (u1 + u2)
        u = mid + half * sawtooth._GL_NODES
        base = np.exp(2j * math.pi * nu * u) * np.exp(b * np.log(u))
        if alpha is not None:
            mseg = math.floor(mid - alpha)
            base = base * (u - alpha - mseg - 0.5) * cmath.exp(-2j * math.pi * nu * alpha)
        logs = np.log(u)
        lp = np.ones_like(u)
        for m in range(rmax + 1):
            fv = base * lp
            vals[m] += complex(half * np.dot(sawtooth._GL_WEIGHTS, fv))
            if mags is not None:
                mags[m] += float(half * np.dot(sawtooth._GL_WEIGHTS, np.abs(fv)))
            lp = lp * logs


def ref_psi_fourier_shift_sum(k: int, v: float, nu: float) -> complex:
    acc = 0.0 + 0.0j
    binom = 1.0
    zj = 1.0 + 0.0j
    j = 0
    while True:
        term = binom * zj * sawtooth._phi_bernoulli(k + 1 + j, v)
        acc += term
        if binom * nu**j * 2.6 < 1e-18 * max(1.0, abs(acc)) and j > 4:
            break
        j += 1
        if j > 4000:
            break
        binom *= (k + j - 1) / j
        zj *= -1j * nu
    return -cmath.exp(2j * math.pi * nu * v) * sawtooth.TWO_PI ** (-(k + 1)) * acc


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
        for with_mags in (True, False):
            got, want = list(start), list(start)
            got_m = [float(v) for v in rng.uniform(0.0, 1.0, rmax + 1)] if with_mags else None
            want_m = list(got_m) if with_mags else None
            sawtooth._gl_panels(got, got_m, pts, nu, b, rmax, alpha)
            ref_gl_panels(want, want_m, pts, nu, b, rmax, alpha)
            assert repr(got) == repr(want)
            assert repr(got_m) == repr(want_m)


def test_shift_sums_match_the_per_k_sums_bit_for_bit():
    rng = np.random.default_rng(31)
    for nu in (0.05, 0.3, 0.5, 0.9, 0.999):
        for v in [0.0, 0.5, 12.25] + rng.uniform(-3.0, 5000.0, 3).tolist():
            got = sawtooth._psi_fourier_shift_sums(sawtooth._K_OSC, v, nu)
            want = tuple(ref_psi_fourier_shift_sum(k, v, nu) for k in range(1, sawtooth._K_OSC + 1))
            assert repr(got) == repr(want)


def _per_k_shift_sums(K, v, nu):
    return tuple(ref_psi_fourier_shift_sum(k, v, nu) for k in range(1, K + 1))


@pytest.mark.parametrize(
    "route, args",
    [
        (pure_osc_tail_powers, (0.3, complex(-0.5, -1000.0), 1, 160.0)),  # 2788 panels: many blocks
        (pure_osc_tail_powers, (0.3, complex(-1.5, -300.0), 8, 3.0)),
        (pure_osc_tail_powers, (-2.0, complex(-1.5, 40.0), 2, 1.2)),  # a dual-sum frequency of the AFE
        (pure_osc_tail_powers, (0.7, complex(-1.2, 0.0), 0, 1.0)),  # 32 panels: one short block
        (psi_osc_tail_powers, (0.3, 0.7, complex(-1.5, -1000.0), 1, 160.0)),
        (psi_osc_tail_powers, (0.3, 0.7, complex(-0.5, -300.0), 2, 3.0)),
        (psi_osc_tail_powers, (0.95, 0.25, complex(-1.5, 20.0), 5, 1.0)),  # nu near 1: long shift sums
        (psi_osc_tail_powers, (0.125, 1.0, complex(-2.0, 0.0), 8, 0.5)),
        (segment_osc_power_log, (1.0, complex(-0.5, -60.0), 1, 10.0 / 3.0)),
        (segment_osc_power_log, (-2.0, complex(-0.3, -200.0), 2, 9.0)),
        (segment_osc_power_log, (5.0, complex(-0.5, -400.0), 0, 300.0)),  # 3339 panels
        (segment_osc_power_log, (0.01, complex(-0.5, 0.0), 4, 2.0)),
        (segment_osc_power_log, (0.01, complex(-0.5, 0.0), 4, 0.03)),  # the series alone, no panel
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
    points from ref_psi_breaks."""
    b = complex(b)
    K = sawtooth._K_OSC
    x0 = max(x, (abs(b) + rmax + K + 6.0) / (math.pi * (1.0 - nu)), 12.0)
    rows_all = [_deriv_rows(b, r, K) for r in range(rmax + 1)]
    sk = _osc_remainder_const(K, nu)
    while max(_far_remainders(rows_all, b, x0, sk)) > 1e-15 and 2.0 * x0 - x < 4000.0 and x0 < 5e7:
        x0 *= 2.0
    vals = [0.0 + 0.0j] * (rmax + 1)
    mags = [0.0] * (rmax + 1)
    sawtooth._gl_panels(vals, mags, ref_psi_breaks(x, x0, alpha), nu, b, rmax, alpha)
    coeffs = [(-1.0) ** k * p for k, p in enumerate(_psi_fourier_shift_sums(K, x0 - alpha, nu))]
    tails = sawtooth._far_tail(rows_all, b, x0, [coeffs])[0].tolist()
    rems = _far_remainders(rows_all, b, x0, sk)
    return [vals[r] + tails[r] for r in range(rmax + 1)], [rems[r] + 1e-15 * mags[r] for r in range(rmax + 1)]


@pytest.mark.parametrize(
    "nu, alpha, b, rmax, x",
    [
        (0.3, 0.7, complex(-1.5, 20.0), 2, 1.0),
        (0.3, 0.7, complex(-1.5, 20.0), 2, 3.7),  # x on a kink
        (0.3, 0.7, complex(-1.5, 20.0), 2, 3.7 - 5e-14),  # within 1e-13 of a kink, below
        (0.3, 0.7, complex(-1.5, 20.0), 2, 3.7 + 5e-14),  # and above
        (0.5, 0.25, complex(-1.0, -300.0), 1, 7.25 + 2e-12),  # just beyond the 1e-12 margin
        (0.5, 1.0, -2.0, 0, 2.0),  # alpha = 1: the cutoff x0 = 12 sits on a kink
        (0.9, 1e-9, complex(-0.5, 40.0), 4, 0.5),
        (0.125, 0.5, complex(-1.2, 2.0), 3, 4500.25),  # x0 = x: one empty panel
        (0.7, 0.3, complex(-1.5, 2000.0), 0, 160.0),  # a walk longer than one panel block
    ],
)
def test_weighted_walk_breaks_at_the_kinks_of_the_march(nu, alpha, b, rmax, x):
    assert repr(psi_osc_tail_powers(nu, alpha, b, rmax, x)) == repr(ref_psi_osc_tail_powers(nu, alpha, b, rmax, x))


def test_kink_search_ends_where_a_unit_step_leaves_the_float_unchanged():
    # beyond 2^53 first + 1 == first: the adjustments used to spin forever
    # (the march at 1e17; the weighted walk at 1e300, now refused before it)
    first, count = sawtooth._kinks(1e17, 1e17 + 1e6, np.array([0.5]))
    assert first.tolist() == [1e17] and count.tolist() == [1000002]
    with pytest.raises(ValueError, match="2\\^52"):
        psi_osc_tail_powers(0.5, 0.5, -1.5, 0, 1e300)


def test_fourier_bernoulli_rows_match_the_scalar_series_bit_for_bit():
    # orders 13 and 14 of the far tail take the Fourier branch, over all entries at once
    rng = np.random.default_rng(13)
    v = np.concatenate([rng.uniform(-3.0, 5000.0, 300), [0.0, -0.25, 0.5, 2.0**40 + 0.75]])
    for m in (13, 14, 20):
        want = [sawtooth._phi_bernoulli(m, float(x)) for x in v]
        assert sawtooth._phi_bernoulli_rows(m, v).tolist() == want


@pytest.mark.parametrize("b, rmax, q", [(complex(-1.5, -1000.0), 1, 1), (complex(-1.5, -10.0), 24, 1), (-2.0, 1, 12), (complex(-1.05, 300.0), 8, 7)])
def test_batch_from_its_final_cutoff_marches_nothing(monkeypatch, b, rmax, q):
    walked = []
    march = sawtooth._march
    monkeypatch.setattr(sawtooth, "_march", lambda sums, lo, hi, *rest: walked.append((lo, hi)) or march(sums, lo, hi, *rest))
    alphas = [a / q for a in range(1, q + 1)]
    u, at_cutoff = sawtooth._tail_cutoff(alphas, b, rmax)
    first = sawtooth._first_cutoff(complex(b), rmax)
    assert u / first == 2.0 ** round(math.log2(u / first))  # one of the batch's own cutoffs
    got = psi_tail_powers_batch(u, alphas, b, rmax)
    assert walked and all(lo == hi for lo, hi in walked)
    assert repr(got) == repr([ref_psi_tail_powers(u, alpha, b, rmax) for alpha in alphas])
    assert repr(at_cutoff) == repr(got)  # the search hands over the batch's result
