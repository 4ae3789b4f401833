import cmath
import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zetalab import evaluate, sawtooth
from zetalab.characters import character, enumerate_characters, gauss_sum
from zetalab.coefficients import lerch_taylor_at_1
from zetalab.evaluate import (
    HurwitzArgs,
    LerchArgs,
    _pole_term,
    _s_tail,
    _cores,
    _l_values,
    _lerch_values,
    hurwitz_deriv,
    l_deriv,
    lerch_deriv,
    z_deriv,
)
from zetalab.sawtooth import EvalResult, _lattice_floor, _progression_sum, _tail_cutoff, psi_osc_tail_powers, psi_tail_powers_batch

from .oracles import (
    catalan_constant,
    direct_series_oracle,
    finite_power_sum,
    hurwitz_series_cutoff,
    kernel_terms,
    l_oracle,
    leibniz_pi_4,
    lerch_oracle,
    log2_series,
    oscillating_series_cutoff,
    z_oracle,
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


EPS = 2.0**-53


def ref_tail_combination(tails, s, r) -> complex:
    """(-1)^r (r T_{r-1} - s T_r), formed as evaluate._cores forms its tail
    combination at q = 1: its coefficients at log q = 0, numpy's products
    C_m T_m added from m = 0 by np.add.accumulate (and + 0.0), times the
    array (-1)^r q^{-s}.  numpy's complex product of arrays rounds unlike
    Python's in about half of all cases, so a scalar formula may differ."""
    lq = math.log(1)
    C = np.array([(r * math.comb(r - 1, m) * lq ** (r - 1 - m) if m < r else 0.0) - s * math.comb(r, m) * lq ** (r - m) for m in range(r + 1)])
    acc = np.add.accumulate(C * np.array(tails))[-1:] + 0.0
    return complex((np.array([(-1.0) ** r * cmath.exp(-s * lq)]) * acc)[0])


def ref_hurwitz_core(s, alpha, r, x):
    """The Hurwitz core that Z(s, alpha, 1) replaced (reference): finite sum
    + boundary + tail, without the pole term; with the pieces that the
    rounding term of the new contract is made of."""
    nmax = int(_lattice_floor(x, alpha))
    tails, terrs, _ = psi_tail_powers_batch(x, [alpha], -s - 1.0, r)
    tails, terrs = tails[:, 0].tolist(), terrs[:, 0].tolist()
    tail, err = ref_tail_combination(tails, s, r), _s_tail(tails, terrs, s, r)[1]
    pts = alpha + np.arange(0, nmax + 1, dtype=float) if nmax >= 0 else np.empty(0)
    val = finite_power_sum(pts, s, r)
    lx = math.log(x)
    psi = x - alpha - nmax - 0.5
    fx = cmath.exp(-s * lx)
    val += psi * fx * (-lx) ** r
    pieces = dict(pts=pts, nmax=nmax, v=x - alpha, psi=psi, fx=fx, val=val, tail=tail, tails=tails)
    return val + tail, err, pieces


def ref_rounding(s, r, x, p) -> float:
    """The rounding term of the Hurwitz bound at q = 1, term by term as documented:
    the finite sum, the boundary term, the tail combination and its addition."""
    logs = np.log(p["pts"])
    terms = kernel_terms(logs, s, r)
    mag, al = np.abs(terms), np.abs(logs)
    head = 0.0
    if r and p["pts"].size:
        near = (al[:3] > 0.0) & (al[:3] < 1.0)
        head = r * float((mag[:3][near] / al[:3][near]).sum())
    depth = math.log2(p["nmax"] + 2) + 20 + (p["pts"].size > 0)
    err = EPS * (3.0 * abs(s) * float((mag * al).sum()) + (abs(s) + 3 * r + 8 + 1.5 * depth) * float(mag.sum()) + head)
    lx, v = abs(math.log(x)), p["v"]
    err += abs(p["fx"]) * lx**r * EPS * (4.0 * (abs(v) + 2.0) + abs(p["psi"]) * (3.0 * abs(s) * lx + 2 * r + 8))
    tails = p["tails"]
    mags = (r * abs(tails[r - 1]) if r else 0.0) + abs(s) * abs(tails[r])  # |c_m| |T_m| at q = 1
    return err + EPS * ((3.0 * abs(s) * lx + 3 * r + 12) * mags + abs(p["val"]) + abs(p["tail"]))


def ref_pole(s, x, r):
    """The pole term d^r/ds^r (x^{1-s}/(s-1)) and its rounding."""
    lx = math.log(x)
    xp = cmath.exp((1.0 - s) * lx)
    terms = [math.comb(r, l) * (-lx) ** (r - l) * (-1.0) ** l * math.factorial(l) / (s - 1.0) ** (l + 1) for l in range(r + 1)]
    acc = 0.0 + 0.0j
    for t in terms:
        acc += t
    mags = 0.0
    for t in terms:
        mags += abs(t)
    return xp * acc, abs(xp) * EPS * ((3.0 * abs(1.0 - s) * abs(lx) + 8.0) * abs(acc) + (5 * r + 16) * mags)


def test_hurwitz_is_z_at_q1_bit_for_bit():
    # real and complex s, the default split, an explicit one and one below
    # alpha: the values are the old Hurwitz core's, bit for bit; the bound
    # is its truncation bound plus the rounding term, also bit for bit
    rng = np.random.default_rng(9)
    for alpha in (1e-9, 0.3, 1.0):
        for i in range(12):
            s = complex(rng.uniform(0.05, 3.0), 0.0 if i % 2 else rng.uniform(-200.0, 200.0))
            r = int(rng.integers(0, 7))
            for x in (None, float(rng.uniform(0.5, 30.0)), alpha / 2.0):
                got = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r, split=x))
                split = _tail_cutoff([alpha], -s - 1.0, r)[0] if x is None else x
                core, err, pieces = ref_hurwitz_core(s, alpha, r, split)
                pole, perr = ref_pole(s, split, r)
                assert (pole, perr) == _pole_term(s, split, r)
                bound = err + ref_rounding(s, r, split, pieces) + (perr + EPS * abs(pole)) + EPS * abs(core + pole)
                assert repr(got) == repr(EvalResult(core + pole, bound)), (s, alpha, r, x)


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
            val, err, cores = 0.0 + 0.0j, 0.0, []
            for a in range(1, q + 1):
                if chi(a) != 0:
                    _, core, cerr = _cores(s, q, [a], [r], X)
                    core, cerr = complex(core[0, 0]), float(cerr[0, 0])
                    val += chi(a) * core
                    err += cerr
                    cores.append(core)
            # the route weighs the cores less their mean and books that weighting's
            # rounding; the loop's own weighting rounds by at most EPS (20 + units) sum |core|
            got = l_deriv(s, chi, r, X=X)
            weighting = EPS * (21 + len(cores)) * float(np.abs(np.array(cores) - np.mean(cores)).sum())
            assert got.error_bound == pytest.approx(err + weighting, rel=1e-12), (chi.label, s, r)
            loop = EPS * (20 + len(cores)) * float(np.abs(cores).sum())
            assert abs(got.value - val) <= weighting + loop, (chi.label, s, r)


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


def test_lerch_default_split_bound_holds_against_the_rational_lambda_oracle():
    # the rational-lambda Hurwitz decomposition to t = 1000; before the finite
    # sum, boundary and assembly booked their rounding, 18 of the 72 cases
    # without lambda = 7/8 broke their bound, and (15/16, 0.3, 10, 4) still
    # did while the default split walked panels
    broken = set()
    for lam in (Fraction(1, 16), Fraction(5, 16), Fraction(1, 2), Fraction(7, 8), Fraction(15, 16)):
        for alpha in (0.3, 1.0):
            for t in (10.0, 300.0, 1000.0):
                s = complex(0.5, t)
                for r in (0, 2, 4):
                    got = lerch_deriv(LerchArgs(lam=float(lam), alpha=alpha, s=s, order=r))
                    if not abs(got.value - complex(lerch_oracle(s, lam, alpha, r))) <= got.error_bound:
                        broken.add((lam, alpha, t, r))
    assert broken == set()


@pytest.mark.parametrize("lam", [Fraction(31, 32), Fraction(63, 64), Fraction(127, 128), Fraction(255, 256)])
def test_lerch_near_lambda_one_holds_against_the_oracle(lam):
    # every phase of the representation is taken by the finite sum's exact
    # reduction (sawtooth._phase) and the shifted Fourier sums at rate
    # lambda/2, so the cap of 31/32 is gone: 255/256 at s = 0.5, alpha = 0.7,
    # r = 1, whose far-tail phase at the cutoff near 2000 rounded by 1.36
    # times the bound, answers within a tenth of it.  The rational-lambda
    # oracle takes 3 d Hurwitz values per (s, alpha), about 9 s at d = 256,
    # which every lambda here shares; 31/32 also at s = 0.5+30i (d = 32)
    grid = [(s, 256) for s in (0.5, complex(0.5, 10.0), complex(1.5, 3.0))]
    for alpha in (0.25, 0.7):
        for s, d in grid + ([(complex(0.5, 30.0), 32)] if lam == Fraction(31, 32) else []):
            for r in range(3):
                got = lerch_deriv(LerchArgs(lam=float(lam), alpha=alpha, s=s, order=r))
                ref = lerch_oracle(complex(s), lam, alpha, r, dps=20, d=d)
                assert _held(got, ref), (alpha, s, r, got, complex(ref))
                if (lam, alpha, s, r) == (Fraction(255, 256), 0.7, 0.5, 1):
                    assert abs(got.value - complex(ref)) <= 0.1 * got.error_bound


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


def test_a_lerch_sum_is_charged_per_term_like_a_z_class(monkeypatch):
    # one finite-sum kernel, one cost of a term: the 1001 terms n + 0.5 <= 1001
    # are charged 1001 / 8 march segments, with the tails' kinks and panels
    # (none from this split, the middle 1000 + 0.5 + 1/2 of a kink interval,
    # where the weighted far tails start) in one check, before any tail is
    # walked; a point is charged once at any number of orders, as the Z core
    # charges it
    charges = []

    def record(**pieces):
        charges.append(pieces)
        raise ValueError("charged")

    monkeypatch.setattr(sawtooth, "_check_work", record)
    with pytest.raises(ValueError, match="charged"):
        lerch_deriv(LerchArgs(lam=0.3, alpha=0.5, s=2.0, order=1, split=1001.0))
    with pytest.raises(ValueError, match="charged"):
        _lerch_values(2.0 + 0j, 0.3, 0.5, range(25), 1001.0)
    assert charges == [{"terms": 1001, "kinks": 0, "panels": 0.0}] * 2


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
        # the reported bounds include binary64 rounding
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


# ---------------------------------------------------------------------------
# the bound is a true bound: |value - oracle| <= error_bound, rounding included
# ---------------------------------------------------------------------------


def _held(res, ref) -> bool:
    """|value - ref| <= error_bound, the distance taken at the reference's precision."""
    with mp.workdps(30):
        return abs(mp.mpc(res.value.real, res.value.imag) - ref) <= res.error_bound


def _grid_s(rng, i: int) -> complex:
    """Re(s) in [0.05, 3]; Im(s) 0, or log-spread up to 1000 with either sign."""
    t = 0.0 if i % 4 == 0 else float(10.0 ** rng.uniform(-0.5, 3.0)) * (-1.0 if i % 7 == 3 else 1.0)
    return complex(rng.uniform(0.05, 3.0), t)


@pytest.mark.parametrize("alpha", [1e-6, "random", 1.0])
def test_hurwitz_bound_holds_against_mpmath(alpha):
    # the default split and explicit ones (the march, and below alpha) at each point
    rng = np.random.default_rng(10 + (alpha == "random") + 2 * (alpha == 1.0))
    for i in range(10):
        a = float(rng.uniform(0.01, 1.0)) if alpha == "random" else alpha
        s, r = _grid_s(rng, i), int(rng.integers(0, 9))
        ref = z_oracle(s, a, 1, r)
        for x in (None, float(rng.uniform(0.5, 60.0)), a / 2.0):
            res = hurwitz_deriv(HurwitzArgs(s=s, alpha=a, order=r, split=x))
            assert _held(res, ref), (s, a, r, x, res, complex(ref))


def test_z_bound_holds_against_mpmath():
    rng = np.random.default_rng(11)
    for i in range(10):
        q = int(rng.integers(2, 31))
        a, s, r = int(rng.integers(1, q + 1)), _grid_s(rng, i), int(rng.integers(0, 9))
        ref = z_oracle(s, a, q, r)
        for X in (None, float(rng.uniform(1.0, 60.0))):
            res = z_deriv(s, a, q, r, X=X)
            assert _held(res, ref), (s, a, q, r, X, res, complex(ref))


@pytest.mark.parametrize(
    "q, label, s, r",
    [(3, 1, 0.5 + 1000j, 8), (4, 1, 0.05 + 400j, 5), (7, 3, 1.0 + 0.5j, 2), (12, 2, 2.7 - 30j, 1), (30, 5, 0.6 + 150j, 0), (29, 11, 0.3 + 3j, 0)],
)
def test_l_bound_holds_against_mpmath(q, label, s, r):
    chi = character(q, label)
    ref = l_oracle(s, chi, r)
    for X in (None, 2.5, q * 1.7):
        res = l_deriv(s, chi, r, X=X)
        assert _held(res, ref), (q, label, s, r, X, res, complex(ref))


@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(9, 16), Fraction(13, 16)])
@pytest.mark.parametrize("t", [70.0, 300.0, 800.0])
def test_explicit_lerch_split_bound_holds_against_the_oracle(lam, t):
    # explicit splits walk all three oscillatory tails; with panels that
    # followed only e^{2 pi i lam u}, lam = 0.3 at x = 3, s = 0.5+300i was off by 8e-2
    s = complex(0.5, t)
    refs = [lerch_oracle(s, lam, 0.7, r) for r in range(4)]
    for x in (1.5, 3.0, 12.0):
        for r, ref in enumerate(refs):
            res = lerch_deriv(LerchArgs(lam=float(lam), alpha=0.7, s=s, order=r, split=x))
            assert _held(res, ref), (lam, t, x, r, res, complex(ref))


@pytest.mark.parametrize("t", [10.0, 300.0, 1000.0])
def test_explicit_lerch_split_holds_against_its_hurwitz_sum_at_rational_lambda(t):
    # oracle-free: phi^(r)(p/q, alpha, s) = sum_{j<q} e^{2 pi i p j/q} sum_l C(r, l)
    # (-log q)^{r-l} q^{-s} zeta^(l)(s, (j + alpha)/q), each zeta^(l) and its bound
    # from hurwitz_deriv at its default split; alpha = 3/4 and q = 16 keep the
    # shifts (j + alpha)/q exact, and the sum is taken in 30 digits, so that the
    # reference errs by no more than its terms' bounds
    q, alpha, s = 16, 0.75, complex(0.5, t)
    zetas = [[hurwitz_deriv(HurwitzArgs(s=s, alpha=(j + alpha) / q, order=l)) for l in range(4)] for j in range(q)]
    with mp.workdps(30):
        factor = [mp.mpf(q) ** -mp.mpc(s.real, s.imag) * (-mp.log(q)) ** i for i in range(4)]  # q^{-s} (-log q)^i
        for p in (1, 5, 8, 15):
            phases = [mp.expjpi(mp.mpf(2 * p * j) / q) for j in range(q)]
            for r in range(4):
                terms = [(phases[j] * math.comb(r, l) * factor[r - l], zetas[j][l]) for j in range(q) for l in range(r + 1)]
                ref = mp.fsum(c * mp.mpc(z.value.real, z.value.imag) for c, z in terms)
                bound = math.fsum(float(abs(c)) * z.error_bound for c, z in terms) * (1.0 + 1e-12)
                for x in (1.0, 3.0, 30.0):
                    got = lerch_deriv(LerchArgs(lam=p / q, alpha=alpha, s=s, order=r, split=x))
                    assert abs(mp.mpc(got.value.real, got.value.imag) - ref) <= got.error_bound + bound, (p, x, r, got, bound)


def test_explicit_split_next_to_s_0_holds_against_the_default_split():
    # s = 1e-9: the tails' antiderivative exponent c = -s is next to 0, where
    # they take the Taylor series of the log form in b; the default split,
    # at the tails' cutoff, integrates no interval
    for r in (0, 3, 8):
        got = hurwitz_deriv(HurwitzArgs(s=1e-9, alpha=0.3, order=r, split=2.0))
        want = hurwitz_deriv(HurwitzArgs(s=1e-9, alpha=0.3, order=r))
        assert abs(got.value - want.value) <= got.error_bound + want.error_bound, r


def test_far_tail_rounding_is_a_sliver_of_the_z_core_bound():
    # the Z core does not book _far_tail_rounding row by row (booking it would
    # move every Z digest); taken through the combination (-1)^r (r T_{r-1} -
    # s T_r) of q = 1, it stays below 1% of hurwitz_deriv's bound on 300
    # random default-split requests (0.19% at most when this was written)
    rng = np.random.default_rng(2040)
    for _ in range(300):
        s, r, alpha = complex(3.0 - rng.uniform(0.0, 3.0), rng.uniform(0.5, 1000.0)), int(rng.integers(0, 5)), 1.0 - rng.uniform(0.0, 1.0)
        X, _, _ = evaluate._split(s, r, 1, [alpha], None)
        rounding = sawtooth._far_tail_rounding(-s - 1.0, r, X, alpha)
        far = (r * rounding[r - 1] if r else 0.0) + abs(s) * rounding[r]
        assert far <= 0.01 * hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, order=r)).error_bound, (s, r, alpha)


def test_default_split_walks_no_march(monkeypatch):
    # the tails are the cutoff search's own far tails at the final cutoff:
    # no march is called, so none walks a nonempty interval
    walked = []
    interval = sawtooth._psi_interval
    monkeypatch.setattr(sawtooth, "_psi_interval", lambda sums, lo, hi, *rest: walked.append((lo, hi)) or interval(sums, lo, hi, *rest))
    for s, r in ((0.5 + 1000j, 1), (0.5 + 10j, 24), (2.0 + 0j, 0), (0.05 - 300j, 8)):
        hurwitz_deriv(HurwitzArgs(s=s, alpha=0.3, order=r))
        z_deriv(s, 3, 7, r)
        l_deriv(s, character(7, 3), r)
    assert walked == []
    # an explicit split still marches
    hurwitz_deriv(HurwitzArgs(s=0.5 + 1000j, alpha=0.3, order=1, split=3.0))
    assert walked[-1][0] < walked[-1][1]


def test_default_lerch_split_walks_no_panel(monkeypatch):
    # at one order the split passes all three oscillatory tails: each is its
    # closed-form far tail from the split, so no panel of nonzero width is walked
    widths = []
    panels = sawtooth._gl_panels
    monkeypatch.setattr(sawtooth, "_gl_panels", lambda vals, mags, pts, *rest: widths.append(pts[-1] - pts[0]) or panels(vals, mags, pts, *rest))
    for lam in (1 / 16, 5 / 16, 1 / 2, 15 / 16):
        for s, r in ((0.5 + 1000j, 1), (0.5 + 10j, 8), (2.0 + 0j, 0)):
            lerch_deriv(LerchArgs(lam=lam, alpha=0.3, s=s, order=r))
    assert not any(widths)
    # an explicit split still walks them
    lerch_deriv(LerchArgs(lam=0.5, alpha=0.3, s=0.5 + 10j, order=1, split=3.0))
    assert widths[-1] > 0.0


def test_lerch_tails_not_worth_passing_are_walked():
    # at lambda -> 0 the pure tail's final cutoff, about 1/lambda, holds more
    # finite-sum terms than the work budget allows; its panels cost less per
    # unit of u, so the split does not pass it and these still answer
    for lam in (1e-6, 1e-4):
        lerch_deriv(LerchArgs(lam=lam, alpha=0.7, s=0.5 + 1000j, order=1))
    # and so does a table of 21 orders there, its pure tail walked
    lerch_taylor_at_1(20, 1e-4, 0.7)


def ref_progression_sum(a, q, kmax, s, r, lam, block, first=0):
    """One row and one order of the finite-sum kernel as documented (reference):
    blocks of `block` terms, each summed as one array, added left to right,
    with the rounding term; the points a + q (first + k).  The phase is taken
    at f = (k lam_hi mod 1) + k lam_lo, lam_hi = [lam 2^26]/2^26."""
    val, mags, lmags, head, blocks = 0.0 + 0.0j, 0.0, 0.0, 0.0, 0
    lam_hi = math.floor(lam * 2.0**26) / 2.0**26
    lam_lo = lam - lam_hi
    for k0 in range(0, kmax + 1, block):
        k = np.arange(k0, min(k0 + block, kmax + 1), dtype=float)
        logs = np.log(a + q * (first + k))
        phase = np.exp(2j * np.pi * (lam_hi * k % 1.0 + lam_lo * k)) if lam else None
        terms = kernel_terms(logs, s, r, phase)
        part = complex(terms.sum())
        val = val + part if blocks else part
        blocks += 1
        mag, al = np.abs(terms), np.abs(logs)
        mags += float(mag.sum())
        lmags += float((mag * al).sum())
        if r and not k0:
            near = (al[:3] > 0.0) & (al[:3] < 1.0)
            head = r * float((mag[:3][near] / al[:3][near]).sum())
    depth = math.log2(min(kmax + 1, block) + 1) + 20 + blocks
    phase = (6.0 * math.pi + 5.0 + 8.0 * math.pi * kmax * lam_lo) * mags if lam else 0.0
    return val, EPS * (3.0 * abs(s) * lmags + (abs(s) + 3 * r + 8 + 1.5 * depth) * mags + head + phase)


@pytest.mark.parametrize("block, row_block", [(8, 8), (1 << 15, 1 << 13)])
def test_progression_sum_rows_are_their_one_row_sums_bit_for_bit(monkeypatch, block, row_block):
    # every residue class of a split below and above q (two row lengths, empty
    # classes beyond X), and rows out of order with lengths from 0 to 41; at
    # blocks of 8 terms a row spans six blocks and a block holds one row
    monkeypatch.setattr(sawtooth, "_SUM_BLOCK", block)
    monkeypatch.setattr(sawtooth, "_ROW_BLOCK", row_block)
    cases = [(13, np.arange(1.0, 14.0), 30.5), (13, np.arange(1.0, 14.0), 7.5), (1, np.array([0.3, 1.0, 0.05, 0.7]), None)]
    for q, a, X in cases:
        kmax = _lattice_floor(X, a, q) if X else np.array([3, -1, 40, 0])
        for s, lam in ((0.5 + 300j, 0.0), (1.0 + 0j, 0.0), (0.7 - 20j, 0.3 if q == 1 else 0.0), (2.0 + 0j, 15.0 / 16.0 if q == 1 else 0.0)):
            orders = [0, 1, 4]
            vals, errs = _progression_sum(a, q, kmax, s, orders, lam)
            assert vals.shape == errs.shape == (len(orders), a.size)
            for i, r in enumerate(orders):
                for j in range(a.size):
                    want = ref_progression_sum(float(a[j]), q, int(kmax[j]), s, r, lam, block)
                    assert repr((complex(vals[i, j]), float(errs[i, j]))) == repr(want), (q, X, s, r, j)
    # the kinks n + alpha, n >= first, of the plain tail's intervals
    a, kmax, first = np.array([0.3, 0.7, 0.25]), np.array([40, 40, 0]), np.array([3.0, 0.0, 17.0])
    vals, errs = _progression_sum(a, 1, kmax, 0.5 + 300j, [0, 2], first=first)
    for i, r in enumerate([0, 2]):
        for j in range(a.size):
            want = ref_progression_sum(float(a[j]), 1, int(kmax[j]), 0.5 + 300j, r, 0.0, block, first[j])
            assert repr((complex(vals[i, j]), float(errs[i, j]))) == repr(want), (r, j)


def longdouble_lerch_sum(alpha, kmax, s, r, lam):
    """sum_{k <= kmax} e^{2 pi i lam k} (alpha + k)^{-s} (-log(alpha + k))^r
    and sum |term| in long double (a 64-bit significand on x86-64), each
    phase at lam k mod 1 reduced exactly with Fraction: lam = num/den, den a
    power of 2, and (k num mod den)/den is exact in 64 bits."""
    num, den = Fraction(lam).as_integer_ratio()
    f = [(k * num) % den for k in range(kmax + 1)]
    hi, lo = (np.array(part, dtype=np.uint64).astype(np.longdouble) for part in ([x >> 32 for x in f], [x & 0xFFFFFFFF for x in f]))
    ld = np.longdouble
    logs = np.log(ld(alpha) + np.arange(kmax + 1, dtype=ld))
    theta = 2 * ld("3.14159265358979323846264338327950288") * ((hi * 2**32 + lo) / ld(den)) - ld(s.imag) * logs
    mag = np.exp(-ld(s.real) * logs) * (-logs) ** r
    total = complex(float((mag * np.cos(theta)).sum()), float((mag * np.sin(theta)).sum()))
    return total, float(np.abs(mag).sum())


@pytest.mark.parametrize("lam", [0.1, 0.3, 1.0 / 3.0, 0.9, 0.123456789])
def test_the_lerch_phase_holds_its_bound_at_any_lambda_and_does_not_grow_with_k(lam):
    # one phase path for every lam: k lam_hi reduced mod 1 exactly, plus k
    # lam_lo; against the long double sum with the exact reduction, and the
    # phase's share of the bound, (bound - bound at lam = 0)/(eps sum |term|),
    # stays below 8 pi + 5 up to 10^5 terms (it grew like 6 pi lam k before)
    alpha = 0.7
    for s in (0.5 + 300j, 1.5 + 0j):
        for kmax in (10**3, 10**4, 10**5):
            vals, errs = _progression_sum([alpha], 1, [kmax], s, [0, 2], lam)
            _, plain = _progression_sum([alpha], 1, [kmax], s, [0, 2])
            for i, r in enumerate([0, 2]):
                want, mags = longdouble_lerch_sum(alpha, kmax, s, r, lam)
                assert abs(complex(vals[i, 0]) - want) <= errs[i, 0], (s, kmax, r)
                share = (errs[i, 0] - plain[i, 0]) / (EPS * mags)
                assert 6.0 * math.pi + 5.0 - 1e-6 <= share <= 8.0 * math.pi + 5.0, (s, kmax, r, share)


def test_the_lerch_phase_at_lambda_p_over_16_is_bit_for_bit_as_before():
    # every lam = p/16 has lam_lo = 0: its phase 2 pi (lam k mod 1) and bound
    # are those of the former path for lam 2^10 an integer, value and bound
    # bit for bit (the digest of that path's results on this grid)
    digest = hashlib.sha256()
    a, kmax = np.array([0.3, 0.7, 1.0, 0.05]), np.array([0, 40, 5000, 70000])
    for p in range(1, 16):
        for s in (0.5 + 300j, 2.0 + 0j, 0.7 - 20j):
            vals, errs = _progression_sum(a, 1, kmax, s, [0, 1, 4], p / 16.0)
            digest.update(repr((vals.tolist(), errs.tolist())).encode())
    assert digest.hexdigest() == "e6ccbab863c5dec5996aa46756f65e100d8be568d7e7608f9c722a6ceb6992f8"


@pytest.mark.parametrize("r", [3, 4, 8, 24])
def test_kernel_power_is_the_power_of_the_rounded_log_within_an_ulp(r):
    # a one-term sum at s = 0 is the kernel's (-log p)^r itself (p^{-0} = 1
    # exactly): numpy's power of |log p| with the sign of -log p, against the
    # exact power of the rounded log p, within one ulp; against the true
    # (-log p)^r within (r + 1) eps, inside the 3 r eps the bound books for it.
    # Points below 1 (log p < 0, the Hurwitz alpha < 1), p = 1 and above
    rng = np.random.default_rng(r)
    p = np.concatenate([[1.0, 0.3, 1e-9, 0.999, 1.001, 2.0], rng.uniform(0.01, 1.0, 200), np.exp(rng.uniform(0.0, 14.0, 300))])
    vals, _ = _progression_sum(p, 1, np.zeros(p.size, dtype=int), 0j, [r])
    logs = np.log(p)
    with mp.workdps(40):
        for got, lp, pt in zip(vals[0].tolist(), logs.tolist(), p.tolist()):
            exact = Fraction(-lp) ** r
            assert got.imag == 0.0 and abs(Fraction(got.real) - exact) <= Fraction(np.spacing(abs(got.real))), (pt, got, r)
            true = (-mp.log(mp.mpf(pt))) ** r
            assert abs(got.real - true) <= (r + 1) * EPS * abs(true), (pt, got, r)
    assert vals[0, 0] == 0.0  # log 1 = 0


@pytest.mark.parametrize("lam", [0.0, 0.3, 15.0 / 16.0])
def test_a_real_s_sum_is_the_complex_s_sum_within_its_bound(lam):
    # at real s the kernel takes p^{-s} from the real exponential; the complex
    # exponential at Im s = 1e-300 (phases below 1e-295) differs from it by
    # the rounding each books, and the real sum of lam = 0 has no imaginary part
    a, kmax = np.array([0.3, 1.0, 0.05, 0.7]), np.array([40, 3, 2000, 0])
    for sigma in (0.0, 0.5, 1.0, 2.0, -1.5):
        real, rerr = _progression_sum(a, 1, kmax, complex(sigma, 0.0), [0, 1, 2, 5], lam)
        cplx, cerr = _progression_sum(a, 1, kmax, complex(sigma, 1e-300), [0, 1, 2, 5], lam)
        assert (np.abs(real - cplx) <= rerr + cerr).all(), sigma
        assert np.allclose(rerr, cerr, rtol=1e-12, atol=0.0), sigma
        assert lam or (real.imag == 0.0).all()


def test_all_classes_sum_in_flat_memory():
    # l_deriv at q = 1009, t = 1000 sums 1008 classes of about 2030 terms each;
    # blocks of at most _SUM_BLOCK terms in all keep the arrays small (one
    # (classes x terms) array of complex terms is 33 MB)
    tracemalloc.start()
    try:
        l_deriv(0.5 + 1000j, character(1009, 1), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_default_split_sums_in_blocks():
    # s = 0.5 + 2e5 i sums about 4e5 terms; as one array they took about 30 MB
    tracemalloc.start()
    try:
        hurwitz_deriv(HurwitzArgs(s=complex(0.5, 2e5), alpha=0.3, order=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_a_progression_is_charged_by_its_own_class():
    # z sums one residue class of about X/q terms: large moduli and an
    # explicit split of 2e7 (2e4 terms at q = 1000) stay inside the budget
    for s, a, q, r, X in ((0.5 + 1000j, 1, 10000, 1, None), (2.0, 1, 1000000, 0, None), (2.0, 1, 1000, 0, 2e7)):
        res = z_deriv(s, a, q, r, X=X)
        assert _held(res, z_oracle(s, a, q, r, dps=40)), (s, a, q, r, X, res)


@pytest.mark.parametrize("s, alpha, split", [(0.5 + 10j, 0.3, 2.3 - 5e-10), (2.0 + 0j, 1e-9, 5e-10)])
def test_a_split_just_below_a_lattice_point_does_not_count_it(s, alpha, split):
    # the split sits 5e-10 below the lattice point 2 + alpha (alpha): a snap of
    # 1e-9 counted it, off by 1.4e-9 on 1.9 (3e18 on 1e18); the count is now exact
    res = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, split=split))
    ref = z_oracle(s, alpha, 1, 0, dps=40)
    assert _held(res, ref), (s, alpha, split, res, complex(ref))
    with mp.workdps(40):
        assert abs(mp.mpc(res.value.real, res.value.imag) - ref) <= 1e-13 * abs(ref)


def _next_to(point: float, near) -> list[float]:
    """The floats 1 ulp below and above point, and point -+ d for each d of near."""
    return [math.nextafter(point, 0.0), math.nextafter(point, math.inf)] + [point + sign * d for d in near for sign in (-1.0, 1.0)]


def _ulps(x: float, k: int) -> float:
    """The float k ulps above x (below for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _lerch_next_to_a_kink(lam, s):
    # lerch_deriv from splits next to the kink 3 + alpha, against one oracle per order
    alpha = 0.7
    refs = [lerch_oracle(s, lam, alpha, r) for r in range(3)]
    for split in _next_to(3.0 + alpha, (1e-15, 1e-13, 5e-13, 9e-13)):
        for r, ref in enumerate(refs):
            res = lerch_deriv(LerchArgs(lam=float(lam), alpha=alpha, s=s, order=r, split=split))
            assert _held(res, ref), (split, r, res, complex(ref))


def _weighted_tail_next_to_a_kink(nu, s):
    # the sawtooth-weighted tail of the Lerch core from the same starts: its
    # value from the kink's float plus the sliver between, in mpmath, with the
    # jump of psi at the exact kink 3 + alpha a break point of the quadrature
    alpha, b, rmax = 0.7, -s, 2
    kink = 3.0 + alpha
    vals0, errs0 = psi_osc_tail_powers(float(nu), alpha, b, rmax, kink)
    with mp.workdps(30):
        a, bb, nn = mp.mpf(alpha), mp.mpc(b.real, b.imag), mp.mpf(float(nu))
        for x in _next_to(kink, (1e-15, 1e-13, 5e-13, 9e-13)):
            vals, errs = psi_osc_tail_powers(float(nu), alpha, b, rmax, x)
            lo, hi = sorted([mp.mpf(x), mp.mpf(kink)])
            ends = [lo, 3 + a, hi] if lo < 3 + a < hi else [lo, hi]
            for m in range(rmax + 1):
                f = lambda u: (u - a - mp.floor(u - a) - 0.5) * mp.expjpi(2 * nn * (u - a)) * u**bb * mp.log(u) ** m
                sliver = mp.quad(f, ends) * (1 if x < kink else -1)
                want = mp.mpc(vals0[m].real, vals0[m].imag) + sliver
                assert abs(mp.mpc(vals[m].real, vals[m].imag) - want) <= errs[m] + errs0[m], (x, m)


def _z_core_next_to_a_lattice_point(_, s):
    # the Hurwitz, Z and L routes from splits a few ulps from a lattice point
    # alpha + k, a + q k, or a unit of Z/qZ
    chi = character(5, 2)
    routes = [
        (3.7, lambda r, X: hurwitz_deriv(HurwitzArgs(s=s, alpha=0.7, order=r, split=X)), lambda r: z_oracle(s, 0.7, 1, r)),
        (12.0, lambda r, X: z_deriv(s, 2, 5, r, X), lambda r: z_oracle(s, 2, 5, r)),
        (12.0, lambda r, X: l_deriv(s, chi, r, X), lambda r: l_oracle(s, chi, r)),
    ]
    for point, route, oracle in routes:
        for r in (0, 2):
            ref = oracle(r)
            for X in [point] + [_ulps(point, sign * k) for k in (1, 4, 16) for sign in (-1, 1)]:
                res = route(r, X)
                assert _held(res, ref), (point, r, X, res, complex(ref))


NEAR_LATTICE = [(_lerch_next_to_a_kink, lam, s) for lam in (Fraction(5, 16), Fraction(15, 16)) for s in (0.5 + 3j, 1.5 + 20j, 0.5 + 100j)]
NEAR_LATTICE += [(_weighted_tail_next_to_a_kink, nu, s) for nu in (Fraction(5, 16), Fraction(15, 16)) for s in (0.5 + 3j, 1.5 + 20j, 0.5 + 100j)]
NEAR_LATTICE += [(_z_core_next_to_a_lattice_point, None, s) for s in (0.5 + 3j, 1.5 + 20j, 0.5 + 100j)]


@pytest.mark.parametrize("group, lam, s", NEAR_LATTICE, ids=lambda v: getattr(v, "__name__", str(v)))
def test_next_to_a_lattice_point_every_bound_holds(group, lam, s):
    # the finite sums count the lattice points n + alpha <= x (a + q k <= X)
    # exactly: a split or tail start within rounding or 1e-12 of one booked a
    # jump it did not make or, next to a kink of a weighted walk, integrated
    # psi on the wrong branch over the sliver (3.5 times the Lerch bound at
    # 3.7 - 9e-13, lambda = 5/16, s = 1.5 + 20i)
    group(lam, s)


def test_pole_term_near_one_is_refused():
    # (s - 1)^{l+1} underflows to 0, or the pole term overflows
    for s, r in ((1 + 1e-300j, 2), (1.000000000001 + 0j, 24)):
        with pytest.raises(ValueError, match="pole"):
            hurwitz_deriv(HurwitzArgs(s=s, alpha=0.5, order=r))
        with pytest.raises(ValueError, match="pole"):
            z_deriv(s, 1, 1, r)
    # close to the pole but finite: its rounding enters the bound
    res = hurwitz_deriv(HurwitzArgs(s=1 + 1e-10j, alpha=0.5, order=1))
    assert _held(res, z_oracle(1 + 1e-10j, 0.5, 1, 1, dps=40))
    assert res.error_bound > 1e-16 * 1e20  # the pole term is about 1e20


def test_cutoff_search_is_charged_before_it_runs(monkeypatch):
    # at the first cutoff already beyond the budget: 200002 residue classes
    # (far tails and a core each), and a finite sum of 2e7 terms
    monkeypatch.setattr(evaluate, "_tail_cutoff", lambda *args: pytest.fail("the cutoff search ran"))
    with pytest.raises(ValueError, match="work budget"):
        l_deriv(2.0, character(200003, 1), 0)
    with pytest.raises(ValueError, match="work budget"):
        hurwitz_deriv(HurwitzArgs(s=complex(0.5, 1e7), alpha=0.3))


@pytest.mark.parametrize("alpha, t", [(a, t) for a in (0.3, 0.7) for t in (1e3, 1e4, 1e5)] + [(1 / 256, 1e3), (1 / 256, 1e4)])
def test_hurwitz_formula_joins_the_plain_and_oscillatory_routes(t, alpha):
    # zeta(1 - s, alpha) = Gamma(s) (2 pi)^{-s} [e^{-i pi s/2} F(alpha, s) + e^{i pi s/2} F(1 - alpha, s)],
    # F(lam, s) = e^{2 pi i lam} phi(lam, 1, s): the plain cutoff search at 1 - s against the
    # oscillatory final cutoffs at s, to t = 1e5 with no oracle, at r <= 2 by Leibniz,
    # (-1)^r zeta^(r)(1 - s, alpha) = sum over the two factors G of sum_m C(r, m) G^(m) F^(r-m),
    # with G'/G = g' = psi(s) - log 2 pi -+ i pi/2 and G''/G = g'' + g'^2, g'' = psi'(s): only
    # Gamma and its log-derivatives are mpmath's.  alpha = 1/256 checks lambda = 255/256 (at
    # t = 1e5 the pure tail of lambda = 1/256 is refused by the work budget)
    s = complex(0.5, t)
    zetas = [hurwitz_deriv(HurwitzArgs(s=1.0 - s, alpha=alpha, order=r)) for r in range(3)]
    with mp.workdps(30):
        sm = mp.mpc(s.real, s.imag)
        common = mp.gamma(sm) * (2 * mp.pi) ** (-sm)
        rhs = [(-1) ** r * mp.mpc(z.value) for r, z in enumerate(zetas)]
        bound = [mp.mpf(z.error_bound) for z in zetas]
        for lam, sign in ((alpha, -1), (1.0 - alpha, 1)):
            phis = _lerch_values(s, lam, 1.0, range(3), None)
            factor = common * mp.exp(sign * 0.5j * mp.pi * sm) * mp.expjpi(2 * mp.mpf(lam))
            g1 = mp.digamma(sm) - mp.log(2 * mp.pi) + sign * 0.5j * mp.pi
            ratios = (1, g1, mp.psi(1, sm) + g1**2)
            for r in range(3):
                for m in range(r + 1):
                    c = math.comb(r, m) * factor * ratios[m]
                    rhs[r] -= c * mp.mpc(phis[r - m].value)
                    bound[r] += abs(c) * phis[r - m].error_bound
        for r in range(3):
            assert abs(rhs[r]) <= bound[r], (r, abs(rhs[r]), bound[r])


@pytest.mark.parametrize("t", [1e3, 1e4, 1e5])
@pytest.mark.parametrize("q", [5, 7])
def test_l_functional_equation_joins_each_character_and_its_conjugate(q, t):
    # Lambda(s, chi) = eps(chi) Lambda(1 - s, conj chi) for primitive chi, Lambda(s, chi) =
    # G(s) L(s, chi), G(s) = (q/pi)^{(s+k)/2} Gamma((s+k)/2), k = 0 (even) or 1 (odd), and
    # eps(chi) = tau(chi)/(i^k sqrt(q)), tau from gauss_sum; by Leibniz at r <= 2, each side
    # over G(s), with d^r/ds^r Lambda(1 - s) = (-1)^r Lambda^(r)(1 - s).  Only G is mpmath's:
    # G^(m)/G = 1, g', g'' + g'^2 with g = log G.  The factor's rounding is that of tau,
    # at most 8 q eps in all (q terms of modulus 1)
    s = complex(0.5, t)
    prim = [chi for chi in enumerate_characters(q) if not chi.is_principal]  # q prime: all primitive
    labels = [chi.label for chi in prim]
    here, there = _l_values(s, prim, range(3)), _l_values(1.0 - s, prim, range(3))
    with mp.workdps(30):
        lqp = mp.log(mp.mpf(q) / mp.pi)
        for i, chi in enumerate(prim):
            k, j = 0 if chi.parity == 1 else 1, labels.index(chi.conjugate().label)

            def logs(z):  # g, g' and g'' at z
                w = (mp.mpc(z.real, z.imag) + k) / 2
                return w * lqp + mp.loggamma(w), (lqp + mp.digamma(w)) / 2, mp.psi(1, w) / 4

            (g0, g1, g2), (h0, h1, h2) = logs(s), logs(1.0 - s)
            at_s, at_1ms = [1, g1, g2 + g1**2], [mp.exp(h0 - g0) * c for c in (1, h1, h2 + h1**2)]
            eps = mp.mpc(gauss_sum(chi, 1)) / (mp.j**k * mp.sqrt(q))
            for r in range(3):
                terms = [(math.comb(r, l), at_s[r - l], here[l][i], at_1ms[r - l], there[l][j]) for l in range(r + 1)]
                lhs = mp.fsum(c * a * mp.mpc(x.value) for c, a, x, _, _ in terms)
                rhs = (-1) ** r * eps * mp.fsum(c * b * mp.mpc(y.value) for c, _, _, b, y in terms)
                bound = math.fsum(c * (float(abs(a)) * x.error_bound + float(abs(b)) * y.error_bound) for c, a, x, b, y in terms)
                bound += float(abs(rhs)) * 8 * q * EPS
                assert abs(lhs - rhs) <= bound, (chi, r, float(abs(lhs - rhs)), bound)
