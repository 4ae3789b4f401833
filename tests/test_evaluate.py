import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from zetalab import evaluate, sawtooth
from zetalab.characters import character, enumerate_characters
from zetalab.evaluate import (
    HurwitzArgs,
    LerchArgs,
    _finite_power_sum,
    _pole_term,
    _psi_at_split,
    _s_tail,
    _split_floor,
    _z_core,
    hurwitz_deriv,
    l_deriv,
    lerch_deriv,
    z_deriv,
)
from zetalab.sawtooth import EvalResult, _tail_cutoff, psi_tail_powers

from .oracles import (
    catalan_constant,
    direct_series_oracle,
    hurwitz_series_cutoff,
    l_oracle,
    leibniz_pi_4,
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


def ref_hurwitz_core(s, alpha, r, x):
    """The Hurwitz core that Z(s, alpha, 1) replaced (reference): finite sum
    + boundary + tail, without the pole term; with the pieces that the
    rounding term of the new contract is made of."""
    nmax = _split_floor(x - alpha)
    tails, terrs = psi_tail_powers(x, alpha, -s - 1.0, r)
    tail, err = _s_tail(tails, terrs, s, r)
    pts = alpha + np.arange(0, nmax + 1, dtype=float) if nmax >= 0 else np.empty(0)
    val = _finite_power_sum(pts, s, r)
    lx = math.log(x)
    psi = _psi_at_split(x - alpha)
    fx = cmath.exp(-s * lx)
    val += psi * fx * (-lx) ** r
    pieces = dict(pts=pts, nmax=nmax, v=x - alpha, psi=psi, fx=fx, val=val, tail=tail, tails=tails)
    return val + tail, err, pieces


def ref_rounding(s, r, x, p) -> float:
    """The rounding term of the Hurwitz bound at q = 1, term by term as documented:
    the finite sum, the boundary term, the tail combination and its addition."""
    logs = np.log(p["pts"])
    terms = np.exp(-s * logs) * (-logs) ** r if r else np.exp(-s * logs)
    mag, al = np.abs(terms), np.abs(logs)
    head = 0.0
    if r and p["pts"].size:
        near = (al[:3] > 0.0) & (al[:3] < 1.0)
        head = r * float((mag[:3][near] / al[:3][near]).sum())
    depth = math.log2(p["nmax"] + 2) + 20 + (p["pts"].size > 0)
    err = EPS * (3.0 * abs(s) * float((mag * al).sum()) + (abs(s) + 3 * r + 8 + 1.5 * depth) * float(mag.sum()) + head)
    lx, v, kmax = abs(math.log(x)), p["v"], p["nmax"]
    boundary = abs(p["fx"]) * lx**r * EPS * (4.0 * (abs(v) + 2.0) + abs(p["psi"]) * (3.0 * abs(s) * lx + 2 * r + 8))
    if kmax > v:  # the split within four ulps below the lattice point kmax, which the sum counts
        boundary += 1.01 * (kmax - v) * abs(p["fx"]) / x * (abs(s) * lx**r + (r * lx ** (r - 1) if r else 0.0))
    err += boundary
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
                    core, cerr = _z_core(s, a, q, r, X, psi_tail_powers(X / q, a / q, -s - 1.0, r))
                    val += chi(a) * core
                    err += cerr
                    cores.append(core)
            # the weighting's rounding: chi(a), the products and the sum over the units
            err += EPS * (20 + len(cores)) * float(np.abs(cores).sum())
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


def test_default_split_walks_no_march(monkeypatch):
    # the tails are the cutoff search's own far tails at the final cutoff:
    # no march is called, so none walks a nonempty interval
    walked = []
    march = sawtooth._march
    monkeypatch.setattr(sawtooth, "_march", lambda sums, lo, hi, *rest: walked.append((lo, hi)) or march(sums, lo, hi, *rest))
    for s, r in ((0.5 + 1000j, 1), (0.5 + 10j, 24), (2.0 + 0j, 0), (0.05 - 300j, 8)):
        hurwitz_deriv(HurwitzArgs(s=s, alpha=0.3, order=r))
        z_deriv(s, 3, 7, r)
        l_deriv(s, character(7, 3), r)
    assert walked == []
    # an explicit split still marches
    hurwitz_deriv(HurwitzArgs(s=0.5 + 1000j, alpha=0.3, order=1, split=3.0))
    assert walked[-1][0] < walked[-1][1]


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
    # 1e-9 counted it, off by 1.4e-9 on 1.9 (3e18 on 1e18); the snap is now a few ulps
    res = hurwitz_deriv(HurwitzArgs(s=s, alpha=alpha, split=split))
    ref = z_oracle(s, alpha, 1, 0, dps=40)
    assert _held(res, ref), (s, alpha, split, res, complex(ref))
    with mp.workdps(40):
        assert abs(mp.mpc(res.value.real, res.value.imag) - ref) <= 1e-13 * abs(ref)


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
