"""Sawtooth kernel, periodic Bernoulli functions, and rigorously bounded
tail integrals.

The central objects are the sawtooth psi(u) = u - [u] - 1/2, its second
antiderivative psi2, and infinite tails of the form

    int_x^inf psi(u - alpha) u^b log^m u du               (plain)
    int_x^inf e^{2 pi i nu u} u^b log^m u du              (pure oscillatory)
    int_x^inf psi(u - alpha) e^{2 pi i nu (u-alpha)} u^b log^m u du

evaluated for all log powers m = 0..r at once, each returning a value
plus a truncation bound.  The plain tail is integrated piecewise exactly
on every interval where psi is linear (the integrand reduces to
antiderivatives of u^c log^m u), and the far tail is expanded through
higher periodic-Bernoulli antiderivatives of psi, whose remainder is
bounded by |B_K({u})/K!| <= 2.5 (2 pi)^{-K} times an explicit absolutely
convergent integral.

The plain tail has one kernel for many shifts alpha at once (the residue
classes a/q of an L-function): the march walks a rows x segments grid,
one row per alpha and one segment per linear piece of psi, in blocks of
at most 2048 moments, no wider than the longest row left, whose break
points are generated block by block, so memory does not grow with the
length of the march; the exponents b + 2 and b + 1 share one stacked pass
of moments.  Each row is bit for bit the scalar march: complex products
and quotients replay CPython's formulas on separate real and imaginary
float64 arrays, math.log and cmath.exp stay scalar (numpy's versions
round differently), and sums run left to right.  A tail whose march or
panel walk would exceed about 2e6 pieces, or reach 2^52, is refused; a
plain tail from x >= 2^52 walks nothing, and since its cutoff is then an
integer, its far tail is expanded at {-alpha}.  One rule picks the plain
tail's cutoffs and where its rows stop; the search for the final one
(_tail_cutoff) returns the tails from there, where nothing is marched.

Oscillatory tails combine 32-node Gauss-Legendre panels (at most ~half a
cycle each) with repeated integration by parts against the exponential
beyond an adaptive cutoff; the sawtooth-weighted variant expands
psi(u-alpha) e^{2 pi i nu(u-alpha)} in combined frequencies n + nu and
sums the boundary terms of all parts in closed form, from one row of
periodic Bernoulli values shared by all K parts.  One panel kernel serves
every walk, as (block x 32) arrays of at most 512 panels; it is bit for
bit the one-panel-at-a-time loop (np.vecdot per panel, which is np.dot's
BLAS dot, and panel sums added left to right).  A sawtooth-weighted tail
whose cutoff reaches 2^52 is refused: from there alpha and the phase
2 pi nu u are lost to rounding.

Error bounds here cover truncation and quadrature, not binary64 rounding;
the Hurwitz, Z and L routes of evaluate, and the coefficient routes that
read their core, add the rounding of what they assemble from these tails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_ORDER",
    "EvalResult",
    "psi",
    "psi2",
    "psi_tail_powers",
    "psi_tail_powers_batch",
    "pure_osc_tail_powers",
    "psi_osc_tail_powers",
    "segment_osc_power_log",
    "power_log_tail_abs",
]

TWO_PI = 2.0 * math.pi

MAX_ORDER = 24  # binary64 cancellation in (-log u)^{r-1}(r - s log u) grows beyond


def _check_order(r: int) -> None:
    if not 0 <= r <= MAX_ORDER:
        raise ValueError(f"order must lie in 0..{MAX_ORDER}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class EvalResult:
    """A value together with a rigorous truncation/quadrature bound."""

    value: complex
    error_bound: float

    def __post_init__(self):
        if not (cmath.isfinite(self.value) and math.isfinite(self.error_bound)):
            raise ValueError(f"the value {self.value} or its error bound {self.error_bound} is not finite in binary64")
        if self.error_bound < 0.0:
            raise ValueError(f"error bound must be nonnegative, got {self.error_bound}")


def psi(u: float) -> float:
    """Sawtooth u - [u] - 1/2; equals -1/2 at integers by the formula."""
    return u - math.floor(u) - 0.5


def psi2(u: float) -> float:
    """Second antiderivative of the sawtooth: ({u}^2 - {u} + 1/6)/2.

    Matches the Fourier series -sum_{|n|>=1} e^{2 pi i n u}/(2 pi i n)^2
    everywhere, with d/du psi2 = psi away from integers and |psi2| <= 1/12.
    """
    f = u - math.floor(u)
    return (f * f - f + 1.0 / 6.0) / 2.0


# ---------------------------------------------------------------------------
# periodic Bernoulli functions B_m({u})/m! and their scaled variant
# ---------------------------------------------------------------------------

_BERNOULLI = (
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
)


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(m: int) -> tuple[float, ...]:
    """Coefficients of B_m(x)/m!, highest degree first."""
    coeffs = [
        Fraction(math.comb(m, k)) * _BERNOULLI[k] / Fraction(math.factorial(m))
        for k in range(m + 1)
    ]
    return tuple(float(c) for c in coeffs)


def _phi_bernoulli(m: int, v: float) -> float:
    """(2 pi)^m B_m({v})/m! = -sum_{|n|>=1} e^{2 pi i n v}/(i n)^m, bounded by ~2.5."""
    if m <= 12:
        f = v - math.floor(v)
        acc = 0.0
        for c in _bernoulli_poly_coeffs(m):
            acc = acc * f + c
        return acc * TWO_PI**m
    # Fourier series; terms decay like n^{-m}, so a handful suffice
    acc = 0.0
    n = 1
    phase = -0.5 * math.pi * m  # i^{-m} = e^{-i pi m / 2}
    while True:
        acc -= 2.0 * math.cos(TWO_PI * n * v + phase) / n**m
        n += 1
        if n ** (-m) < 1e-20 or n > 64:
            break
    return acc


def _phi_bernoulli_rows(m: int, v: np.ndarray) -> np.ndarray:
    """_phi_bernoulli(m, v) for every entry of v, bit for bit (math.cos stays scalar)."""
    if m <= 12:
        f = v - np.floor(v)
        acc = np.zeros_like(f)
        for c in _bernoulli_poly_coeffs(m):
            acc = acc * f + c
        return acc * TWO_PI**m
    acc = np.zeros_like(v)
    n = 1
    phase = -0.5 * math.pi * m
    while True:
        arg = TWO_PI * n * v + phase
        acc = acc - 2.0 * np.fromiter(map(math.cos, arg.tolist()), dtype=float, count=arg.size) / float(n**m)
        n += 1
        if n ** (-m) < 1e-20 or n > 64:
            break
    return acc


_PSI_TILDE_ABS = tuple(
    2.5 / TWO_PI**m if m >= 2 else 0.5 for m in range(0, 40)
)  # |B_m({v})/m!| <= 2 zeta(m)/(2 pi)^m <= 2.5/(2 pi)^m for m >= 2


# ---------------------------------------------------------------------------
# CPython's complex arithmetic on (real, imaginary) float64 arrays
# ---------------------------------------------------------------------------
#
# The plain-tail kernel evaluates the scalar formulas on arrays and gives
# the same bits.  numpy's complex multiply and divide round differently from
# CPython's, and np.log / np.exp from math.log / math.exp, so products and
# quotients replay CPython 3.11's formulas on separate real and imaginary
# arrays (a float operand enters as (x, 0.0), as Python promotes it), the
# logarithms and exponentials stay scalar, and sums run left to right
# (in-place adds, or np.add.accumulate along the segments; np.sum adds
# pairwise).


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) by CPython's product formula."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """(ar + i ai)/(br + i bi) by CPython's quotient (Smith's method)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        by_re = np.abs(br) >= np.abs(bi)
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai)
        im = np.where(by_re, ai - ar * ratio, ai * ratio - ar)
    return re / denom, im / denom


def _cdiv_real(ar, ai, d):
    """(ar + i ai)/d for real d > 0, as CPython divides by complex(d, 0.0)."""
    return (ar + ai * 0.0) / d, (ai - ar * 0.0) / d


def _cexp(re, im):
    """cmath.exp elementwise, as (real, imaginary) arrays."""
    z = _complex(re, im)
    w = np.fromiter(map(cmath.exp, z.ravel().tolist()), dtype=complex, count=z.size)
    return w.real.reshape(z.shape), w.imag.reshape(z.shape)


def _complex(re, im) -> np.ndarray:
    """The complex array with exactly these real and imaginary parts."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


def _running_sum(start, terms):
    """start + terms[0] + terms[1] + ..., added left to right."""
    acc = np.array(start, dtype=float)
    for t in terms:
        acc += t
    return acc


# ---------------------------------------------------------------------------
# antiderivatives of u^c log^m u and absolute tail integrals
# ---------------------------------------------------------------------------


def _moments_exp(zr, zi, imax: int):
    """m_i(z) = int_0^1 e^{z w} w^i dw for i = 0..imax and an array of z,
    as (real, imaginary) arrays of shape (imax + 1, len(z)).

    |z| <= 2: power series; |z| >= imax: upward recurrence; between them a
    downward recurrence seeded far above imax.
    """
    az = np.hypot(zr, zi)
    out_r = np.empty((imax + 1, az.size))
    out_i = np.empty_like(out_r)
    series = az <= 2.0
    upward = ~series & (az >= imax)
    for part, moments in ((series, _moments_series), (upward, _moments_up), (~series & ~upward, _moments_down)):
        if part.any():
            idx = np.flatnonzero(part)
            out_r[:, idx], out_i[:, idx] = moments(zr[idx], zi[idx], az[idx], imax)
    return out_r, out_i


def _moments_series(zr, zi, az, imax: int):
    """sum_k z^k / (k! (i + k + 1)), each i stopping at its first term below
    1e-19 (i + k + 1) or at k = 80; the terms c_k = z^k/k! serve every i."""
    d0 = np.arange(1.0, imax + 2.0)[:, None]  # i + 1
    sr, si = (np.repeat(v, az.size, axis=1) for v in _cdiv_real(1.0, 0.0, d0))
    cr, ci = np.ones_like(zr), np.zeros_like(zr)
    zkr, zki = zr + zi * 0.0, zi - zr * 0.0  # numerators of z / k
    live = np.ones(sr.shape, dtype=bool)
    for k in range(1, 81):
        cr, ci = _cmul(cr, ci, zkr / k, zki / k)
        d = d0 + k
        tr, ti = _cdiv_real(cr, ci, d)
        np.add(sr, tr, out=sr, where=live)
        np.add(si, ti, out=si, where=live)
        live &= ~(np.hypot(cr, ci) < 1e-19 * d)
        if not live.any():
            break
    return sr, si


def _moments_up(zr, zi, az, imax: int):
    """m_0 = (e^z - 1)/z, m_i = (e^z - i m_{i-1})/z."""
    er, ei = _cexp(zr, zi)
    out_r = np.empty((imax + 1, az.size))
    out_i = np.empty_like(out_r)
    out_r[0], out_i[0] = _cdiv(er - 1.0, ei - 0.0, zr, zi)
    for i in range(1, imax + 1):
        pr, pi_ = _cmul(float(i), 0.0, out_r[i - 1], out_i[i - 1])
        out_r[i], out_i[i] = _cdiv(er - pr, ei - pi_, zr, zi)
    return out_r, out_i


def _moments_down(zr, zi, az, imax: int):
    """m_{i-1} = (e^z - z m_i)/i from m = 0 at i = imax + int|z| + 60."""
    er, ei = _cexp(zr, zi)
    start = imax + az.astype(np.int64) + 60
    mr, mi = np.zeros_like(zr), np.zeros_like(zr)
    out_r = np.empty((imax + 1, az.size))
    out_i = np.empty_like(out_r)
    for i in range(int(start.max()), 0, -1):
        pr, pi_ = _cmul(zr, zi, mr, mi)
        nr, ni = _cdiv_real(er - pr, ei - pi_, float(i))
        begun = start >= i
        mr, mi = np.where(begun, nr, mr), np.where(begun, ni, mi)
        if i - 1 <= imax:
            out_r[i - 1], out_i[i - 1] = mr, mi
    return out_r, out_i


def _powers(v, m: int) -> np.ndarray:
    """Rows v^0, v^1, ..., v^m, each the previous one times v."""
    out = np.empty((m + 1, v.size))
    out[0] = 1.0
    for i in range(1, m + 1):
        out[i] = out[i - 1] * v
    return out


def _power_log_segments(betas: tuple[complex, ...], rmax: int, t1, t2) -> list:
    """int_{t1}^{t2} e^{beta t} t^r dt for r = 0..rmax (t = log u) on arrays
    of segments, one (real, imaginary) pair of shape (rmax + 1, len(t1)) per
    beta of betas.  The nonzero betas are stacked along the segment axis:
    one pass of moments and exponentials, each element as if alone."""
    delta = t2 - t1
    t1p = _powers(t1, rmax)
    if 0 in betas:
        # factored (t2^{r+1}-t1^{r+1})/(r+1) = delta * sum_k t2^k t1^{r-k}/(r+1):
        # same-sign terms, so the value carries relative (not power-sized) error
        t2p, zero = _powers(t2, rmax), np.zeros(t1.size)
        closed = np.array([delta * _running_sum(zero, t2p[: r + 1] * t1p[r::-1]) / (r + 1) for r in range(rmax + 1)])
    live = [beta for beta in betas if beta != 0]
    if k := len(live):
        br, bi = (np.repeat(v, t1.size) for v in ([beta.real for beta in live], [beta.imag for beta in live]))
        d, tp, zero = np.tile(delta, k), np.tile(t1p, k), np.zeros(t1.size * k)
        mr, mi = _moments_exp(*_cmul(br, bi, d, 0.0), rmax)
        pr, pi_ = _cexp(*_cmul(br, bi, np.tile(t1, k), 0.0))
        dmr, dmi = _cmul(_powers(d, rmax + 1)[1:], 0.0, mr, mi)  # delta^{i+1} m_i
        out_r, out_i = np.empty_like(tp), np.empty_like(tp)
        for r in range(rmax + 1):
            # sum_i C(r, i) t1^{r-i} delta^{i+1} m_i, then times e^{beta t1}
            f = _binomials(r)[:, None] * tp[r::-1]
            tr, ti = _cmul(f, 0.0, dmr[: r + 1], dmi[: r + 1])
            out_r[r], out_i[r] = _cmul(pr, pi_, _running_sum(zero, tr), _running_sum(zero, ti))
        stacked = iter(zip(np.split(out_r, k, axis=1), np.split(out_i, k, axis=1)))
    return [next(stacked) if beta != 0 else (closed, np.zeros_like(closed)) for beta in betas]


@lru_cache(maxsize=None)  # one entry per order r <= MAX_ORDER
def _binomials(r: int) -> np.ndarray:
    return np.array([math.comb(r, i) for i in range(r + 1)], dtype=float)


def power_log_tail_abs(c: float, j: int, u: float) -> float:
    """int_u^inf w^c log^j w dw for real c < -1, u > 1 (exact closed form)."""
    if c >= -1.0:
        raise ValueError("absolute tail integral needs exponent < -1")
    lam = -(c + 1.0)
    ll = math.log(u)
    acc = 0.0
    fact = math.factorial(j)
    for i in range(j + 1):
        acc += (fact / math.factorial(i)) * ll**i / lam ** (j - i + 1)
    return math.exp(-lam * ll) * acc


def _deriv_rows(b: complex, r: int, kmax: int) -> list[list[complex]]:
    """Coefficient rows of g^(k) for g = u^b log^r u.

    Row k holds coefficients c[i] with g^(k)(u) = u^{b-k} sum_i c[i] log^i u.
    """
    rows = [[0.0 + 0.0j] * (r + 1)]
    rows[0][r] = 1.0 + 0.0j
    for k in range(kmax):
        prev = rows[k]
        nxt = [0.0 + 0.0j] * (r + 1)
        for i in range(r + 1):
            nxt[i] = (b - k) * prev[i]
            if i + 1 <= r:
                nxt[i] += (i + 1) * prev[i + 1]
        rows.append(nxt)
    return rows


def _row_eval(row: list[complex], b_minus_k: complex, u: float) -> complex:
    ll = math.log(u)
    acc = 0.0 + 0.0j
    for i in reversed(range(len(row))):
        acc = acc * ll + row[i]
    return acc * cmath.exp(b_minus_k * math.log(u))


def _row_abs_tail(row: list[complex], re_b_minus_k: float, u: float) -> float:
    """Bound int_u^inf |u^{b-k} sum_i c_i log^i u| du termwise."""
    acc = 0.0
    for i, c in enumerate(row):
        ac = abs(c)
        if ac:
            acc += ac * power_log_tail_abs(re_b_minus_k, i, u)
    return acc


def _far_tail(rows_all: list[list[list[complex]]], b: complex, u0: float, coeffs) -> np.ndarray:
    """sum_k coeffs[j][k] g_r^{(k)}(u0) for every row j of coefficients and every
    g_r = u^b log^r u (rows_all[r] from _deriv_rows), added in k order: the
    boundary terms of the far-tail expansions, shape (rows, rmax + 1).

    g_r^{(k)}(u0) does not depend on the row: it is evaluated once."""
    c = np.asarray(coeffs, dtype=complex).T[:, :, None]  # (k, row, 1)
    g = np.array([[_row_eval(rows[k], b - k, u0) for rows in rows_all] for k in range(c.shape[0])])[:, None, :]
    tr, ti = _cmul(c.real, c.imag, g.real, g.imag)
    zero = np.zeros(tr.shape[1:])
    return _complex(_running_sum(zero, tr), _running_sum(zero, ti))


def _far_remainders(rows_all: list[list[list[complex]]], b: complex, u0: float, scale: float) -> list[float]:
    """scale * int_u0^inf |g_r^{(K)}| for every r, K the last row of rows_all[r]."""
    K = len(rows_all[0]) - 1
    return [scale * _row_abs_tail(rows[K], b.real - K, u0) for rows in rows_all]


# ---------------------------------------------------------------------------
# plain sawtooth tails, piecewise exact + periodic-Bernoulli far tail
# ---------------------------------------------------------------------------

_TOL_ABS = 1e-15
_TOL_REL = 1e-12
_K_TAIL = 14  # periodic-Bernoulli expansion depth for the plain tail


_BLOCK = 2048  # moments per block of the march, over its segments and nonzero exponents: memory stays flat in its length
# units of work of one request: a unit interval of a plain march, a panel of
# an oscillatory walk, a term of a Lerch or AFE sum; the Hurwitz, Z and L
# splits weigh their terms and residue classes in march segments
_WORK_BUDGET = 2e6


def _check_work(pieces: float) -> None:
    """Refuse, before any work, a finite sum or a walk beyond the budget (about 10 s)."""
    if not pieces <= _WORK_BUDGET:
        raise ValueError(
            f"the request would take about {pieces:.3g} units of work, beyond the work budget of {_WORK_BUDGET:.0e}"
        )


def _check_kinks(lo: float, hi: float) -> None:
    """Refuse a walk over (lo, hi) that reaches 2^52: from there the float spacing is 1,
    so the kinks m + alpha of psi(u - alpha) round onto integers and two can coincide."""
    if lo < hi and not hi < 2.0**52:
        raise ValueError(f"the walk to u = {hi:.6g} reaches 2^52, where the kinks of the sawtooth round onto integers")


def _kinks(lo: float, hi: float, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first kink index m1 and the segment count: the kinks
    m + alpha of psi(u - alpha) with lo + 1e-12 < m + alpha < hi - 1e-12
    cut (lo, hi) into count segments on which psi is linear.

    Each adjustment stops where a unit step no longer changes the float
    (beyond 2^53, where the kinks are not distinct), so the walk ends."""
    first = np.floor(lo - alphas + 1e-12) + 1.0
    while (low := (first + alphas <= lo + 1e-12) & (first + 1.0 > first)).any():
        first += low
    last = np.floor(hi - alphas)
    while (up := ((last + 1.0) + alphas < hi - 1e-12) & (last + 1.0 > last)).any():
        last += up
    while (down := (last + alphas >= hi - 1e-12) & (last - 1.0 < last)).any():
        last -= down
    return first, np.maximum(last - first + 1.0, 0.0).astype(np.int64) + 1


def _march(sums, lo: float, hi: float, alphas: np.ndarray, b: complex, rmax: int) -> None:
    """Add int_lo^hi psi(u - alpha) u^b log^m u du, m = 0..rmax, piecewise
    exact, to each row's sums = (real parts, imaginary parts, sum of the raw
    segment magnitudes |J| as a proxy for accumulated double-precision
    cancellation), three arrays of shape (rmax + 1, rows) updated in place.

    One segment per interval where psi(u - alpha) is linear; the rows x
    segments grid is walked in blocks of at most _BLOCK moments, no wider
    than the longest row left (the exponents b + 2 and b + 1 share one pass),
    whose break points are made block by block, so memory stays flat.
    """
    if not lo < hi:
        return
    _check_kinks(lo, hi)
    first, count = _kinks(lo, hi, alphas)
    betas = (b + 2.0, b + 1.0)
    block = _BLOCK // sum(beta != 0 for beta in betas)  # segments per block
    for r0 in range(0, alphas.size, block):
        rows = np.arange(r0, min(r0 + block, alphas.size))
        width, end = block // rows.size, int(count[rows].max())
        for j0 in range(0, end, width):
            rows = rows[count[rows] > j0]
            w = min(width, end - j0)
            j = np.arange(j0, j0 + w + 1)  # break point indices: lo, the kinks, hi
            al, n = alphas[rows, None], count[rows, None]
            pts = np.where(j == 0, lo, np.where(j >= n, hi, (first[rows, None] + (j - 1)) + al))
            logs = np.fromiter(map(math.log, pts.ravel().tolist()), dtype=float, count=pts.size).reshape(pts.shape)
            u1, u2 = pts[:, :-1], pts[:, 1:]
            c = (al + np.floor(0.5 * (u1 + u2) - al) + 0.5).ravel()
            t1, t2 = logs[:, :-1].ravel(), logs[:, 1:].ravel()
            (hr, hi_), (lr, li) = _power_log_segments(betas, rmax, t1, t2)
            pr, pi_ = _cmul(c, 0.0, lr, li)
            parts = (hr - pr, hi_ - pi_, np.hypot(hr, hi_) + np.abs(c) * np.hypot(lr, li))
            valid = (j[:-1] < n).ravel()
            shape = (rmax + 1, rows.size, w)
            for acc, d in zip(sums, parts):
                both = np.concatenate([acc[:, rows, None], np.where(valid, d, 0.0).reshape(shape)], axis=2)
                acc[:, rows] = np.add.accumulate(both, axis=2)[:, :, -1]


def _first_cutoff(b: complex, rmax: int) -> float:
    """The plain tail's first cutoff from any x below it."""
    return max(2.0 * (abs(b) + rmax + _K_TAIL), 8.0)


def _tail_cutoffs(x: float, b: complex, rmax: int):
    """The plain tail's cutoffs u0 = max(x, _first_cutoff), 2 u0, 4 u0, ...,
    each with the far-tail rows of g_m = u^b log^m u (m = 0..rmax) and the
    remainders 2.5 (2 pi)^{-K} int_u0^inf |g_m^{(K-1)}|, a column of one per m."""
    rows_all = [_deriv_rows(b, r, _K_TAIL - 1) for r in range(rmax + 1)]
    u0 = max(x, _first_cutoff(b, rmax))
    while True:
        yield u0, rows_all, np.array(_far_remainders(rows_all, b, u0, _PSI_TILDE_ABS[_K_TAIL]))[:, None]
        u0 *= 2.0


def _tail_stops(u0: float, rems: np.ndarray, size) -> np.ndarray:
    """Whether a row stops at the cutoff u0: its remainders meet the tolerance
    for a tail of this size, or u0 is past the cap."""
    return np.all(rems <= np.fmax(_TOL_ABS, _TOL_REL * size), axis=0) | (u0 > 5e6)


def _far_tails(rows_all, b: complex, u0: float, alphas: np.ndarray) -> np.ndarray:
    """The far-tail expansions at the cutoff u0, shape (rmax + 1, rows): one
    column per alpha, sum_k (-1)^{k+1} psi~_{k+2}(u0 - alpha) g_m^{(k)}(u0).
    From 2^52 on, where u0 is an integer, they are expanded at {-alpha}."""
    v = u0 - alphas if u0 < 2.0**52 else -alphas
    coeffs = [(-1.0) ** (k + 1) * (_phi_bernoulli_rows(k + 2, v) / TWO_PI ** (k + 2)) for k in range(_K_TAIL - 1)]
    return _far_tail(rows_all, b, u0, np.transpose(coeffs)).T


def _tail_values(sums, rows_all, b: complex, u0: float, rems: np.ndarray, alphas: np.ndarray):
    """Each row's tails at the cutoff u0, its marched sums plus the far tail,
    with their bounds (rmax + 1, rows), and whether the row stops there."""
    tails = _far_tails(rows_all, b, u0, alphas)
    vr, vi = sums[0] + tails.real, sums[1] + tails.imag
    # widen by the accumulated-magnitude proxy so that downstream
    # two-route comparisons stay inside the reported bounds
    return _complex(vr, vi), rems + 5e-16 * sums[2], _tail_stops(u0, rems, np.hypot(vr, vi))


def _tail_cutoff(alphas, b: complex, rmax: int) -> tuple[float, list[tuple[list[complex], list[float]]]]:
    """The first cutoff u of _tail_cutoffs at which every row of
    psi_tail_powers_batch(u, alphas, b, rmax) stops with nothing marched,
    and that batch's result, bit for bit: from u it marches over no interval."""
    alphas = np.array(alphas, dtype=float)
    sums = [np.zeros((rmax + 1, alphas.size)) for _ in range(3)]
    for u0, rows_all, rems in _tail_cutoffs(0.0, b, rmax):
        vals, errs, done = _tail_values(sums, rows_all, b, u0, rems, alphas)
        if done.all():
            return u0, list(zip(vals.T.tolist(), errs.T.tolist()))


def psi_tail_powers_batch(x: float, alphas, b: complex, rmax: int) -> list[tuple[list[complex], list[float]]]:
    """psi_tail_powers(x, alpha, b, rmax) for every alpha of alphas, in order,
    from one march of all rows; each row is bit for bit its one-row result.

    Rows that meet the tolerance at the cutoff u0 stop there; the others
    march on to 2 u0.  The far-tail derivatives and remainders do not depend
    on alpha and are evaluated once per cutoff.
    """
    b = complex(b)
    if b.real >= 0.0:
        raise ValueError("tail requires Re(exponent) < 0 for convergence")
    cutoffs = _tail_cutoffs(x, b, rmax)
    u0, rows_all, rems = next(cutoffs)
    alphas = np.array(alphas, dtype=float)
    _check_work(alphas.size * (u0 - x))
    sums = [np.zeros((rmax + 1, alphas.size)) for _ in range(3)]
    out: list = [None] * alphas.size
    rows = np.arange(alphas.size)
    cur = x
    while True:
        _march(sums, cur, u0, alphas, b, rmax)
        cur = u0
        vals, errs, done = _tail_values(sums, rows_all, b, u0, rems, alphas)
        for i, row, bounds in zip(rows[done].tolist(), vals[:, done].T.tolist(), errs[:, done].T.tolist()):
            out[i] = (row, bounds)
        if done.all():
            return out
        rows, alphas = rows[~done], alphas[~done]
        sums = [a[:, ~done] for a in sums]
        u0, _, rems = next(cutoffs)


def psi_tail_powers(x: float, alpha: float, b: complex, rmax: int) -> tuple[list[complex], list[float]]:
    """int_x^inf psi(u-alpha) u^b log^m u du for m = 0..rmax, with bounds.

    Requires Re(b) < 0.  Piecewise exact up to an adaptive cutoff U, then
    the expansion sum_k (-1)^k psi~_{k+1}(U-alpha) g^{(k-1)}(U) with the
    remainder bounded through int_U^inf |g^{(K-1)}|.
    """
    return psi_tail_powers_batch(x, [alpha], b, rmax)[0]


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_PANEL_BLOCK = 512  # panels per (block x 32) array: memory stays flat in the walk's length


def _gl_panels(
    vals: list[complex],
    mags: list[float] | None,
    pts: list[float],
    nu: float,
    b: complex,
    rmax: int,
    alpha: float | None = None,
) -> None:
    """Accumulate 32-node Gauss-Legendre panels [pts[i], pts[i+1]] of
    e^{2 pi i nu u} u^b log^m u into vals, m = 0..rmax.

    With alpha given the integrand carries psi(u-alpha) e^{-2 pi i nu alpha},
    so the panels must not straddle a sawtooth kink.  mags, when given,
    collects sum |w f| per power.

    Bit for bit the one-panel-at-a-time loop: the integrand is elementwise,
    each panel's dot is np.vecdot (np.dot's BLAS dot; a matrix product sums
    in another order), and the panels are added left to right.
    """
    pts = np.asarray(pts, dtype=float)
    shift = cmath.exp(-2j * math.pi * nu * alpha) if alpha is not None else None
    for p0 in range(0, pts.size - 1, _PANEL_BLOCK):
        ends = pts[p0 : p0 + _PANEL_BLOCK + 1]
        half = 0.5 * (ends[1:] - ends[:-1])
        mid = 0.5 * (ends[:-1] + ends[1:])
        u = mid[:, None] + half[:, None] * _GL_NODES
        base = np.exp(2j * math.pi * nu * u) * np.exp(b * np.log(u))
        if alpha is not None:
            # psi(u - alpha) is linear inside each panel; phase shifted by alpha
            base = base * (u - alpha - np.floor(mid - alpha)[:, None] - 0.5) * shift
        logs = np.log(u)
        lp = np.ones_like(u)
        for m in range(rmax + 1):
            fv = base * lp
            vals[m] = complex(np.add.accumulate(np.append(vals[m], half * np.vecdot(_GL_WEIGHTS, fv)))[-1])
            if mags is not None:
                mags[m] = float(np.add.accumulate(np.append(mags[m], half * np.vecdot(_GL_WEIGHTS, np.abs(fv))))[-1])
            lp = lp * logs


def _walk(u: float, step_of, step_cap: float, end: float, stop: float) -> list[float]:
    """Break points u, ... of u = min(u + min(step_of(u), step_cap), end) while
    u < stop (step_of grows with u): the constant run by np.add.accumulate,
    left to right, so the loop's floats.  A run that stops moving is refused."""
    pts = [u]
    while u < stop and (step := step_of(u)) < step_cap:
        u = min(u + step, end)
        pts.append(u)
    while u < stop:
        run = np.add.accumulate(np.r_[u, np.full(min(int((stop - u) / step_cap) + 2, 1 << 16), step_cap)])
        if not run[-1] > u:
            raise ValueError(f"panel steps of {step_cap:.3g} no longer change u = {u:.6g}")
        pts.extend(np.minimum(run[1 : np.searchsorted(run, stop) + 1], end).tolist())
        u = pts[-1]
    return pts


_K_OSC = 16  # deep by-parts keeps the quadrature cutoff (and its rounding) small


def _osc_reach(b: complex, rmax: int) -> float:
    """pi |nu| times the first cutoff of pure_osc_tail_powers (pi (1 - nu) times
    that of psi_osc_tail_powers), before the floors x and 8 (12)."""
    return abs(b) + rmax + _K_OSC + 6.0


def _osc_cutoff(b: complex, rmax: int, x: float, x0: float, scale: float, panel_cap: float):
    """The far-tail rows of g_m = u^b log^m u (m = 0..rmax), the cutoff and
    its remainders scale * int_x0^inf |g_m^{(K)}|.

    x0 doubles on the closed-form remainder alone, while the walk from x to
    2 x0 stays under the caller's panel cap (which keeps the growth inside
    the work budget) and x0 under 5e7.
    """
    rows_all = [_deriv_rows(b, r, _K_OSC) for r in range(rmax + 1)]
    while True:
        rems = _far_remainders(rows_all, b, x0, scale)
        if not (max(rems) > _TOL_ABS and 2.0 * x0 - x < panel_cap and x0 < 5e7):
            return rows_all, x0, rems
        x0 *= 2.0


def pure_osc_tail_powers(nu: float, b: complex, rmax: int, x: float) -> tuple[list[complex], list[float]]:
    """int_x^inf e^{2 pi i nu u} u^b log^m u du for m = 0..rmax.

    Requires nu != 0 and Re(b) < 0.  Gauss-Legendre panels to an adaptive
    cutoff, then K integrations by parts against the exponential with the
    remainder bounded by (2 pi |nu|)^{-K} int |g^{(K)}|.
    """
    b = complex(b)
    if nu == 0.0:
        raise ValueError("oscillation frequency must be nonzero")
    if b.real >= 0.0:
        raise ValueError("pure oscillatory tail requires Re(exponent) < 0")
    K = _K_OSC
    anu = abs(nu)
    # the deep by-parts expansion keeps x0 (hence panel rounding) small
    x0 = max(x, _osc_reach(b, rmax) / (math.pi * anu), 8.0)
    step_cap = 0.45 / max(anu, 1e-12)
    _check_work((x0 - x) / step_cap)
    rows_all, x0, rems = _osc_cutoff(b, rmax, x, x0, (TWO_PI * anu) ** (-K), 4000.0 * max(0.45 / anu, 0.5))
    pts = _walk(x, lambda u: max(0.5, 0.6 * u), step_cap, x0, x0 - 1e-12)
    vals = [0.0 + 0.0j] * (rmax + 1)
    mags = [0.0] * (rmax + 1)
    _gl_panels(vals, mags, pts, nu, b, rmax)
    iw = 1.0 / (2j * math.pi * nu)
    coeffs = [iw]
    for _ in range(K - 1):
        coeffs.append(coeffs[-1] * -iw)
    tails = _far_tail(rows_all, b, x0, [coeffs])[0].tolist()
    phase = cmath.exp(2j * math.pi * nu * x0)
    return [vals[r] - phase * tails[r] for r in range(rmax + 1)], [rems[r] + 1e-15 * mags[r] for r in range(rmax + 1)]


def _dual_walk_panels(b: complex, rmax: int, x: float, nmax: int) -> float:
    """About how many panels segment_osc_power_log(n, ., rmax, x) and
    pure_osc_tail_powers(n, b, rmax, x) walk for n = +-1..+-nmax: n x0_n / 0.45,
    x0_n = max(x, c/n, 8) the first cutoff, c = _osc_reach(b, rmax)/pi, summed
    in closed form, split where c/n falls below max(x, 8)."""
    c = _osc_reach(b, rmax) / math.pi
    floor = max(x, 8.0)
    k = min(nmax, math.floor(c / floor))
    return 2.0 * (k * c + floor * (nmax * (nmax + 1) - k * (k + 1)) / 2.0) / 0.45


@lru_cache(maxsize=128)  # float keys: bounded, one entry per oscillation nu
def _osc_remainder_const(K: int, nu: float) -> float:
    """S_K(nu) = sum_{|n|>=1} 1/((2 pi |n|)(2 pi |n+nu|)^K), plus a tail bound."""
    acc = 0.0
    n = 1
    while n <= 200000:
        t = 1.0 / ((TWO_PI * n) * (TWO_PI * (n + nu)) ** K) + 1.0 / (
            (TWO_PI * n) * (TWO_PI * abs(n - nu)) ** K
        )
        acc += t
        if t < 1e-19 * acc:
            break
        n += 1
    # integral tail over |n| > n
    acc += 2.0 / (TWO_PI ** (K + 1) * K * max(n - 1, 1) ** K)
    return acc


@lru_cache(maxsize=256)  # float keys: bounded, one entry of K sums per oscillatory cutoff
def _psi_fourier_shift_sums(K: int, v: float, nu: float) -> tuple[complex, ...]:
    """Psi_k(v, nu) = sum_{|n|>=1} e^{2 pi i (n+nu) v} / ((2 pi i n)(2 pi i (n+nu))^k)
    for k = 1..K.

    Binomial expansion in nu/n reduces each sum to periodic Bernoulli
    values at combined order k+1+j; converges geometrically at rate nu.
    The k share one row of those values, each order evaluated once.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError("shifted Fourier sums need nu in (0, 1)")
    phi = [0.0, 0.0]  # phi[m] = _phi_bernoulli(m, v) for m >= 2, grown as the orders rise
    phase = cmath.exp(2j * math.pi * nu * v)
    out = []
    for k in range(1, K + 1):
        acc = 0.0 + 0.0j
        binom = 1.0  # C(k+j-1, j) at j = 0
        zj = 1.0 + 0.0j  # (-i nu)^j
        j = 0
        while True:
            if k + 1 + j == len(phi):
                phi.append(_phi_bernoulli(k + 1 + j, v))
            acc += binom * zj * phi[k + 1 + j]
            if binom * nu**j * 2.6 < 1e-18 * max(1.0, abs(acc)) and j > 4:
                break
            j += 1
            if j > 4000:
                break
            binom *= (k + j - 1) / j
            zj *= -1j * nu
        out.append(-phase * TWO_PI ** (-(k + 1)) * acc)
    return tuple(out)


def psi_osc_tail_powers(nu: float, alpha: float, b: complex, rmax: int, x: float) -> tuple[list[complex], list[float]]:
    """int_x^inf psi(u-alpha) e^{2 pi i nu (u-alpha)} u^b log^m u du, m = 0..rmax.

    Requires nu in (0, 1) and Re(b) < 0.  Panels to an adaptive cutoff;
    beyond it the sawtooth is expanded in combined frequencies n + nu and
    each frequency integrated by parts K times, the boundary terms summed
    in closed form via shifted periodic-Bernoulli series.
    """
    b = complex(b)
    if not 0.0 < nu < 1.0:
        raise ValueError("sawtooth-weighted oscillatory tail needs oscillation in (0, 1)")
    if b.real >= 0.0:
        raise ValueError("oscillatory tail requires Re(exponent) < 0")
    K = _K_OSC
    # one panel per unit interval, between the kinks of psi(u - alpha) that the march uses
    x0 = max(x, _osc_reach(b, rmax) / (math.pi * (1.0 - nu)), 12.0)
    _check_work(x0 - x)
    rows_all, x0, rems = _osc_cutoff(b, rmax, x, x0, _osc_remainder_const(K, nu), 4000.0)
    _check_kinks(x, x0)
    if not x0 < 2.0**52:
        raise ValueError(f"the tail from u = {x0:.6g} reaches 2^52, where the shift alpha and the phase 2 pi nu u are lost to rounding")
    first, count = _kinks(x, x0, np.array([alpha]))
    pts = np.concatenate(([x], first[0] + np.arange(count[0] - 1) + alpha, [x0]))
    vals = [0.0 + 0.0j] * (rmax + 1)
    mags = [0.0] * (rmax + 1)
    _gl_panels(vals, mags, pts, nu, b, rmax, alpha)
    coeffs = [(-1.0) ** k * p for k, p in enumerate(_psi_fourier_shift_sums(K, x0 - alpha, nu))]
    tails = _far_tail(rows_all, b, x0, [coeffs])[0].tolist()
    return [vals[r] + tails[r] for r in range(rmax + 1)], [rems[r] + 1e-15 * mags[r] for r in range(rmax + 1)]


# ---------------------------------------------------------------------------
# finite singular oscillatory segments int_0^x (for the hybrid formulas)
# ---------------------------------------------------------------------------


def _power_log_lower(c: complex, m: int, delta: float) -> complex:
    """int_0^delta u^c log^m u du for Re(c) > -1 (closed form, recursive in m)."""
    dc = cmath.exp((c + 1.0) * math.log(delta))
    acc = dc * math.log(delta) ** m / (c + 1.0) if m else dc / (c + 1.0)
    if m:
        acc -= m / (c + 1.0) * _power_log_lower(c, m - 1, delta)
    return acc


def segment_osc_power_log(nu: float, b: complex, rmax: int, x: float) -> list[complex]:
    """int_0^x e^{2 pi i nu u} u^b log^m u du for m = 0..rmax; Re(b) > -1.

    Power series of the exponential near zero (where the power-log factor
    is integrated in closed form) plus Gauss-Legendre panels on the rest.
    """
    b = complex(b)
    if b.real <= -1.0 + 1e-12:
        raise ValueError("finite singular segment requires Re(exponent) > -1")
    if x <= 0.0:
        raise ValueError("segment upper limit must be positive")
    delta = min(x, 0.04 / max(1.0, TWO_PI * abs(nu)))
    vals = [0.0 + 0.0j] * (rmax + 1)
    # series on [0, delta]
    for m in range(rmax + 1):
        coef = 1.0 + 0.0j
        k = 0
        while True:
            term = coef * _power_log_lower(b + k, m, delta)
            vals[m] += term
            k += 1
            coef *= 2j * math.pi * nu / k
            if abs(coef) * delta ** (b.real + k) < 1e-20 and k > 3:
                break
            if k > 60:
                break
    if delta >= x:
        return vals
    # geometric panels from delta to x, capped at ~half an oscillation each
    pts = _walk(delta, lambda u: u, 0.45 / max(abs(nu), 1e-12), x, x - 1e-14 * x)
    _gl_panels(vals, None, pts, nu, b, rmax)
    return vals
