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
of moments.  It works on plain complex arrays and books its binary64
rounding beside its values, term by term: the moments of each branch
(_moments_exp), the phase and modulus of e^{beta t1}, the moment argument,
the powers and the binomial sums (_power_log_segments), the rounded kinks
and their logarithms, the product c L and the additions along each row
(_march).  Sums along a row and over the log powers run in order, so each
row, value and bound, is bit for bit its one-row result.  A tail whose
march or panel walk would exceed about 2e6 pieces, or reach 2^52, is
refused; a plain tail from x >= 2^52 walks nothing, and since its cutoff
is then an integer, its far tail is expanded at {-alpha}.  One rule picks
the plain tail's cutoffs and where its rows stop; the search for the
final one (_tail_cutoff) returns the tails from there, where nothing is
marched and so no rounding is booked.

Oscillatory tails combine 32-node Gauss-Legendre panels with repeated
integration by parts against the exponential beyond an adaptive cutoff.
Panels are sized by the whole phase 2 pi nu u + Im b log u: each turns it
by at most a budget _THETA and spans at most a factor 1.6 (2 for the
segments from 0), their break points the level sets of one closed-form
count found in one array pass (_walk).  The sawtooth-weighted variant expands
psi(u-alpha) e^{2 pi i nu(u-alpha)} in combined frequencies n + nu and
sums the boundary terms of all parts in closed form, from one row of
periodic Bernoulli values shared by all K parts.  One panel kernel serves
every walk, as (block x 32) arrays of at most 512 panels; it is bit for
bit the one-panel-at-a-time loop (np.vecdot per panel, which is np.dot's
BLAS dot, and panel sums added left to right).  A sawtooth-weighted tail
whose cutoff reaches 2^52 is refused: from there alpha and the phase
2 pi nu u are lost to rounding.  A tail given its final cutoff
(_osc_cutoff, which doubles the first on the closed-form remainder alone)
from a split at or past it walks no panel: it is its far tail.

Error bounds here cover truncation and quadrature, and the rounding of
the plain tail's march, of the oscillatory panels and of the segments'
series at 0; not that of the far-tail expansions.  The Hurwitz, Z and L
routes of evaluate, and the coefficient routes that read their core, add
the rounding of what they assemble from these tails, the far tails'
phase included.
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
    """A value and its error bound: truncation and quadrature, and the
    binary64 rounding its route books (all of it for the Hurwitz, Z and L
    routes and their coefficient readings; the march's and the panels' for a
    tail; all but the oscillatory far tails' for the Lerch routes, and all
    but theirs and the gamma factors' for the AFE)."""

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


def _phi_bernoulli_rows(ms, v: np.ndarray) -> np.ndarray:
    """_phi_bernoulli(m, v) for every m of the increasing ms (rows) and entry
    of v (columns), bit for bit: one Horner pass serves every m <= 12 (a
    leading coefficient 0 leaves it as it is), and each larger m takes all
    its Fourier terms at once and subtracts them from 0 in turn."""
    poly, out = [m for m in ms if m <= 12], np.empty((len(ms), v.size))
    if poly:
        f, coeffs = v - np.floor(v), [_bernoulli_poly_coeffs(m) for m in poly]
        table, acc = np.array([(0.0,) * (poly[-1] + 1 - len(c)) + c for c in coeffs]), np.zeros((len(poly), v.size))
        for c in table.T:
            acc = acc * f + c[:, None]
        out[: len(poly)] = acc * np.array([[TWO_PI**m] for m in poly])
    for i, m in enumerate(ms[len(poly) :], len(poly)):
        ns = [n for n in range(1, 65) if n == 1 or n ** (-m) >= 1e-20]  # the terms until n^{-m} < 1e-20 or n > 64
        arg, den, step = np.array([[TWO_PI * n] for n in ns]), np.array([[float(n**m)] for n in ns]), max(1, _BLOCK // len(ns))
        for j in range(0, v.size, step):  # at most _BLOCK terms at a time
            terms = 2.0 * np.cos(arg * v[j : j + step] + -0.5 * math.pi * m) / den
            out[i, j : j + step] = np.subtract.accumulate(np.concatenate([np.zeros((1, terms.shape[1])), terms]), axis=0)[-1]
    return out


def _phi_bernoulli_orders(v: float, mmax: int) -> list[float]:
    """_phi_bernoulli(m, v) for m = 0..mmax, bit for bit: from m = 67 on,
    where 2^{-m} < 1e-20, the Fourier series stops after its first term, so
    each of those orders is one cosine."""
    head = [_phi_bernoulli(m, v) for m in range(min(mmax, 66) + 1)]
    c = TWO_PI * v
    return head + [0.0 - 2.0 * math.cos(c + -0.5 * math.pi * m) for m in range(67, mmax + 1)]


_PSI_TILDE_ABS = tuple(
    2.5 / TWO_PI**m if m >= 2 else 0.5 for m in range(0, 40)
)  # |B_m({v})/m!| <= 2 zeta(m)/(2 pi)^m <= 2.5/(2 pi)^m for m >= 2


# ---------------------------------------------------------------------------
# antiderivatives of u^c log^m u and absolute tail integrals
# ---------------------------------------------------------------------------


_EPS = 2.0**-53  # unit roundoff of binary64


def _moments_exp(z: np.ndarray, imax: int) -> tuple[np.ndarray, np.ndarray]:
    """m_i(z) = int_0^1 e^{z w} w^i dw for i = 0..imax and an array of z, of
    shape (imax + 1, len(z)), and the rounding of each for z as given.

    |z| <= 2: power series; |z| >= imax: upward recurrence; between them a
    downward recurrence seeded far above imax.  Each branch carries its
    rounding along (e^z to 4 eps, a complex product 3 eps, a quotient 6 eps)."""
    az = np.abs(z)
    out, err = np.empty((imax + 1, z.size), dtype=complex), np.empty((imax + 1, z.size))
    series = az <= 2.0
    upward = ~series & (az >= imax)
    for part, moments in ((series, _moments_series), (upward, _moments_up), (~series & ~upward, _moments_down)):
        if part.any():
            idx = np.flatnonzero(part)
            out[:, idx], err[:, idx] = moments(z[idx], az[idx], imax)
    return out, err


def _moments_series(z, az, imax: int):
    """sum_k t_k, t_k = z^k / (k! (i + k + 1)), each i stopping at its first
    term below 1e-19 or at k = 80; c_k = z^k/k! serves every i.  Rounding:
    c_k takes k steps of 4 eps and t_k one of eps; the n_i additions round
    by eps |S_k| <= eps (|m_i| + sum_{j > k} |t_j|) each; so eps (sum_k
    (5 k + 1) |t_k| + n_i |m_i|), and the terms left out add below 2e-19."""
    d0 = np.arange(1.0, imax + 2.0)[:, None]  # i + 1
    out = np.repeat(1.0 / d0, z.size, axis=1).astype(complex)
    mags, steps = out.real.copy(), np.zeros(out.shape)  # sum_k (5 k + 1) |t_k|, n_i
    c = np.ones_like(z)
    live = np.ones(out.shape, dtype=bool)
    for k in range(1, 81):
        c = c * (z / k)
        d = d0 + k
        ac = np.abs(c)
        np.add(out, c / d, out=out, where=live)
        np.add(mags, (5 * k + 1) * ac / d, out=mags, where=live)
        steps += live
        live &= ~(ac < 1e-19 * d)
        if not live.any():
            break
    return out, _EPS * (mags + steps * np.abs(out)) + 2e-19


def _moments_up(z, az, imax: int):
    """m_0 = (e^z - 1)/z, m_i = (e^z - i m_{i-1})/z.  A step carries the
    error on by i/|z| <= 1: e_i = (i e_{i-1} + eps (4 |e^z| + i |m_{i-1}|))/|z|
    + 6 eps |m_i|, for e^z, i m_{i-1}, the difference and the quotient."""
    ez = np.exp(z)
    aez = 4.0 * _EPS * np.abs(ez)
    out, err = np.empty((imax + 1, z.size), dtype=complex), np.empty((imax + 1, z.size))
    m, e = np.ones_like(z), np.zeros(z.size)  # at i = 0 the 1 of e^z - 1 stands for i m_{i-1}
    for i in range(imax + 1):
        k = max(i, 1)
        e = (k * e + aez + k * _EPS * np.abs(m)) / az
        m = (ez - k * m) / z
        e = e + 6.0 * _EPS * np.abs(m)
        out[i], err[i] = m, e
    return out, err


def _moments_down(z, az, imax: int):
    """m_{i-1} = (e^z - z m_i)/i from m = 0 at i = imax + int|z| + 60, off by
    at most max(1, |e^z|)/(i + 1) there.  A step carries the error on by
    |z|/i (more than 1 below i = |z|): e_{i-1} = (|z| e_i + eps (4 |e^z| +
    3 |z m_i|))/i + 2 eps |m_{i-1}|."""
    ez = np.exp(z)
    aez = 4.0 * _EPS * np.abs(ez)
    start = imax + az.astype(np.int64) + 60
    m, e = np.zeros_like(z), np.maximum(1.0, np.abs(ez)) / (start + 1)
    out, err = np.empty((imax + 1, z.size), dtype=complex), np.empty((imax + 1, z.size))
    for i in range(int(start.max()), 0, -1):
        zm = z * m
        nxt = (ez - zm) / i
        nerr = (az * e + aez + 3.0 * _EPS * np.abs(zm)) / i + 2.0 * _EPS * np.abs(nxt)
        begun = start >= i
        m, e = np.where(begun, nxt, m), np.where(begun, nerr, e)
        if i - 1 <= imax:
            out[i - 1], err[i - 1] = m, e
    return out, err


def _powers(v, m: int) -> np.ndarray:
    """Rows v^0, v^1, ..., v^m, each the previous one times v."""
    out = np.empty((m + 1, v.size))
    out[0] = 1.0
    for i in range(1, m + 1):
        out[i] = out[i - 1] * v
    return out


def _power_log_segments(betas: tuple[complex, ...], rmax: int, t1, t2) -> list:
    """int_{t1}^{t2} e^{beta t} t^r dt for r = 0..rmax (t = log u) on arrays
    of segments, one (values, rounding) pair of shape (rmax + 1, len(t1)) per
    beta of betas.  The nonzero betas are stacked along the segment axis:
    one pass of moments and exponentials, each element as if alone (the sums
    over i run in order).

    The value e^{beta t1} sum_i C(r, i) t1^{r-i} D_i, D_i = delta^{i+1} m_i(z),
    z = beta delta, rounds, for t1 and t2 as given, by: the modulus of
    e^{beta t1}, eps (|Re beta| |t1| + 3), and the last product, 3 eps (its
    phase, which the betas of one imaginary part share, is left to the
    caller); m_i by its branch's rounding and, for z, eps |z m_{i+1}| <= eps
    (|e^z| + (i + 1) |m_i|); D_i, t1^{r-i}, the binomial product and the sum
    by eps (i + 2 rmax + 3) per term.  At beta = 0 the closed form rounds by
    eps (2 r + 3) delta max(|t1|, |t2|)^r."""
    delta = t2 - t1
    t1p = _powers(t1, rmax)
    orders = np.arange(rmax + 1.0)[:, None]
    if 0 in betas:
        # factored (t2^{r+1}-t1^{r+1})/(r+1) = delta * sum_k t2^k t1^{r-k}/(r+1):
        # same-sign terms, so the value carries relative (not power-sized) error
        t2p = _powers(t2, rmax)
        closed = np.array([delta * np.add.accumulate(t2p[: r + 1] * t1p[r::-1])[-1] / (r + 1) for r in range(rmax + 1)])
        closed_err = _EPS * (2.0 * orders + 3.0) * delta * _powers(np.maximum(np.abs(t1), np.abs(t2)), rmax)
    live = [beta for beta in betas if beta != 0]
    if k := len(live):
        beta = np.repeat(np.array(live, dtype=complex), t1.size)
        d, t, tp = np.tile(delta, k), np.tile(t1, k), np.tile(t1p, k)
        m, merr = _moments_exp(beta * d, rmax)
        dp = _powers(d, rmax + 1)[1:]
        dm = dp * m  # D_i
        g = dp * (merr + _EPS * (np.exp(beta.real * d) + (orders + 1.0) * np.abs(m))) + _EPS * (orders + 2 * rmax + 3) * np.abs(dm)
        out, err = np.empty(tp.shape, dtype=complex), np.empty(tp.shape)
        for r in range(rmax + 1):
            f = _binomials(r)[:, None] * tp[r::-1]
            out[r] = np.add.accumulate(f * dm[: r + 1])[-1]
            err[r] = np.add.accumulate(np.abs(f) * g[: r + 1])[-1]
        p = np.exp(beta * t)
        out *= p
        err = np.abs(p) * err + _EPS * (np.abs(beta.real * t) + 6.0) * np.abs(out)
        stacked = iter(zip(np.split(out, k, axis=1), np.split(err, k, axis=1)))
    return [next(stacked) if beta != 0 else (closed, closed_err) for beta in betas]


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


def _far_tail(rows_all: list[list[list[complex]]], b: complex, u0: float, coeffs) -> np.ndarray:
    """sum_k coeffs[j][k] g_r^{(k)}(u0) for every row j of coefficients and every
    g_r = u^b log^r u (rows_all[r] from _deriv_rows), added in k order from 0:
    the boundary terms of the far-tail expansions, shape (rows, rmax + 1).

    g_r^{(k)}(u0) does not depend on the row: it is evaluated once."""
    c = np.asarray(coeffs, dtype=complex).T[:, :, None]  # (k, row, 1)
    g = np.array([[_row_eval(rows[k], b - k, u0) for rows in rows_all] for k in range(c.shape[0])])[:, None, :]
    return sum(c * g, np.zeros((c.shape[1], g.shape[2]), dtype=complex))


def _far_remainders(rows_all: list[list[list[complex]]], b: complex, u0: float, scale: float) -> list[float]:
    """scale * int_u0^inf |g_r^{(K)}| for every r, K the last row of rows_all[r],
    bounded termwise by sum_i |c_i| int_u0^inf u^{Re b - K} log^i u du."""
    K = len(rows_all[0]) - 1
    return [scale * sum(abs(c) * power_log_tail_abs(b.real - K, i, u0) for i, c in enumerate(rows[K]) if c) for rows in rows_all]


# ---------------------------------------------------------------------------
# plain sawtooth tails, piecewise exact + periodic-Bernoulli far tail
# ---------------------------------------------------------------------------

_TOL_ABS = 1e-15
_TOL_REL = 1e-12
_K_TAIL = 14  # periodic-Bernoulli expansion depth for the plain tail


_BLOCK = 2048  # moments per block of the march, over its segments and nonzero exponents: memory stays flat in its length
# units of work of one request: a unit interval of a plain march, a panel of
# an oscillatory walk, a term of an AFE sum; the Hurwitz, Z, L and Lerch
# splits weigh their terms (and residue classes) in march segments
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
    exact, to each row's sums = (values, rounding), a complex and a real
    array of shape (rmax + 1, rows) updated in place.

    One segment per interval where psi(u - alpha) = u - c is linear; the rows x
    segments grid is walked in blocks of at most _BLOCK moments, no wider
    than the longest row left (the exponents b + 2 and b + 1 share one pass),
    whose break points are made block by block, so memory stays flat.  A
    segment adds H - c L (H, L: _power_log_segments at b + 2, b + 1) to its
    row, left to right.  Its rounding: that of H and L; their common phase,
    eps (|Im b| |t1| + 2) |H - c L|; c (a rounded kink plus 1/2), c L and
    H - c L, eps (3 |c L| + |H - c L|); its first break point t1 = log u,
    where the kink m + alpha rounds by eps u and the log by 2 eps |t1|, so
    the jump |u^{b+1} t1^m| of the integrand (in t) moves by eps (2 |t1| + 1);
    and its addition, eps |partial sum|.  Per row, hi moves like a kink, and
    a kink within 1e-12 of lo or hi, not a break point, leaves a sliver of
    that width on the wrong piece of psi.
    """
    if not lo < hi:
        return
    _check_kinks(lo, hi)
    first, count = _kinks(lo, hi, alphas)
    ends = np.log([lo, hi])
    jumps = np.exp(b.real * ends)[:, None] * _powers(np.abs(ends), rmax).T  # |u^b log^m u| at lo and hi
    slivers = np.maximum(first - 1.0 + alphas - lo, 0.0), np.maximum(hi - (first + (count - 1.0) + alphas), 0.0)
    sums[1] += jumps[0][:, None] * slivers[0] + jumps[1][:, None] * (slivers[1] + _EPS * hi * (2.0 * abs(ends[1]) + 1.0))
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
            logs = np.log(pts)
            c = (al + np.floor(0.5 * (pts[:, :-1] + pts[:, 1:]) - al) + 0.5).ravel()
            t1, t2 = logs[:, :-1].ravel(), logs[:, 1:].ravel()
            (h, herr), (l, lerr) = _power_log_segments(betas, rmax, t1, t2)
            d, at1, ac = h - c * l, np.abs(t1), np.abs(c)
            kinks = (2.0 * at1 + 1.0) * np.exp((b.real + 1.0) * t1) * _powers(at1, rmax)
            derr = herr + ac * lerr + _EPS * (3.0 * ac * np.abs(l) + (abs(b.imag) * at1 + 3.0) * np.abs(d) + kinks)
            shape, valid = (rmax + 1, rows.size, w), j[:-1] < n
            part = np.add.accumulate(np.concatenate([sums[0][:, rows, None], np.where(valid, d.reshape(shape), 0.0)], axis=2), axis=2)
            derr = np.where(valid, derr.reshape(shape) + _EPS * np.abs(part[:, :, 1:]), 0.0)
            sums[0][:, rows] = part[:, :, -1]
            sums[1][:, rows] = np.add.accumulate(np.concatenate([sums[1][:, rows, None], derr], axis=2), axis=2)[:, :, -1]


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


def _tail_values(sums, rows_all, b: complex, u0: float, rems: np.ndarray, alphas: np.ndarray):
    """Each row's tails at the cutoff u0, its marched sums plus the far tail
    sum_k (-1)^{k+1} psi~_{k+2}(u0 - alpha) g_m^{(k)}(u0) (from 2^52 on, where
    u0 is an integer, expanded at {-alpha}), with their bounds (rmax + 1,
    rows): the remainders, the march's rounding and, where it marched, that
    of adding the far tail; and whether the row stops there: its remainders
    meet the tolerance for a tail of its size, or u0 is past the cap."""
    v = u0 - alphas if u0 < 2.0**52 else -alphas
    coeffs = _phi_bernoulli_rows(range(2, _K_TAIL + 1), v) / np.array([[TWO_PI**m] for m in range(2, _K_TAIL + 1)])
    coeffs *= np.array([[(-1.0) ** (m - 1)] for m in range(2, _K_TAIL + 1)])
    vals = sums[0] + _far_tail(rows_all, b, u0, coeffs.T).T
    stops = np.all(rems <= np.fmax(_TOL_ABS, _TOL_REL * np.abs(vals)), axis=0) | (u0 > 5e6)
    return vals, rems + sums[1] + _EPS * np.abs(vals) * (sums[1] > 0.0), stops


def _tail_cutoff(alphas, b: complex, rmax: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The first cutoff u of _tail_cutoffs at which every row of
    psi_tail_powers_batch(u, alphas, b, rmax) stops with nothing marched,
    and that batch's result, bit for bit, as (rmax + 1, rows) values and
    bounds: from u it marches over no interval."""
    alphas = np.array(alphas, dtype=float)
    sums = [np.zeros((rmax + 1, alphas.size), dtype=complex), np.zeros((rmax + 1, alphas.size))]
    for u0, rows_all, rems in _tail_cutoffs(0.0, b, rmax):
        vals, errs, done = _tail_values(sums, rows_all, b, u0, rems, alphas)
        if done.all():
            return u0, vals, errs


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
    sums = [np.zeros((rmax + 1, alphas.size), dtype=complex), np.zeros((rmax + 1, alphas.size))]
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
_GL_SPAN = 1.0 + _GL_NODES  # nodes a + h (1 + x) from a panel's left end a: neighbouring panels share each end
_PANEL_BLOCK = 512  # panels per (block x 32) array: memory stays flat in the walk's length
# the phase budget of a panel: f = e^{i phi}, phi' <= omega, on a panel of
# half-width h grows to e^{omega h (rho - 1/rho)/2} on the Bernstein ellipse E_rho,
# and 32-node Gauss-Legendre errs by at most (64/15) max|f on E_rho| rho^{-64}/
# (rho^2 - 1) (Trefethen, ATAP ch. 19): at omega h = _THETA/2 = 12 and rho = 5,
# clear of u = 0 by the geometric limits, 4.3 e^{28.8} 5^{-64}/24 < 1e-30 max|f|
_THETA = 24.0


def _walk_length(lo, hi, nu, c: float, geom: float):
    """F(hi) - F(lo), F(u) = (2 pi |nu| u + |c| log u)/_THETA + log u/log(1 + geom),
    elementwise: the turn of the phase 2 pi nu u + c log u over [lo, hi] in
    budgets _THETA (|phi'| <= 2 pi |nu| + |c|/u) plus its steps u -> (1 + geom) u."""
    w = np.log1p((hi - lo) / lo)
    return (TWO_PI * abs(nu) * (hi - lo) + abs(c) * w) / _THETA + w / math.log1p(geom)


def _walk(ends, nu: float, c: float, geom: float) -> np.ndarray:
    """Panel break points over the intervals between the increasing ends, each
    [lo, hi] cut at the level sets F(u) = F(lo) + k < F(hi) (_walk_length), their
    count charged to the work budget first, all found at once by Newton's method
    in w = log(u/lo): F(lo e^w) - F(lo) = a expm1(w) + C w is convex, so from
    min(k/C, log1p(k/a)), above the root, it descends to it.  A walk whose break
    points round together is refused."""
    ends = np.asarray(ends, dtype=float)
    lo, hi = ends[:-1], ends[1:]
    n = np.where(hi > lo, np.maximum(np.ceil(_walk_length(lo, hi, nu, c, geom)), 1.0), 0.0)
    _check_work(n.sum())
    n = n.astype(np.int64)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # 0..n-1 along each interval
    base, C = np.repeat(lo, n), abs(c) / _THETA + 1.0 / math.log1p(geom)
    a = TWO_PI * abs(nu) / _THETA * base
    w, ak = np.minimum(k / C, np.log1p(k / a)) if nu else k / C, a + k
    tol = 8.0 * _EPS * (1.0 + w.max(initial=0.0))
    for _ in range(60):
        e = a * np.exp(w)
        step = (e + C * w - ak) / (e + C)
        w -= step
        if np.abs(step).max(initial=0.0) <= tol:
            break
    pts = np.append(np.where(k > 0, np.minimum(base + base * np.expm1(w), np.repeat(hi, n)), base), ends[-1])
    if not (pts[1:] > pts[:-1]).all():
        raise ValueError(f"panel break points no longer change u = {pts[:-1][pts[1:] <= pts[:-1]][0]:.6g}")
    return pts


@np.errstate(over="ignore", invalid="ignore")  # an integrand beyond binary64 makes the sums non-finite: EvalResult refuses them
def _gl_panels(vals: list[complex], errs: list[float], pts, nu: float, b: complex, rmax: int, alpha: float | None = None) -> None:
    """Accumulate 32-node Gauss-Legendre panels [pts[i], pts[i+1]] of
    e^{2 pi i nu u} u^b log^m u, m = 0..rmax, into vals; with alpha given, of
    psi(u - alpha) e^{2 pi i nu (u - alpha)} u^b log^m u, whose panels must not
    straddle a kink.  The nodes are a + h (1 + x) (a the left end, h the
    half-width); the integrand e^{Re b L} (cos theta + i sin theta) L^m, L =
    log u, theta = 2 pi nu u + Im b L (less 2 pi nu alpha), takes cos theta +
    i sin theta = ((1 - t^2) + 2 i t)/(1 + t^2) from t = tan(theta/2) (numpy's
    tangent takes 3 ns on AVX-512, its cosine and sine 33 ns each).

    errs collects per power the quadrature and the rounding,
    sum |w f| (1e-15 + eps kappa), kappa = 6 (2 pi |nu| u) + 3 (|Re b| +
    |Im b|) (|L| + 1) + 2 m + 67 per node, plus 3 m eps |w f_{m-1}| and, with
    alpha, eps (4 u + 2) |w f/psi|, and eps |partial sum| per panel.  For the
    computed node, within 3 eps u of the Gauss node, that covers its offset
    (theta by 3 eps (2 pi |nu| u + |Im b|), e^{Re b L} by 3 eps |Re b|, L^m by
    3 m eps |L|^{m-1}, psi by 3 eps u); theta/2, 3 eps (2 pi |nu| (u + alpha) +
    |Im b| |L|), 2 pi alpha < 7; e^{Re b L}, eps (2 |Re b| |L| + 1); psi, 2 eps
    (u - k is exact) and eps u per unit of u for the sliver at a rounded kink;
    L^m, (2 m - 1) eps; the tangent (2 eps) and the phase formed from it
    (8 eps); the products with psi and L^m, 2 eps; the weights, the 32-term
    dot and half times it, 35 eps.

    Bit for bit the one-panel-at-a-time loop: the integrand is elementwise,
    each panel's dot is np.vecdot (np.dot's BLAS dot; a matrix product sums
    in another order), and the panels are added left to right.
    """
    pts = np.asarray(pts, dtype=float)
    pi_nu, shift = math.pi * nu, 0.0 if alpha is None else math.pi * nu * alpha
    for p0 in range(0, pts.size - 1, _PANEL_BLOCK):
        ends = pts[p0 : p0 + _PANEL_BLOCK + 1]
        half = 0.5 * (ends[1:] - ends[:-1])
        u = ends[:-1, None] + half[:, None] * _GL_SPAN
        logs = np.log(u)
        t = np.tan(pi_nu * u + (0.5 * b.imag) * logs - shift)  # tan(theta/2)
        tt, amp = t * t, np.exp(b.real * logs)
        # psi(u - alpha) is linear inside each panel
        mag = amp if alpha is None else amp * (u - np.floor(ends[:-1] + half - alpha)[:, None] - alpha - 0.5)
        g = mag / (1.0 + tt)
        base = np.empty(u.shape, dtype=complex)
        base.real, base.imag = g * (1.0 - tt), g * (2.0 * t)
        mag = mag if alpha is None else np.abs(mag)  # amp >= 0
        book = mag * (1e-15 + _EPS * (12.0 * abs(pi_nu) * u + 3.0 * (abs(b.real) + abs(b.imag)) * (np.abs(logs) + 1.0) + 67.0))
        book = book if alpha is None else book + _EPS * (4.0 * u + 2.0) * amp
        lp, alp = 1.0, 1.0  # L^0 and |L^0| as scalars: base * 1 and 1 * L are exact, so the powers are those from an array of ones
        for m in range(rmax + 1):
            acc = np.add.accumulate(np.concatenate(([vals[m]], half * np.vecdot(_GL_WEIGHTS, base * lp if m else base))))
            vals[m] = complex(acc[-1])
            prev, alp = alp, np.abs(lp) if m else 1.0
            e = book * alp + _EPS * m * mag * (2.0 * alp + 3.0 * prev) if m else book
            errs[m] = float(np.add.accumulate(np.concatenate(([errs[m]], half * np.vecdot(_GL_WEIGHTS, e) + _EPS * np.abs(acc[1:]))))[-1])
            lp = lp * logs if m else logs


_K_OSC = 16  # deep by-parts keeps the quadrature cutoff (and its rounding) small


def _osc_cutoff(nu: float, b: complex, rmax: int, x: float, weighted: bool, final: bool = False):
    """The cutoff x0 from x of pure_osc_tail_powers (psi_osc_tail_powers if
    weighted), the far-tail rows of g_m = u^b log^m u (m = 0..rmax) and the
    remainders (2 pi |nu|)^{-K} (S_K(nu)) int_x0^inf |g_m^{(K)}|.  From reach/
    (pi |nu|) (reach/(pi (1 - nu))) floored at x and 8 (12), x0 doubles on the
    remainder alone until each meets _TOL_ABS, while the walk from x to 2 x0
    stays under a cap, 4000 max(0.45/|nu|, 0.5) (4000), and x0 under 5e7.  The
    final cutoff, with no cap as nothing is walked, meets max(_TOL_ABS, _TOL_REL
    |g_m(x0)|) (an absolute tolerance sends high log powers far out, and the
    finite sum with them): the tail from a split at or past it walks no panel."""
    b, anu, reach = complex(b), abs(nu), abs(b) + rmax + _K_OSC + 6.0
    if weighted:
        x0, scale, cap = max(x, reach / (math.pi * (1.0 - nu)), 12.0), _osc_remainder_const(_K_OSC, nu), 4000.0
    else:
        x0, scale, cap = max(x, reach / (math.pi * anu), 8.0), (TWO_PI * anu) ** (-_K_OSC), 4000.0 * max(0.45 / anu, 0.5)
    cap, rel = (math.inf, _TOL_REL) if final else (cap, 0.0)
    rows_all = [_deriv_rows(b, r, _K_OSC) for r in range(rmax + 1)]
    while True:
        rems = _far_remainders(rows_all, b, x0, scale)
        size = x0**b.real
        met = all(rem <= max(_TOL_ABS, rel * size * math.log(x0) ** m) for m, rem in enumerate(rems))
        if met or not (2.0 * x0 - x < cap and x0 < 5e7):
            return rows_all, x0, rems
        x0 *= 2.0


def pure_osc_tail_powers(nu: float, b: complex, rmax: int, x: float, cutoff=None) -> tuple[list[complex], list[float]]:
    """int_x^inf e^{2 pi i nu u} u^b log^m u du for m = 0..rmax.

    Requires nu != 0 and Re(b) < 0.  Gauss-Legendre panels to an adaptive
    cutoff, each turning the phase 2 pi nu u + Im b log u by at most _THETA
    and spanning at most a factor 1.6 (_walk), then K integrations by parts
    against the exponential with the remainder bounded by (2 pi |nu|)^{-K}
    int |g^{(K)}|.  The bounds add the panels' quadrature and rounding
    (_gl_panels).  A final cutoff (_osc_cutoff) at or below x walks no panel:
    the far tail is expanded at x, under the remainders at that cutoff (they
    fall as it rises).
    """
    b = complex(b)
    if nu == 0.0:
        raise ValueError("oscillation frequency must be nonzero")
    if b.real >= 0.0:
        raise ValueError("pure oscillatory tail requires Re(exponent) < 0")
    K = _K_OSC
    if cutoff is None:
        # the deep by-parts expansion keeps x0 (hence panel rounding) small
        cutoff = _osc_cutoff(nu, b, rmax, x, False)
    rows_all, x0, rems = cutoff
    x0 = max(x0, x)
    vals, errs = [0j] * (rmax + 1), [0.0] * (rmax + 1)
    if x0 > x:
        _gl_panels(vals, errs, _walk([x, x0], nu, b.imag, 0.6), nu, b, rmax)
    iw = 1.0 / (2j * math.pi * nu)
    coeffs = [iw]
    for _ in range(K - 1):
        coeffs.append(coeffs[-1] * -iw)
    tails = _far_tail(rows_all, b, x0, [coeffs])[0].tolist()
    phase = cmath.exp(2j * math.pi * nu * x0)
    return [vals[r] - phase * tails[r] for r in range(rmax + 1)], [rems[r] + errs[r] for r in range(rmax + 1)]


def _dual_cutoffs(s: complex, rmax: int, x: float, nmax: int) -> list:
    """The cutoffs of pure_osc_tail_powers(+-n, -s - 1, rmax, x), n = 1..nmax,
    each charged to the work budget, with the panels (at most _walk_length + 1
    a walk) of both tails and both segments, before the next is found: every n
    adds at least 4n (2 pi n u over [0.04, 8]), so a refusal comes within 1000."""
    cuts, panels = [], 0.0
    for n in range(1, nmax + 1):
        cuts.append(_osc_cutoff(n, -s - 1.0, rmax, x, False))
        tail = _walk_length(x, max(cuts[-1][1], x), n, s.imag, 0.6)
        panels += 2.0 * (tail + _walk_length(min(x, 0.04 / (TWO_PI * n)), x, n, s.imag, 1.0) + 2.0)
        _check_work(panels)
    return cuts


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


_SHIFT_STEPS = 4000  # the cap on j of each shifted Fourier series


@lru_cache(maxsize=256)  # float keys: bounded, one entry of K sums per oscillatory cutoff
def _psi_fourier_shift_sums(K: int, v: float, nu: float) -> tuple[complex, ...]:
    """Psi_k(v, nu) = sum_{|n|>=1} e^{2 pi i (n+nu) v} / ((2 pi i n)(2 pi i (n+nu))^k)
    for k = 1..K.

    Binomial expansion in nu/n reduces each sum to periodic Bernoulli
    values at combined order k+1+j; converges geometrically at rate nu.
    Each k sums its j-series, sum_j C(k+j-1, j) (-i nu)^j phi_{k+1+j}(v),
    as one row of a (K x j) array, from one row of those values, each order
    evaluated once, up to its first j > 4 with C(k+j-1, j) nu^j 2.6 <
    1e-18 max(1, |partial sum|), or to j = 4000.  Bit for bit the loop over
    j that added one term at a time: the binomials, the powers (-i nu)^j
    and the partial sums are running products and sums, left to right, and
    nu^j is Python's power.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError("shifted Fourier sums need nu in (0, 1)")
    # the columns j < n needed: to the first j > 4 where the last row (the
    # largest binomials) meets the test without its partial sum, with a
    # margin for np.power against Python's power
    j = np.arange(_SHIFT_STEPS + 1)
    last = np.cumprod(np.concatenate([[1.0], (K + j[1:] - 1) / j[1:]])) * np.power(nu, j) * 2.6 < 1e-18 * (1.0 - 1e-9)
    n = 6 + int(last[5:].argmax()) if last[5:].any() else _SHIFT_STEPS + 1
    j = np.arange(1, n)
    binom = np.cumprod(np.concatenate([np.ones((K, 1)), (np.arange(1, K + 1)[:, None] + j - 1) / j], axis=1), axis=1)
    pw = np.array([nu**i for i in range(n)])
    zj = np.cumprod(np.concatenate([[1.0 + 0.0j], np.full(n - 1, -1j * nu)]))  # (-i nu)^j
    phi = np.lib.stride_tricks.sliding_window_view(np.array(_phi_bernoulli_orders(v, K + n)[2:]), n)
    terms = np.concatenate([np.zeros((K, 1), dtype=complex), binom * zj * phi], axis=1)
    acc = np.add.accumulate(terms, axis=1)[:, 1:]
    hit = (binom * pw * 2.6 < 1e-18 * np.maximum(1.0, np.abs(acc))) & (np.arange(n) > 4)
    stop = np.where(hit.any(axis=1), hit.argmax(axis=1), n - 1)
    phase = cmath.exp(2j * math.pi * nu * v)
    return tuple(-phase * TWO_PI ** (-(k + 1)) * a for k, a in zip(range(1, K + 1), acc[np.arange(K), stop].tolist()))


def psi_osc_tail_powers(nu: float, alpha: float, b: complex, rmax: int, x: float, cutoff=None) -> tuple[list[complex], list[float]]:
    """int_x^inf psi(u-alpha) e^{2 pi i nu (u-alpha)} u^b log^m u du, m = 0..rmax.

    Requires nu in (0, 1) and Re(b) < 0.  Panels to an adaptive cutoff, broken
    at the kinks of psi(u - alpha) that the march uses, and each interval
    between them cut further where its phase turns by more than _THETA or it
    spans more than a factor 1.6 (_walk); beyond the cutoff the sawtooth is
    expanded in combined frequencies n + nu and each frequency integrated by
    parts K times, the boundary terms summed in closed form via shifted
    periodic-Bernoulli series.  The bounds add the panels' quadrature and
    rounding (_gl_panels).  A final cutoff (_osc_cutoff) at or below x walks
    no panel, as in pure_osc_tail_powers.
    """
    b = complex(b)
    if not 0.0 < nu < 1.0:
        raise ValueError("sawtooth-weighted oscillatory tail needs oscillation in (0, 1)")
    if b.real >= 0.0:
        raise ValueError("oscillatory tail requires Re(exponent) < 0")
    if cutoff is None:
        cutoff = _osc_cutoff(nu, b, rmax, x, True)
    rows_all, x0, rems = cutoff
    x0 = max(x0, x)
    _check_kinks(x, x0)
    if not x0 < 2.0**52:
        raise ValueError(f"the tail from u = {x0:.6g} reaches 2^52, where the shift alpha and the phase 2 pi nu u are lost to rounding")
    vals, errs = [0j] * (rmax + 1), [0.0] * (rmax + 1)
    if x0 > x:
        first, count = _kinks(x, x0, np.array([alpha]))
        _check_work(count[0])  # before the kinks are listed; _walk charges its panels
        ends = np.concatenate(([x], first[0] + np.arange(count[0] - 1) + alpha, [x0]))
        _gl_panels(vals, errs, _walk(ends, nu, b.imag, 0.6), nu, b, rmax, alpha)
    coeffs = [(-1.0) ** k * p for k, p in enumerate(_psi_fourier_shift_sums(_K_OSC, x0 - alpha, nu))]
    tails = _far_tail(rows_all, b, x0, [coeffs])[0].tolist()
    return [vals[r] + tails[r] for r in range(rmax + 1)], [rems[r] + errs[r] for r in range(rmax + 1)]


# ---------------------------------------------------------------------------
# finite singular oscillatory segments int_0^x (for the hybrid formulas)
# ---------------------------------------------------------------------------


def _power_log_lower(c: complex, mmax: int, delta: float) -> list[complex]:
    """I_m = int_0^delta u^c log^m u du = delta^{c+1} log^m delta/(c+1) - m
    I_{m-1}/(c+1) for m = 0..mmax, Re(c) > -1."""
    ld = math.log(delta)
    dc = cmath.exp((c + 1.0) * ld)
    vals = [dc / (c + 1.0)]
    for m in range(1, mmax + 1):
        vals.append(dc * ld**m / (c + 1.0) - m / (c + 1.0) * vals[-1])
    return vals


def segment_osc_power_log(nu: float, b: complex, rmax: int, x: float) -> tuple[list[complex], list[float]]:
    """int_0^x e^{2 pi i nu u} u^b log^m u du for m = 0..rmax, with bounds; Re(b) > -1.

    On [0, delta], delta = min(x, 0.04/max(1, 2 pi |nu|)), the series sum_k
    c_k u^k of the exponential, c_k = (2 pi i nu)^k/k!, is integrated term
    by term (_power_log_lower at b + k); Gauss-Legendre panels take the
    rest, each turning the phase by at most _THETA and spanning at most a
    factor 2 (_walk), with their quadrature and rounding (_gl_panels).

    The series: I_k = delta^{c+1} sum_j (-1)^j m!/(m-j)! log^{m-j} delta/
    (c+1)^{j+1}, c = b + k, so |I_k| <= M_m(c), the sum of its terms' moduli;
    |c + 1| grows with k, so M_m(b + k) <= delta^k M_m(b), |c_k I_k| <= 0.04^k
    M_m(b)/k!, and the terms from the first omitted one, K, sum to at most
    |c_K| delta^K M_m(b)/0.96.  Rounding, relative to |c_k| M_m(b + k):
    delta^{c+1}, eps (3 |c + 1| |log delta| + 3); each level of the
    recursion, eps (2 m + 14); c_k, 4 k eps; c_k I_k, 3 eps; the at most 61
    sums, 62 eps.  With |c + 1| <= |b| + 1 + k and sum_k 0.04^k/k! (1, k) <=
    1.041 (1, 0.04), that is at most 1.05 eps (3 (|b| + 2) |log delta| + (m
    + 1)(2 m + 14) + 69) M_m(b) in all.
    """
    b = complex(b)
    if b.real <= -1.0 + 1e-12:
        raise ValueError("finite singular segment requires Re(exponent) > -1")
    if x <= 0.0:
        raise ValueError("segment upper limit must be positive")
    delta = min(x, 0.04 / max(1.0, TWO_PI * abs(nu)))
    ld, ac = abs(math.log(delta)), abs(b + 1.0)
    mods = [delta ** (b.real + 1.0) * sum(math.perm(m, j) * ld ** (m - j) / ac ** (j + 1) for j in range(m + 1)) for m in range(rmax + 1)]  # M_m(b)
    vals = _power_log_lower(b, rmax, delta)  # the series' term k = 0
    # the terms k = 1, 2, ... to the first k > 3 with |c_k| delta^{Re b + k} < 1e-20, or to k = 60
    coef, k = 2j * math.pi * nu, 1
    while not ((abs(coef) * delta ** (b.real + k) < 1e-20 and k > 3) or k > 60):
        for m, term in enumerate(_power_log_lower(b + k, rmax, delta)):
            vals[m] += coef * term
        k += 1
        coef *= 2j * math.pi * nu / k
    trunc = abs(coef) * delta**k / 0.96
    errs = [(trunc + 1.05 * _EPS * (3.0 * (abs(b) + 2.0) * ld + (m + 1) * (2 * m + 14) + 69)) * mod for m, mod in enumerate(mods)]
    if delta < x:
        _gl_panels(vals, errs, _walk([delta, x], nu, b.imag, 1.0), nu, b, rmax)
    return vals, errs
