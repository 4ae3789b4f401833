"""Sawtooth kernel, periodic Bernoulli functions, and rigorously bounded
tail integrals.

The central objects are the sawtooth psi(u) = u - [u] - 1/2, its second
antiderivative psi2, and infinite tails of the form

    int_x^inf psi(u - alpha) u^b log^m u du               (plain)
    int_x^inf e^{2 pi i nu u} u^b log^m u du              (pure oscillatory)
    int_x^inf psi(u - alpha) e^{2 pi i nu (u-alpha)} u^b log^m u du

evaluated for all log powers m = 0..r at once, each returning a value
plus a truncation bound.  Up to an adaptive cutoff the plain tail is a
finite sum by first-order Euler-Maclaurin over the kinks of psi, the step
Johansson (arXiv:1309.2877) takes at the cutoff (_psi_interval); beyond
it the tail is expanded through higher periodic-Bernoulli antiderivatives
of psi, whose remainder is bounded by |B_K({u})/K!| <= 2.5 (2 pi)^{-K}
times an explicit absolutely convergent integral.

The plain tail serves many shifts alpha at once (the residue classes a/q
of an L-function), one row each: its kink sums are one pass of the
finite-sum kernel that evaluate shares (_progression_sum), the rest one
triangular recursion of antiderivatives (_antiderivatives), and each row,
value and booked rounding, is bit for bit its one-row result.  A tail
whose interval or panel walk would exceed the work budget, or reach 2^52,
is refused: every module charges its pieces by kind, each priced once in
one table (_PRICES, _check_work).  A plain tail from x >= 2^52 integrates
nothing, and since its cutoff is then an integer, its far tail is expanded
at {-alpha}.  Each row stops at its own cutoff; the final one
(_tail_cutoff), where every row stops at once, returns the tails from
there: no interval is integrated and so no rounding is booked.

Oscillatory tails combine 16-node Gauss-Legendre panels, each booking its
own Bernstein-ellipse quadrature error, with repeated integration by parts
against the exponential beyond an adaptive cutoff.  Panels are sized by the
whole phase 2 pi nu u + Im b log u: each turns it by at most a budget
_THETA and spans at most a factor 1.6, their break points the level sets of
one closed-form count found in one array pass (_walk).  The
sawtooth-weighted variant expands psi(u-alpha) e^{2 pi i nu(u-alpha)} in
combined frequencies n + nu and sums the boundary terms of all parts in
closed form, from one row of periodic Bernoulli values shared by all K
parts.  One panel kernel serves every walk as (block x 16) arrays of at
most 512 panels; it is bit for bit the one-panel-at-a-time loop (np.vecdot
per panel, which is np.dot's BLAS dot, and panel sums added left to right).
The tails of one request (_osc_tails) are charged, every walk's panels,
before any is walked.  A sawtooth-weighted tail whose cutoff reaches 2^52
is refused: from there alpha and the phase 2 pi nu u are lost to rounding.
A tail given its final cutoff (_osc_cutoff, on the closed-form remainder
alone) from a split at or past it walks no panel: it is its far tail.

Every search doubles its first cutoff in one driver (_cutoffs) until the
caller's tolerance is met or a cap stops it (a plain cutoff at 5e6, an
oscillatory one at 5e7, a walk from x to the next of 4000 max(0.45/|nu|,
0.5) (pure) or 4000 (weighted)); a capped search books its unmet remainders.

The far tails of both kinds are one layer, each piece bit for bit a scalar
loop over its terms, in O(rmax K) work: the derivatives of u^b log^r u for
every order r come from one table d[k, j], j = r - i, of (rmax + 1) K
complex products per (b, rmax, K) that a request's cutoff searches and far
tails share (_deriv_table); a far tail evaluates every k and r at once
from it (_far_tail), its remainders every log power's tail integral by one
recurrence (power_log_tails).  The plain far tail's coefficients B_m({v})/m!,
m = 2..14, are one polynomial pass in {v} - 1/2 (_bernoulli_rows).  The
shifted Fourier sums of the sawtooth-weighted far tail take their terms n
= +-1 in closed form and expand the rest at rate nu/2, in at most 110
terms; they refuse nu above 31/32, where the rounding of their phase,
which no bound books, outgrows the tail's bound (_psi_fourier_shift_sums).

Error bounds here cover truncation and quadrature, and the rounding of the
plain tail's intervals and of the oscillatory panels; of the far-tail
expansions only psi_tail_powers books its own (_far_tail_rounding).  The
Hurwitz, Z and L routes of evaluate, and the coefficient routes that read
their core, add the rounding of what they assemble from these tails, the
far tails' phase included.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
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
    "power_log_tails",
]

TWO_PI = 2.0 * math.pi

MAX_ORDER = 24  # binary64 cancellation in (-log u)^{r-1}(r - s log u) grows beyond


def _check_order(r: int) -> None:
    if not 0 <= r <= MAX_ORDER:
        raise ValueError(f"order must lie in 0..{MAX_ORDER}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def _check_tail(x: float, alphas, rmax: int) -> None:
    if not x > 0.0:
        raise ValueError("lower limit must be positive")
    if not all(0.0 < alpha <= 1.0 for alpha in alphas):
        raise ValueError("shift must lie in (0, 1]")
    _check_order(rmax)


@dataclass(frozen=True)
class EvalResult:
    """A value and its error bound: truncation and quadrature, and the
    binary64 rounding its route books (all of it for the Hurwitz, Z and L
    routes and their coefficient readings and for a plain tail; the panels'
    for an oscillatory tail; all but the oscillatory far tails' for the
    Lerch routes)."""

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
# periodic Bernoulli functions B_m({u})/m! and their series without n = +-1
# ---------------------------------------------------------------------------

_BERNOULLI = tuple(Fraction(*c) for c in [(1,), (-1, 2), (1, 6), (0,), (-1, 30), (0,), (1, 42), (0,), (-1, 30), (0,), (5, 66), (0,), (-691, 2730), (0,), (7, 6)])


def _frozen(*items) -> tuple:
    """items, each array made read-only: a cached table is shared by every later caller."""
    return tuple(x.setflags(write=False) or x if isinstance(x, np.ndarray) else x for x in items)


_TAIL_ORDERS = range(2, 15)  # the plain far tail's coefficients, the orders of one polynomial pass


def _centred(m: int) -> list[Fraction]:
    """The coefficients of B_m(1/2 + y)/m! = sum_k C(m, k) B_k(1/2) y^{m-k}/m!,
    B_k(1/2) = (2^{1-k} - 1) B_k, lowest degree first: those of the degrees
    of the other parity than m are 0."""
    return [math.comb(m, k) * (Fraction(2) ** (1 - k) - 1) * _BERNOULLI[k] / math.factorial(m) for k in range(m, -1, -1)]


# the polynomials in z = y^2 of (-1)^{m-1} B_m(1/2 + y)/m! (even m) and of it
# over y (odd m), z^0 first (zeros above degree m), as (power of z, order, 1)
_MONOMIALS = _frozen(np.ascontiguousarray(np.array([[float((-1) ** (m - 1) * a) for a in _centred(m)[m % 2 :: 2]] + [0.0] * (7 - m // 2) for m in _TAIL_ORDERS]).T[:, :, None]))[0]
_PHI_SCALE = np.array([(-1.0) ** (m - 1) * TWO_PI**m for m in _TAIL_ORDERS])  # back to (2 pi)^m B_m/m!


def _bernoulli_rows(v: np.ndarray) -> np.ndarray:
    """(-1)^{m-1} B_m({v})/m! for m = 2..14 (rows) at every entry of v
    (columns), the plain far tail's coefficients, in one polynomial pass in
    y = {v} - 1/2, |y| <= 1/2, where each row is even or odd: every row's
    terms in z = y^2, the powers z^i from one running product, added in turn
    from z^0 up (numpy sums pairwise only along the fast axis), times y for
    the odd m."""
    y = v - np.floor(v) - 0.5
    powers = np.empty((8, 1, y.size))
    powers[0], powers[1:] = 1.0, y * y
    np.cumprod(powers, axis=0, out=powers)
    acc = np.add.reduce(_MONOMIALS * powers, axis=0)  # C-ordered, along the slow axis: in turn, not pairwise
    acc[1::2] *= y  # the odd m = 3, 5, ..., 13
    return acc


@lru_cache(maxsize=16)  # one entry per range of orders: the shift sums' columns of one nu
def _fourier_table(stop: int) -> tuple[np.ndarray, np.ndarray]:
    """For the orders m = 15..stop-1 of _phi_shifted: m mod 4 and the powers
    n^m of its terms n = 2..64, inf past an order's last term (n > 2 with
    n^{-m} < 1e-20), where the term is a 0 that leaves the sum as it is."""
    ms = range(15, max(stop, 15))
    den = np.array([[float(n**m) if n == 2 or n ** (-m) >= 1e-20 else math.inf for n in range(2, 65)] for m in ms]).reshape(len(ms), 63)
    return _frozen(np.array([m % 4 for m in ms], dtype=int), den)


def _phi_shifted(stop: int, v: float) -> np.ndarray:
    """-sum_{|n|>=2} e^{2 pi i n v}/(i n)^m = (2 pi)^m B_m({v})/m! + 2 cos(2 pi v
    - pi m/2), the periodic Bernoulli function without its terms n = +-1, for
    m = 2..stop-1; |.| <= 2 (zeta(m) - 1) <= 2.6 2^{-m} from m = 4.  Up to m =
    14 from _bernoulli_rows, scaled, plus the two terms; beyond, its Fourier
    terms n = 2, 3, ... while n^{-m} >= 1e-20 and n <= 64, each order's
    subtracted from 0 in turn along one grid (_fourier_table).  The cosines
    take 2 pi n {v} and cos(x - pi m/2) = cos x, sin x, -cos x, -sin x by m
    mod 4."""
    f = v - math.floor(v)
    arg = TWO_PI * np.arange(1.0, 65.0) * f
    cos, sin = np.cos(arg), np.sin(arg)
    quarter = np.array([cos, sin, -cos, -sin])  # cos(2 pi n v - pi m/2) by m mod 4
    low = min(stop, 15) - 2
    out = np.empty(stop - 2)
    out[:low] = _bernoulli_rows(np.array([f]))[:low, 0] * _PHI_SCALE[:low] + 2.0 * quarter[np.arange(2, low + 2) % 4, 0]
    if stop > 15:
        mods, den = _fourier_table(stop)
        terms = 2.0 * quarter[mods, 1:] / den
        out[low:] = np.subtract.accumulate(np.concatenate([np.zeros((mods.size, 1)), terms], axis=1), axis=1)[:, -1]
    return out


# ---------------------------------------------------------------------------
# antiderivatives of u^c log^m u and absolute tail integrals
# ---------------------------------------------------------------------------


_EPS = 2.0**-53  # unit roundoff of binary64


def _antiderivatives(d: complex, src: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The triangular recursion of int u^{d-1} log^m u du, R_m = src_m/d - (m/d)
    R_{m-1} along the leading axis (the orders), from the sources src_m (u^d
    log^m u at points, or sums of such terms) and their rounding; at d = 0 its
    log form R_m = src_{m+1}/(m + 1), one order fewer.  A level rounds by at
    most 8 eps M_m, M_m = (|src_m| + m M_{m-1})/|d| the moduli of its
    expanded terms, and carries the errors of src_m and R_{m-1} on."""
    if d == 0:
        den = np.arange(1.0, len(src)).reshape(-1, *[1] * (src.ndim - 1))
        return src[1:] / den, err[1:] / den + _EPS * np.abs(src[1:] / den)
    vals, errs, mags = np.empty_like(src), np.empty_like(err), np.empty_like(err)
    for m in range(len(src)):
        vals[m], errs[m], mags[m] = src[m] / d, err[m] / abs(d), np.abs(src[m]) / abs(d)
        if m:
            vals[m] -= m / d * vals[m - 1]
            errs[m] += m * errs[m - 1] / abs(d)
            mags[m] += m * mags[m - 1] / abs(d)
        errs[m] += 8.0 * _EPS * mags[m]
    return vals, errs


def _power_log_lower(c: complex, mmax: int, u) -> tuple[np.ndarray, np.ndarray]:
    """int u^c log^m u du for m = 0..mmax (rows) at the points u, zero at u = 0
    for Re(c) > -1 and at infinity for Re(c) < -1: _antiderivatives of u^{c+1}
    log^j u, whose rounding is eps (3 |c + 1| |log u| + 3) for the phase and
    modulus of u^{c+1} and eps (2 j + 1) for the power of the rounded log u."""
    d, logs = c + 1.0, np.log(np.asarray(u, dtype=float))
    src = np.cumprod([np.exp(d * logs)] + [logs] * (mmax + (d == 0)), axis=0)
    j = np.arange(len(src)).reshape(-1, *[1] * logs.ndim)
    return _antiderivatives(d, src, _EPS * (3.0 * abs(d) * np.abs(logs) + 2.0 * j + 4.0) * np.abs(src))


def power_log_tails(c: float, jmax: int, u: float) -> list[float]:
    """Upper bounds on I_j = int_u^inf w^c log^j w dw, j <= jmax, c < -1, u >= 1:
    I_j = (u^{-lam} L^j + j I_{j-1})/lam by parts, lam = -(c + 1), L = log u,
    sums positive terms, so it errs by eps (3 lam L + 1) (e^{-lam L}) + 2 j (L^j)
    or 4 a level (j I_{j-1}, the sum, lam, the quotient), eps (3 lam L + 4 j + 3)
    in all; rounded up by that and 3 eps (second order, the rounding up)."""
    if not (c < -1.0 and u >= 1.0):
        raise ValueError("absolute tail integral needs exponent < -1 and u >= 1")
    lam, ll = -(c + 1.0), math.log(u)
    lead, acc, out = math.exp(-lam * ll), 0.0, []
    for j in range(jmax + 1):
        acc = (lead + j * acc) / lam
        out.append(acc * (1.0 + _EPS * (3.0 * lam * ll + 4.0 * j + 6.0)))
        lead *= ll
    return out


@lru_cache(maxsize=8)  # one entry per number of orders
def _falling(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For r, j < size as (r, j): r!/(r - j)! and r!/j!, each 0 beyond j = r,
    and the index max(r - j, 0)."""
    falling = np.array([[float(math.perm(r, j)) if j <= r else 0.0 for j in range(size)] for r in range(size)])
    ratio = np.array([[float(math.perm(r, r - j)) if j <= r else 0.0 for j in range(size)] for r in range(size)])
    j = np.arange(size)
    return _frozen(falling, ratio, np.maximum(j[:, None] - j, 0))


def _log_powers(ll: float, size: int) -> np.ndarray:
    """r!/(r - j)! ll^{r - j} as (r, j) for r, j < size, 0 beyond j = r, the
    powers of ll from a running product."""
    powers = [1.0]
    for _ in range(size - 1):
        powers.append(powers[-1] * ll)
    falling, _, gap = _falling(size)
    return falling * np.array(powers)[gap]


@lru_cache(maxsize=4)  # complex keys: a request asks for at most two (b, rmax, K)
def _deriv_table(b: complex, rmax: int, K: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """The derivatives of g_r = u^b log^r u for every r = 0..rmax at once:
    g_r^(k)(u) = u^{b-k} sum_i c[k, r, i] log^i u with c[k, r, i] = r!/i!
    d[k, r - i], the table d[k, j] for k = 0..K, j = 0..rmax from d[0] = (1,
    0, ...) by d[k + 1, j] = (b - k) d[k, j] + d[k, j - 1], in (rmax + 1) K
    complex products, one column j at a time.  (The coefficients' own
    recursion, c[k + 1, r, i] = (b - k) c[k, r, i] + (i + 1) c[k, r, i + 1]
    from c[0, r, r] = 1, is this one under c = r!/i! d: row k of d holds the
    coefficients of the polynomial (x + b)(x + b - 1)...(x + b - k + 1),
    which no r enters.)  With it, the remainders' coefficients |c[K, r, i]|
    = r!/i! |d[K, r - i]| as (r, i), 0 beyond i = r.  sign, math.copysign(1,
    Im b), keeps apart the b that 0.0 == -0.0 would share: the signs of
    their coefficients' zeros differ."""
    bks = [b - k for k in range(K)]
    cols = [list(itertools.accumulate(bks, operator.mul, initial=1.0 + 0.0j))]  # d[k, 0], a running product
    for _ in range(rmax):  # each column j from column j - 1, down the k
        x, col = 0.0 + 0.0j, [0.0 + 0.0j]
        for bk, lower in zip(bks, cols[-1]):
            x = bk * x + lower
            col.append(x)
        cols.append(col)
    _, ratio, gap = _falling(rmax + 1)
    return _frozen(np.array(cols, dtype=complex).T, ratio * np.array([abs(col[K]) for col in cols])[gap])


def _far_tail(table, b: complex, u0: float, coeffs) -> np.ndarray:
    """sum_k coeffs[j][k] g_r^{(k)}(u0) for every row j of coefficients and every
    g_r = u^b log^r u (table from _deriv_table), added in k order: the
    boundary terms of the far-tail expansions, shape (rows, rmax + 1).

    g_r^{(k)}(u0) = e^{(b-k) L} sum_j d[k, j] r!/(r - j)! L^{r-j}, L = log u0:
    the sums, every k and r at once, over j from 0 (_log_powers gives r!/(r -
    j)! L^{r-j}); the one cmath.exp((b - k) L) of each k multiplies the
    coefficients of k, and that product the sums.  Its rounding, for the
    plain tail's coefficients, is _far_tail_rounding's."""
    c = np.asarray(coeffs).T[:, :, None]  # (k, row, 1)
    d, kc, ll = table[0], c.shape[0], math.log(u0)
    terms = np.multiply(d.T[:, :kc, None], _log_powers(ll, d.shape[1]).T[:, None], order="C")  # (j, k, r)
    s = np.add.reduce(terms, axis=0)  # along the slow axis: in j order, not pairwise
    e = np.array([cmath.exp((b - k) * ll) for k in range(kc)])[:, None, None]
    return np.add.accumulate(c * e * s[:, None], axis=0)[-1]  # the terms added in k order


@np.errstate(invalid="ignore")  # a table past binary64 times integrals that underflow to 0: a NaN remainder, which EvalResult refuses
def _far_remainders(table, b: complex, u0: float, scale: float) -> list[float]:
    """scale * int_u0^inf |g_r^{(K)}| for every r, K the last row of the table, at
    most sum_i |c_i| int_u0^inf u^{Re b - K} log^i u du (power_log_tails), in i order."""
    ints = np.array(power_log_tails(b.real - (table[0].shape[0] - 1), table[1].shape[0] - 1, u0))
    return (scale * np.add.accumulate(table[1] * ints, axis=1)[:, -1]).tolist()


def _cutoffs(u0: float, b: complex, rmax: int, K: int, scale: float, cap: float):
    """The cutoffs u0, 2 u0, 4 u0, ... of a tail search, each with the
    derivative table of g_m = u^b log^m u (m = 0..rmax) to order K, the
    remainders scale int_u^inf |g_m^{(K)}| (_far_remainders) and whether the
    cap stops the search there (u >= cap): the one doubling of every search."""
    table = _deriv_table(b, rmax, K, math.copysign(1.0, b.imag))
    while True:
        yield u0, table, _far_remainders(table, b, u0, scale), not u0 < cap
        u0 *= 2.0


_SUM_BLOCK = 1 << 15  # terms per block of one row of a progression sum: memory stays flat in its length
_ROW_BLOCK = 1 << 13  # terms per block of rows of a progression sum: the block's arrays stay in cache


def _progression_sum(a, q: int, kmax, s: complex, orders, lam: float = 0.0, first=None) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k <= kmax} e^{2 pi i lam k} p^{-s} (-log p)^r over p = a + q k for
    every start of a (rows, each to its own kmax; 0 with a bound of 0 for
    kmax < 0) and every order r of orders: (orders, rows) values and bounds.
    With first (lam = 0; an integer per row), p = a + q (first + k): each
    point is still rounded once.

    The one finite-sum kernel of the split representations: the residue
    classes of the Z core (lam = 0), the Lerch sum over n +
    alpha (q = 1), the truncated character sums and the sums over the kinks
    of the plain tail's intervals (_psi_interval).  The rows of
    one kmax (a split has at most two) run as blocks of _SUM_BLOCK or fewer
    terms of a row and _ROW_BLOCK or fewer in all, or one row; a block takes
    log p and p^{-s} e^{2 pi i lam k} once (p^{-s} real at real s, the s = 0
    and s = 1 tables and a real b's intervals) and every order from them,
    and a row adds its blocks left to right: each row is its one-row sum,
    bit for bit.  (-log p)^r is |log p|^r for r > 2, with the sign of -log p
    (copysign, exact) for odd r: numpy's power of a negative base leaves its
    vector path for one 30 to 50 times slower, about four times the complex
    exponential it multiplies, while that of a positive base is within one
    ulp of the exact power (0.65 ulp on 4500 samples against Fraction).

    Per term eps (|s| (3 |log p| + 1) + 3 r + 8) |term|: p^{-s}, the phase -t
    log p and the modulus (the logarithm, the rounded point, the product, the
    exponential); (-log p)^r, r eps for the rounded log p and one for the
    power; and the products; r eps |term| / |log p| more where |log p| < 1
    (at most the first three points), for the rounded point inside (-log
    p)^r; then the pairwise sums within blocks and the sum of the blocks,
    1.5 eps (depth) sum |term|.  The Lerch phase e^{2 pi i lam k} is 2 pi f, f
    = (k lam_hi mod 1) + k lam_lo, lam_hi = [lam 2^26]/2^26 (Dekker's exact
    split): k lam_hi and its reduction are exact for k < 2^27, and the work
    budget caps a Lerch row at 1.6e7 < 2^24 terms, so k lam_lo < 1/4.  It books
    eps (6 pi + 5 + 8 pi kmax lam_lo) |term| < eps (8 pi + 5) |term|: 3 (2 pi)
    |f| <= 6 pi (1 + k lam_lo) for pi, the product and the sum f, 2 pi k lam_lo
    for k lam_lo, 5 for the exponential and the product.  A term that leaves
    binary64 makes the sum and its bound non-finite: EvalResult refuses them."""
    a, kmax, orders = np.asarray(a, dtype=float), np.asarray(kmax), list(orders)
    first = None if first is None else np.asarray(first, dtype=float)
    val, err = np.zeros((len(orders), a.size), dtype=complex), np.zeros((len(orders), a.size))
    cuts = [0, *(np.flatnonzero(np.diff(kmax)) + 1).tolist(), a.size] if a.size > 1 else [0, a.size]
    exponent = -s.real if not s.imag else -s  # p^{-s} real at real s
    lam_hi = math.floor(lam * 2.0**26) / 2.0**26  # lam = lam_hi + lam_lo, each exact
    abs_s, add, lam_lo = abs(s), np.add.reduce, lam - lam_hi

    def factor(logs, k):
        """p^{-s} e^{2 pi i lam k}, the factor of every order's terms, formed
        in place where it can be: the Lerch sums are the longest rows."""
        ps = np.exp(exponent * logs)
        if not lam:
            return ps
        arg = lam_hi * k  # exact, and so its reduction mod 1
        arg = 2j * np.pi * (arg - np.floor(arg) + lam_lo * k)
        return np.multiply(ps, np.exp(arg, out=arg), out=ps if s.imag else None)  # ps is real at real s

    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, kk in ((lo, hi, int(kmax[lo])) for lo, hi in zip(cuts, cuts[1:]) if kmax[lo] >= 0):
            width = min(kk + 1, _SUM_BLOCK)
            depth = math.log2(width + 1) + 20 + -(-(kk + 1) // _SUM_BLOCK)
            step = max(1, _ROW_BLOCK // width)
            for j in range(lo, hi, step):
                rows = slice(j, min(j + step, hi))
                sums = [[None] * 4 for _ in orders]  # value, sum |term|, sum |term log p|, head
                for k0 in range(0, kk + 1, _SUM_BLOCK):
                    k = np.arange(k0, min(k0 + _SUM_BLOCK, kk + 1), dtype=float)
                    logs = np.log(a[rows, None] + q * (k if first is None else first[rows, None] + k))
                    al3 = np.abs(logs[:, :3])  # the points with 0 < |log p| < 1: the first three at most
                    al3 = np.where((al3 > 0.0) & (al3 < 1.0), al3, np.inf)
                    # one order keeps no copy of p^{-s} e^{2 pi i lam k}, and |log p| is taken
                    # where it is used: fewer live arrays keep a long row in cache
                    base = factor(logs, k) if len(orders) > 1 else None
                    for sm, r in zip(sums, orders):
                        terms = factor(logs, k) if base is None else base
                        if r > 2:  # numpy's power of a negative base leaves its vector path
                            power = np.abs(logs)
                            np.power(power, r, out=power)
                            if r % 2:  # -|x|^r with the sign of x is (-x)^r; in place, no copy of -log p
                                np.negative(np.copysign(power, logs, out=power), out=power)
                            terms = terms * power
                        elif r:
                            terms = terms * (np.square(logs) if r == 2 else -logs)
                        mag = np.abs(terms)
                        parts = [add(terms, axis=1), add(mag, axis=1), add(mag * np.abs(logs), axis=1)]
                        sm[:3] = [x + y for x, y in zip(sm, parts)] if k0 else parts  # the blocks of a row left to right
                        if r and not k0:
                            sm[3] = r * add(mag[:, :3] / al3, axis=1)
                for i, (r, (v, mags, lmags, head)) in enumerate(zip(orders, sums)):
                    bound = 3.0 * abs_s * lmags + (abs_s + 3 * r + 8 + 1.5 * depth) * mags
                    bound = bound + head if r else bound
                    bound = bound + (6.0 * math.pi + 5.0 + 8.0 * math.pi * kk * lam_lo) * mags if lam else bound
                    val[i, rows], err[i, rows] = v, _EPS * bound
    return val, err


# ---------------------------------------------------------------------------
# plain sawtooth tails, Euler-Maclaurin over the kinks + periodic-Bernoulli far tail
# ---------------------------------------------------------------------------

_TOL_ABS = 1e-15
_TOL_REL = 1e-12
_K_TAIL = _TAIL_ORDERS[-1]  # periodic-Bernoulli expansion depth for the plain tail
# units of work of one check (about 10 s) and the price of each kind of piece:
# a unit of u of a plain tail's interval (per row), a walk's panel (about 1.4
# us), a listed kink or a truncated-sum term, 1; a core's or the Lerch core's
# finite-sum term (40-290 ns), 1/8; a residue class (its far tails and core,
# 3-17 us), 12, so that a class of u terms costs no more than its terms at 1 or
# its tail's interval to the first cutoff (30 or more); a character-table entry
# (24 bytes held, or 0.2 us formatted), 1/4, so tables of up to 8e6 entries pass
_WORK_BUDGET = 2e6
_PRICES = {"interval": 1.0, "panels": 1.0, "kinks": 1.0, "truncated": 1.0, "terms": 1.0 / 8.0, "classes": 12.0, "entries": 0.25}


def _work(**pieces: float) -> float:
    """The units of work of pieces, counted by kind (_PRICES), each at its price."""
    return sum([_PRICES[kind] * count for kind, count in pieces.items()])


def _check_work(**pieces: float) -> None:
    """Refuse, before any work, pieces by kind (_work) beyond the budget of one
    check: the budget holds per check, not per request."""
    work = _work(**pieces)
    if not work <= _WORK_BUDGET:
        raise ValueError(f"the request would take about {work:.3g} units of work, beyond the work budget of {_WORK_BUDGET:.0e}")


def _kinks(lo: float, hi: float, alpha: float) -> tuple[float, int]:
    """The first kink index m1 and the segment count: the kinks m + alpha of
    psi(u - alpha) with lo + 1e-12 < m + alpha < hi - 1e-12 cut (lo, hi) into
    count segments on which psi is linear (hi < 2^52, where a unit step
    changes the float)."""
    first = math.floor(lo - alpha + 1e-12) + 1.0
    while first + alpha <= lo + 1e-12:
        first += 1.0
    last = float(math.floor(hi - alpha))
    while last + alpha >= hi - 1e-12:
        last -= 1.0
    return first, int(max(last - first + 1.0, 0.0)) + 1


def _psi_interval(sums, lo: float, hi: float, alphas: np.ndarray, b: complex, rmax: int) -> None:
    """Add int_lo^hi psi(u - alpha) u^b log^m u du, m = 0..rmax, and its
    rounding to each row's sums = (values, rounding), arrays of shape (rmax +
    1, rows), by first-order Euler-Maclaurin: with g_m' = u^b log^m u and G_m'
    = g_m (_antiderivatives at c = b + 1 and c + 1), it is

        sum_{lo < n + alpha <= hi} g(n + alpha) - [G(hi) - G(lo)]
            - psi(lo - alpha) g(lo) + psi(hi - alpha) g(hi),

    the sum the recursion run on the kernel's sums of p^c log^j p over the
    kinks (_progression_sum at s = -c).  Count and psi come from one rounded
    v = u - alpha at each end, so their jumps cancel: psi errs by eps |v|,
    and a kink that v's rounding puts across the end costs |g(p) - g(u)|.  Next to a
    zero c or c + 1 (|d| max(2, |log u|) <= 1, d = b - b0, b0 = -1 or -2)
    the integrand is u^b0 log^m u e^{d log u}, its exponential cut after the
    first K terms, where e^z z^K/K! < 2^-64 (z = |d| max|log u|), each at b0
    in the log form; the rest adds (1/2) e^z z^K/K! max|log u|^m int u^b0.
    Rounding: the kernel's bound, the recursions', and 6 eps sum |piece|."""
    if not lo < hi:
        return
    if not hi < 2.0**52:  # from there the float spacing is 1: the kinks m + alpha round onto integers, two can coincide
        raise ValueError(f"the walk to u = {hi:.6g} reaches 2^52, where the kinks of the sawtooth round onto integers")
    span = max(abs(math.log(lo)), abs(math.log(hi)))
    for b0 in (-1.0, -2.0):
        if (d := b - b0) and abs(d) * max(span, 2.0) <= 1.0:
            z = abs(d) * span
            K = next(k for k in range(1, 64) if math.exp(z) * z**k / math.factorial(k) <= 2.0**-64)
            part = [np.zeros((rmax + K, alphas.size), dtype=complex), np.zeros((rmax + K, alphas.size))]
            _psi_interval(part, lo, hi, alphas, complex(b0), rmax + K - 1)
            w = np.cumprod([1.0] + [d / k for k in range(1, K)])[:, None, None]  # d^k/k!
            terms, terrs = (np.array([p[k : k + rmax + 1] for k in range(K)]) for p in part)
            rem = 0.5 * math.exp(z) * z**K / math.factorial(K) * (math.log(hi / lo) if b0 == -1.0 else 1.0 / lo - 1.0 / hi)
            vals = np.add.accumulate(w * terms)[-1]
            errs = (np.abs(w) * (terrs + _EPS * (5 * K + 4) * np.abs(terms))).sum(axis=0) + rem * span ** np.arange(rmax + 1.0)[:, None]
            break
    else:
        c, ends = b + 1.0, np.array([lo, hi])
        v = ends[:, None] - alphas
        n, orders = np.floor(v), range(rmax + 1 + (c == 0))
        psi, near = v - n - 0.5, np.minimum(v - n, n + 1.0 - v) <= 2.0 * _EPS * np.abs(v)  # near: a kink within rounding of the end
        sums_p, errs_p = _progression_sum(alphas, 1, (n[1] - n[0] - 1.0).astype(np.int64), -c, orders, first=n[0] + 1.0)
        sg, sgerr = _antiderivatives(c, np.array([[(-1.0) ** j] for j in orders]) * sums_p, errs_p)
        g, gerr = _power_log_lower(b, rmax, ends)
        G, Gerr = _antiderivatives(c, *_power_log_lower(c, rmax + (c == 0), ends))
        f = ends**b.real * np.abs(np.log(ends)) ** np.arange(rmax + 1.0)[:, None]  # |u^b log^m u| at the ends
        pieces = (sg, G[:, 1:] - G[:, :1], psi[0] * g[:, :1], psi[1] * g[:, 1:])
        vals = pieces[0] - pieces[1] - pieces[2] + pieces[3]
        at_ends = [np.abs(psi[e]) * gerr[:, e, None] + _EPS * np.abs(v[e]) * (np.abs(g[:, e, None]) + 2.0 * f[:, e, None] * near[e]) for e in (0, 1)]
        errs = sgerr + Gerr.sum(axis=1)[:, None] + at_ends[0] + at_ends[1]
        errs = errs + 6.0 * _EPS * (np.abs(sg) + np.abs(G).sum(axis=1)[:, None] + np.abs(pieces[2]) + np.abs(pieces[3]))
    sums[0] += vals
    sums[1] += errs + _EPS * np.abs(sums[0])


def _first_cutoff(b: complex, rmax: int) -> float:
    """The plain tail's first cutoff from any x below it."""
    return max(2.0 * (abs(b) + rmax + _K_TAIL), 8.0)


def _tail_cutoffs(x: float, b: complex, rmax: int):
    """The plain tail's cutoffs (_cutoffs) from max(x, _first_cutoff), their
    remainders 2.5 (2 pi)^{-K} int_u^inf |g_m^{(K-1)}|, capped at 5e6."""
    return _cutoffs(max(x, _first_cutoff(b, rmax)), b, rmax, _K_TAIL - 1, 2.5 / TWO_PI**_K_TAIL, 5e6)


def _tail_values(sums, cutoff, b: complex, alphas: np.ndarray):
    """Each row's tails at the cutoff u0 of cutoff (from _tail_cutoffs), its
    interval sums plus the far tail sum_k (-1)^{k+1} psi~_{k+2}(u0 - alpha)
    g_m^{(k)}(u0) (from 2^52 on, where u0 is an integer, expanded at
    {-alpha}), with their bounds (rmax + 1, rows): the remainders, the
    intervals' rounding and, where one was, that of adding the far tail; and
    whether the row stops there: its remainders meet the tolerance for a tail
    of its size, or the cap stops the search."""
    u0, table, rems, capped = cutoff
    rems = np.array(rems)[:, None]
    v = u0 - alphas if u0 < 2.0**52 else -alphas
    vals = sums[0] + _far_tail(table, b, u0, _bernoulli_rows(v).T).T
    size = np.abs(vals)
    stops = (rems <= np.fmax(_TOL_ABS, _TOL_REL * size)).all(axis=0) | capped
    return vals, rems + sums[1] + _EPS * size * (sums[1] > 0.0), stops


@lru_cache(maxsize=1)
def _tail_coeff_bounds() -> tuple[np.ndarray, np.ndarray]:
    """For the orders m = 2..14 of _bernoulli_rows: D_m >= |B_m({v})/m!| (2
    zeta(m)/(2 pi)^m, 2 zeta(2) < 3.3) and the rounding of the far tail's
    coefficient B_m({v})/m! in eps, less eps |v| 3 D_{m-1} (D_1 = 1/2, d/dv
    B_m/m! = B_{m-1}/(m-1)!), the part of v's rounding.  y = {v} - 1/2 is
    exact for {v} >= 1/4 and else within eps/4 <= eps |y|; so z = y^2 errs
    by 3 eps z, z^i, from i - 1 products, by (4 i - 1) eps z^i, a_i z^i with
    its rounded coefficient by (4 i + 1) eps |a_i z^i|, the 8 terms added in
    turn by 7 eps sum_i |a_i z^i|, and the product with y of an odd m by 2
    eps more: with the degree d = 2 i or 2 i + 1 <= m of each term, (2 m +
    10) sum_d |a_d| 2^{-d} in all, |y| <= 1/2."""
    d = np.array([3.3 / TWO_PI**m for m in _TAIL_ORDERS])
    return _frozen(d, np.array([(2.0 * m + 10.0) * float(sum(abs(a) / 2**i for i, a in enumerate(_centred(m)))) for m in _TAIL_ORDERS]))


def _far_tail_rounding(b: complex, rmax: int, u0: float, alpha: float) -> np.ndarray:
    """The rounding of _tail_values' far tail F_r = sum_k c_k g_r^{(k)}(u0),
    c_k = (-1)^{k+1} B_{k+2}({v})/(k+2)!, v = u0 - alpha (-alpha from 2^52
    on, where it is exact), for r = 0..rmax, in terms of G_{k,r} = u0^{Re b -
    k} sum_j M[k, j] r!/(r - j)! |L|^{r-j} >= |g_r^{(k)}(u0)|, L = log u0,
    where M bounds the table of _deriv_table by the recursion of its moduli,
    M[k + 1, j] = |b - k| M[k, j] + M[k, j - 1], and G sums the moduli of
    the terms that _far_tail adds.  Per k, in eps G: c_k (_tail_coeff_bounds,
    with 3 |v| D_{k+1} for v); the table, 5 k (a level rounds b - k, its
    complex product, 2 sqrt 2 eps, and its sum); r!/(r - j)! L^{r-j}, 2 r + 1
    (the rounded L, the running product and r!/(r - j)!, and their product);
    its product with the table and the sum over j, r + 1; the phase and
    modulus of e^{(b - k) L}, 3 |b - k| |L| + 5 (the argument and cmath.exp);
    and D_{k+2} (1 + 3 + 13) for c_k e^{(b - k) L} (a real times a complex),
    its product with the sum and the sum of the 13 terms: D_{k+2} (3 |b - k|
    |L| + 5 k + 3 r + 24)."""
    d, coeff = _tail_coeff_bounds()
    v = abs(u0 - alpha if u0 < 2.0**52 else alpha)
    ks, ll = np.arange(d.size), abs(math.log(u0))
    M = [np.eye(1, rmax + 1)[0]]  # M[k, j] of each k
    for k in range(d.size - 1):
        M.append(abs(b - k) * M[-1] + np.concatenate([[0.0], M[-1][:-1]]))
    G = (np.array(M)[:, None, :] * _log_powers(ll, rmax + 1)).sum(axis=2) * u0 ** (b.real - ks)[:, None]
    w = 3.0 * v * np.concatenate([[0.5], d[:-1]]) + coeff + d * (3.0 * np.abs(b - ks) * ll + 5.0 * ks + 24.0)
    return _EPS * ((w[:, None] + 3.0 * d[:, None] * np.arange(rmax + 1.0)) * G).sum(axis=0)


def _tail_cutoff(alphas, b: complex, rmax: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The first cutoff u of _tail_cutoffs at which every row of
    psi_tail_powers_batch(u, alphas, b, rmax) stops, integrating no interval,
    and that batch's result, bit for bit, as (rmax + 1, rows) values and bounds."""
    alphas = np.array(alphas, dtype=float)
    sums = [np.zeros((rmax + 1, alphas.size), dtype=complex), np.zeros((rmax + 1, alphas.size))]
    for cutoff in _tail_cutoffs(0.0, b, rmax):
        vals, errs, done = _tail_values(sums, cutoff, b, alphas)
        if done.all():
            return cutoff[0], vals, errs


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an x near 0 can leave binary64: EvalResult refuses it
def psi_tail_powers_batch(x: float, alphas, b: complex, rmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi_tail_powers(x, alpha, b, rmax) for every alpha of alphas, less the
    rounding of the far tails (the evaluate routes book it in their assembly),
    as (rmax + 1, rows) values and bounds and each row's far-tail cutoff u0,
    from one interval integral of all rows per cutoff; each row is bit for
    bit its one-row result.  Each row stops, its column written, at the first
    cutoff (_tail_cutoffs) where it meets the tolerance or the cap stops the
    search; the far-tail derivatives and remainders serve every row."""
    _check_tail(x, alphas, rmax)
    b, alphas = complex(b), np.array(alphas, dtype=float)
    if b.real >= 0.0:
        raise ValueError("tail requires Re(exponent) < 0 for convergence")
    sums = [np.zeros((rmax + 1, alphas.size), dtype=complex), np.zeros((rmax + 1, alphas.size))]
    values, bounds, cutoffs = np.empty_like(sums[0]), np.empty_like(sums[1]), np.empty(alphas.size)
    rows, cur = np.arange(alphas.size), x
    for cutoff in _tail_cutoffs(x, b, rmax):
        _check_work(interval=alphas.size * (cutoff[0] - cur))  # each interval, for the rows still open, before it is integrated
        _psi_interval(sums, cur, cutoff[0], alphas, b, rmax)
        cur = cutoff[0]
        vals, errs, done = _tail_values(sums, cutoff, b, alphas)
        values[:, rows[done]], bounds[:, rows[done]], cutoffs[rows[done]] = vals[:, done], errs[:, done], cur
        if done.all():
            return values, bounds, cutoffs
        rows, alphas = rows[~done], alphas[~done]
        sums = [a[:, ~done] for a in sums]


def psi_tail_powers(x: float, alpha: float, b: complex, rmax: int) -> tuple[list[complex], list[float]]:
    """int_x^inf psi(u-alpha) u^b log^m u du for m = 0..rmax, with bounds.

    Requires Re(b) < 0.  First-order Euler-Maclaurin over the kinks up to an
    adaptive cutoff U (_psi_interval), then the expansion sum_k (-1)^k
    psi~_{k+1}(U-alpha) g^{(k-1)}(U) with the remainder bounded through
    int_U^inf |g^{(K-1)}|.  The bounds add the rounding of that expansion
    (_far_tail_rounding) to psi_tail_powers_batch's.
    """
    vals, errs, (u0,) = psi_tail_powers_batch(x, [alpha], b, rmax)
    return vals[:, 0].tolist(), (errs[:, 0] + _far_tail_rounding(complex(b), rmax, u0, alpha)).tolist()


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_SPAN = 1.0 + _GL_NODES  # nodes a + h (1 + x) from a panel's left end a: neighbouring panels share each end
_PANEL_BLOCK = 512  # panels per (block x 16) array: memory stays flat in the walk's length
# the phase budget of a panel: the (n + 1)-node Gauss rule errs on a panel of
# half-width h by at most h (64/15) M rho^{-2n}/(rho^2 - 1), M = max|f| on its
# Bernstein ellipse E_rho (Trefethen, ATAP ch. 19, Thm 19.3), booked per panel at
# rho = 5 (_gl_panels).  There f = e^{i phi}, phi' <= omega, grows by e^{omega B},
# B = 2.4 h: at omega h = _THETA/2 = 6 and 16 nodes the term is 4.3 e^{14.4}
# 5^{-30}/24, about 3.4e-16, times h M
_THETA, _RHO = 12.0, 5.0
_GL_QUAD = 64.0 / 15.0 * _RHO ** -(2 * (_GL_NODES.size - 1)) / (_RHO**2 - 1.0)
_LOG_STEP = math.log1p(0.6)  # a panel spans at most a factor 1.6


def _walk_length(lo, hi, nu, c: float):
    """F(hi) - F(lo), F(u) = (2 pi |nu| u + |c| log u)/_THETA + log u/log 1.6,
    elementwise: the turn of the phase 2 pi nu u + c log u over [lo, hi] in
    budgets _THETA (|phi'| <= 2 pi |nu| + |c|/u) plus its steps u -> 1.6 u."""
    w = np.log1p((hi - lo) / lo)
    if not c and np.isinf(w).any():  # |c| w would be 0 inf: (hi - lo)/lo overflows from the lo of an ulp or so
        raise ValueError(f"the panel walk from u = {lo[0]:.6g} is not finite in binary64")
    return (TWO_PI * abs(nu) * (hi - lo) + abs(c) * w) / _THETA + w / _LOG_STEP


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as in psi_tail_powers_batch
def _panel_counts(ends, nu: float, c: float) -> np.ndarray:
    """The panels of each interval between the increasing ends, as floats: one
    per level set F(u) = F(lo) + k < F(hi), k >= 0 (_walk_length), if lo < hi."""
    lo, hi = np.asarray(ends[:-1], dtype=float), np.asarray(ends[1:], dtype=float)
    return np.where(hi > lo, np.maximum(np.ceil(_walk_length(lo, hi, nu, c)), 1.0), 0.0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as in psi_tail_powers_batch
def _walk(ends, nu: float, c: float, counts: np.ndarray) -> np.ndarray:
    """Panel break points over the intervals between the increasing ends, each
    cut at its counts of level sets (_panel_counts, charged by the caller),
    all found at once by Newton's method in w = log(u/lo): F(lo e^w) - F(lo)
    = a expm1(w) + C w is convex, so from min(k/C, log1p(k/a)), above the
    root, it descends to it.  A walk whose break points round together is refused."""
    ends = np.asarray(ends, dtype=float)
    lo, hi = ends[:-1], ends[1:]
    n = counts.astype(np.int64)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # 0..n-1 along each interval
    base, C = np.repeat(lo, n), abs(c) / _THETA + 1.0 / _LOG_STEP
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an integrand beyond binary64 makes the sums non-finite: EvalResult refuses them
def _gl_panels(vals: list[complex], errs: list[float], pts, nu: float, b: complex, rmax: int, alpha: float | None = None) -> None:
    """Accumulate 16-node Gauss-Legendre panels [pts[i], pts[i+1]] of
    e^{2 pi i nu u} u^b log^m u, m = 0..rmax, Re b < 0, into vals; with alpha
    given, of psi(u - alpha) e^{2 pi i nu (u - alpha)} u^b log^m u, whose
    panels must not straddle a kink.  The nodes are a + h (1 + x) (a the left
    end, h the half-width); the integrand e^{Re b L} (cos theta + i sin theta)
    L^m, L = log u, theta = 2 pi nu u + Im b L (less 2 pi nu alpha), takes cos
    theta + i sin theta = ((1 - t^2) + 2 i t)/(1 + t^2) from t = tan(theta/2)
    (numpy's tangent takes 3 ns on AVX-512, its cosine and sine 33 ns each).

    errs collects per power and panel the quadrature (_THETA) on c + h E_rho,
    c the centre, semi-axes A, B = h (rho +- 1/rho)/2: there c - A <= |z| <= c
    + A and |arg z| <= beta = B/sqrt((c - A)(c + A)), the slope of its tangent
    from 0 (c - A >= 0.52 a for a span of 1.6; an ellipse reaching 0 books
    inf), so M = e^{2 pi |nu| B} (c - A)^{Re b} e^{|Im b| beta} (max|log(c -+
    A)| + beta)^m, with alpha times |psi(c - alpha)| + A.  And the rounding,
    sum |w f| eps kappa, kappa = 6 (2 pi |nu| u) + 3 (|Re b| + |Im b|) (|L| +
    1) + 2 m + 51 per node, plus 3 m eps |w f_{m-1}|, with alpha eps (4 u + 2)
    |w f/psi|, and eps |partial sum| per panel.  For the computed node,
    within 3 eps u of the Gauss node, that covers its offset (theta by 3 eps
    (2 pi |nu| u + |Im b|), e^{Re b L} by 3 eps |Re b|, L^m by 3 m eps
    |L|^{m-1}, psi by 3 eps u); theta/2, 3 eps (2 pi |nu| (u + alpha) + |Im b|
    |L|), 2 pi alpha < 7; e^{Re b L}, eps (2 |Re b| |L| + 1); psi, 2 eps (u - k
    is exact) and eps u per unit of u for the sliver at a rounded kink; L^m, (2
    m - 1) eps; the tangent (2 eps) and the phase formed from it (8 eps); the
    products with psi and L^m, 2 eps; the weights, the 16-term dot and half
    times it, 19 eps.

    Bit for bit the one-panel-at-a-time loop: the integrand is elementwise,
    each panel's dot is np.vecdot (np.dot's BLAS dot; a matrix product sums
    in another order), and the panels are added left to right.
    """
    pts, pi_nu = np.asarray(pts, dtype=float), math.pi * nu
    for p0 in range(0, pts.size - 1, _PANEL_BLOCK):
        ends = pts[p0 : p0 + _PANEL_BLOCK + 1]
        half = 0.5 * (ends[1:] - ends[:-1])
        mid, u = ends[:-1] + half, ends[:-1, None] + half[:, None] * _GL_SPAN
        logs = np.log(u)
        amp = np.exp(b.real * logs)
        A, B = (0.5 * (_RHO + 1.0 / _RHO)) * half, (0.5 * (_RHO - 1.0 / _RHO)) * half
        near, far = np.fmax(mid - A, 0.0), mid + A
        beta = B / np.sqrt(near) / np.sqrt(far)  # near * far can underflow
        lmax = np.fmax(np.abs(np.log(near)), np.abs(np.log(far))) + beta
        quad = (_GL_QUAD * half) * np.exp(TWO_PI * abs(nu) * B + abs(b.imag) * beta) * near**b.real
        wt = amp
        if alpha is not None:  # psi(u - alpha) is linear inside each panel
            k = np.floor(mid - alpha)
            wt, quad = amp * (u - k[:, None] - alpha - 0.5), quad * (np.abs(mid - k - alpha - 0.5) + A)
        mag = amp if alpha is None else np.abs(wt)  # amp >= 0
        book = mag * (_EPS * (12.0 * abs(pi_nu) * u + 3.0 * (abs(b.real) + abs(b.imag)) * (np.abs(logs) + 1.0) + 51.0))
        book = book if alpha is None else book + _EPS * (4.0 * u + 2.0) * amp
        t = np.tan(pi_nu * u + (0.5 * b.imag) * logs - (0.0 if alpha is None else pi_nu * alpha))  # tan(theta/2)
        tt = t * t
        g = wt / (1.0 + tt)
        base = np.empty(u.shape, dtype=complex)
        base.real, base.imag = g * (1.0 - tt), g * (2.0 * t)
        lp, lq = 1.0, 1.0  # L^0 as a scalar: base * 1 and 1 * L are exact, so the powers are those from an array of ones
        for m in range(rmax + 1):
            acc = np.add.accumulate(np.concatenate(([vals[m]], half * np.vecdot(_GL_WEIGHTS, base * lp if m else base))))
            vals[m] = complex(acc[-1])
            prev, alp = (alp, np.abs(lp)) if m else (1.0, 1.0)
            dot = half * np.vecdot(_GL_WEIGHTS, book * alp + _EPS * m * mag * (2.0 * alp + 3.0 * prev) if m else book)
            errs[m] = float(np.add.accumulate(np.concatenate(([errs[m]], dot + quad * lq + _EPS * np.abs(acc[1:]))))[-1])
            lp, lq = (lp * logs, lq * lmax) if m else (logs, lmax)


_K_OSC = 16  # deep by-parts keeps the quadrature cutoff (and its rounding) small


def _osc_cutoff(nu: float, b: complex, rmax: int, x: float, weighted: bool, final: bool = False):
    """The cutoff x0 from x of pure_osc_tail_powers (psi_osc_tail_powers if
    weighted), the derivative table of g_m = u^b log^m u (m = 0..rmax) and the
    remainders (2 pi |nu|)^{-K} (S_K(nu)) int_x0^inf |g_m^{(K)}|: of the cutoffs
    (_cutoffs) from reach/(pi |nu|) (reach/(pi (1 - nu))), floored at x and 8
    (12), the first whose remainders each meet _TOL_ABS, or where the cap stops
    the search: x0 at 5e7, or a walk from x to 2 x0 of 4000 max(0.45/|nu|, 0.5)
    (4000).  The final cutoff walks nothing and keeps the 5e7 cap; it meets
    max(_TOL_ABS, _TOL_REL |g_m(x0)|) (an absolute tolerance sends high log
    powers far out, and the finite sum with them), so that a tail from a split
    at or past it walks no panel."""
    b, anu, reach = complex(b), abs(nu), abs(b) + rmax + _K_OSC + 6.0
    if weighted:
        x0, scale, walk = max(x, reach / (math.pi * (1.0 - nu)), 12.0), _osc_remainder_const(nu), 4000.0
    else:
        x0, scale, walk = max(x, reach / (math.pi * anu), 8.0), (TWO_PI * anu) ** (-_K_OSC), 4000.0 * max(0.45 / anu, 0.5)
    walk, rel = (math.inf, _TOL_REL) if final else (walk, 0.0)
    for x0, table, rems, capped in _cutoffs(x0, b, rmax, _K_OSC, scale, min(0.5 * (x + walk), 5e7)):
        if capped or all(rem <= max(_TOL_ABS, rel * x0**b.real * math.log(x0) ** m) for m, rem in enumerate(rems)):
            return table, x0, rems


@lru_cache(maxsize=128)  # float keys: bounded, one entry per oscillation nu
def _osc_remainder_const(nu: float) -> float:
    """S_K(nu) = sum_{|n|>=1} 1/((2 pi |n|)(2 pi |n+nu|)^K), K = _K_OSC, plus
    a tail bound; for nu in (0, 1) its terms fall below 1e-19 of the sum by n = 14."""
    K, acc = _K_OSC, 0.0
    for n in itertools.count(1):
        t = 1.0 / ((TWO_PI * n) * (TWO_PI * (n + nu)) ** K) + 1.0 / ((TWO_PI * n) * (TWO_PI * abs(n - nu)) ** K)
        acc += t
        if t < 1e-19 * acc:
            break
    # integral tail over |n| > n
    acc += 2.0 / (TWO_PI ** (K + 1) * K * max(n - 1, 1) ** K)
    return acc


# the shift sums refuse nu above this: their phase e^{2 pi i nu v} at the tail's
# cutoff v ~ 1/(1 - nu) rounds by about eps 2 pi nu v, which no bound books; at
# lambda = 255/256 (s = 0.5, r = 1) the Lerch route erred by 1.4 times its bound
_NU_MAX = 31.0 / 32.0


@lru_cache(maxsize=16)  # float keys: bounded, one entry of K rows of n per oscillation nu
def _shift_table(K: int, nu: float) -> tuple[int, np.ndarray]:
    """The columns j < n of _psi_fourier_shift_sums(K, ., nu) and their
    coefficients C(k + j - 1, j) (-i nu)^j as (k, j), k = 1..K: n to the
    first j > 4 where every row's term is below 1e-18 of the row's n = -1
    term, C(k + j - 1, j) nu^j 2.6 2^{-(k+1+j)} < 1e-18 (1 - nu)^{-k} in the
    units of the j-series (|phi'_m| <= 2.6 2^{-m} from m = 4).  The bound of
    row k rises from its value at j = 0 while (k + j)/(j + 1) nu/2 > 1 and
    falls from then on, so where it is below its start it falls, and the
    rest of the row is below 1e-18 (1 - nu)^{-k}/(1 - (K + 5)/6 nu/2).  At
    rate nu/2 < 1/2 the test holds by j = 110 for every nu < 1."""
    j = np.arange(1, 160)
    binom = np.cumprod(np.concatenate([np.ones((K, 1)), (np.arange(1, K + 1)[:, None] + j - 1) / j], axis=1), axis=1)
    half = np.cumprod(np.concatenate([[2.6], np.full(j.size, 0.5 * nu)]))  # 2.6 (nu/2)^j
    met = (binom * half * np.array([[0.5 ** (k + 1) * (1.0 - nu) ** k] for k in range(1, K + 1)])).max(axis=0) < 1e-18
    n = 6 + int(met[5:].argmax())
    zj = np.cumprod(np.concatenate([[1.0 + 0.0j], np.full(n - 1, -1j * nu)]))  # (-i nu)^j
    return _frozen(n, binom[:, :n] * zj)


@lru_cache(maxsize=256)  # float keys: bounded, one entry of K sums per oscillatory cutoff
def _psi_fourier_shift_sums(K: int, v: float, nu: float) -> tuple[complex, ...]:
    """Psi_k(v, nu) = sum_{|n|>=1} e^{2 pi i (n+nu) v} / ((2 pi i n)(2 pi i (n+nu))^k)
    for k = 1..K.

    The terms n = +-1 in closed form, e^{2 pi i (nu +- 1) v} w_+-^k/(+-2 pi
    i), w_+- = 1/(2 pi i (nu +- 1)), e^{+-2 pi i v} from {v}; the rest by the
    binomial expansion of (n + nu)^{-k} in nu/n, |nu/n| <= nu/2, which
    reduces it to -e^{2 pi i nu v} (2 pi)^{-(k+1)} sum_j C(k+j-1, j) (-i
    nu)^j phi'_{k+1+j}(v), phi' the periodic Bernoulli values without n =
    +-1 (_phi_shifted): it converges at rate nu/2 for every nu in (0, 1).
    Each k sums its j-series as one row of a (K x n) array, its columns and
    coefficients from _shift_table, from one row of those values, left to
    right from 0; the closed forms and the sum of the three parts are
    Python's complex arithmetic, one k at a time.  What the n columns leave
    out is below 1e-18 of each row's n = -1 term (_shift_table); the
    rounding is not booked (no oscillatory far tail books its own), and
    nu above _NU_MAX, where the rounding of the phase outgrows the bound, is
    refused.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError("shifted Fourier sums need nu in (0, 1)")
    if nu > _NU_MAX:
        raise ValueError(f"the shifted Fourier sums at nu = {nu:.6g} are refused above nu = {_NU_MAX}, where the rounding of their phase is not booked")
    n, coef = _shift_table(K, nu)
    phi = np.lib.stride_tricks.sliding_window_view(_phi_shifted(K + n + 1, v), n)[:K]
    rest = np.add.accumulate(np.concatenate([np.zeros((K, 1)), coef * phi], axis=1), axis=1)[:, -1].tolist()
    f, c0 = v - math.floor(v), 1.0 / (2j * math.pi)
    phase, e1 = cmath.exp(2j * math.pi * nu * v), complex(math.cos(TWO_PI * f), math.sin(TWO_PI * f))
    plus, minus, wp, wm, out = c0 * e1, c0 * e1.conjugate(), c0 / (1.0 + nu), c0 / (nu - 1.0), []
    for k, a in zip(range(1, K + 1), rest):
        plus, minus = plus * wp, minus * wm
        out.append(phase * (plus - minus - TWO_PI ** (-(k + 1)) * a))
    return tuple(out)


def _osc_tails(nu: float, alpha: float | None, rmax: int, x: float, tails, **pieces) -> list[tuple[list[complex], list[float]]]:
    """Values and bounds, m = 0..rmax, of the tail from x of each (b,
    weighted, cutoff) of tails: of e^{2 pi i nu u} u^b log^m u, or if
    weighted of psi(u - alpha) e^{2 pi i nu (u - alpha)} u^b log^m u.  Panels
    to the cutoff (_osc_cutoff for None; a final one at or below x walks
    none), then the far tail by parts against the exponential, for a weighted
    tail per combined frequency n + nu, summed by shifted periodic-Bernoulli
    series.  The cutoffs come first (a weighted one that reaches 2^52 is
    refused); the caller's pieces and the kinks of psi(u - alpha) are charged
    before the kinks are listed with a floor on each walk's panels, then with
    every panel of every walk, the counts it walks (_panel_counts), before any
    far tail is formed or any panel walked.  Each tail's panels are added to its far tail and remainders."""
    walks, kinks, least, top = [], 0, 0.0, x  # each tail's exponent, kind, cutoff, derivative table, remainders and kinks
    for b, weighted, cut in tails:
        if b.real >= 0.0:
            raise ValueError("oscillatory tail requires Re(exponent) < 0")
        table, x0, rems = cut or _osc_cutoff(nu, b, rmax, x, weighted)
        x0, top = max(x0, x), max(top, x0)
        if weighted and not x0 < 2.0**52:
            raise ValueError(f"the tail from u = {x0:.6g} reaches 2^52, where the shift alpha and the phase 2 pi nu u are lost to rounding")
        first, count = _kinks(x, x0, alpha) if weighted and x0 > x else (0.0, 1)
        walks.append((b, weighted, x0, table, rems, first, count))
        kinks, least = kinks + count - 1, least + (max(count, _panel_counts([x, x0], nu, b.imag)[0]) if x0 > x else 0.0)  # a panel per interval, one per level set
    _check_work(**pieces, kinks=kinks, panels=least)
    if top > x:
        ends = [np.concatenate(([x], first + np.arange(count - 1) + alpha if count > 1 else [], [x0])) for _, _, x0, _, _, first, count in walks]
        counts = [_panel_counts(e, nu, b.imag) for e, (b, *_) in zip(ends, walks)]
        _check_work(**pieces, kinks=kinks, panels=sum(n.sum() for n in counts))
    sums = []
    for i, (b, weighted, x0, table, rems, _, _) in enumerate(walks):
        if weighted:
            vals = _far_tail(table, b, x0, [[(-1.0) ** k * p for k, p in enumerate(_psi_fourier_shift_sums(_K_OSC, x0 - alpha, nu))]])[0].tolist()
        else:  # the by-parts terms (i/(2 pi nu))^k/i, the phase e^{2 pi i nu x0} and the sign taken
            phase, r0 = cmath.exp(2j * math.pi * nu * x0), 1.0 / (2j * math.pi * nu)
            row = list(itertools.accumulate([-r0] * (_K_OSC - 1), operator.mul, initial=r0))
            vals = [-(phase * t) for t in _far_tail(table, b, x0, [row])[0].tolist()]
        sums.append((vals, list(rems)))
        if x0 > x:
            _gl_panels(*sums[-1], _walk(ends[i], nu, b.imag, counts[i]), nu, b, rmax, alpha if weighted else None)
    return sums


def pure_osc_tail_powers(nu: float, b: complex, rmax: int, x: float) -> tuple[list[complex], list[float]]:
    """int_x^inf e^{2 pi i nu u} u^b log^m u du for m = 0..rmax, nu != 0 and
    Re(b) < 0: panels, each turning the phase 2 pi nu u + Im b log u by at
    most _THETA and spanning at most a factor 1.6 (_walk), to an adaptive
    cutoff, then a far tail by parts (_osc_tails)."""
    _check_tail(x, [], rmax)
    if nu == 0.0:
        raise ValueError("oscillation frequency must be nonzero")
    return _osc_tails(nu, None, rmax, x, [(complex(b), False, None)])[0]


def psi_osc_tail_powers(nu: float, alpha: float, b: complex, rmax: int, x: float) -> tuple[list[complex], list[float]]:
    """int_x^inf psi(u-alpha) e^{2 pi i nu (u-alpha)} u^b log^m u du, m =
    0..rmax, nu in (0, 1) and Re(b) < 0: panels, broken at the kinks of psi(u
    - alpha) and cut as in pure_osc_tail_powers, to an adaptive cutoff, then
    the sawtooth's combined frequencies n + nu by parts (_osc_tails)."""
    _check_tail(x, [alpha], rmax)
    if not 0.0 < nu < 1.0:
        raise ValueError("sawtooth-weighted oscillatory tail needs oscillation in (0, 1)")
    return _osc_tails(nu, alpha, rmax, x, [(complex(b), True, None)])[0]
