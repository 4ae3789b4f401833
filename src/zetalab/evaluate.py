"""Hurwitz, progression, Dirichlet-L and Lerch zeta values and their
s-derivatives for Re(s) > 0, and the one Z core the coefficient routes
read at s = 1 and s = 0.

Each evaluator assembles the same Euler-summation representation with a
free split parameter x (or X): a finite Dirichlet-type sum up to x, a
pole-term derivative, a sawtooth boundary term at the split, and
rigorously bounded sawtooth tail integrals.  The representation is exact
for every split, which the test suite exploits as its master property.

One core serves Hurwitz, Z and L: zeta(s, alpha) = Z(s, alpha, 1), and
L(s, chi) = sum_a chi(a) Z(s, a, q) over the units a of Z/qZ.  One
kernel weighs chi-free class pieces by chi(a) for a batch of characters
at once; the pole terms cancel in that sum.  The core (Z without its
pole term) is analytic for Re(s) > -1, so the coefficient routes read it
at s = 1 and s = 0 too, for every order from one split and one tail
batch at the largest order.

Their default split puts X/q at the final cutoff of the plain sawtooth
tails (Euler-Maclaurin at the cutoff, as in Johansson, arXiv:1309.2877):
the tails march over no interval, and what is left is one blocked numpy
sum per residue class and the closed-form far tails.  An explicit split
keeps the piecewise march.  For every split their error bounds add the
binary64 rounding of the finite sums (the phase eps |s| log p of each
term dominates at large t), of the boundary and pole terms, of the tail
combination and of the character weighting to the tails' truncation and
quadrature bounds.  Lerch keeps default_split.

Derivative order r differentiates everything term by term:

    d^r/ds^r (n+a)^{-s}       = (n+a)^{-s} (-log(n+a))^r
    d^r/ds^r (s u^{-s})       = u^{-s} (-log u)^{r-1} (r - s log u)
    d^r/ds^r (x^{1-s}/(s-1))  = sum_l C(r,l) (-log x)^{r-l} x^{1-s} (-1)^l l!/(s-1)^{l+1}
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter
from .sawtooth import (
    EvalResult,
    _check_alpha,
    _check_order,
    _check_work,
    _cmul,
    _complex,
    _first_cutoff,
    _tail_cutoff,
    psi_osc_tail_powers,
    psi_tail_powers_batch,
    pure_osc_tail_powers,
)

__all__ = [
    "HurwitzArgs",
    "LerchArgs",
    "hurwitz_deriv",
    "z_deriv",
    "l_deriv",
    "lerch_deriv",
    "default_split",
]

@dataclass(frozen=True)
class HurwitzArgs:
    """Arguments for a Hurwitz zeta derivative in the half-plane Re(s) > 0."""

    s: complex
    alpha: float
    order: int = 0
    split: float | None = None

    def __post_init__(self):
        s = complex(self.s)
        if s.real <= 0.0:
            raise ValueError("evaluation requires Re(s) > 0")
        if s == 1:
            raise ValueError("s = 1 is the pole; use the coefficient operations instead")
        _check_alpha(self.alpha)
        _check_order(self.order)
        if self.split is not None and not self.split > 0.0:
            raise ValueError("split parameter must be positive")


@dataclass(frozen=True)
class LerchArgs:
    """Arguments for a Lerch zeta derivative; oscillation strictly inside (0,1)."""

    lam: float
    alpha: float
    s: complex
    order: int = 0
    split: float | None = None

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie strictly inside (0, 1); integer lambda is the Hurwitz case")
        _check_alpha(self.alpha)
        if complex(self.s).real <= 0.0:
            raise ValueError("evaluation requires Re(s) > 0")
        _check_order(self.order)
        if self.split is not None and not self.split > 0.0:
            raise ValueError("split parameter must be positive")


def default_split(s: complex, alpha: float) -> float:
    """The default split of lerch_deriv: keeps the finite sum short while the tail integrand decays."""
    return max(1.0, abs(complex(s).imag) / (2.0 * math.pi)) + alpha


def _split_floor(v: float) -> int:
    """Endpoint count at the split: ties, and lattice points within four
    ulps above v (the rounding of v), included."""
    return math.floor(v + 4.0 * math.ulp(v))


def _psi_at_split(v: float) -> float:
    """Sawtooth at the split with the same integer part the sum count used.

    Keeps the finite-sum jump and the boundary-term jump cancelling exactly
    even when v sits within rounding dust of an integer.
    """
    return v - _split_floor(v) - 0.5


_EPS = 2.0**-53  # unit roundoff of binary64


def _pole_term(s: complex, x: float, r: int) -> tuple[complex, float]:
    """d^r/ds^r (x^{1-s}/(s-1)) by the Leibniz closed form, with its rounding:
    the phase of x^{1-s} (eps |1-s| log x) and each of the r + 1 terms.
    Refused where it is not finite in binary64 (s within rounding of the pole)."""
    lx = math.log(x)
    xp = cmath.exp((1.0 - s) * lx)
    acc = 0.0 + 0.0j
    mags = 0.0
    try:
        for l in range(r + 1):
            term = math.comb(r, l) * (-lx) ** (r - l) * (-1.0) ** l * math.factorial(l) / (s - 1.0) ** (l + 1)
            acc += term
            mags += abs(term)
    except ZeroDivisionError:
        acc = mags = math.inf
    val = xp * acc
    err = abs(xp) * _EPS * ((3.0 * abs(1.0 - s) * abs(lx) + 8.0) * abs(acc) + (5 * r + 16) * mags)
    if not (cmath.isfinite(val) and math.isfinite(err)):
        raise ValueError(f"s = {s} lies too close to the pole s = 1: the pole term is not finite in binary64")
    return val, err


def _finite_power_sum(points: np.ndarray, s: complex, r: int, weights: np.ndarray | None = None) -> complex:
    """sum w_n p_n^{-s} (-log p_n)^r over the given points."""
    if points.size == 0:
        return 0.0 + 0.0j
    logs = np.log(points)
    terms = np.exp(-s * logs) * (-logs) ** r if r else np.exp(-s * logs)
    if weights is not None:
        terms = terms * weights
    return complex(terms.sum())


_SUM_BLOCK = 1 << 15  # terms per block of a progression sum: memory stays flat in its length
# work budget charges, in march segments: a progression-sum term takes about
# 1/30 of one, a residue class (its far tails and its core) about 10 to 25.
# At 12 a class of u = X/q terms is charged 12 + u/8 <= max(u, 30 - u): no
# more than its terms at 1 each, or than a march from u to the first cutoff
# (30 or more) at 1 a segment
_TERM_COST = 1.0 / 8.0
_CLASS_COST = 12.0


def _progression_sum(a: float, q: int, kmax: int, s: complex, r: int) -> tuple[complex, float]:
    """sum_{k <= kmax} p^{-s} (-log p)^r over p = a + q k, in blocks, with its rounding.

    Per term eps (|s| (3 |log p| + 1) + 3 r + 8) |term|: the phase -t log p (the
    logarithm, the rounded point, the product), the modulus, the power and
    the product; r eps |term| / |log p| more where |log p| < 1 (at most the
    first three points), for the rounded point inside (-log p)^r; then the
    pairwise sums within blocks and the sum of the blocks, 1.5 eps (depth)
    sum |term|.  A single block is summed as one array, so a short sum is
    bit for bit _finite_power_sum.  A term that leaves binary64 makes the
    sum and its bound non-finite, without a warning: EvalResult refuses them."""
    val, mags, lmags, head, blocks = 0.0 + 0.0j, 0.0, 0.0, 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, kmax + 1, _SUM_BLOCK):
            pts = a + q * np.arange(k0, min(k0 + _SUM_BLOCK, kmax + 1), dtype=float)
            logs = np.log(pts)
            terms = np.exp(-s * logs) * (-logs) ** r if r else np.exp(-s * logs)
            part = complex(terms.sum())
            val = val + part if blocks else part
            blocks += 1
            mag, al = np.abs(terms), np.abs(logs)
            mags += float(mag.sum())
            lmags += float((mag * al).sum())
            if r and not k0:
                near = (al[:3] > 0.0) & (al[:3] < 1.0)
                head = r * float((mag[:3][near] / al[:3][near]).sum())
    depth = math.log2(min(kmax + 1, _SUM_BLOCK) + 1) + 20 + blocks
    abs_s = abs(s)
    return val, _EPS * (3.0 * abs_s * lmags + (abs_s + 3 * r + 8 + 1.5 * depth) * mags + head)


def _s_tail(tails: list[complex], terrs: list[float], s: complex, r: int) -> tuple[complex, float]:
    """(-1)^r (r T_{r-1} - s T_r) with its error: the tail term of
    d^r/ds^r (s u^{-s}) over T_m = int (weight) u^{-s-1} log^m u du."""
    if not r:
        return -s * tails[0], abs(s) * terrs[0]
    return (-1.0) ** r * (r * tails[r - 1] - s * tails[r]), r * terrs[r - 1] + abs(s) * terrs[r]


def _log_binomial_tail_combo(tails, terrs, r: int, s_at: complex, lq: float):
    """sum over m of [r C(r-1,m) log^{r-1-m} q - s C(r,m) log^{r-m} q] tails[m],
    the expansion of int psi * u^{-s-1} log^{r-1}(qu) (r - s log(qu)) du."""
    acc = 0.0 + 0.0j
    err = 0.0
    for m in range(r + 1):
        cm = 0.0
        if r and m <= r - 1:
            cm += r * math.comb(r - 1, m) * lq ** (r - 1 - m)
        cm -= s_at * math.comb(r, m) * lq ** (r - m)
        acc += cm * tails[m]
        err += abs(cm) * terrs[m]
    return acc, err


def _boundary_rounding(s: complex, q: int, r: int, X: float, v: float, kmax: int, psi: float, ax: float) -> float:
    """Rounding of the boundary term psi(v) X^{-s} (-log X)^r, |X^{-s}| = ax:
    psi at a split v = (X - a)/q that carries the rounding of v, of X/q and
    of a/q, 4 eps (|v| + 2); the phase and the products, eps (3 |s| |log X|
    + 2 r + 8) |psi|; and where v sits within the four ulps below the
    lattice point kmax that the sum counts, that point's term against the
    boundary's, q (kmax - v) |d/dX X^{-s} (-log X)^r|."""
    lx = abs(math.log(X))
    err = ax * lx**r * _EPS * (4.0 * (abs(v) + 2.0) + abs(psi) * (3.0 * abs(s) * lx + 2 * r + 8))
    if kmax > v:
        err += 1.01 * q * (kmax - v) * ax / X * (abs(s) * lx**r + (r * lx ** (r - 1) if r else 0.0))
    return err


def _z_core(s: complex, a: float, q: int, r: int, X: float, tail) -> tuple[complex, float]:
    """Z-representation without its pole term (1/q) d^r (X^{1-s}/(s-1));
    tail = psi_tail_powers(X/q, a/q, -s-1, r).  At q = 1, a is any alpha in (0, 1].

    The bound adds to the tail's the rounding of the finite sum, of the
    boundary term, of the tail combination (the phase of q^{-s} and of the
    far tail, eps 3 |s| (|log q| + |log X|), and the coefficients) and of
    the addition."""
    v = (X - a) / q
    kmax = _split_floor(v)
    val, err = _progression_sum(a, q, kmax, s, r)
    lX = math.log(X)
    psi = _psi_at_split(v)
    fx = cmath.exp(-s * lX)
    val += psi * fx * (-lX) ** r
    err += _boundary_rounding(s, q, r, X, v, kmax, psi, abs(fx))
    tails, terrs = tail
    lq = math.log(q)
    qs = cmath.exp(-s * lq)
    acc, terr = _log_binomial_tail_combo(tails, terrs, r, s, lq)
    combo = (-1.0) ** r * qs * acc
    mags = _log_binomial_tail_combo(tails, [abs(t) for t in tails], r, s, lq)[1]  # sum |c_m| |T_m|
    err += _EPS * (abs(qs) * (3.0 * abs(s) * (abs(lq) + abs(lX)) + 3 * r + 12) * mags + abs(val) + abs(combo))
    return val + combo, abs(qs) * terr + err


def _z_value(s: complex, q: int, r: int, X: float, core: tuple[complex, float]) -> EvalResult:
    """Z^{(r)}(s, a, q) from its core (value, bound) at the split X: core plus pole/q."""
    core, err = core
    pole, perr = _pole_term(s, X, r)
    return EvalResult(core + pole / q, err + (perr + _EPS * abs(pole)) / q + _EPS * abs(core + pole / q))


def _split(s: complex, r: int, q: int, units, X: float | None) -> tuple[float, list]:
    """The split X and the plain tails from X/q of the residue classes a of
    units, psi_tail_powers(X/q, a/q, -s-1, r) each.  By default X/q is the
    final cutoff of those tails, so that they march over no interval and
    only their closed-form far tails are left beside the finite sums.

    Each class is charged to the work budget by its own length before any
    runs: its far tails and core, and the about X/q terms of its finite sum;
    by default first at the tails' first cutoff, before the search for the
    final one, then at the final one."""
    alphas, b = [a / q for a in units], -s - 1.0
    if X is None:
        _check_work(len(units) * (_CLASS_COST + _first_cutoff(b, r) * _TERM_COST))
        u, tails = _tail_cutoff(alphas, b, r)
        _check_work(len(units) * (_CLASS_COST + u * _TERM_COST))
        return q * u, tails
    _check_work(len(units) * (_CLASS_COST + X / q * _TERM_COST))
    return X, psi_tail_powers_batch(X / q, alphas, b, r)


def _cores(s: complex, q: int, units, orders, X: float | None) -> tuple[float, list[list[tuple[complex, float]]]]:
    """The split X and, for each order r of orders, the core _z_core(s, a, q,
    r, X, .) of every class a of units, as (value, bound).  One _split and
    one tail batch at the largest order serve every order: the batch's
    stopping test covers every log power up to it.  Re(s) > -1, s = 1 and
    s = 0 included (the core carries no pole)."""
    X, tails = _split(s, max(orders), q, units, X)
    return X, [[_z_core(s, a, q, r, X, tail) for a, tail in zip(units, tails)] for r in orders]


def hurwitz_deriv(args: HurwitzArgs) -> EvalResult:
    """d^r/ds^r zeta(s, alpha) = Z^{(r)}(s, alpha, 1) via the split-sum representation."""
    s = complex(args.s)
    X, ((core,),) = _cores(s, 1, [args.alpha], [args.order], args.split)
    return _z_value(s, 1, args.order, X, core)


def z_deriv(s: complex, a: int, q: int, r: int, X: float | None = None) -> EvalResult:
    """d^r/ds^r Z(s, a, q) with Z(s, a, q) = q^{-s} zeta(s, a/q)."""
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("evaluation requires Re(s) > 0")
    if s == 1:
        raise ValueError("s = 1 is the pole; use the coefficient operations instead")
    if q < 1 or not 1 <= a <= q:
        raise ValueError("need 1 <= a <= q")
    _check_order(r)
    X, ((core,),) = _cores(s, q, [a], [r], X)
    return _z_value(s, q, r, X, core)


def _units(q: int) -> list[int]:
    """The units a = 1..q of Z/qZ in increasing order: the residue classes of a character sum."""
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1]


def _characters_at(chars, units) -> tuple[np.ndarray, np.ndarray]:
    """chi(a) for every chi of chars (rows) and a of units (columns), as (real, imaginary) arrays."""
    w = np.array([chi.values for chi in chars], dtype=complex)[:, np.array(units) % chars[0].modulus]
    return w.real, w.imag


def _weigh(w, pieces) -> np.ndarray:
    """sum_a w_a piece_a for every row of the weights w = (real, imaginary)
    arrays of shape (characters, units), bit for bit the loop acc = 0j;
    acc += w_a * piece_a: products by CPython's formula, sums left to right
    along the units from 0j."""
    p = np.array(pieces, dtype=complex)
    zero = np.zeros((w[0].shape[0], 1))
    parts = (np.add.accumulate(np.hstack([zero, v]), axis=1)[:, -1] for v in _cmul(*w, p.real, p.imag))
    return _complex(*parts)


def _common_modulus(chars) -> int:
    """The one modulus of a batch of non-principal characters."""
    if not chars:
        raise ValueError("needs at least one character")
    q = chars[0].modulus
    for chi in chars:
        if chi.is_principal:
            raise ValueError("the series representation needs a non-principal character")
        if chi.modulus != q:
            raise ValueError("characters of one batch must share one modulus")
    return q


def _l_values(s: complex, chars, orders, X: float | None = None) -> list[list[EvalResult]]:
    """d^r/ds^r L(s, chi) for each order r of orders (outer) and chi of a
    batch of non-principal characters of one modulus q (inner): the class
    cores of one _cores pass weighed by chi(a), where the pole terms cancel."""
    chars = list(chars)
    q = _common_modulus(chars)
    for r in orders:
        _check_order(r)
    units = _units(q)
    w = _characters_at(chars, units)
    out = []
    for pieces in _cores(s, q, units, orders, X)[1]:
        cores, errs = zip(*pieces)
        err = float(np.add.accumulate((0.0,) + errs)[-1])  # left to right
        # the weighting: chi(a) to within 14 eps (cmath.exp of 2 pi k/E), CPython's
        # product, and the sum over the units left to right
        err += _EPS * (20 + len(units)) * float(np.abs(cores).sum())
        out.append([EvalResult(v, err) for v in _weigh(w, cores).tolist()])
    return out


def l_deriv(s: complex, chi: DirichletCharacter, r: int, X: float | None = None) -> EvalResult:
    """d^r/ds^r L(s, chi) for non-principal chi; s = 1 is allowed (entire)."""
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("evaluation requires Re(s) > 0")
    return _l_values(s, [chi], [r], X)[0][0]


def lerch_deriv(args: LerchArgs) -> EvalResult:
    """d^r/ds^r phi(lambda, alpha, s) via the oscillatory split representation."""
    lam, alpha, r = args.lam, args.alpha, args.order
    s = complex(args.s)
    x = args.split if args.split is not None else default_split(s, alpha)
    # the sum and the tails are charged to the work budget before any runs
    nmax = _split_floor(x - alpha)
    _check_work(nmax + 1)
    pure, perr = pure_osc_tail_powers(lam, -s, r, x)
    w1, w1err = psi_osc_tail_powers(lam, alpha, -s, r, x)
    tail2, err2 = _s_tail(*psi_osc_tail_powers(lam, alpha, -s - 1.0, r, x), s, r)
    val = 0.0 + 0.0j
    if nmax >= 0:
        n = np.arange(0, nmax + 1, dtype=float)
        pts = alpha + n
        val += _finite_power_sum(pts, s, r, weights=np.exp(2j * np.pi * lam * n))
    lx = math.log(x)
    val += (
        cmath.exp(2j * math.pi * lam * (x - alpha))
        * _psi_at_split(x - alpha)
        * cmath.exp(-s * lx)
        * (-lx) ** r
    )
    sign = (-1.0) ** r
    phase = cmath.exp(-2j * math.pi * lam * alpha)
    val += sign * phase * pure[r]
    err = perr[r]
    val += 2j * math.pi * lam * sign * w1[r]
    err += 2.0 * math.pi * lam * w1err[r]
    return EvalResult(val + tail2, err + err2)
