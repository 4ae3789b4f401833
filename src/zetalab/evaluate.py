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
at once; the pole terms cancel in that sum.  The units and chi(a) come
from characters (_units, _values_at), and the classes and finite-sum
terms are charged to the work budget by kind (sawtooth._check_work)
before they run.  The core (Z without its pole term) is analytic for
Re(s) > -1, so the coefficient routes read it at s = 1 and s = 0 too,
for every order from one split and one tail batch at the largest order.

Their default split puts X/q at the final cutoff of the plain sawtooth
tails (Euler-Maclaurin at the cutoff, as in Johansson, arXiv:1309.2877):
the tails integrate no interval, and what is left is one finite-sum
kernel pass over (orders x classes x terms) and the closed-form far tails.
From an explicit split the tails reach their cutoff by the same step, a
sum over the kinks of psi on that kernel.  For every split their error
bounds add the binary64 rounding of the finite sums (the phase eps |s| log
p of each term dominates at large t), of the boundary and pole terms, of
the tail combination and of the character weighting to the tails'
truncation and quadrature bounds.  One Lerch core gives its values and its Taylor
coefficients at s = 1, every order from one pass of its three oscillatory
tails, through the same finite-sum kernel (with the phase e^{2 pi i lambda
n}), and books the rounding of all but those tails.  Its default split
(_lerch_split) moves from default_split to the final cutoff of each tail
whose panels cost more than the finite-sum terms that replace them, so
that such a tail is its closed-form far tail alone.

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

from .characters import DirichletCharacter, _units, _values_at
from .sawtooth import (
    _EPS,
    _SUM_BLOCK,
    EvalResult,
    _check_alpha,
    _check_order,
    _check_work,
    _first_cutoff,
    _osc_cutoff,
    _osc_tails,
    _progression_sum,
    _tail_cutoff,
    _work,
    psi_tail_powers_batch,
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

def _check_point(s: complex, pole: bool = True) -> complex:
    """s as a complex, refused unless Re(s) > 0 and, where the route has the pole, s != 1."""
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("evaluation requires Re(s) > 0")
    if pole and s == 1:
        raise ValueError("s = 1 is the pole; use the coefficient operations instead")
    return s


@dataclass(frozen=True)
class HurwitzArgs:
    """Arguments for a Hurwitz zeta derivative in the half-plane Re(s) > 0."""

    s: complex
    alpha: float
    order: int = 0
    split: float | None = None

    def __post_init__(self):
        _check_point(self.s)
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
        _check_point(self.s, pole=False)
        _check_order(self.order)
        if self.split is not None and not self.split > 0.0:
            raise ValueError("split parameter must be positive")


def default_split(s: complex, alpha: float) -> float:
    """The least default split of lerch_deriv (_lerch_split moves it to the
    cutoffs of the tails it passes): keeps the finite sum short while the
    tail integrand decays."""
    return max(1.0, abs(complex(s).imag) / (2.0 * math.pi)) + alpha


def _split_floor(v):
    """Endpoint count at the split, of a float or elementwise of an array:
    ties, and lattice points within four ulps above v (the rounding of v),
    included (np.spacing is negative below 0)."""
    k = np.floor(v + 4.0 * np.abs(np.spacing(v)))
    return k.astype(int) if np.ndim(k) else int(k)


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


def _s_tail(tails: list[complex], terrs: list[float], s: complex, r: int) -> tuple[complex, float]:
    """(-1)^r (r T_{r-1} - s T_r) with its error: the tail term of
    d^r/ds^r (s u^{-s}) over T_m = int (weight) u^{-s-1} log^m u du."""
    if not r:
        return -s * tails[0], abs(s) * terrs[0]
    return (-1.0) ** r * (r * tails[r - 1] - s * tails[r]), r * terrs[r - 1] + abs(s) * terrs[r]


def _boundary_rounding(s: complex, q: int, orders, X: float, v, kmax, psi, ax: float) -> np.ndarray:
    """Rounding of the boundary term psi(v) X^{-s} (-log X)^r, |X^{-s}| = ax,
    for each order r (rows) and split v = (X - a)/q (columns): psi at a v
    that carries the rounding of v, of X/q and of a/q, 4 eps (|v| + 2); the
    phase and the products, eps (3 |s| |log X| + 2 r + 8) |psi|; and where v
    sits within the four ulps below the lattice point kmax that the sum
    counts, that point's term against the boundary's, q (kmax - v) |d/dX
    X^{-s} (-log X)^r|."""
    lx = abs(math.log(X))
    scale = np.array([(ax * lx**r * _EPS, 3.0 * abs(s) * lx + 2 * r + 8, abs(s) * lx**r + (r * lx ** (r - 1) if r else 0.0)) for r in orders])
    err = scale[:, :1] * (4.0 * (abs(v) + 2.0) + abs(psi) * scale[:, 1:2])
    return err + (kmax > v) * (1.01 * q * (kmax - v) * ax / X) * scale[:, 2:]  # + 0 where kmax <= v


def _z_values(s: complex, q: int, r: int, X: float, cores, errs) -> list[EvalResult]:
    """Z^{(r)}(s, a, q) of each class from its core (value, bound) at the split X: core plus pole/q."""
    pole, perr = _pole_term(s, X, r)
    perr = (perr + _EPS * abs(pole)) / q
    return [EvalResult(core + pole / q, err + perr + _EPS * abs(core + pole / q)) for core, err in zip(cores.tolist(), errs.tolist())]


def _split(s: complex, r: int, q: int, units, X: float | None) -> tuple[float, np.ndarray, np.ndarray]:
    """The split X and the plain tails from X/q of the residue classes a of
    units, psi_tail_powers(X/q, a/q, -s-1, r) each, as (r + 1, classes)
    values and bounds.  By default X/q is the final cutoff of those tails,
    so that they integrate no interval and only their closed-form far
    tails are left beside the finite sums.

    Each class is charged to the work budget by its own length before any
    runs: its far tails and core, and the about X/q terms of its finite sum;
    by default first at the tails' first cutoff, before the search for the
    final one, then at the final one."""
    alphas, b = [a / q for a in units], -s - 1.0
    if X is None:
        _check_work(classes=len(units), terms=len(units) * _first_cutoff(b, r))
        u, tails, terrs = _tail_cutoff(alphas, b, r)
        _check_work(classes=len(units), terms=len(units) * u)
        return q * u, tails, terrs
    if not X > 0.0:
        raise ValueError("split parameter must be positive")
    _check_work(classes=len(units), terms=len(units) * X / q)
    tails, terrs, _ = psi_tail_powers_batch(X / q, alphas, b, r)
    return X, tails, terrs


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise as abs() rounds a Python complex (np.abs of a complex
    array can differ by an ulp): a bound's moduli are its scalar formula's."""
    return np.hypot(z.real, z.imag)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a split far from the default can leave binary64: EvalResult refuses it
def _cores(s: complex, q: int, units, orders, X: float | None) -> tuple[float, np.ndarray, np.ndarray]:
    """The split X and the Z-representation without its pole term (1/q) d^r
    (X^{1-s}/(s-1)) of every class a of units (columns; at q = 1 any shifts
    alpha in (0, 1]) at every order r of the increasing orders (rows), as
    (orders, classes) values and bounds.  One _split and one tail batch at
    the largest order (its stopping test covers every log power up to it)
    and one _progression_sum serve them all; the boundary term and the tail
    combination sum_m [r C(r-1,m) log^{r-1-m} q - s C(r,m) log^{r-m} q] T_m
    (of int psi u^{-s-1} log^{r-1}(qu) (r - s log(qu)) du) run as arrays.
    Re(s) > -1, s = 1 and s = 0 included (the core carries no pole).

    The bound adds to the tails' the rounding of the finite sum, of the
    boundary term, of the tail combination (the phase of q^{-s} and of the
    far tail, eps 3 |s| (|log q| + |log X|), and the coefficients) and of
    the addition."""
    orders = list(orders)
    X, tails, terrs = _split(s, orders[-1], q, units, X)
    a = np.array(units, dtype=float)
    v = (X - a) / q
    kmax = _split_floor(v)
    vals, errs = _progression_sum(a, q, kmax, s, orders)
    lX, lq = math.log(X), math.log(q)
    fx, qs = cmath.exp(-s * lX), cmath.exp(-s * lq)
    psi = v - kmax - 0.5
    vals += psi * fx * np.array([[(-lX) ** r] for r in orders])
    errs += _boundary_rounding(s, q, orders, X, v, kmax, psi, abs(fx))
    # the combination: each (order, class) adds its terms m = 0..r in turn to 0
    # (+ 0.0 gives a zero sum the sign a start at 0 gives it; the terms 0 for
    # m > r leave each sum as it is), in blocks of at most _SUM_BLOCK products
    C = [[(r * math.comb(r - 1, m) * lq ** (r - 1 - m) if m < r else 0.0) - s * math.comb(r, m) * lq ** (r - m) if m <= r else 0.0 for m in range(orders[-1] + 1)] for r in orders]
    C = np.array(C)[:, :, None]
    step, MC, bounds = max(1, _SUM_BLOCK // (2 * C.size)), _modulus(C), np.array([terrs, _modulus(tails)])[:, None]
    acc = np.concatenate([np.add.accumulate(C * tails[:, j : j + step], axis=1)[:, -1] for j in range(0, len(units), step)], axis=1) + 0.0
    terr, mags = np.concatenate([np.add.accumulate(MC * bounds[..., j : j + step], axis=2)[:, :, -1] for j in range(0, len(units), step)], axis=2)
    scale = np.array([[(-1.0) ** r * qs, abs(qs) * (3.0 * abs(s) * (abs(lq) + abs(lX)) + 3 * r + 12)] for r in orders])
    combo = scale[:, :1] * acc
    errs += _EPS * (scale[:, 1:].real * mags + _modulus(vals) + _modulus(combo))
    return X, vals + combo, abs(qs) * terr + errs


def hurwitz_deriv(args: HurwitzArgs) -> EvalResult:
    """d^r/ds^r zeta(s, alpha) = Z^{(r)}(s, alpha, 1) via the split-sum representation."""
    s = complex(args.s)
    X, cores, errs = _cores(s, 1, [args.alpha], [args.order], args.split)
    return _z_values(s, 1, args.order, X, cores[0], errs[0])[0]


def z_deriv(s: complex, a: int, q: int, r: int, X: float | None = None) -> EvalResult:
    """d^r/ds^r Z(s, a, q) with Z(s, a, q) = q^{-s} zeta(s, a/q)."""
    s = _check_point(s)
    if q < 1 or not 1 <= a <= q:
        raise ValueError("need 1 <= a <= q")
    _check_order(r)
    X, cores, errs = _cores(s, q, [a], [r], X)
    return _z_values(s, q, r, X, cores[0], errs[0])[0]


def _weigh(w: np.ndarray, pieces) -> np.ndarray:
    """sum_a w_a piece_a for every row of the weights w, of shape (characters,
    units): the products, added along each row left to right, so that a row
    does not depend on the others (a reduction may block by the shape).  The
    callers book its rounding, eps (units + 1) sum_a |w_a piece_a|."""
    return np.add.accumulate(w * np.asarray(pieces, dtype=complex), axis=1)[:, -1]


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


def _weigh_cores(chars, units, vals: np.ndarray, errs: np.ndarray) -> list[list[EvalResult]]:
    """sum_a chi(a) core_a for each order (the rows of the class cores and
    their bounds) and chi of chars (inner); the pole terms cancel.  The
    cores less their mean c are weighed: sum_a chi(a) = 0, so the value
    is the same, but c (the X/q of the pole part at s = 0, say) no longer
    enters the rounding.  That rounding: core - c, eps |core - c|; chi(a), to
    within 14 eps (cmath.exp of 2 pi k/E); the product and the sum (_weigh),
    so eps (21 + units) sum_a |core_a - c|."""
    vals = vals - vals.mean(axis=1, keepdims=True)
    errs = np.add.accumulate(errs, axis=1)[:, -1] + _EPS * (21 + len(units)) * np.abs(vals).sum(axis=1)  # left to right
    w = _values_at(chars, units)
    return [[EvalResult(v, err) for v in _weigh(w, cores).tolist()] for cores, err in zip(vals, errs.tolist())]


def _l_values(s: complex, chars, orders, X: float | None = None) -> list[list[EvalResult]]:
    """d^r/ds^r L(s, chi) for each order r of orders (outer) and chi of a batch
    of non-principal characters of one modulus q (inner): one _cores pass, weighed."""
    chars = list(chars)
    q = _common_modulus(chars)
    for r in orders:
        _check_order(r)
    units = _units(q)
    _, vals, errs = _cores(s, q, units, orders, X)
    return _weigh_cores(chars, units, vals, errs)


def l_deriv(s: complex, chi: DirichletCharacter, r: int, X: float | None = None) -> EvalResult:
    """d^r/ds^r L(s, chi) for non-principal chi; s = 1 is allowed (entire)."""
    return _l_values(_check_point(s, pole=False), [chi], [r], X)[0][0]


def _lerch_split(s: complex, lam: float, alpha: float, rmax: int, n: int) -> tuple[float, list]:
    """The default split x of the Lerch core for n orders up to rmax, and the
    final cutoffs (_osc_cutoff) of the pure tail at -s and the
    sawtooth-weighted tails at -s and -s-1 that it passes, None for a tail
    it walks: x = max(default_split, the final cutoff of each tail worth
    passing), so a passed tail walks no panel.  A tail is worth passing if,
    per unit of u, the n finite-sum terms cost less work than a fixed count
    of its panels: 2 for the two sawtooth-weighted tails, lam/0.45 for the
    pure one (fixed, so the split does not move with the walk).  Where the
    sum to that x would exceed the work budget (_check_work), no tail is
    passed: the split is default_split, charged with the tails' walks (_osc_tails)."""
    x, term = default_split(s, alpha), _work(terms=n)
    cuts = [_osc_cutoff(lam, -s, rmax, x, False, True) if term < _work(panels=lam / 0.45) else None]
    cuts += [_osc_cutoff(lam, b, rmax, x, True, True) if term < _work(panels=2.0) else None for b in (-s, -s - 1.0)]
    passed = max([x] + [cut[1] for cut in cuts if cut])
    try:
        _check_work(terms=n * (_split_floor(passed - alpha) + 1))
    except ValueError:
        return x, [None] * 3
    return passed, cuts


def _lerch_values(s: complex, lam: float, alpha: float, orders, split: float | None) -> list[EvalResult]:
    """d^r/ds^r phi(lambda, alpha, s) for each order r of orders at the split
    x (_lerch_split for None): with w(u) = e^{2 pi i lam (u - alpha)}, the
    sum of e^{2 pi i lam n} (n + alpha)^{-s} (-log(n + alpha))^r over n <= x -
    alpha, w(x) psi(x - alpha) x^{-s} (-log x)^r, and (-1)^r (e^{-2 pi i lam
    alpha} P_r + 2 pi i lam V_r + r W_{r-1} - s W_r) for the tails from x of
    e^{2 pi i lam u} u^{-s} log^m u (P_m), and of psi(u - alpha) w(u) log^m u
    times u^{-s} (V_m) and u^{-s-1} (W_m): one pass each, at the largest order.

    The bound adds to the tails' (the rounding of their far tails not booked)
    that of the finite sum (with its phase); of the boundary term, and of its phase
    w(x), eps (4 (2 pi lam (x - alpha)) + 5), with 2 pi lam in the jump at a
    lattice point; of e^{-2 pi i lam alpha} P_r, eps (3 (2 pi lam alpha) + 5);
    of 2 pi i lam V_r, 3 eps; of r W_{r-1} - s W_r; and of each addition."""
    orders = list(orders)
    rmax = max(orders)
    x, (pcut, w1cut, w2cut) = _lerch_split(s, lam, alpha, rmax, len(orders)) if split is None else (split, [None] * 3)
    # the sums are charged to the work budget with the tails' kinks and panels
    # before any runs, at the Z route's price of a term (the phase e^{2 pi i
    # lam k} makes a term about 1.5 times a Z term, 100-290 ns at r <= 4)
    kmax = _split_floor(x - alpha)
    (pure, perr), (w1, w1err), (w2, w2err) = _osc_tails(lam, alpha, rmax, x, [(-s, False, pcut), (-s, True, w1cut), (-s - 1.0, True, w2cut)], terms=len(orders) * (kmax + 1))
    sums, serrs = _progression_sum([alpha], 1, [kmax], s, orders, lam)
    lx, v, two_pi_lam = math.log(x), x - alpha, 2.0 * math.pi * lam
    wx, psi, fx = cmath.exp(2j * math.pi * lam * v), v - kmax - 0.5, cmath.exp(-s * lx)  # psi at the sum's count: the jumps cancel
    phase = cmath.exp(-2j * math.pi * lam * alpha)
    serrs += _boundary_rounding(s, 1, orders, x, v, kmax, psi, abs(fx))
    out = []
    for r, val, err in zip(orders, sums[:, 0].tolist(), serrs[:, 0].tolist()):
        sign = (-1.0) ** r
        ax = abs(fx) * abs(lx) ** r
        err += ax * (_EPS * (4.0 * two_pi_lam * abs(v) + 5.0) * abs(psi) + 1.01 * max(kmax - v, 0.0) * two_pi_lam)
        tail2, err2 = _s_tail(w2, w2err, s, r)
        err += perr[r] + two_pi_lam * w1err[r] + err2
        err += _EPS * ((3.0 * two_pi_lam * alpha + 5.0) * abs(pure[r]) + 3.0 * two_pi_lam * abs(w1[r]))
        err += _EPS * ((r * abs(w2[r - 1]) if r else 0.0) + 3.0 * abs(s) * abs(w2[r]) + abs(tail2))
        for piece in (wx * psi * fx * (-lx) ** r, sign * phase * pure[r], 2j * math.pi * lam * sign * w1[r]):
            val += piece
            err += _EPS * abs(val)
        val += tail2
        out.append(EvalResult(val, err + _EPS * abs(val)))
    return out


def lerch_deriv(args: LerchArgs) -> EvalResult:
    """d^r/ds^r phi(lambda, alpha, s) via the oscillatory split representation (_lerch_values)."""
    return _lerch_values(complex(args.s), args.lam, args.alpha, [args.order], args.split)[0]
