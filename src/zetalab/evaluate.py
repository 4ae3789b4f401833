"""Hurwitz, progression, Dirichlet-L and Lerch zeta values and their
s-derivatives for Re(s) > 0.

Each evaluator assembles the same Euler-summation representation with a
free split parameter x (or X): a finite Dirichlet-type sum up to x, a
pole-term derivative, a sawtooth boundary term at the split, and
rigorously bounded sawtooth tail integrals.  The representation is exact
for every split, which the test suite exploits as its master property.

One core serves Hurwitz, Z and L: zeta(s, alpha) = Z(s, alpha, 1), and
L(s, chi) = sum_a chi(a) Z(s, a, q) over the units a of Z/qZ.  One
kernel weighs chi-free class pieces by chi(a) for a batch of characters
at once; the L routes here, at s = 1 and s = 0, and in the strip use it.

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
    psi_osc_tail_powers,
    psi_tail_powers,
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
    "pole_term_derivs",
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
    """Keeps the finite sum short while the tail integrand decays."""
    return max(1.0, abs(complex(s).imag) / (2.0 * math.pi)) + alpha


_SNAP = 1e-9


def _split_floor(v: float) -> int:
    """Endpoint count at the split: ties (and float dust below them) included."""
    return math.floor(v + _SNAP)


def _psi_at_split(v: float) -> float:
    """Sawtooth at the split with the same integer part the sum count used.

    Keeps the finite-sum jump and the boundary-term jump cancelling exactly
    even when v sits within rounding dust of an integer.
    """
    return v - _split_floor(v) - 0.5


def pole_term_derivs(s: complex, x: float, rmax: int) -> list[complex]:
    """d^r/ds^r (x^{1-s}/(s-1)) for r = 0..rmax by the Leibniz closed form."""
    s = complex(s)
    lx = math.log(x)
    xp = cmath.exp((1.0 - s) * lx)
    out = []
    for r in range(rmax + 1):
        acc = 0.0 + 0.0j
        for l in range(r + 1):
            acc += (
                math.comb(r, l)
                * (-lx) ** (r - l)
                * (-1.0) ** l
                * math.factorial(l)
                / (s - 1.0) ** (l + 1)
            )
        out.append(xp * acc)
    return out


def _finite_power_sum(points: np.ndarray, s: complex, r: int, weights: np.ndarray | None = None) -> complex:
    """sum w_n p_n^{-s} (-log p_n)^r over the given points."""
    if points.size == 0:
        return 0.0 + 0.0j
    logs = np.log(points)
    terms = np.exp(-s * logs) * (-logs) ** r if r else np.exp(-s * logs)
    if weights is not None:
        terms = terms * weights
    return complex(terms.sum())


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


def _z_core(s: complex, a: float, q: int, r: int, X: float, tail) -> tuple[complex, float]:
    """Z-representation without its pole term (1/q) d^r (X^{1-s}/(s-1));
    tail = psi_tail_powers(X/q, a/q, -s-1, r).  At q = 1, a is any alpha in (0, 1]."""
    kmax = _split_floor((X - a) / q)
    pts = a + q * np.arange(0, kmax + 1, dtype=float) if kmax >= 0 else np.empty(0)
    val = _finite_power_sum(pts, s, r)
    lX = math.log(X)
    val += _psi_at_split((X - a) / q) * cmath.exp(-s * lX) * (-lX) ** r
    tails, terrs = tail
    lq = math.log(q)
    qs = cmath.exp(-s * lq)
    acc, err = _log_binomial_tail_combo(tails, terrs, r, s, lq)
    return val + (-1.0) ** r * qs * acc, abs(qs) * err


def _z_value(s: complex, a: float, q: int, r: int, X: float) -> EvalResult:
    """Z^{(r)}(s, a, q) at the split X: core plus pole/q, the finite sum and
    the tail charged to the work budget before either runs."""
    _check_work(_split_floor((X - a) / q) + 1)
    core, err = _z_core(s, a, q, r, X, psi_tail_powers(X / q, a / q, -s - 1.0, r))
    return EvalResult(core + pole_term_derivs(s, X, r)[r] / q, err)


def hurwitz_deriv(args: HurwitzArgs) -> EvalResult:
    """d^r/ds^r zeta(s, alpha) = Z^{(r)}(s, alpha, 1) via the split-sum representation."""
    s = complex(args.s)
    x = args.split if args.split is not None else default_split(s, args.alpha)
    return _z_value(s, args.alpha, 1, args.order, x)


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
    if X is None:
        X = q * default_split(s, a / q)
    return _z_value(s, a, q, r, X)


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
    along the units from 0j.  A piece None (a class with no finite sum) adds 0.0."""
    live = np.array([p is not None for p in pieces])
    p = np.array([0j if v is None else v for v in pieces], dtype=complex)
    zero = np.zeros((w[0].shape[0], 1))
    parts = (np.add.accumulate(np.hstack([zero, np.where(live, v, 0.0)]), axis=1)[:, -1] for v in _cmul(*w, p.real, p.imag))
    return _complex(*parts)


def l_deriv(s: complex, chi: DirichletCharacter, r: int, X: float | None = None) -> EvalResult:
    """d^r/ds^r L(s, chi) for non-principal chi; s = 1 is allowed (entire)."""
    if chi.is_principal:
        raise ValueError("the series representation needs a non-principal character")
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("evaluation requires Re(s) > 0")
    _check_order(r)
    q = chi.modulus
    if X is None:
        X = q * default_split(s, 1.0)
    _check_work(X)  # the n <= X of the finite sums of all residue classes
    units = _units(q)
    tails = psi_tail_powers_batch(X / q, [a / q for a in units], -s - 1.0, r)
    cores, errs = zip(*(_z_core(s, a, q, r, X, tail) for a, tail in zip(units, tails)))
    err = float(np.add.accumulate((0.0,) + errs)[-1])  # left to right
    return EvalResult(complex(_weigh(_characters_at([chi], units), cores)[0]), err)


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
