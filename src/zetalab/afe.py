"""Hybrid (approximate-functional-equation) evaluation in the critical
strip, mixing a truncated Dirichlet-type sum with a truncated dual sum
of gamma factors Gamma(1-s)(2 pi i n)^{s-1} and explicit corrections.

For split x > 0 and cutoff y = t/(2 pi x), the representation is

    zeta^{(r)}(s, alpha) = (x^{1-s}/(s-1))^{(r)}
      + sum_{0<=n<=x-alpha} ((n+alpha)^{-s})^{(r)}
      + sum_{1<=|n|<=y} e^{2 pi i n alpha} (Gamma(1-s)(2 pi i n)^{s-1})^{(r)}
      + (x^{-s})^{(r)} [ psi(x-alpha) + sum_{1<=|n|<=y} e^{2 pi i n(x-alpha)}/(2 pi i n) ]
      - sum_{1<=|n|<=y} int_0^x e^{2 pi i n(u-alpha)} (u^{-s})^{(r)} du
      - int_x^inf (psi(u-alpha)/u)(s u^{-s})^{(r)} du
      - sum_{1<=|n|<=y} (e^{-2 pi i n alpha}/(2 pi i n))
            int_x^inf e^{2 pi i n u} u^{-1} (s u^{-s})^{(r)} du,

where the two |n| > y series have been folded into the sawtooth terms
through psi(v) = -sum_{|n|>=1} e^{2 pi i n v}/(2 pi i n).  So the AFE is
the Z core of evaluate._cores (the first, second, boundary and plain-tail
terms) plus a dual sum, which is empty when y < 1.  The L variant takes
every residue class a of Z/qZ from one core pass at the split X, Z^{(r)}(s,
a, q) = sum_l C(r,l)(-log q)^{r-l} q^{-s} zeta^{(l)}(s, a/q) at the split X/q
(cutoff y = q t/(2 pi X)), and weighs them by chi(a) as l_deriv does.  The
dual sum depends on a only through the phases e^{+-2 pi i n a/q} and the
folded Fourier remainder: its gamma factors, segments and tails are taken
once per +-n for every class and order.

The dual segments and tails are Gauss-Legendre panels sized by their whole
phase 2 pi n u - t log u (sawtooth._walk); +-n share each segment's and each
tail's walk and nodes, the tail's cutoff and the segment's series at 0, and
every panel is charged to the work budget before any term is summed.
Gamma-factor derivatives are analytic (digamma/trigamma log-derivatives),
which caps the order at r <= 2; their rounding is not booked.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .characters import DirichletCharacter
from .evaluate import _cores, _s_tail, _units, _weigh_cores, _z_values
from .gammafn import complex_gamma, digamma, trigamma
from .sawtooth import _EPS, EvalResult, _check_alpha, _dual_cutoffs, _osc_segments, _pure_osc_tails

__all__ = ["afe_hurwitz", "afe_l", "gamma_factor_derivs"]

_TWO_PI = 2.0 * math.pi


def gamma_factor_derivs(s: complex, n: int, rmax: int) -> list[complex]:
    """d^r/ds^r of Gamma(1-s)(2 pi i n)^{s-1} for r = 0..rmax (rmax <= 2).

    log(2 pi i n) takes the principal branch log(2 pi |n|) + i (pi/2) sign(n);
    derivatives multiply by powers of the log-derivative -psi0(1-s) +
    log(2 pi i n) plus the trigamma correction.
    """
    if n == 0:
        raise ValueError("gamma factors are indexed by nonzero n")
    if rmax > 2:
        raise ValueError("analytic gamma-factor derivatives are provided for r <= 2")
    ln = math.log(_TWO_PI * abs(n)) + 1j * math.copysign(math.pi / 2.0, n)
    base = complex_gamma(1.0 - s) * cmath.exp((s - 1.0) * ln)
    out = [base]
    if rmax >= 1:
        d1 = -digamma(1.0 - s) + ln
        out.append(base * d1)
    if rmax >= 2:
        out.append(base * (d1 * d1 + trigamma(1.0 - s)))
    return out


def _strip_cores(s: complex, q: int, units, r: int, X: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The Z core of every class a of units at the split X (evaluate._cores;
    at q = 1 a shift alpha) plus its dual sum at x = X/q, as (1, classes)
    values and bounds, for 0 <= Re(s) <= 1, Im(s) >= 0 and r <= 2.  With c_l = C(r,l)(-log q)^{r-l},
    each n takes the gamma factors G of +-n, then their segments and tails S at the order r, one
    pass for both; the coefficient K[m] of e^{2 pi i m a/q} gathers sum_l c_l G_m^{(l)} and sum_l
    c_l (S_{-m}^{(l)}/(-2 pi i m) - (-1)^l seg_{-m}^{(l)}), and a class adds q^{-s} sum_m K[m]
    e^{2 pi i m a/q} and X^{-s} (-log X)^r sum_n sin(2 pi n v)/(pi n), v = (X - a)/q.

    The bound adds the segments' and tails' bounds times |q^{-s} c_l| (1/(2 pi
    n) more for a tail) and the rounding of: each K[m], eps (3 r + 12) sum_l
    |c_l| (|G| + |seg| + (l |T_{l-1}| + |s| |T_l|)/(2 pi n)) (the powers of
    log q, the products, S = (-1)^l (l T_{l-1} - s T_l), the quotient, 2 r +
    2 sums); each phase and product, eps (3 (2 pi |m| a/q) + 5) |K[m]|, the
    2 y sums, q^{-s} and its product, eps (2 y + 3 |s| |log q| + 4) |K[m]|;
    each Fourier term, eps (3 (2 pi n |v|) + 4)/(pi n), twice v's rounding
    4 eps (|v| + 2) as the core books it, and the y sums; the product with
    X^{-s} (-log X)^r, eps (3 |s| |log X| + 2 r + 8) |F| as the core's
    boundary term; and the two additions."""
    if not 0.0 <= s.real <= 1.0:
        raise ValueError("the hybrid representation is stated for 0 <= Re(s) <= 1")
    if s.imag < 0.0:
        raise ValueError("needs Im(s) >= 0; conjugate the result for Im(s) < 0")
    if not 0 <= r <= 2:
        raise ValueError("derivative order is capped at 2 (analytic gamma-factor derivatives)")
    if not X > 0.0:
        raise ValueError("split must be positive")
    x = X / q
    nmid = math.floor(s.imag / (_TWO_PI * x) + 1e-12)
    if nmid >= 1 and s.real >= 1.0:
        raise ValueError("a nonempty dual sum needs Re(s) < 1 (singular segment integrals at Re(s) = 1)")
    cuts = _dual_cutoffs(s, r, x, nmid)
    X, vals, errs = _cores(s, q, units, [r], X)
    if not nmid:
        return X, vals, errs
    lq, lX = math.log(q), math.log(X)
    c = [math.comb(r, l) * (-lq) ** (r - l) for l in range(r + 1)]
    K = {m: 0j for n in range(1, nmid + 1) for m in (n, -n)}  # K[m], the coefficient of e^{2 pi i m a/q}
    trunc = mags = 0.0
    for n in range(1, nmid + 1):
        gs = [gamma_factor_derivs(s, nn, r) for nn in (n, -n)]  # first: a gamma factor beyond binary64 is refused before any walk
        for nn, g, (seg, segerr), tails in zip((n, -n), gs, _osc_segments((n, -n), -s, r, x), _pure_osc_tails((n, -n), -s - 1.0, r, x, cuts[n - 1])):
            for l, cl in enumerate(c):
                tail, terr = _s_tail(*tails, s, l)
                K[nn] += cl * g[l]
                K[-nn] += cl * (tail / (2j * math.pi * nn) - (-1.0) ** l * seg[l])
                trunc += abs(cl) * (segerr[l] + terr / (_TWO_PI * n))
                tmag = (l * abs(tails[0][l - 1]) if l else 0.0) + abs(s) * abs(tails[0][l])  # of (-1)^l (l T_{l-1} - s T_l)
                mags += abs(cl) * (abs(g[l]) + abs(seg[l]) + tmag / (_TWO_PI * n))
    n, a = np.arange(1, nmid + 1), np.array(units, dtype=float)
    K, phase = np.array([[K[m], K[-m]] for m in n.tolist()]), np.exp(2j * np.pi * (np.outer(n, a) / q))
    qs, xr, v = cmath.exp(-s * lq), cmath.exp(-s * lX) * (-lX) ** r, (X - a) / q
    four = (np.sin(_TWO_PI * n[:, None] * v) / (np.pi * n[:, None])).sum(axis=0)
    dual = qs * (K[:, :1] * phase + K[:, 1:] * phase.conj()).sum(axis=0) + four * xr
    phases = (6.0 * np.pi * n[:, None] * a / q + 9.0 + 2 * nmid + 3.0 * abs(s) * abs(lq)) * np.abs(K).sum(axis=1)[:, None]
    derr = abs(qs) * (trunc + _EPS * ((3 * r + 12) * mags + phases.sum(axis=0)))
    derr += abs(xr) * _EPS * (nmid * (14.0 * np.abs(v) + 16.0) + (4.0 + nmid) * (1.0 / n).sum() / np.pi + (3.0 * abs(s) * abs(lX) + 2 * r + 8) * np.abs(four))
    vals = vals + dual
    return X, vals, errs + derr + _EPS * (np.abs(dual) + np.abs(vals))


def afe_hurwitz(s: complex, alpha: float, r: int, x: float) -> EvalResult:
    """zeta^{(r)}(s, alpha) in the strip 0 <= Re(s) <= 1 via the hybrid form:
    the core plus its dual sum (_strip_cores), plus the pole term (evaluate._z_values)."""
    s = complex(s)
    if s == 1:
        raise ValueError("s = 1 is the pole; use the coefficient operations instead")
    _check_alpha(alpha)
    X, vals, errs = _strip_cores(s, 1, [alpha], r, x)
    return _z_values(s, 1, r, X, vals[0], errs[0])[0]


def afe_l(s: complex, chi: DirichletCharacter, r: int, X: float) -> EvalResult:
    """L^{(r)}(s, chi) in the strip for non-principal chi, cutoff y = qt/(2 pi X):
    the class cores plus their dual sum (_strip_cores) weighed by chi(a) as
    the plain L route weighs its cores; the pole terms cancel against sum_a
    chi(a) = 0."""
    if chi.is_principal:
        raise ValueError("needs a non-principal character")
    units = _units(chi.modulus)
    _, vals, errs = _strip_cores(complex(s), chi.modulus, units, r, X)
    return _weigh_cores([chi], units, vals, errs)[0][0]
