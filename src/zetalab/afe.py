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
through psi(v) = -sum_{|n|>=1} e^{2 pi i n v}/(2 pi i n).  When y < 1
every n-indexed piece is empty and the assembly coincides term by term
with the plain split representation.

The L-function variant applies the same core per residue class through
Z^{(r)}(s,a,q) = sum_l C(r,l)(-log q)^{r-l} q^{-s} zeta^{(l)}(s, a/q)
with split X/q, so the cutoff becomes y = q t/(2 pi X).

The dual segments and tails are Gauss-Legendre panels sized by their whole
phase 2 pi n u - t log u (sawtooth._walk); +-n share each tail's cutoff, and
every panel is charged to the work budget before any term is summed.
Gamma-factor derivatives are analytic (digamma/trigamma log-derivatives),
which caps the order at r <= 2.
"""

from __future__ import annotations

import cmath
import math

from .characters import DirichletCharacter
from .evaluate import _characters_at, _pole_term, _progression_sum, _psi_at_split, _s_tail, _split_floor, _units, _weigh
from .gammafn import complex_gamma, digamma, trigamma
from .sawtooth import (
    _EPS,
    EvalResult,
    _check_alpha,
    _check_work,
    _dual_cutoffs,
    psi_tail_powers,
    pure_osc_tail_powers,
    segment_osc_power_log,
)

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


def _check_strip(s: complex, r: int, x: float) -> None:
    if not 0.0 <= s.real <= 1.0:
        raise ValueError("the hybrid representation is stated for 0 <= Re(s) <= 1")
    if s.imag < 0.0:
        raise ValueError("needs Im(s) >= 0; conjugate the result for Im(s) < 0")
    if not 0 <= r <= 2:
        raise ValueError("derivative order is capped at 2 (analytic gamma-factor derivatives)")
    if not x > 0.0:
        raise ValueError("split must be positive")


def _afe_core(s: complex, alpha: float, r: int, x: float, duals: dict) -> tuple[complex, float]:
    """The strip representation without its pole term; its bound adds the
    rounding of the finite sum and of the plain tail's march to the tails'
    truncation and quadrature.

    The finite sum and the walks of the dual sum are charged to the work
    budget before any term (_dual_cutoffs); the alpha-free dual terms are kept
    in duals[r]."""
    t = s.imag
    y = t / (_TWO_PI * x)
    nmid = math.floor(y + 1e-12)
    if nmid >= 1 and s.real >= 1.0:
        raise ValueError("a nonempty dual sum needs Re(s) < 1 (singular segment integrals at Re(s) = 1)")
    nmax = _split_floor(x - alpha)
    _check_work(nmax + 1)
    cuts = _dual_cutoffs(s, r, x, nmid) if r not in duals else None
    # finite (n + alpha)-sum, with its rounding
    val, err = (x.item() for x in _progression_sum([alpha], 1, [nmax], s, [r]))
    # sawtooth boundary, with the |n| > y Fourier remainder folded in
    lx = math.log(x)
    xs = cmath.exp(-s * lx) * (-lx) ** r
    four = sum(math.sin(_TWO_PI * n * (x - alpha)) / (math.pi * n) for n in range(1, nmid + 1))
    val += xs * (_psi_at_split(x - alpha) + four)
    # plain sawtooth tail
    tail, terr = _s_tail(*psi_tail_powers(x, alpha, -s - 1.0, r), s, r)
    val += tail
    err += terr
    sign = (-1.0) ** r
    # dual gamma-factor sum, segment integrals, and oscillatory tails
    if r not in duals:
        duals[r] = [
            (nn, gamma_factor_derivs(s, nn, r)[r], segment_osc_power_log(nn, -s, r, x)[r])
            + _s_tail(*pure_osc_tail_powers(nn, -s - 1.0, r, x, cuts[n - 1]), s, r)
            for n in range(1, nmid + 1) for nn in (n, -n)
        ]
    for nn, g, seg, tail, terr in duals[r]:
        val += cmath.exp(2j * math.pi * nn * alpha) * g
        val -= cmath.exp(-2j * math.pi * nn * alpha) * sign * seg
        w = cmath.exp(-2j * math.pi * nn * alpha) / (2j * math.pi * nn)
        val += w * tail
        err += abs(w) * terr + 1e-15 * abs(seg)
    return val, err


def afe_hurwitz(s: complex, alpha: float, r: int, x: float) -> EvalResult:
    """zeta^{(r)}(s, alpha) in the strip 0 <= Re(s) <= 1 via the hybrid form."""
    s = complex(s)
    _check_strip(s, r, x)
    if s == 1:
        raise ValueError("s = 1 is the pole; use the coefficient operations instead")
    _check_alpha(alpha)
    core, err = _afe_core(s, alpha, r, x, {})
    pole = _pole_term(s, x, r)[0]
    return EvalResult(core + pole, err)


def afe_l(s: complex, chi: DirichletCharacter, r: int, X: float) -> EvalResult:
    """L^{(r)}(s, chi) in the strip for non-principal chi, cutoff y = qt/(2 pi X).

    Assembled per residue class from the Hurwitz core with split X/q (which
    share the dual terms), the classes weighed by chi(a) q^{-s} in one
    kernel; the pole terms cancel against sum_a chi(a) = 0.
    """
    if chi.is_principal:
        raise ValueError("needs a non-principal character")
    s = complex(s)
    _check_strip(s, r, X)
    q = chi.modulus
    lq = math.log(q)
    qs = cmath.exp(-s * lq)
    units = _units(q)
    pieces = []
    err = 0.0
    duals: dict = {}
    for a in units:
        parts = [_afe_core(s, a / q, l, X / q, duals) for l in range(r + 1)]
        acc = 0.0 + 0.0j
        eacc = 0.0
        for l in range(r + 1):
            c = math.comb(r, l) * (-lq) ** (r - l)
            acc += c * parts[l][0]
            eacc += abs(c) * parts[l][1]
        pieces.append(acc)
        err += abs(qs) * eacc
    # the weighting: q^{-s} (its phase eps |s| |log q|), chi(a) to within 14 eps,
    # their product, the products with the pieces and the sum over the units
    err += _EPS * (abs(s) * lq + 22 + len(units)) * abs(qs) * sum(map(abs, pieces))
    return EvalResult(complex(_weigh(_characters_at([chi], units) * qs, pieces)[0]), err)
