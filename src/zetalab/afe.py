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
through psi(v) = -sum_{|n|>=1} e^{2 pi i n v}/(2 pi i n).

In this form the dual terms cancel for every n.  For 0 < Re(s) < 1,

    e^{2 pi i n alpha} Gamma(1-s)(2 pi i n)^{s-1} = int_0^inf e^{-2 pi i n(u-alpha)} u^{-s} du

(the principal branch of log(2 pi i n) = log(2 pi |n|) + i (pi/2) sign(n)),
the integrand of the -n segment.  Less that segment it is the integral
from x, and one integration by parts against e^{-2 pi i n(u-alpha)} gives

    int_x^inf e^{-2 pi i n(u-alpha)} u^{-s} du = x^{-s} e^{-2 pi i n(x-alpha)}/(2 pi i n)
      - (e^{2 pi i n alpha}/(2 pi i n)) int_x^inf e^{-2 pi i n u} u^{-1} s u^{-s} du,

which is minus the boundary mode and the tail of -n.  So the gamma factor
of n and the segment, boundary mode and tail of -n, as they enter the
sum, add to 0, and n <-> -n
runs over 1 <= |n| <= y: the dual sum is 0 at every s of the strip and
so at every order r.  What is left is the Z core of evaluate._cores (the
first, second, boundary and plain-tail terms) plus the pole term: the AFE
is hurwitz_deriv at the split x, bit for bit, with its bound (at Re(s) =
0 too, which hurwitz_deriv refuses), at every order r <= MAX_ORDER and
either sign of Im(s).  tests/oracles.py keeps the identity checked in
mpmath, term by term.  The L variant is l_deriv
at the split X: every residue class a of Z/qZ from one core pass,
Z^{(r)}(s, a, q) = sum_l C(r,l)(-log q)^{r-l} q^{-s} zeta^{(l)}(s, a/q)
at the split X/q, weighed by chi(a).
"""

from __future__ import annotations

from .characters import DirichletCharacter
from .evaluate import _cores, _l_values, _z_values
from .sawtooth import EvalResult, _check_alpha, _check_order

__all__ = ["afe_hurwitz", "afe_l"]


def _check_strip(s: complex, x: float) -> None:
    if not 0.0 <= s.real <= 1.0:
        raise ValueError("the hybrid representation is stated for 0 <= Re(s) <= 1")
    if not x > 0.0:
        raise ValueError("split must be positive")


def afe_hurwitz(s: complex, alpha: float, r: int, x: float) -> EvalResult:
    """zeta^{(r)}(s, alpha) in the strip 0 <= Re(s) <= 1 via the hybrid form at
    the split x: the Z core (evaluate._cores) plus the pole term (evaluate._z_values)."""
    s = complex(s)
    if s == 1:
        raise ValueError("s = 1 is the pole; use the coefficient operations instead")
    _check_alpha(alpha)
    _check_strip(s, x)
    _check_order(r)
    X, vals, errs = _cores(s, 1, [alpha], [r], x)
    return _z_values(s, 1, r, X, vals[0], errs[0])[0]


def afe_l(s: complex, chi: DirichletCharacter, r: int, X: float) -> EvalResult:
    """L^{(r)}(s, chi) in the strip for non-principal chi at the split X: the
    class cores weighed by chi(a) (evaluate._l_values); the pole terms cancel
    against sum_a chi(a) = 0."""
    if chi.is_principal:
        raise ValueError("needs a non-principal character")
    s = complex(s)
    _check_strip(s, X)
    return _l_values(s, [chi], [r], X)[0][0]
