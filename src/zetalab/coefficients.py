"""Taylor/Laurent coefficient extraction at s = 1 and s = 0.

Conventions.  stieltjes_gamma returns the classical generalized
Stieltjes constant

    gamma_r(alpha) = lim_N { sum_{n=0}^{N} log^r(n+alpha)/(n+alpha)
                             - log^{r+1}(N+alpha)/(r+1) },

so the Laurent expansion reads

    zeta(s, alpha) - 1/(s-1) = sum_r (-1)^r gamma_r(alpha)/r! (s-1)^r.

Progression constants gamma_r(a, q) follow the analogous limit over
n = a (mod q), so that Z(s, a, q) - 1/(q(s-1)) has the Laurent
coefficients (-1)^r gamma_r(a, q)/r!, and satisfy the exact convolution

    gamma_r(a, q) = (1/q)[ sum_l C(r,l) log^l q * gamma_{r-l}(a/q)
                           - log^{r+1} q / (r+1) ],

whose trailing term comes from expanding (q^{-s} - q^{-1})/(s-1); it is
independent of a and therefore drops out of every character sum
L^{(r)}(1, chi) = sum_a chi(a) (-1)^r gamma_r(a, q).  beta_r(alpha) =
zeta^{(r)}(0, alpha)/r!, and lerch_taylor_at_1 returns the Taylor
coefficient phi^{(r)}(lambda, alpha, 1)/r!.

Every route but the Lerch one reads the Z core of evaluate (Z without
its pole term, analytic for Re(s) > -1) and its bound, rounding included,
at s = 1 or s = 0, every order from one pass: (-1)^r gamma_r(a, q) is the
core at s = 1 plus the regular part (-log X)^{r+1}/(q(r+1)) of the pole
term X^{1-s}/(q(s-1)); zeta^{(r)}(0, alpha) is the core at s = 0 plus the
pole term; L^{(r)}(1, chi) and L^{(r)}(0, chi) weigh the class cores by
chi(a), where the pole terms cancel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .characters import DirichletCharacter
from .evaluate import _EPS, _cores, _l_values, _z_value
from .sawtooth import (
    EvalResult,
    _check_alpha,
    _check_order,
    _check_work,
    psi,
    psi_osc_tail_powers,
    pure_osc_tail_powers,
)

__all__ = [
    "COEFFICIENT_KINDS",
    "CoefficientEntry",
    "CoefficientTable",
    "CoefficientKind",
    "stieltjes_gamma",
    "stieltjes_gamma_all",
    "beta_coefficient",
    "beta_coefficient_all",
    "gamma_aq",
    "l_deriv_at_1_exact",
    "l_deriv_at_1_exact_all",
    "l_deriv_at_1_truncated",
    "l_deriv_at_0",
    "l_deriv_at_0_all",
    "l_deriv_at_0_truncated",
    "lerch_taylor_at_1",
    "coefficient_table",
    "reconstruct_series",
]


def _per_factorial(res: list[EvalResult]) -> list[EvalResult]:
    """Derivatives of orders 0, 1, ... to Taylor coefficients res[r]/r!, with
    the rounding of r! and of the quotient."""
    return [
        EvalResult(e.value / math.factorial(r), (e.error_bound + 2.0 * _EPS * abs(e.value)) / math.factorial(r))
        for r, e in enumerate(res)
    ]


# ---------------------------------------------------------------------------
# Hurwitz and progression constants: the Z core at s = 1 and s = 0
# ---------------------------------------------------------------------------


def _gamma_all(rmax: int, a: float, q: int, X: float | None = None) -> list[EvalResult]:
    """gamma_r(a, q) for r = 0..rmax (a = alpha at q = 1) from one pass of the
    Z core at s = 1, split X, plus the regular part of its pole term (module
    docstring); that part rounds as log X, its power and the quotient, (r + 4) eps."""
    X, cores = _cores(1.0 + 0.0j, q, [a], range(rmax + 1), X)
    lX = math.log(X)
    out = []
    for r, ((core, err),) in enumerate(cores):
        pole = (-lX) ** (r + 1) / (q * (r + 1))
        val = core.real + pole
        out.append(EvalResult(complex((-1.0) ** r * val), err + _EPS * ((r + 4) * abs(pole) + abs(val))))
    return out


def stieltjes_gamma_all(rmax: int, alpha: float) -> list[EvalResult]:
    """gamma_r(alpha) for r = 0..rmax from one pass of the Z core at q = 1."""
    _check_order(rmax)
    _check_alpha(alpha)
    return _gamma_all(rmax, alpha, 1)


def stieltjes_gamma(r: int, alpha: float) -> EvalResult:
    """Classical generalized Stieltjes constant gamma_r(alpha)."""
    return stieltjes_gamma_all(r, alpha)[r]


def _gamma_aq_all(rmax: int, a: int, q: int) -> list[EvalResult]:
    """gamma_r(a, q) for r = 0..rmax from one pass of the Z core at q."""
    if q < 1 or not 1 <= a <= q:
        raise ValueError("need 1 <= a <= q")
    _check_order(rmax)
    return _gamma_all(rmax, a, q)


def gamma_aq(r: int, a: int, q: int) -> EvalResult:
    """Progression constant gamma_r(a, q) (module docstring)."""
    return _gamma_aq_all(r, a, q)[r]


def _beta_all(rmax: int, alpha: float, X: float | None = None) -> list[EvalResult]:
    """beta_r(alpha) = zeta^{(r)}(0, alpha)/r! for r = 0..rmax: beta_0 = 1/2 -
    alpha, the others from one pass of the Z core at s = 0, split X, plus the pole term."""
    out = [EvalResult(complex(0.5 - alpha), _EPS * (0.5 + alpha))]
    if rmax:
        X, cores = _cores(0.0j, 1, [alpha], range(1, rmax + 1), X)
        for r, (core,) in enumerate(cores, 1):
            z = _z_value(0.0j, 1, r, X, core)
            out.append(EvalResult(complex(z.value.real), z.error_bound))
    return _per_factorial(out)


def beta_coefficient_all(rmax: int, alpha: float) -> list[EvalResult]:
    """beta_r(alpha) = zeta^{(r)}(0, alpha)/r! for r = 0..rmax."""
    _check_order(rmax)
    _check_alpha(alpha)
    return _beta_all(rmax, alpha)


def beta_coefficient(r: int, alpha: float) -> EvalResult:
    """Taylor coefficient of zeta(s, alpha) at s = 0."""
    return beta_coefficient_all(r, alpha)[r]


# ---------------------------------------------------------------------------
# L-function values at s = 1 and s = 0
# ---------------------------------------------------------------------------


def l_deriv_at_1_exact_all(r: int, chars, X: float | None = None) -> list[EvalResult]:
    """L^{(r)}(1, chi) for every chi of a batch of non-principal characters
    sharing one modulus q, sum_a chi(a) core_a^{(r)}(1) over the units a."""
    return _l_values(1.0 + 0.0j, chars, [r], X)[0]


def l_deriv_at_1_exact(r: int, chi: DirichletCharacter, X: float | None = None) -> EvalResult:
    """L^{(r)}(1, chi) for non-principal chi (see l_deriv_at_1_exact_all)."""
    return l_deriv_at_1_exact_all(r, [chi], X)[0]


def _truncated_terms(r: int, chi: DirichletCharacter, log_x_over_q: float):
    """n = 1..X with chi(n) and log n, X = q e^{log_x_over_q}: the terms of the
    truncated main sums, stated for r >= 1 and primitive chi mod q >= 3."""
    if r < 1:
        raise ValueError("the truncated form is stated for r >= 1")
    if not chi.is_primitive or chi.modulus < 3:
        raise ValueError("truncation bound requires a primitive character mod q >= 3")
    _check_order(r)
    count = math.floor(chi.modulus * math.exp(log_x_over_q) + 1e-12)
    _check_work(count)
    n = np.arange(1, count + 1)
    return n, np.asarray(chi.values, dtype=complex)[n % chi.modulus], np.log(n.astype(float))


def l_deriv_at_1_truncated(r: int, chi: DirichletCharacter) -> EvalResult:
    """Truncated main term (-1)^r sum_{n <= q e^{r/2}} chi(n) log^r n / n.

    For a primitive character mod q >= 3 and r >= 1 the discarded part is
    O(q^{-1/2} e^{-r/2} log q (log q + r/2)^r); the reported bound carries
    the empirical guard constant 10.
    """
    n, vals, logs = _truncated_terms(r, chi, r / 2.0)
    q = chi.modulus
    main = complex(np.sum(vals * logs**r / n))
    bound = 10.0 * q**-0.5 * math.exp(-r / 2.0) * math.log(q) * (math.log(q) + r / 2.0) ** r
    return EvalResult((-1.0) ** r * main, bound)


def l_deriv_at_0_all(r: int, chars, X: float | None = None) -> list[EvalResult]:
    """L^{(r)}(0, chi) for every chi of a batch of non-principal characters
    sharing one modulus q, sum_a chi(a) core_a^{(r)}(0) over the units a."""
    return _l_values(0.0j, chars, [r], X)[0]


def l_deriv_at_0(r: int, chi: DirichletCharacter, X: float | None = None) -> EvalResult:
    """L^{(r)}(0, chi) for non-principal chi (see l_deriv_at_0_all)."""
    return l_deriv_at_0_all(r, [chi], X)[0]


def l_deriv_at_0_truncated(r: int, chi: DirichletCharacter) -> EvalResult:
    """Truncated main term (-1)^r sum_{n <= q e^{r-1}} chi(n) log^r n with
    the O(q^{1/2} log q (log q + r)^r) bound (guard constant 10)."""
    n, vals, logs = _truncated_terms(r, chi, r - 1.0)
    q = chi.modulus
    main = complex(np.sum(vals * logs**r))
    bound = 10.0 * math.sqrt(q) * math.log(q) * (math.log(q) + r) ** r
    return EvalResult((-1.0) ** r * main, bound)


# ---------------------------------------------------------------------------
# Lerch Taylor coefficients at s = 1
# ---------------------------------------------------------------------------


def lerch_taylor_at_1(r: int, lam: float, alpha: float) -> EvalResult:
    """Taylor coefficient phi^{(r)}(lambda, alpha, 1)/r! for lambda in (0,1).

    Split representation at x = 1:

        phi^{(r)}(lambda, alpha, 1) = (-1)^r [ log^r alpha / alpha
            + int_1^inf e^{2 pi i lam (u-alpha)} u^{-1} log^r u du
            + 2 pi i lam int_1^inf psi(u-alpha) e^{...} u^{-1} log^r u du
            + r int_1^inf psi(u-alpha) e^{...} u^{-2} log^{r-1} u du
            -   int_1^inf psi(u-alpha) e^{...} u^{-2} log^r u du ]
        + [r = 0 only]  e^{2 pi i lam (1-alpha)} psi(1-alpha).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1); integer lambda is the Stieltjes case")
    _check_alpha(alpha)
    _check_order(r)
    la = math.log(alpha)
    head = (1.0 / alpha) if r == 0 else la**r / alpha
    pure, perr = pure_osc_tail_powers(lam, -1.0, r, 1.0)
    phase = cmath.exp(-2j * math.pi * lam * alpha)
    w1, w1err = psi_osc_tail_powers(lam, alpha, -1.0, r, 1.0)
    w2, w2err = psi_osc_tail_powers(lam, alpha, -2.0, r, 1.0)
    inner = head + phase * pure[r] + 2j * math.pi * lam * w1[r] - w2[r]
    err = perr[r] + 2.0 * math.pi * lam * w1err[r] + w2err[r]
    if r:
        inner += r * w2[r - 1]
        err += r * w2err[r - 1]
    val = (-1.0) ** r * inner
    if r == 0:
        val += cmath.exp(2j * math.pi * lam * (1.0 - alpha)) * psi(1.0 - alpha)
    return EvalResult(val / math.factorial(r), err / math.factorial(r))


# ---------------------------------------------------------------------------
# coefficient tables and series round trips
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientEntry:
    order: int
    value: complex
    error: float
    route: str


@dataclass(frozen=True)
class CoefficientTable:
    kind: str
    parameters: dict
    entries: tuple[CoefficientEntry, ...]


class CoefficientKind(NamedTuple):
    """A table kind: the keywords coefficient_table reads, the route giving
    orders 0..r_max as orders(r_max, **params), the centre of the series,
    the map (entry, r) -> series coefficient, the pole term pole(parameters,
    s) if any, and the route label."""

    params: tuple[str, ...]
    orders: Callable[..., list[EvalResult]]
    center: float
    series: Callable[[complex, int], complex] = lambda v, r: v
    pole: Callable[[dict, complex], complex] | None = None
    route: str = "closed_form"


def _laurent(v: complex, r: int) -> complex:
    """Classical constant gamma_r -> Laurent coefficient (-1)^r gamma_r / r!."""
    return (-1.0) ** r * v / math.factorial(r)


# the routes look their functions up at call time, so a wrapped one is seen
COEFFICIENT_KINDS = {
    "stieltjes_gamma": CoefficientKind(
        ("alpha",), lambda n, alpha: stieltjes_gamma_all(n, alpha), 1.0, _laurent, lambda p, s: 1.0 / (s - 1.0)
    ),
    "beta_at_zero": CoefficientKind(("alpha",), lambda n, alpha: beta_coefficient_all(n, alpha), 0.0),
    "gamma_aq": CoefficientKind(
        ("a", "q"),
        lambda n, a, q: _gamma_aq_all(n, a, q),
        1.0,
        _laurent,
        lambda p, s: 1.0 / (p["q"] * (s - 1.0)),
        "proposition",
    ),
    "gamma_chi": CoefficientKind(
        ("chi",), lambda n, chi: _per_factorial([e for (e,) in _l_values(1.0 + 0.0j, [chi], range(n + 1))]), 1.0
    ),
    "lerch_at_one": CoefficientKind(
        ("lam", "alpha"), lambda n, lam, alpha: [lerch_taylor_at_1(r, lam, alpha) for r in range(n + 1)], 1.0
    ),
    "l_deriv_at_zero": CoefficientKind(
        ("chi",),
        lambda n, chi: [e for (e,) in _l_values(0.0j, [chi], range(n + 1))],
        0.0,
        lambda v, r: v / math.factorial(r),
    ),
}


def coefficient_table(
    kind: str,
    r_max: int,
    *,
    alpha: float | None = None,
    a: int | None = None,
    q: int | None = None,
    chi: DirichletCharacter | None = None,
    lam: float | None = None,
) -> CoefficientTable:
    """Build a contiguous table of expansion coefficients for r = 0..r_max;
    COEFFICIENT_KINDS[kind].params names the keywords the kind reads.  A
    value that leaves binary64 (such as log^r(alpha)/alpha at tiny alpha)
    is refused by EvalResult."""
    if kind not in COEFFICIENT_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    spec = COEFFICIENT_KINDS[kind]
    given = {"alpha": alpha, "a": a, "q": q, "chi": chi, "lam": lam}
    params = {name: given[name] for name in spec.params}
    res = spec.orders(r_max, **params)
    entries = tuple(CoefficientEntry(r, res[r].value, res[r].error_bound, spec.route) for r in range(r_max + 1))
    if "chi" in params:
        params = {"q": chi.modulus, "label": chi.label}
    return CoefficientTable(kind=kind, parameters=params, entries=entries)


def reconstruct_series(table: CoefficientTable, s: complex) -> complex:
    """Partial sum of the expansion the table encodes, at the point s.

    Hurwitz and progression tables add their pole and convert the stored
    classical constants to Laurent coefficients (-1)^r gamma_r/r!; beta
    and L-at-zero tables expand around 0; the chi/lerch tables are Taylor
    series around 1.
    """
    s = complex(s)
    spec = COEFFICIENT_KINDS.get(table.kind)
    if spec is None:
        raise ValueError(f"cannot reconstruct kind {table.kind!r}")
    if abs(s - spec.center) > 0.5:
        raise ValueError("reconstruction is supported within |s - center| <= 1/2")
    h = s - spec.center
    acc = 0.0 + 0.0j
    for e in table.entries:
        acc += spec.series(e.value, e.order) * h**e.order
    if spec.pole is not None:
        acc += spec.pole(table.parameters, s)
    return acc
