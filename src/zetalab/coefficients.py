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

Every route reads one core of evaluate and its bound at s = 1 or s = 0,
every order from one pass.  The Hurwitz, progression and L routes read the
Z core (Z without its pole term, analytic for Re(s) > -1), rounding
included: (-1)^r gamma_r(a, q) is the core at s = 1 plus the regular part
(-log X)^{r+1}/(q(r+1)) of the pole term X^{1-s}/(q(s-1)); zeta^{(r)}(0,
alpha) is the core at s = 0 plus the pole term; L^{(r)}(1, chi) and
L^{(r)}(0, chi) weigh the class cores by chi(a), where the pole terms
cancel.  The Lerch coefficients read the Lerch core at s = 1 and its
default split, where a table of few orders walks no panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .characters import DirichletCharacter, _units, _values_at
from .evaluate import _EPS, LerchArgs, _common_modulus, _cores, _l_values, _lerch_values, _weigh, _z_values
from .sawtooth import EvalResult, _check_alpha, _check_order, _check_work, _progression_sum

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


def _gamma_all(rmax: int, shifts, q: int, X: float | None = None) -> list[list[EvalResult]]:
    """gamma_r(a, q) for r = 0..rmax (outer: each a of shifts, any alphas at
    q = 1; inner: r) from one pass of the Z core at s = 1, split X, plus the
    regular part of its pole term (module docstring); that part rounds as
    log X, its power and the quotient, (r + 4) eps."""
    X, cores, errs = _cores(1.0 + 0.0j, q, shifts, range(rmax + 1), X)
    lX = math.log(X)
    out = [[] for _ in shifts]
    for r, (row, rerrs) in enumerate(zip(cores.real.tolist(), errs.tolist())):
        pole = (-lX) ** (r + 1) / (q * (r + 1))
        for res, core, err in zip(out, row, rerrs):
            val = core + pole
            res.append(EvalResult(complex((-1.0) ** r * val), err + _EPS * ((r + 4) * abs(pole) + abs(val))))
    return out


def stieltjes_gamma_all(rmax: int, alpha: float) -> list[EvalResult]:
    """gamma_r(alpha) for r = 0..rmax from one pass of the Z core at q = 1."""
    _check_order(rmax)
    _check_alpha(alpha)
    return _gamma_all(rmax, [alpha], 1)[0]


def stieltjes_gamma(r: int, alpha: float) -> EvalResult:
    """Classical generalized Stieltjes constant gamma_r(alpha)."""
    return stieltjes_gamma_all(r, alpha)[r]


def _gamma_aq_all(rmax: int, a: int, q: int) -> list[EvalResult]:
    """gamma_r(a, q) for r = 0..rmax from one pass of the Z core at q."""
    if q < 1 or not 1 <= a <= q:
        raise ValueError("need 1 <= a <= q")
    _check_order(rmax)
    return _gamma_all(rmax, [a], q)[0]


def gamma_aq(r: int, a: int, q: int) -> EvalResult:
    """Progression constant gamma_r(a, q) (module docstring)."""
    return _gamma_aq_all(r, a, q)[r]


def _beta_all(rmax: int, alphas, X: float | None = None) -> list[list[EvalResult]]:
    """beta_r(alpha) = zeta^{(r)}(0, alpha)/r! for r = 0..rmax (outer: each
    alpha of alphas; inner: r): beta_0 = 1/2 - alpha, the others from one pass
    of the Z core at s = 0, split X, plus the pole term."""
    out = [[EvalResult(complex(0.5 - alpha), _EPS * (0.5 + alpha))] for alpha in alphas]
    if rmax:
        X, cores, errs = _cores(0.0j, 1, alphas, range(1, rmax + 1), X)
        for r, row, rerrs in zip(range(1, rmax + 1), cores, errs):
            for res, z in zip(out, _z_values(0.0j, 1, r, X, row, rerrs)):
                res.append(EvalResult(complex(z.value.real), z.error_bound))
    return [_per_factorial(res) for res in out]


def beta_coefficient_all(rmax: int, alpha: float) -> list[EvalResult]:
    """beta_r(alpha) = zeta^{(r)}(0, alpha)/r! for r = 0..rmax."""
    _check_order(rmax)
    _check_alpha(alpha)
    return _beta_all(rmax, [alpha])[0]


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


def _truncated_all(r: int, chars, point: int) -> list[EvalResult]:
    """(-1)^r sum_{n <= X} chi(n) log^r n / n^s at s = point (1 or 0), X = q
    e^{r/2} at s = 1 and q e^{r-1} at s = 0, for every chi of a batch of
    primitive characters mod q >= 3 (stated for r >= 1): sum_a chi(a) S_a
    over the units a, the S_a from one finite-sum kernel pass up to X; the
    bound is the truncation bound of l_deriv_at_1_truncated (s = 1) or
    l_deriv_at_0_truncated (s = 0)."""
    if r < 1:
        raise ValueError("the truncated form is stated for r >= 1")
    if not all(chi.is_primitive and chi.modulus >= 3 for chi in chars):
        raise ValueError("truncation bound requires a primitive character mod q >= 3")
    q = _common_modulus(chars)
    _check_order(r)
    count = math.floor(q * math.exp(r / 2.0 if point else r - 1.0) + 1e-12)
    _check_work(truncated=count)
    a = np.array(_units(q))
    sums, lq = _progression_sum(a, q, (count - a) // q, complex(point), [r])[0][0], math.log(q)
    if point:
        bound = 10.0 * q**-0.5 * math.exp(-r / 2.0) * lq * (lq + r / 2.0) ** r
    else:
        bound = 10.0 * math.sqrt(q) * lq * (lq + r) ** r
    return [EvalResult(v, bound) for v in _weigh(_values_at(chars, a), sums).tolist()]


def l_deriv_at_1_truncated(r: int, chi: DirichletCharacter) -> EvalResult:
    """Truncated main term (-1)^r sum_{n <= q e^{r/2}} chi(n) log^r n / n.

    For a primitive character mod q >= 3 and r >= 1 the discarded part is
    O(q^{-1/2} e^{-r/2} log q (log q + r/2)^r); the reported bound carries
    the empirical guard constant 10.
    """
    return _truncated_all(r, [chi], 1)[0]


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
    return _truncated_all(r, [chi], 0)[0]


# ---------------------------------------------------------------------------
# Lerch Taylor coefficients at s = 1
# ---------------------------------------------------------------------------


def _lerch_at_one(rmax: int, lam: float, alpha: float) -> list[EvalResult]:
    """phi^{(r)}(lambda, alpha, 1)/r! for r = 0..rmax from one pass of the
    Lerch core at s = 1 and its default split; the arguments checked before
    any work."""
    LerchArgs(lam=lam, alpha=alpha, s=1.0, order=rmax)
    return _per_factorial(_lerch_values(1.0 + 0.0j, lam, alpha, range(rmax + 1), None))


def lerch_taylor_at_1(r: int, lam: float, alpha: float) -> EvalResult:
    """Taylor coefficient phi^{(r)}(lambda, alpha, 1)/r! for lambda in (0,1)."""
    return _lerch_at_one(r, lam, alpha)[r]


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


def _l_all(rmax: int, chi: DirichletCharacter, s: complex) -> list[EvalResult]:
    """d^r/ds^r L(s, chi) for r = 0..rmax from one pass of the L core."""
    _check_order(rmax)
    return [e for (e,) in _l_values(s, [chi], range(rmax + 1))]


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
        ("chi",), lambda n, chi: _per_factorial(_l_all(n, chi, 1.0 + 0.0j)), 1.0
    ),
    "lerch_at_one": CoefficientKind(
        ("lam", "alpha"), lambda n, lam, alpha: _lerch_at_one(n, lam, alpha), 1.0
    ),
    "l_deriv_at_zero": CoefficientKind(
        ("chi",),
        lambda n, chi: _l_all(n, chi, 0.0j),
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
