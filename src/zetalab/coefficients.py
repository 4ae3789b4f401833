"""Taylor/Laurent coefficient extraction at s = 1 and s = 0.

Conventions.  stieltjes_gamma returns the classical generalized
Stieltjes constant

    gamma_r(alpha) = lim_N { sum_{n=0}^{N} log^r(n+alpha)/(n+alpha)
                             - log^{r+1}(N+alpha)/(r+1) },

so the Laurent expansion reads

    zeta(s, alpha) - 1/(s-1) = sum_r (-1)^r gamma_r(alpha)/r! (s-1)^r.

Progression constants gamma_r(a, q) follow the analogous limit over
n = a (mod q) and satisfy the exact convolution

    gamma_r(a, q) = (1/q)[ sum_l C(r,l) log^l q * gamma_{r-l}(a/q)
                           - log^{r+1} q / (r+1) ],

whose trailing term comes from expanding (q^{-s} - q^{-1})/(s-1); it is
independent of a and therefore drops out of every character sum
L^{(r)}(1, chi) = sum_a chi(a) (-1)^r gamma_r(a, q).

beta_coefficient and the L-values at s = 0 use the evaluated pole term
d^r/ds^r (1/(s-1))|_{s=0} = -r!, and lerch_taylor_at_1 returns the
Taylor coefficient phi^{(r)}(lambda, alpha, 1)/r!.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .characters import DirichletCharacter
from .evaluate import _characters_at, _log_binomial_tail_combo, _psi_at_split, _split_floor, _units, _weigh
from .sawtooth import (
    EvalResult,
    _check_alpha,
    _check_order,
    _check_work,
    _cmul,
    psi,
    psi_osc_tail_powers,
    psi_tail_powers,
    psi_tail_powers_batch,
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


# ---------------------------------------------------------------------------
# Stieltjes constants gamma_r(alpha)
# ---------------------------------------------------------------------------


def stieltjes_gamma_all(rmax: int, alpha: float) -> list[EvalResult]:
    """gamma_r(alpha) for r = 0..rmax from one pass of tail integrals.

    gamma_0 follows the x = 1 split representation 1/alpha (or 1 at
    alpha = 1) + psi(1-alpha) - int_1^inf psi(u-alpha)/u^2 du; for r >= 1,

        gamma_r(alpha) = log^r alpha / alpha
                         + r A_{r-1} - A_r,
        A_m = int_1^inf psi(u-alpha) u^{-2} log^m u du.
    """
    _check_order(rmax)
    _check_alpha(alpha)
    tails, terrs = psi_tail_powers(1.0, alpha, -2.0, max(rmax, 1))
    la = math.log(alpha)
    out = []
    g0 = 1.0 / alpha + psi(1.0 - alpha) - tails[0].real
    out.append(EvalResult(complex(g0), terrs[0]))
    for r in range(1, rmax + 1):
        val = la**r / alpha + r * tails[r - 1].real - tails[r].real
        out.append(EvalResult(complex(val), r * terrs[r - 1] + terrs[r]))
    return out


def stieltjes_gamma(r: int, alpha: float) -> EvalResult:
    """Classical generalized Stieltjes constant gamma_r(alpha)."""
    return stieltjes_gamma_all(r, alpha)[r]


# ---------------------------------------------------------------------------
# Taylor coefficients at s = 0
# ---------------------------------------------------------------------------


def beta_coefficient_all(rmax: int, alpha: float) -> list[EvalResult]:
    """beta_r(alpha) = zeta^{(r)}(0, alpha)/r! for r = 0..rmax.

    beta_0 = 1/2 - alpha; for r >= 1,

        zeta^{(r)}(0, alpha) = -r! + (-1)^r [ log^r alpha
                                + r int_1^inf psi(u-alpha)/u log^{r-1} u du ].
    """
    _check_order(rmax)
    _check_alpha(alpha)
    out = [EvalResult(complex(0.5 - alpha), 0.0)]
    if rmax == 0:
        return out
    tails, terrs = psi_tail_powers(1.0, alpha, -1.0, max(rmax - 1, 0))
    la = math.log(alpha)
    for r in range(1, rmax + 1):
        zr = -math.factorial(r) + (-1.0) ** r * (la**r + r * tails[r - 1].real)
        out.append(EvalResult(complex(zr / math.factorial(r)), r * terrs[r - 1] / math.factorial(r)))
    return out


def beta_coefficient(r: int, alpha: float) -> EvalResult:
    """Taylor coefficient of zeta(s, alpha) at s = 0."""
    return beta_coefficient_all(r, alpha)[r]


# ---------------------------------------------------------------------------
# progression constants gamma_r(a, q)
# ---------------------------------------------------------------------------


def gamma_aq(r: int, a: int, q: int) -> EvalResult:
    """gamma_r(a, q) by the binomial convolution over the classical
    constants gamma_{r-l}(a/q) (module docstring)."""
    if q < 1 or not 1 <= a <= q:
        raise ValueError("need 1 <= a <= q")
    _check_order(r)
    gam = stieltjes_gamma_all(r, a / q)
    lq = math.log(q)
    acc = 0.0
    err = 0.0
    for l in range(r + 1):
        c = math.comb(r, l) * lq**l
        acc += c * gam[r - l].value.real
        err += c * gam[r - l].error_bound
    val = (acc - lq ** (r + 1) / (r + 1)) / q
    return EvalResult(complex(val), err / q)


# ---------------------------------------------------------------------------
# L-function values at s = 1 and s = 0
# ---------------------------------------------------------------------------


def _common_modulus(chars) -> int:
    """The one modulus of a batch of non-principal characters."""
    if not chars:
        raise ValueError("needs at least one character")
    q = chars[0].modulus
    for chi in chars:
        if chi.is_principal:
            raise ValueError("needs a non-principal character")
        if chi.modulus != q:
            raise ValueError("characters of one batch must share one modulus")
    return q


def _residue_pass(q: int, X: float, r: int, s_at: int, tails):
    """The chi-independent pieces of the split representation at s = s_at:
    the units a of Z/qZ in increasing order; over them, the finite sums of
    log^r n / n^{s_at}, n = a (mod q), n <= X (None when empty), the boundary
    sawtooths psi((X-a)/q) and the tail pieces; the tail errors summed in
    the order of the units.  tails(units) returns one (piece, error) per
    unit, from one batched tail call, or None."""
    _check_work(X)  # the n <= X of the finite sums of all residue classes
    units = _units(q)
    pieces = tails(units) or [(None, 0.0)] * len(units)
    mains = []
    err = 0.0
    for a, (_, perr) in zip(units, pieces):
        main = None
        kmax = _split_floor((X - a) / q)
        if kmax >= 0:
            n = a + q * np.arange(0, kmax + 1, dtype=float)
            if s_at:
                main = complex(np.sum((np.log(n) ** r if r else 1.0) / n))
            else:
                main = complex(np.sum(np.log(n) ** r if r else np.ones_like(n)))
        mains.append(main)
        err += perr
    return units, mains, [_psi_at_split((X - a) / q) for a in units], [p for p, _ in pieces], err


def l_deriv_at_1_exact_all(r: int, chars, X: float | None = None) -> list[EvalResult]:
    """L^{(r)}(1, chi) for every chi of a batch of non-principal characters
    sharing one modulus q, via the split representation

    (-1)^r L^{(r)}(1,chi) = sum_{n<=X} chi(n) log^r n / n
        + (log^r X / X) sum_a chi(a) psi((X-a)/q)
        + (1/q) sum_a chi(a) int_{X/q}^inf psi(u-a/q) u^{-2}
                                 log^{r-1}(qu) (r - log(qu)) du.

    The finite sums, boundary terms and tail integrals of the residue
    classes do not depend on chi: one pass computes them for the batch.
    """
    chars = list(chars)
    q = _common_modulus(chars)
    _check_order(r)
    if X is None:
        X = 4.0 * q
    lX = math.log(X)
    lq = math.log(q)

    def tails(units):
        batch = psi_tail_powers_batch(X / q, [a / q for a in units], -2.0, r)
        return [_log_binomial_tail_combo(t, terrs, r, 1.0, lq) for t, terrs in batch]

    units, mains, bnds, pieces, err = _residue_pass(q, X, r, 1, tails)
    w = _characters_at(chars, units)
    sums = zip(*(_weigh(w, column).tolist() for column in (mains, bnds, pieces)))
    return [EvalResult((-1.0) ** r * (main + (lX**r / X) * bnd + tail / q), err / q) for main, bnd, tail in sums]


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
    sharing one modulus q, via

    (-1)^r L^{(r)}(0,chi) = sum_{n<=X} chi(n) log^r n
        + log^r X sum_a chi(a) psi((X-a)/q)
        + r sum_a chi(a) int_{X/q}^inf psi(u-a/q) u^{-1} log^{r-1}(qu) du,

    from one residue pass shared by the batch.
    """
    chars = list(chars)
    q = _common_modulus(chars)
    _check_order(r)
    if X is None:
        X = 4.0 * q
    lX = math.log(X)
    lq = math.log(q)

    def tails(units):
        if not r:
            return None
        weights = [math.comb(r - 1, mm) * lq ** (r - 1 - mm) for mm in range(r)]
        batch = psi_tail_powers_batch(X / q, [a / q for a in units], -1.0, r - 1)
        return [
            (sum(w * t[mm] for mm, w in enumerate(weights)), r * sum(w * e[mm] for mm, w in enumerate(weights)))
            for t, e in batch
        ]

    units, mains, bnds, pieces, err = _residue_pass(q, X, r, 0, tails)
    w = _characters_at(chars, units)  # the tails weigh by chi(a) r, formed first
    sums = zip(*(_weigh(v, column).tolist() for v, column in ((w, mains), (w, bnds), (_cmul(*w, r, 0.0), pieces))))
    return [EvalResult((-1.0) ** r * (tail + (main + (lX**r if r else 1.0) * bnd)), err) for main, bnd, tail in sums]


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


def _gamma_chi_all(r_max: int, chi: DirichletCharacter) -> list[EvalResult]:
    """Taylor coefficients L^{(r)}(1, chi)/r! for r = 0..r_max."""
    res = [l_deriv_at_1_exact(r, chi) for r in range(r_max + 1)]
    return [EvalResult(e.value / math.factorial(r), e.error_bound / math.factorial(r)) for r, e in enumerate(res)]


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
        lambda n, a, q: [gamma_aq(r, a, q) for r in range(n + 1)],
        1.0,
        _laurent,
        lambda p, s: 1.0 / (p["q"] * (s - 1.0)),
        "proposition",
    ),
    "gamma_chi": CoefficientKind(("chi",), lambda n, chi: _gamma_chi_all(n, chi), 1.0),
    "lerch_at_one": CoefficientKind(
        ("lam", "alpha"), lambda n, lam, alpha: [lerch_taylor_at_1(r, lam, alpha) for r in range(n + 1)], 1.0
    ),
    "l_deriv_at_zero": CoefficientKind(
        ("chi",), lambda n, chi: [l_deriv_at_0(r, chi) for r in range(n + 1)], 0.0, lambda v, r: v / math.factorial(r)
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
    raises OverflowError."""
    if kind not in COEFFICIENT_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    spec = COEFFICIENT_KINDS[kind]
    given = {"alpha": alpha, "a": a, "q": q, "chi": chi, "lam": lam}
    params = {name: given[name] for name in spec.params}
    res = spec.orders(r_max, **params)
    for r, e in enumerate(res):
        if not (math.isfinite(e.value.real) and math.isfinite(e.value.imag)):
            raise OverflowError(f"the coefficient of order {r} is not finite in binary64")
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
