"""Numeric certification of the explicit coefficient and truncation
bounds, plus the published comparison baselines.

Each certifier sweeps a deterministic parameter grid, records the
measured quantity, the bound, and the margin bound - measured, and
asserts nothing itself: callers inspect all_pass.  Bound formulas switch
to log-space evaluation for r >= 15 so that r! against (r/2e)^r cannot
degenerate into 0 * inf.

Bound families:

  t2-ib   |gamma_r(alpha) - log^r alpha / alpha| / r!  <=  e (r/2e)^r / r!
  t2-iib  |beta_r(alpha) - (-1)^r log^r alpha / r!|    <=  (e/3)(r/e)^r/r! + 1
          (the printed additive constant 1/r! is reported informationally)
  t2-iiib |phi^{(r)}(lam,alpha,1)/r! - (-1)^r log^r alpha/(r! alpha)|
                                       <= 10 (r^r e^{-r}/r!)(1/lam + 1/(1-lam))
  t3      truncation error of the short character sums at s = 1 and s = 0
          against the exact route, with guard constant 10, plus the size
          bound |L^{(r)}(1,chi)| <= 10 (log q + r/2)^{r+1}
  berndt  4/(r pi^r) for odd r, 2/(r pi^r) for even r >= 2 (comparison)
  polya   max_{x <= q} |sum_{a <= x} chi(a)| <= sqrt(q) log q
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characters import enumerate_characters, partial_character_sum
from .coefficients import (
    beta_coefficient_all,
    l_deriv_at_0_truncated,
    l_deriv_at_1_truncated,
    lerch_taylor_at_1,
    stieltjes_gamma_all,
)
from .evaluate import _l_values
from .sawtooth import _check_order, _check_work

__all__ = [
    "BoundCase",
    "BoundReport",
    "certify_T2_Ib",
    "certify_T2_IIb",
    "certify_T2_IIIb",
    "certify_T3",
    "ishikawa_compare",
    "certify_polya_vinogradov",
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_Q_SET",
]

DEFAULT_ALPHA_GRID = tuple(k / 10.0 for k in range(1, 11)) + (1.0 / 3.0, 1.0 / 7.0)
DEFAULT_Q_SET = (3, 4, 5, 7, 8, 11)
_GUARD = 10.0  # the guard constant of the T2-IIIb and T3 bounds


@dataclass(frozen=True)
class BoundCase:
    parameters: dict
    measured: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.measured


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    cases: tuple[BoundCase, ...]
    informational: tuple[BoundCase, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(c.margin >= 0.0 for c in self.cases)

    @property
    def worst_margin(self) -> float:
        return min((c.margin for c in self.cases), default=math.inf)


def _log_factorial(r: int) -> float:
    return math.lgamma(r + 1.0)


def _t2_ib_bound(r: int) -> float:
    # e (r/2e)^r / r!, in log space for large r
    if r == 0:
        return math.e
    return math.exp(1.0 + r * (math.log(r) - 1.0 - math.log(2.0)) - _log_factorial(r))


def _t2_iib_bound(r: int) -> float:
    # (e/3)(r/e)^r / r! + 1
    if r == 0:
        return math.e / 3.0 + 1.0
    return math.exp(math.log(math.e / 3.0) + r * (math.log(r) - 1.0) - _log_factorial(r)) + 1.0


def _t2_iib_bound_printed(r: int) -> float:
    # (e/3)(r/e)^r / r! + 1/r!  (as printed; reported informationally)
    lf = _log_factorial(r)
    main = math.exp(math.log(math.e / 3.0) + (r * (math.log(r) - 1.0) if r else 0.0) - lf)
    return main + math.exp(-lf)


def berndt_bound(r: int) -> float:
    """4/(r pi^r) for odd r >= 1, 2/(r pi^r) for even r >= 2."""
    if r < 1:
        raise ValueError("stated for r >= 1")
    c = 4.0 if r % 2 else 2.0
    return c * math.exp(-r * math.log(math.pi)) / r


def certify_T2_Ib(r_max: int = 20, alpha_grid=DEFAULT_ALPHA_GRID) -> BoundReport:
    """Stieltjes-coefficient deviation against e (r/2e)^r / r!.

    The measured quantity is the Laurent-normalized deviation
    |gamma_r(alpha) - log^r alpha / alpha| / r!; the Berndt baseline is
    attached to every case as an informational column.
    """
    if r_max > 20:
        raise ValueError("grid is capped at r <= 20")
    cases = []
    info = []
    for alpha in alpha_grid:
        gam = stieltjes_gamma_all(r_max, alpha)
        la = math.log(alpha)
        for r in range(1, r_max + 1):
            measured = abs(gam[r].value.real - la**r / alpha) / math.factorial(r)
            bound = _t2_ib_bound(r)
            cases.append(
                BoundCase({"r": r, "alpha": alpha, "berndt": berndt_bound(r)}, measured, bound)
            )
            # measured deviation never exceeds the Berndt baseline either
            info.append(BoundCase({"r": r, "alpha": alpha, "kind": "berndt"}, measured, berndt_bound(r)))
    return BoundReport("T2_Ib", tuple(cases), tuple(info))


def certify_T2_IIb(r_max: int = 20, alpha_grid=DEFAULT_ALPHA_GRID) -> BoundReport:
    """s = 0 Taylor-coefficient deviation against (e/3)(r/e)^r/r! + 1.

    The printed form with additive 1/r! is attached informationally; it
    fails for r >= 2, which the report records without asserting.
    """
    if r_max > 20:
        raise ValueError("grid is capped at r <= 20")
    cases = []
    info = []
    for alpha in alpha_grid:
        bet = beta_coefficient_all(r_max, alpha)
        la = math.log(alpha)
        for r in range(1, r_max + 1):
            main = (-1.0) ** r * la**r / math.factorial(r)
            measured = abs(bet[r].value.real - main)
            cases.append(BoundCase({"r": r, "alpha": alpha}, measured, _t2_iib_bound(r)))
            info.append(
                BoundCase({"r": r, "alpha": alpha, "kind": "printed"}, measured, _t2_iib_bound_printed(r))
            )
    return BoundReport("T2_IIb", tuple(cases), tuple(info))


def certify_T2_IIIb(
    r_max: int = 10,
    lam_grid=(0.1, 0.5, 0.9),
    alpha_grid=(0.25, 1.0),
) -> BoundReport:
    """Lerch Taylor-coefficient deviation with the guard-constant bound."""
    cases = []
    for lam in lam_grid:
        for alpha in alpha_grid:
            la = math.log(alpha)
            for r in range(1, r_max + 1):
                coef = lerch_taylor_at_1(r, lam, alpha).value
                main = (-1.0) ** r * la**r / (math.factorial(r) * alpha)
                measured = abs(coef - main)
                shape = math.exp(r * (math.log(r) - 1.0) - _log_factorial(r))
                bound = _GUARD * shape * (1.0 / lam + 1.0 / (1.0 - lam))
                cases.append(BoundCase({"r": r, "lam": lam, "alpha": alpha}, measured, bound))
    return BoundReport("T2_IIIb", tuple(cases))


def certify_T3(q_set=DEFAULT_Q_SET, r_max: int = 8) -> BoundReport:
    """Truncated character sums at s = 1 and s = 0 against the exact routes.

    For every primitive character mod q in q_set and 1 <= r <= r_max:

      s=1: |trunc(X = q e^{r/2}) - exact| <= 10 q^{-1/2} e^{-r/2} log q (log q + r/2)^r
      s=0: |trunc(X = q e^{r-1}) - exact| <= 10 q^{1/2} log q (log q + r)^r
      size: |L^{(r)}(1, chi)| <= 10 (log q + r/2)^{r+1}

    Case parameters carry the observed implied constant measured/shape.
    The order cap and the largest truncated sum, q e^{r_max - 1} terms at
    s = 0, are checked before any work.
    """
    _check_order(r_max)
    _check_work(max(q_set, default=1) * math.exp(r_max - 1))
    cases = []
    for q in q_set:
        prim = [chi for chi in enumerate_characters(q) if chi.is_primitive and not chi.is_principal]
        if not prim:
            raise ValueError(f"q = {q} has no primitive characters")
        lq = math.log(q)
        # one pass per point serves every character and order
        rs = range(1, r_max + 1)
        exact1_all, exact0_all = (_l_values(s, prim, rs, X=4.0 * q) for s in (1.0 + 0.0j, 0.0j))
        for i, chi in enumerate(prim):
            for r in rs:
                exact1 = exact1_all[r - 1][i]
                trunc1 = l_deriv_at_1_truncated(r, chi)
                meas1 = abs(trunc1.value - exact1.value)
                shape1 = q**-0.5 * math.exp(-r / 2.0) * lq * (lq + r / 2.0) ** r
                cases.append(
                    BoundCase(
                        {"q": q, "label": chi.label, "r": r, "point": 1, "observed": meas1 / shape1},
                        meas1,
                        _GUARD * shape1,
                    )
                )
                exact0 = exact0_all[r - 1][i]
                trunc0 = l_deriv_at_0_truncated(r, chi)
                meas0 = abs(trunc0.value - exact0.value)
                shape0 = math.sqrt(q) * lq * (lq + r) ** r
                cases.append(
                    BoundCase(
                        {"q": q, "label": chi.label, "r": r, "point": 0, "observed": meas0 / shape0},
                        meas0,
                        _GUARD * shape0,
                    )
                )
                cases.append(
                    BoundCase(
                        {"q": q, "label": chi.label, "r": r, "point": "size"},
                        abs(exact1.value),
                        _GUARD * (lq + r / 2.0) ** (r + 1),
                    )
                )
    return BoundReport("T3", tuple(cases))


def ishikawa_compare(q: int, r_range=range(5, 21)) -> BoundReport:
    """Informational comparison of |L^{(r)}(1,chi)| against the published
    large-r estimate q^{r/log r - 1/2} exp(r log log r - r log log r/log r)
    and the (log q + r/2)^{r+1} shape with guard 10.  Nothing is asserted:
    the large-r estimate has an unspecified threshold."""
    prim = [chi for chi in enumerate_characters(q) if chi.is_primitive and not chi.is_principal]
    if not prim:
        raise ValueError(f"q = {q} has no primitive characters")
    chi = prim[0]
    info = []
    lq = math.log(q)
    orders = [r for r in r_range if r <= 12]  # the orders the exact route runs, in one pass
    exact = dict(zip(orders, (row[0] for row in _l_values(1.0 + 0.0j, [chi], orders, X=2.0 * q)))) if orders else {}
    for r in r_range:
        lr = math.log(r)
        llr = math.log(lr)
        ish = math.exp((r / lr - 0.5) * lq + r * llr - r * llr / lr)
        here = 10.0 * (lq + r / 2.0) ** (r + 1)
        measured = abs(exact[r].value) if r in exact else float("nan")
        info.append(
            BoundCase({"q": q, "r": r, "ishikawa": ish, "shape_bound": here}, measured, ish)
        )
    return BoundReport("Ishikawa_compare", (), tuple(info))


def certify_polya_vinogradov(q_min: int = 3, q_max: int = 50) -> BoundReport:
    """max_{x <= q} |sum_{a <= x} chi(a)| <= sqrt(q) log q for non-principal chi."""
    cases = []
    for q in range(q_min, q_max + 1):
        for chi in enumerate_characters(q):
            if chi.is_principal:
                continue
            worst = max(abs(partial_character_sum(chi, x)) for x in range(1, q + 1))
            cases.append(
                BoundCase({"q": q, "label": chi.label}, worst, math.sqrt(q) * math.log(q))
            )
    return BoundReport("PolyaVinogradov", tuple(cases))
