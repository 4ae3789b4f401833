"""Numerical library for Hurwitz, Lerch and Dirichlet-L zeta values,
their s-derivatives in the half-plane Re(s) > 0, expansion coefficients
at s = 1 and s = 0, and certification of their explicit error bounds.

Every evaluation carries a rigorous truncation bound alongside its
value.  The library computes each quantity through its split-sum
representations; the second, independent routes (limit definitions,
direct series, plain quadrature) live in the test suite's
tests/oracles.py, which plays them against the library.
"""

from .afe import afe_hurwitz, afe_l
from .bounds import (
    BoundCase,
    BoundReport,
    certify_polya_vinogradov,
    certify_T2_Ib,
    certify_T2_IIb,
    certify_T2_IIIb,
    certify_T3,
    ishikawa_compare,
)
from .characters import (
    DirichletCharacter,
    character,
    conductor,
    enumerate_characters,
    euler_phi,
    gauss_sum,
    partial_character_sum,
)
from .coefficients import (
    CoefficientEntry,
    CoefficientTable,
    beta_coefficient,
    coefficient_table,
    gamma_aq,
    l_deriv_at_0,
    l_deriv_at_0_all,
    l_deriv_at_0_truncated,
    l_deriv_at_1_exact,
    l_deriv_at_1_exact_all,
    l_deriv_at_1_truncated,
    lerch_taylor_at_1,
    reconstruct_series,
    stieltjes_gamma,
)
from .evaluate import (
    HurwitzArgs,
    LerchArgs,
    hurwitz_deriv,
    l_deriv,
    lerch_deriv,
    z_deriv,
)
from .sawtooth import EvalResult, psi, psi2

__version__ = "0.1.0"

__all__ = [
    "BoundCase",
    "BoundReport",
    "CoefficientEntry",
    "CoefficientTable",
    "DirichletCharacter",
    "EvalResult",
    "HurwitzArgs",
    "LerchArgs",
    "afe_hurwitz",
    "afe_l",
    "beta_coefficient",
    "certify_T2_IIIb",
    "certify_T2_IIb",
    "certify_T2_Ib",
    "certify_T3",
    "certify_polya_vinogradov",
    "character",
    "coefficient_table",
    "conductor",
    "enumerate_characters",
    "euler_phi",
    "gamma_aq",
    "gauss_sum",
    "hurwitz_deriv",
    "ishikawa_compare",
    "l_deriv",
    "l_deriv_at_0",
    "l_deriv_at_0_all",
    "l_deriv_at_0_truncated",
    "l_deriv_at_1_exact",
    "l_deriv_at_1_exact_all",
    "l_deriv_at_1_truncated",
    "lerch_deriv",
    "lerch_taylor_at_1",
    "partial_character_sum",
    "psi",
    "psi2",
    "reconstruct_series",
    "stieltjes_gamma",
    "z_deriv",
]
