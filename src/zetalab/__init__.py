"""Numerical library for Hurwitz, Lerch and Dirichlet-L zeta values,
their s-derivatives in the half-plane Re(s) > 0, expansion coefficients
at s = 1 and s = 0, and certification of their explicit error bounds.

Every evaluation carries a rigorous truncation bound alongside its
value, and each quantity is reachable by at least two independent
routes (split-sum representations, limit definitions, direct series),
which the test suite plays against each other.
"""

from .afe import afe_hurwitz, afe_l, gamma_factor_derivs
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
    convolution_coefficient,
    gamma_aq,
    l_deriv_at_0,
    l_deriv_at_0_all,
    l_deriv_at_0_truncated,
    l_deriv_at_1_exact,
    l_deriv_at_1_exact_all,
    l_deriv_at_1_truncated,
    lerch_taylor_at_1,
    limit_gamma_aq_extrapolated,
    limit_gamma_extrapolated,
    limit_oracle_gamma,
    limit_oracle_gamma_aq,
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
from .gammafn import complex_gamma, digamma, trigamma
from .sawtooth import (
    EvalResult,
    TailIntegralSpec,
    oscillatory_tail,
    psi,
    psi2,
    sawtooth_tail,
)

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
    "TailIntegralSpec",
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
    "complex_gamma",
    "conductor",
    "convolution_coefficient",
    "digamma",
    "enumerate_characters",
    "euler_phi",
    "gamma_aq",
    "gamma_factor_derivs",
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
    "limit_gamma_aq_extrapolated",
    "limit_gamma_extrapolated",
    "limit_oracle_gamma",
    "limit_oracle_gamma_aq",
    "oscillatory_tail",
    "partial_character_sum",
    "psi",
    "psi2",
    "reconstruct_series",
    "sawtooth_tail",
    "stieltjes_gamma",
    "trigamma",
    "z_deriv",
]
