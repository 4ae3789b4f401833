"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's own evaluation paths:
alternating-series acceleration for the classical constants, plain
Gauss-Legendre panel quadrature for the sawtooth tails, and partial-sum
cutoffs chosen from explicit tail estimates for the direct series.
"""

from __future__ import annotations

import math

import numpy as np

from zetalab.sawtooth import _check_alpha, power_log_tail_abs

GL64_NODES, GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def alternating_sum(term, n: int = 40):
    """sum_{k>=0} (-1)^k term(k) by Chebyshev-weight acceleration.

    Converges like 5.83^{-n} for totally monotone terms, which covers
    every alternating series the suite needs (eta, Leibniz, log 2, ...).
    """
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s = s + c * term(k)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def zeta_eta(s: complex) -> complex:
    """zeta(s) through the alternating eta series, valid for Re(s) > 0."""
    val = alternating_sum(lambda k: (k + 1.0) ** (-s) if s.imag == 0 else np.exp(-s * np.log(k + 1.0)))
    return val / (1.0 - 2.0 ** (1.0 - s))


def leibniz_pi_4() -> float:
    return alternating_sum(lambda k: 1.0 / (2 * k + 1))


def catalan_constant() -> float:
    return alternating_sum(lambda k: 1.0 / (2 * k + 1) ** 2)


def log2_series() -> float:
    return alternating_sum(lambda k: 1.0 / (k + 1))


def euler_gamma_limit(n: int = 2_000_000) -> float:
    """gamma from the harmonic-sum limit with the 1/(2N) - 1/(12N^2) correction."""
    k = np.arange(1, n + 1, dtype=float)
    h = float(np.sum(1.0 / k))
    return h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n * n)


def quad_psi_tail(x: float, alpha: float, b: complex, r: int, u_cut: float = 3000.0):
    """(value, tail_bound) for int_x^inf psi(u-alpha) u^b log^r u du.

    Panel quadrature (64-node Gauss-Legendre per sawtooth interval) up to
    u_cut, plus the crude second-antiderivative bound
    (1/12)(|g| + |b| E + r E') for the discarded part.
    """
    pts = [x]
    m = math.floor(x - alpha) + 1
    v = m + alpha
    while v < u_cut:
        if v > x + 1e-12:
            pts.append(v)
        m += 1
        v = m + alpha
    pts.append(u_cut)
    pts = np.asarray(pts)
    lo, hi = pts[:-1], pts[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = mid[:, None] + half[:, None] * GL64_NODES[None, :]
    saw = u - alpha - np.floor(mid - alpha)[:, None] - 0.5
    f = saw * np.exp(complex(b) * np.log(u)) * np.log(u) ** r
    val = complex(np.sum(half * (f @ GL64_WEIGHTS)))
    br = complex(b).real
    g_cut = u_cut**br * math.log(u_cut) ** r
    tail = (abs(g_cut) + abs(b) * power_log_tail_abs(br - 1.0, r, u_cut)) / 12.0
    if r:
        tail += r * power_log_tail_abs(br - 1.0, r - 1, u_cut) / 12.0
    return val, tail


def quad_psi_osc_tail(nu: float, alpha: float, b: complex, r: int, x: float, u_cut: float = 4000.0):
    """(value, tail_scale) for the sawtooth-weighted oscillatory tail.

    The discarded part is only estimated at the g(u_cut) scale (the
    oscillation makes a clean elementary bound awkward); callers treat
    tail_scale as the oracle's accuracy.
    """
    pts = [x]
    m = math.floor(x - alpha) + 1
    v = m + alpha
    while v < u_cut:
        if v > x + 1e-12:
            pts.append(v)
        m += 1
        v = m + alpha
    pts.append(u_cut)
    pts = np.asarray(pts)
    lo, hi = pts[:-1], pts[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = mid[:, None] + half[:, None] * GL64_NODES[None, :]
    saw = u - alpha - np.floor(mid - alpha)[:, None] - 0.5
    f = saw * np.exp(2j * np.pi * nu * (u - alpha)) * np.exp(complex(b) * np.log(u)) * np.log(u) ** r
    val = complex(np.sum(half * (f @ GL64_WEIGHTS)))
    br = complex(b).real
    scale = u_cut**br * math.log(u_cut) ** r / (2.0 * math.pi * min(nu, 1.0 - nu))
    return val, scale


def hurwitz_series_cutoff(sigma: float, r: int, tol: float) -> int:
    """Smallest N (capped at 8e6) with int_N^inf log^r u / u^sigma du <= tol."""
    n = 1000
    while n < 8_000_000 and power_log_tail_abs(-sigma, r, float(n)) > tol:
        n *= 2
    return min(n, 8_000_000)


def oscillating_series_cutoff(sigma: float, r: int, lam: float, tol: float) -> int:
    """Cutoff for the e^{2 pi i lam n} series via the Abel-summation bound
    2 a_N / |1 - e^{2 pi i lam}|."""
    gap = abs(1.0 - np.exp(2j * np.pi * lam))
    n = 1000
    while n < 8_000_000 and 2.0 * math.log(n) ** r * n**-sigma / gap > tol:
        n *= 2
    return min(n, 8_000_000)


def direct_series_oracle(s: complex, alpha: float, lam: float, r: int, N: int) -> complex:
    """(-1)^r sum_{n=0}^{N} e^{2 pi i lam n} (n+alpha)^{-s} log^r(n+alpha).

    Plain partial sum for Re(s) > 1; the caller chooses N for the target
    accuracy.  lam = 0 gives the Hurwitz case.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("the direct series needs Re(s) > 1")
    _check_alpha(alpha)
    if N < 0:
        raise ValueError("N must be nonnegative")
    total = 0.0 + 0.0j
    chunk = 1_000_000
    for lo in range(0, N + 1, chunk):
        hi = min(lo + chunk, N + 1)
        n = np.arange(lo, hi, dtype=float)
        logs = np.log(n + alpha)
        terms = np.exp(-s * logs)
        if r:
            terms = terms * logs**r
        if lam:
            terms = terms * np.exp(2j * np.pi * lam * n)
        total += complex(terms.sum())
    return (-1.0) ** r * total
