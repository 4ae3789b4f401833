"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's own evaluation paths:
alternating-series acceleration for the classical constants, the
defining limits of the Stieltjes and progression constants (with
Euler-Maclaurin endpoint corrections or Richardson extrapolation), plain
Gauss-Legendre panel quadrature for the sawtooth tails, and partial-sum
cutoffs chosen from explicit tail estimates for the direct series.  The
one exception is convolution_coefficient, the right-hand side of the
progression identity, which combines the library's classical constants.
The Hurwitz, progression and L derivatives come from mpmath's Hurwitz
zeta derivatives, with the characters' exact phases.

periodic_bernoulli and psi_piecewise_integral are not oracles: they
expose the library's periodic-Bernoulli values and its piecewise-exact
march over a finite interval, which only the tests call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from zetalab.characters import factorize
from zetalab.coefficients import stieltjes_gamma_all
from zetalab import sawtooth
from zetalab.sawtooth import TWO_PI, _check_alpha, _check_work, _phi_bernoulli, power_log_tail_abs, psi

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


# ---------------------------------------------------------------------------
# limit definitions of the Stieltjes and progression constants
# ---------------------------------------------------------------------------


def limit_oracle_gamma(r: int, alpha: float, N: int) -> float:
    """Partial value of the defining limit at cutoff N (no corrections).

    Returns sum_{n=0}^{N} log^r(n+alpha)/(n+alpha) - log^{r+1}(N+alpha)/(r+1);
    convergence is O(log^r N / N), so callers extrapolate.
    """
    _check_alpha(alpha)
    if N < 10:
        raise ValueError("need N >= 10")
    total = 0.0
    chunk = 2_000_000
    for lo in range(0, N + 1, chunk):
        hi = min(lo + chunk, N + 1)
        w = np.arange(lo, hi, dtype=float) + alpha
        if r:
            total += float(np.sum(np.log(w) ** r / w))
        else:
            total += float(np.sum(1.0 / w))
    return total - math.log(N + alpha) ** (r + 1) / (r + 1)


def richardson_fit(values, shapes):
    """Solve value_j = L + sum_i c_i * shapes[j][i] for the limit L.

    values: sequence of partial values; shapes: per-value sequence of the
    assumed error shapes (one fewer than the number of values).
    """
    values = list(values)
    n = len(values)
    a = np.ones((n, n))
    for j, sh in enumerate(shapes):
        if len(sh) != n - 1:
            raise ValueError("need one shape fewer than values")
        a[j, 1:] = sh
    sol = np.linalg.solve(a, np.asarray(values, dtype=float))
    return float(sol[0])


def _endpoint_corrections(r: int, w: float, step: float) -> float:
    """Euler-Maclaurin boundary terms g(w)/2 + step g'(w)/12 - step^3 g'''(w)/720
    for g(w) = log^r w / w (the O(1/N) part of the defining limits)."""
    lw = math.log(w)

    def gk(k: int) -> float:
        # k-th derivative of u^{-1} log^r u, evaluated at w
        coeffs = [0.0] * (r + 1)
        coeffs[r] = 1.0
        for j in range(k):
            nxt = [0.0] * (r + 1)
            for i in range(r + 1):
                nxt[i] = (-1.0 - j) * coeffs[i]
                if i + 1 <= r:
                    nxt[i] += (i + 1) * coeffs[i + 1]
            coeffs = nxt
        return sum(c * lw**i for i, c in enumerate(coeffs)) * w ** (-1.0 - k)

    return gk(0) / 2.0 + step * gk(1) / 12.0 - step**3 * gk(3) / 720.0


def limit_gamma_extrapolated(r: int, alpha: float, N: int = 400_000) -> float:
    """Limit-definition value with Euler-Maclaurin endpoint corrections.

    Residual error is O(log^r N / N^5), far below the double-precision
    scale of the constants themselves for N >= 1e5.
    """
    raw = limit_oracle_gamma(r, alpha, N)
    return raw - _endpoint_corrections(r, N + alpha, 1.0)


def limit_oracle_gamma_aq(r: int, a: int, q: int, N: int) -> float:
    """Partial value of the progression limit at cutoff N (no corrections):
    sum_{n = a (mod q), n <= N} log^r n / n - log^{r+1} N / (q (r+1))."""
    if q < 1 or not 1 <= a <= q:
        raise ValueError("need 1 <= a <= q")
    if N < q:
        raise ValueError("need N >= q")
    total = 0.0
    pts = np.arange(a if a >= 1 else q, N + 1, q, dtype=float)
    pts = pts[pts >= 1.0]
    logs = np.log(pts)
    if r:
        total = float(np.sum(logs**r / pts))
    else:
        total = float(np.sum(1.0 / pts))
    return total - math.log(N) ** (r + 1) / (q * (r + 1))


def limit_gamma_aq_extrapolated(r: int, a: int, q: int, N: int = 400_000) -> float:
    """Progression limit with the cutoff snapped to n = a (mod q) and
    Euler-Maclaurin endpoint corrections (residual O(log^r N / N^5)).

    Snapping pins the sawtooth boundary term psi((N-a)/q) at its integer
    value, which plain shape-based extrapolation cannot follow.
    """
    ns = N - ((N - a) % q)
    raw = limit_oracle_gamma_aq(r, a, q, ns)
    return raw - _endpoint_corrections(r, float(ns), float(q))


def convolution_coefficient(n: int, q: int, alpha: float) -> float:
    """c_n(q, alpha) = sum_{j=0}^{n} gammaL_{n-j}(alpha) (-1)^j log^j q / j!,
    with gammaL the Laurent coefficients (-1)^m gamma_m(alpha)/m!."""
    gam = stieltjes_gamma_all(n, alpha)
    lq = math.log(q)
    acc = 0.0
    for j in range(n + 1):
        m = n - j
        laurent = (-1.0) ** m * gam[m].value.real / math.factorial(m)
        acc += laurent * (-1.0) ** j * lq**j / math.factorial(j)
    return acc


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def z_oracle(s: complex, a: float, q: int, r: int, dps: int = 30):
    """Z^{(r)}(s, a, q) = d^r/ds^r q^{-s} zeta(s, a/q) as an mpmath number,
    by Leibniz over mpmath's Hurwitz derivatives; q = 1 is zeta^{(r)}(s, a)."""
    with mp.workdps(dps):
        sm, lq = mp.mpc(s.real, s.imag), mp.log(q)
        alpha = mp.mpf(a) / q
        return q**-sm * mp.fsum(math.comb(r, l) * (-lq) ** (r - l) * mp.zeta(sm, alpha, l) for l in range(r + 1))


@lru_cache(maxsize=None)  # one entry per (order, shift) of the suite's grids
def stieltjes_oracle(r: int, alpha: float, dps: int = 30):
    """gamma_r(alpha) as an mpmath number: log^r(alpha)/alpha + gamma_r(alpha + 1),
    the second term by mpmath.stieltjes, whose quadrature is quick on [1, 2]."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        return mp.log(a) ** r / a + mp.stieltjes(r, a + 1)


def gamma_aq_oracle(r: int, a: int, q: int, dps: int = 30):
    """gamma_r(a, q) by the convolution over gamma_{r-l}(a/q), in mpmath."""
    with mp.workdps(dps):
        lq = mp.log(q)
        conv = mp.fsum(math.comb(r, l) * lq**l * stieltjes_oracle(r - l, a / q, dps) for l in range(r + 1))
        return (conv - lq ** (r + 1) / (r + 1)) / q


def l_at_one_oracle(chi, r: int, dps: int = 30):
    """L^{(r)}(1, chi) = (-1)^r sum_a chi(a) gamma_r(a, q), chi(a) = e^{2 pi i k/E}
    from the character's exact exponent k."""
    q, e = chi.modulus, chi.group_exponent
    with mp.workdps(dps):
        return (-1) ** r * mp.fsum(
            mp.expjpi(mp.mpf(2 * k) / e) * gamma_aq_oracle(r, a, q, dps) for a, k in enumerate(chi.value_logs) if k >= 0
        )


def l_oracle(s: complex, chi, r: int, dps: int = 30):
    """L^{(r)}(s, chi) = sum_a chi(a) Z^{(r)}(s, a, q), chi(a) = e^{2 pi i k/E}
    from the character's exact exponent k."""
    q, e = chi.modulus, chi.group_exponent
    with mp.workdps(dps):
        return mp.fsum(
            mp.expjpi(mp.mpf(2 * k) / e) * z_oracle(s, a, q, r, dps) for a, k in enumerate(chi.value_logs) if k >= 0
        )


def periodic_bernoulli(m: int, v: float) -> float:
    """B_m({v})/m!; for m = 1 uses the sawtooth convention psi(v)."""
    if m == 1:
        return psi(v)
    return _phi_bernoulli(m, v) / TWO_PI**m


def psi_piecewise_integral(
    lo: float, hi: float, alpha: float = 1.0, exponent: complex = 0.0, log_power: int = 0
) -> complex:
    """Finite int_lo^hi psi(u-alpha) u^exponent log^log_power u du by the
    library's piecewise-exact march, charged to its work budget first."""
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    _check_work(hi - lo)
    sums = [np.zeros((log_power + 1, 1)) for _ in range(3)]
    sawtooth._march(sums, lo, hi, np.array([alpha], dtype=float), complex(exponent), log_power)
    return complex(sums[0][log_power, 0], sums[1][log_power, 0])
