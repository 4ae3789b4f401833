"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's own evaluation paths:
alternating-series acceleration for the classical constants, the
defining limits of the Stieltjes and progression constants (with
Euler-Maclaurin endpoint corrections or Richardson extrapolation), plain
Gauss-Legendre panel quadrature for the sawtooth tails, and partial-sum
cutoffs chosen from explicit tail estimates for the direct series.  The
one exception is convolution_coefficient, the right-hand side of the
progression identity, which combines the library's classical constants.
The Hurwitz, progression, L and rational-lambda Lerch derivatives come
from mpmath's Hurwitz zeta derivatives, with the characters' exact phases;
the shifted Fourier sums of the weighted far tail from mpmath's Hurwitz
zeta values at a rational point, and the plain far tail from its
derivatives' own recursion and exact Bernoulli polynomials.

periodic_bernoulli and psi_piecewise_integral are not oracles: they
expose the scalar periodic-Bernoulli series (phi_bernoulli, Horner on
B_m/m! or the Fourier series, one order at one point) and
the library's interval integral over a finite interval, which only the
tests call.  finite_power_sum is the one-array finite sum that the
progression-sum kernel replaced, kept as a reference, its terms formed as
the kernel forms them (kernel_terms); power_log_tail_abs is the closed form
of the absolute tail integral, one log power at a time, that the
recurrence of sawtooth.power_log_tails replaced, kept as its reference and
as the oracles' own tail estimate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from zetalab.characters import factorize
from zetalab.coefficients import stieltjes_gamma_all
from zetalab import sawtooth
from zetalab.sawtooth import TWO_PI, _check_alpha, _check_work, psi

GL64_NODES, GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def power_log_tail_abs(c: float, j: int, u: float) -> float:
    """int_u^inf w^c log^j w dw for real c < -1, u > 1, from its closed form
    u^{-lam} sum_{i <= j} j!/i! log^i u / lam^{j-i+1}, lam = -(c + 1), one
    term at a time: the reference for sawtooth.power_log_tails."""
    if c >= -1.0:
        raise ValueError("absolute tail integral needs exponent < -1")
    lam = -(c + 1.0)
    ll = math.log(u)
    acc = 0.0
    fact = math.factorial(j)
    for i in range(j + 1):
        acc += (fact / math.factorial(i)) * ll**i / lam ** (j - i + 1)
    return math.exp(-lam * ll) * acc


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


@lru_cache(maxsize=None)  # one entry per (point, shift, order) of the suite's grids
def _hurwitz_deriv_oracle(s: complex, j: int, d: int, alpha: float, k: int, dps: int):
    """zeta^{(k)}(s, (j + alpha)/d) with the shift exact; at s = 1 the regular
    part (-1)^k gamma_k, by mpmath.stieltjes on [1, 2] after the first term."""
    with mp.workdps(dps):
        beta = (j + mp.mpf(alpha)) / d
        if s == 1:
            return (-1) ** k * (mp.log(beta) ** k / beta + mp.stieltjes(k, beta + 1))
        return mp.zeta(mp.mpc(s.real, s.imag), beta, k)


def lerch_oracle(s: complex, lam: Fraction, alpha: float, r: int, dps: int = 30, d: int | None = None):
    """phi^{(r)}(lam, alpha, s) for rational lam = p/d in (0, 1) as an mpmath
    number: sum_j e^{2 pi i p j/d} d^{-s} zeta(s, (j + alpha)/d), differentiated
    by Leibniz.  At s = 1 the poles cancel (sum_j e^{2 pi i p j/d} = 0), so the
    regular parts stand in.  mpmath.lerchphi is not used: at 30 digits it is
    off by 2e-6 at t = 100.  d may be any multiple of lam's denominator (by
    default that denominator): every lam of one d shares its Hurwitz values."""
    d = d or lam.denominator
    p = lam.numerator * d // lam.denominator
    assert p == lam * d, (lam, d)
    with mp.workdps(dps):
        sm, ld = mp.mpc(s.real, s.imag), mp.log(d)
        return d**-sm * mp.fsum(
            mp.expjpi(mp.mpf(2 * p * j) / d)
            * mp.fsum(math.comb(r, k) * (-ld) ** (r - k) * _hurwitz_deriv_oracle(s, j, d, alpha, k, dps) for k in range(r + 1))
            for j in range(d)
        )


def _afe_dual_terms(s, alpha, x, n: int):
    """The dual terms of index n and -n of the AFE (zetalab.afe) at order 0,
    as they enter its sum, at the working precision: for m = n, -n, the
    gamma factor G_m = e^{2 pi i m alpha} Gamma(1-s)(2 pi i m)^{s-1} (mp.gamma,
    log(2 pi i m) = log(2 pi |m|) + i (pi/2) sign(m)), plus the boundary mode
    x^{-s} e^{2 pi i m (x-alpha)}/(2 pi i m), less the segment int_0^x e^{2 pi
    i m (u-alpha)} u^{-s} du and the tail (e^{-2 pi i m alpha}/(2 pi i m))
    int_x^inf e^{2 pi i m u} s u^{-s-1} du.  The segment is taken through u =
    e^{-v}, int_{-log x}^inf e^{(s-1) v} e^{2 pi i m (e^{-v} - alpha)} dv, by
    mp.quadosc at the frequency t: a plain quadrature from u = 0 misses the
    oscillation of u^{-it} in log u (it reads 1.7e-9 at s = 0.3+25i)."""
    total = 0
    for m in (n, -n):
        w = 2 * mp.pi * m
        gamma_factor = mp.expj(w * alpha) * mp.gamma(1 - s) * mp.exp((s - 1) * (mp.log(abs(w)) + mp.j * mp.pi / 2 * mp.sign(m)))
        mode = x**-s * mp.expj(w * (x - alpha)) / (mp.j * w)
        segment = mp.quadosc(lambda v: mp.exp((s - 1) * v) * mp.expj(w * (mp.exp(-v) - alpha)), [-mp.log(x), mp.inf], omega=abs(s.imag) or 1)
        tail = mp.expj(-w * alpha) / (mp.j * w) * mp.quadosc(lambda u: mp.expj(w * u) * s * u ** (-s - 1), [x, mp.inf], omega=abs(w))
        total += gamma_factor + mode - segment - tail
    return total


def afe_dual_bracket(s: complex, alpha: float, x: float, n: int, r: int = 0, dps: int = 15):
    """d^r/ds^r of the dual terms of +-n of the AFE at the split x (_afe_dual_terms),
    for 0 < Re(s) < 1: 0 in exact arithmetic, which is why the AFE is its Z
    core.  r = 0 at dps digits; r >= 1 by mp.diff, which evaluates at (r + 1)
    dps digits with the step 10^(-dps/2): at r = 1 its error is about
    10^(-3 dps/2), the evaluation's 10^(-2 dps) over the step."""
    with mp.workdps(dps):
        s, alpha, x = mp.mpc(s.real, s.imag), mp.mpf(alpha), mp.mpf(x)
        if not r:
            return +_afe_dual_terms(s, alpha, x, n)
        return +mp.diff(lambda z: _afe_dual_terms(z, alpha, x, n), s, r, h=mp.mpf(10) ** -(dps // 2), addprec=0)


def power_log_segment_oracle(beta: complex, r: int, u1: float, u2: float, dps: int = 50):
    """int_{u1}^{u2} u^{beta - 1} log^r u du to dps digits, for the binary64
    endpoints as given: with t = log u, (t2^{r+1} - t1^{r+1})/(r + 1) at beta =
    0, else the antiderivative e^{beta t} sum_k (-1)^k r!/(r-k)! t^{r-k} /
    beta^{k+1}, whose terms cancel, so it is worked at dps + 150 digits."""
    with mp.workdps(dps + 150):
        a, b = mp.log(mp.mpf(u1)), mp.log(mp.mpf(u2))
        if beta == 0:
            value = (b ** (r + 1) - a ** (r + 1)) / (r + 1)
        else:
            z = mp.mpc(beta)

            def anti(t):
                terms = (mp.mpf(-1) ** k * mp.factorial(r) / mp.factorial(r - k) * t ** (r - k) / z ** (k + 1) for k in range(r + 1))
                return mp.exp(z * t) * mp.fsum(terms)

            value = anti(b) - anti(a)
    with mp.workdps(dps):
        return +value


def psi_march_oracle(lo: float, hi: float, alpha: float, b: complex, m: int, dps: int = 30):
    """int_lo^hi psi(u - alpha) u^b log^m u du by mpmath quadrature on each
    piece between the exact kinks k + alpha (alpha as given)."""
    with mp.workdps(dps):
        a, lo_, hi_ = mp.mpf(alpha), mp.mpf(lo), mp.mpf(hi)
        pts = [lo_] + [k + a for k in range(math.floor(lo - alpha), math.ceil(hi - alpha) + 1) if lo_ < k + a < hi_] + [hi_]
        total = 0
        for u1, u2 in zip(pts, pts[1:]):
            c = a + mp.floor((u1 + u2) / 2 - a) + mp.mpf(1) / 2
            total += mp.quad(lambda u: (u - c) * u ** mp.mpc(b) * mp.log(u) ** m, [u1, u2])
        return total


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(m: int) -> tuple[float, ...]:
    """Coefficients of B_m(x)/m!, highest degree first, from mpmath's exact
    Bernoulli numbers."""
    return tuple(float(math.comb(m, k) * Fraction(*map(int, mp.bernfrac(k))) / math.factorial(m)) for k in range(m + 1))


def phi_bernoulli(m: int, v: float) -> float:
    """(2 pi)^m B_m({v})/m! = -sum_{|n|>=1} e^{2 pi i n v}/(i n)^m, one order
    at one point: Horner on B_m/m! for m <= 12, else the Fourier series to the
    first n with n^{-m} < 1e-20 or n > 64."""
    if m <= 12:
        f = v - math.floor(v)
        acc = 0.0
        for c in _bernoulli_poly_coeffs(m):
            acc = acc * f + c
        return acc * TWO_PI**m
    acc = 0.0
    n = 1
    phase = -0.5 * math.pi * m  # i^{-m} = e^{-i pi m / 2}
    while True:
        acc -= 2.0 * math.cos(TWO_PI * n * v + phase) / n**m
        n += 1
        if n ** (-m) < 1e-20 or n > 64:
            break
    return acc


def shift_sum_oracle(K: int, v: Fraction, nu: float, dps: int = 40) -> list:
    """Psi_k(v, nu) = sum_{|n|>=1} e^{2 pi i (n+nu) v}/((2 pi i n)(2 pi i
    (n+nu))^k), k = 1..K, as mpmath numbers, for a rational v = p/q that is
    not an integer: by partial fractions, 1/(n (n+nu)^k) = nu^{-k}/n -
    sum_{l<=k} nu^{-(k-l+1)}/(n+nu)^l, and with z = e^{2 pi i v}, z^q = 1,
    sum_{n>=1} z^n/n = -log(1 - z) and sum_{n>=1} z^n/(n+nu)^l = q^{-l}
    sum_{a=1..q} z^a zeta(l, (a+nu)/q) (for l = 1, -digamma in place of
    zeta: sum_a z^a = 0 cancels the divergent part); nu -> -nu for n < 0."""
    with mp.workdps(dps):
        nu, q = mp.mpf(nu), v.denominator

        def side(z, w):  # sum_{n>=1} z^n/n and sum_{n>=1} z^n/(n+w)^l, l = 1..K
            zs = [z**a for a in range(1, q + 1)]
            sums = [mp.fsum(za * -mp.digamma((a + w) / q) for a, za in enumerate(zs, 1)) / q]
            sums += [mp.fsum(za * mp.zeta(l, (a + w) / q) for a, za in enumerate(zs, 1)) / mp.mpf(q) ** l for l in range(2, K + 1)]
            return -mp.log(1 - z), sums

        vv = mp.mpf(v.numerator) / q
        (lp, sp), (lm, sm) = side(mp.expjpi(2 * vv), nu), side(mp.expjpi(-2 * vv), -nu)
        out = []
        for k in range(1, K + 1):
            plus = lp / nu**k - mp.fsum(sp[l - 1] / nu ** (k - l + 1) for l in range(1, k + 1))
            minus = lm / (-nu) ** k - mp.fsum(sm[l - 1] / (-nu) ** (k - l + 1) for l in range(1, k + 1))
            out.append(mp.expjpi(2 * nu * vv) * (plus + (-1) ** (k + 1) * minus) / (2j * mp.pi) ** (k + 1))
        return out


def far_tail_oracle(b: complex, rmax: int, u0: float, alpha: float, dps: int = 60) -> list:
    """The plain far tail sum_k (-1)^{k+1} B_{k+2}({u0 - alpha})/(k+2)!
    g_r^(k)(u0), k = 0..12, g_r = u^b log^r u, r = 0..rmax, as mpmath
    numbers: the periodic Bernoulli values exact at the exact u0 - alpha,
    the derivatives from the coefficients' own recursion c[k + 1, i] = (b -
    k) c[k, i] + (i + 1) c[k, i + 1], c[0] = (0, ..., 0, 1)."""
    with mp.workdps(dps):
        bb, x = mp.mpc(b.real, b.imag), mp.mpf(u0)
        v, ll = x - mp.mpf(alpha), mp.log(x)
        f = v - mp.floor(v)
        coeff = [(-1) ** (k + 1) * mp.bernpoly(k + 2, f) / mp.factorial(k + 2) for k in range(13)]
        out = []
        for r in range(rmax + 1):
            c, acc = [mp.mpc(0)] * r + [mp.mpc(1)], 0
            for k in range(13):
                acc += coeff[k] * mp.power(x, bb - k) * mp.fsum(c[i] * ll**i for i in range(r + 1))
                c = [(bb - k) * c[i] + ((i + 1) * c[i + 1] if i < r else 0) for i in range(r + 1)]
            out.append(acc)
        return out


def periodic_bernoulli(m: int, v: float) -> float:
    """B_m({v})/m!; for m = 1 uses the sawtooth convention psi(v)."""
    if m == 1:
        return psi(v)
    return phi_bernoulli(m, v) / TWO_PI**m


def psi_piecewise_integral(
    lo: float, hi: float, alpha: float = 1.0, exponent: complex = 0.0, log_power: int = 0
) -> complex:
    """Finite int_lo^hi psi(u-alpha) u^exponent log^log_power u du by the
    library's interval integral (Euler-Maclaurin over the kinks), charged to
    its work budget first."""
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    _check_work(interval=hi - lo)
    sums = [np.zeros((log_power + 1, 1), dtype=complex), np.zeros((log_power + 1, 1))]
    sawtooth._psi_interval(sums, lo, hi, np.array([alpha], dtype=float), complex(exponent), log_power)
    return complex(sums[0][log_power, 0])


def kernel_terms(logs: np.ndarray, s: complex, r: int, phase=None) -> np.ndarray:
    """p^{-s} (-log p)^r from log p, times the phases if given, each term as
    the finite-sum kernel forms it: p^{-s} real at real s, times the phase,
    then (-log p)^r, for r > 2 as |log p|^r with the sign of -log p for odd r."""
    terms = np.exp(-s * logs) if complex(s).imag else np.exp(-complex(s).real * logs)
    terms = terms if phase is None else terms * phase
    if r > 2:
        power = np.abs(logs) ** r
        return terms * (np.copysign(power, -logs) if r % 2 else power)
    return terms * ((-logs) ** 2 if r == 2 else -logs) if r else terms


def finite_power_sum(points: np.ndarray, s: complex, r: int) -> complex:
    """sum p^{-s} (-log p)^r over the given points, as one numpy sum."""
    if points.size == 0:
        return 0.0 + 0.0j
    return complex(kernel_terms(np.log(points), s, r).sum())


def psi_tail_oracle(x: float, alpha: float, b: complex, m: int, dps: int = 40):
    """int_x^inf psi(u - alpha) u^b log^m u du from the Hurwitz zeta function:
    by parts against dpsi = du - sum_n delta(u - alpha - n), the tail at m = 0
    is T(b) = [zeta(-b-1, alpha + N) + x^{b+2}/(b+2)]/(b+1) - psi(x - alpha)
    x^{b+1}/(b+1), N = floor(x - alpha) + 1, and d^m/db^m T(b) at m >= 1
    (mpmath's numerical derivative), with x and alpha taken exactly."""
    with mp.workdps(dps):
        x, alpha = mp.mpf(x), mp.mpf(alpha)
        n = mp.floor(x - alpha)
        psi_x = x - alpha - n - mp.mpf(0.5)
        tail = lambda c: (mp.zeta(-c - 1, alpha + n + 1) + x ** (c + 2) / (c + 2)) / (c + 1) - psi_x * x ** (c + 1) / (c + 1)
        return tail(mp.mpc(b)) if m == 0 else mp.diff(tail, mp.mpc(b), m)
