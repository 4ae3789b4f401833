"""Independent reference values for the benchmark's requests.

Every value is computed with mpmath at 30 significant digits from the
request's argv alone; nothing here imports zetalab.

    hurwitz   zeta^{(r)}(s, alpha) = mpmath.zeta(s, alpha, r)
    z         q^{-s} zeta(s, a/q), differentiated by Leibniz
    l         sum_a chi(a) q^{-s} zeta(s, a/q); at s = 1 the pole terms
              cancel and the Stieltjes constants give the regular parts
    lerch     for lambda = p/d,  sum_j e^{2 pi i p j/d} d^{-s} zeta(s, (j+alpha)/d)
              (mpmath.lerchphi is not used: it is not accurate enough at large t)
    coeff     Stieltjes-constant routes (mpmath.stieltjes), zeta^{(k)}(0, .) at s = 0

Characters mod q are rebuilt here from the documented labelling: the
unit group is split over ascending prime powers (smallest primitive
root mod p, lifted to p^e; <-1> x <5> for 2^e, e >= 3; CRT lifts that
are 1 modulo the other factors), and a label is the mixed-radix number
of the exponent vector with the first generator most significant.

`python3 perfbench/oracle.py` fills perfbench/oracle_values.json for the
whole request pool of perfbench/workloads.py, so that no run waits on
mpmath.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

import mpmath

from workloads import VALUES_FILE, WORKLOADS, load_values, pool

DPS = 30


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _smallest_primitive_root(p: int) -> int:
    primes = [f for f, _ in factorize(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in primes))


def unit_group(q: int) -> list[tuple[int, int]]:
    """(generator, order) pairs of (Z/qZ)* in labelling order."""
    gens = []
    for p, e in factorize(q):
        pk = p**e
        rest = q // pk
        inv = pow(pk, -1, rest) if rest > 1 else 0

        def lift(x: int) -> int:
            return (x + pk * ((1 - x) * inv % rest)) % q if rest > 1 else x % q

        if p == 2:
            if e == 2:
                gens.append((lift(3), 2))
            elif e >= 3:
                gens.append((lift(pk - 1), 2))
                gens.append((lift(5), pk // 4))
        else:
            g = _smallest_primitive_root(p)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            gens.append((lift(g), (p - 1) * p ** (e - 1)))
    return gens


def character_phases(q: int, label: int) -> dict[int, Fraction]:
    """{a: f} with chi(a) = e^{2 pi i f} for every unit a mod q."""
    gens = unit_group(q)
    digits = []
    for _, order in reversed(gens):
        label, k = divmod(label, order)
        digits.append(k)
    if label:
        raise ValueError("label out of range")
    digits.reverse()
    phases = {1 % q: Fraction(0)}
    for (g, order), k in zip(gens, digits):
        step = Fraction(k, order)
        grown = {}
        for n, f in phases.items():
            x, fx = n, f
            for _ in range(order):
                grown[x] = fx % 1
                x = x * g % q
                fx += step
        phases = grown
    return phases


def character_values(q: int, label: int) -> dict[int, mpmath.mpc]:
    return {a: mpmath.expjpi(2 * mpmath.mpf(f.numerator) / f.denominator)
            for a, f in character_phases(q, label).items()}


# ---------------------------------------------------------------------------
# zeta-family values
# ---------------------------------------------------------------------------

_memo: dict = {}


def _zeta_derivs(s, beta, r: int) -> list:
    """zeta^{(k)}(s, beta) for k = 0..r; at s = 1 the regular part (-1)^k gamma_k(beta)."""
    out = []
    for k in range(r + 1):
        key = (str(s), str(beta), k)
        if key not in _memo:
            if s == 1:
                _memo[key] = (-1) ** k * mpmath.stieltjes(k, beta)
            else:
                _memo[key] = mpmath.zeta(s, beta, k)
        out.append(_memo[key])
    return out


def _scaled(s, m: int, zd: list, r: int):
    """d^r/ds^r of m^{-s} f(s) from f's derivatives zd by Leibniz."""
    lm = mpmath.log(m)
    return mpmath.power(m, -s) * mpmath.fsum(
        mpmath.binomial(r, k) * (-lm) ** (r - k) * zd[k] for k in range(r + 1)
    )


def _l_value(s, q: int, label: int, r: int):
    return mpmath.fsum(
        chi * _scaled(s, q, _zeta_derivs(s, mpmath.mpf(a) / q, r), r)
        for a, chi in sorted(character_values(q, label).items())
    )


def _lerch_value(s, lam: Fraction, alpha, r: int):
    d = lam.denominator
    return mpmath.fsum(
        mpmath.expjpi(2 * mpmath.mpf(lam.numerator * j) / d)
        * _scaled(s, d, _zeta_derivs(s, (j + alpha) / d, r), r)
        for j in range(d)
    )


def _gamma_aq(r: int, a: int, q: int):
    lq = mpmath.log(q)
    zd = _zeta_derivs(1, mpmath.mpf(a) / q, r)
    acc = (-lq) ** (r + 1) / (r + 1) + mpmath.fsum(
        mpmath.binomial(r, k) * (-lq) ** (r - k) * zd[k] for k in range(r + 1)
    )
    return (-1) ** r * acc / q


def _opts(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _exact(text: str):
    """The binary64 number the CLI parses from text, as an mpf."""
    return mpmath.mpf(float(text))


def _point(text: str):
    re, im = text.split(",")
    return mpmath.mpc(_exact(re), _exact(im))


def _fraction(text: str) -> Fraction:
    lam = Fraction(float(text))
    if lam.denominator > 1 << 8:
        raise ValueError(f"lambda {text} is not a dyadic rational with small denominator")
    return lam


def reference(argv: list[str]):
    """Reference value (eval, afe) or list of values r = 0..r_max (coeff) for argv."""
    cmd, o = argv[0], _opts(argv)
    kind = o["kind"]
    with mpmath.workdps(DPS):
        if cmd in ("eval", "afe"):
            s, r = _point(o["s"]), int(o.get("r", "0"))
            if kind == "hurwitz":
                v = mpmath.zeta(s, _exact(o.get("alpha", "1")), r)
            elif kind == "z":
                q = int(o["q"])
                v = _scaled(s, q, _zeta_derivs(s, mpmath.mpf(int(o["a"])) / q, r), r)
            elif kind == "l":
                v = _l_value(s, int(o["q"]), int(o["label"]), r)
            else:
                v = _lerch_value(s, _fraction(o["lambda"]), _exact(o["alpha"]), r)
            return _encode(v)
        rmax = int(o["r-max"])
        if kind == "gamma":
            vals = [mpmath.stieltjes(r, _exact(o["alpha"])) for r in range(rmax + 1)]
        elif kind == "beta":
            alpha = _exact(o["alpha"])
            vals = [mpmath.zeta(0, alpha, r) / mpmath.factorial(r) for r in range(rmax + 1)]
        elif kind == "gamma-aq":
            vals = [_gamma_aq(r, int(o["a"]), int(o["q"])) for r in range(rmax + 1)]
        elif kind == "lerch":
            lam, alpha = _fraction(o["lambda"]), _exact(o["alpha"])
            vals = [_lerch_value(1, lam, alpha, r) / mpmath.factorial(r) for r in range(rmax + 1)]
        elif kind == "gamma-chi":
            q, label = int(o["q"]), int(o["label"])
            vals = [_l_value(1, q, label, r) / mpmath.factorial(r) for r in range(rmax + 1)]
        elif kind == "l-zero":
            q, label = int(o["q"]), int(o["label"])
            vals = [_l_value(0, q, label, r) for r in range(rmax + 1)]
        else:
            raise ValueError(f"no reference for coeff kind {kind}")
        return [_encode(v) for v in vals]


def _encode(v) -> list[str]:
    v = mpmath.mpc(v)
    return [mpmath.nstr(v.real, DPS), mpmath.nstr(v.imag, DPS)]


# ---------------------------------------------------------------------------
# value file
# ---------------------------------------------------------------------------


def build(path: str = VALUES_FILE) -> None:
    """Compute the missing reference values of the request pool, saving as it goes.

    Values of requests that are no longer in the pool are dropped.
    """
    stored = load_values(path) if os.path.exists(path) else {}
    keys = list(dict.fromkeys(job.key for name in WORKLOADS for cell in pool(name) for job in cell if job.oracle))
    values = {k: stored[k] for k in keys if k in stored}
    todo = [k for k in keys if k not in values]
    print(f"{len(todo)} reference values to compute", flush=True)
    last_save = time.monotonic()
    for i, key in enumerate(todo, 1):
        values[key] = reference(key.split(" "))
        if time.monotonic() - last_save > 60:
            _save(path, values)
            last_save = time.monotonic()
            print(f"{i}/{len(todo)}", flush=True)
    _save(path, values)


def _save(path: str, values: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(dict(sorted(values.items())), fh, indent=0, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, path)


if __name__ == "__main__":
    build()
