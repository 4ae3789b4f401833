"""Dirichlet character arithmetic for small moduli.

A character mod q is its exponent vector over a generator decomposition
of the unit group (Z/qZ)*: CRT over prime-power factors, with (Z/2^k)*
for k >= 3 split as <-1> x <5>.  Its values are the exact exponents k
with chi(n) = e^{2 pi i k / E}, E the unit-group exponent, so that
conductor and parity tests are exact integer arithmetic, and the
complex doubles indexed by them.

One walk of the group per modulus fills a discrete-log table (the
exponent vector over the generators of every unit n, kept in a bounded
cache).  The value table of any set of characters is one integer matrix
product over that table (_log_table), O(q) per character, and chi(n) at
any residues is the E-th roots indexed by it (_values_at): the one reader
of character values, which the L weighting, the truncated sums, the
Polya-Vinogradov sweep, Gauss sums and a character's own values share.
A character builds its values on first use.  The other fields of any set
of characters come from one array pass over their generator exponents
(_fields): the label in the radix of the generator orders, the conductor
as one gcd/lcm pass over the prime-power components, and the parity as
one product with the exponent vector of q - 1.  A single character is
its one-row case.

Labels index the dual group lexicographically over generator exponents
(mixed radix over the generator orders); the principal character is
always label 0 and enumeration order is deterministic.
character(q, label) decodes a label and builds only that character.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .sawtooth import _check_work

__all__ = [
    "DirichletCharacter",
    "character",
    "enumerate_characters",
    "conductor",
    "gauss_sum",
    "partial_character_sum",
    "euler_phi",
    "factorize",
]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, ascending primes."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _primitive_root_mod_pk(p: int, e: int) -> int:
    """Generator of the cyclic group (Z/p^e)*, p an odd prime."""
    # find a primitive root mod p, then fix the lift if needed
    fac = [f for f, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(residue: int, modulus: int, q: int) -> int:
    """x = residue mod modulus, x = 1 mod (q // modulus)."""
    m2 = q // modulus
    if m2 == 1:
        return residue % q
    inv = pow(modulus, -1, m2)
    return (residue + modulus * ((1 - residue) * inv % m2)) % q


class _UnitGroup(NamedTuple):
    """(Z/qZ)* as a product of cyclic groups, with its discrete-log table."""

    orders: tuple[int, ...]
    exponent: int
    logs: np.ndarray  # (q, len(orders)): exponent vector of each unit n
    units: np.ndarray  # units[n] is gcd(n, q) == 1
    roots: np.ndarray  # e^{2 pi i k / exponent} for k < exponent, then 0
    # per generator (columns): c and p^e of its component, where a character of
    # order o has conductor c gcd(o, p^e) (c = p odd; 2 for <-1>, 4 for <5>);
    # and its place value in the label
    gens: np.ndarray  # (3, len(orders)) int64 rows c, p^e, place value


@lru_cache(maxsize=64)
def _unit_group(q: int) -> _UnitGroup:
    parts: list[tuple[int, int, int, int]] = []  # (generator, order, c, p^e)
    for p, e in factorize(q):
        pk = p**e
        if p != 2:
            g = _crt_lift(_primitive_root_mod_pk(p, e), pk, q)
            parts.append((g, (p - 1) * p ** (e - 1), p, pk))
        elif e == 2:
            parts.append((_crt_lift(3, 4, q), 2, 2, pk))
        elif e > 2:
            parts.append((_crt_lift(pk - 1, pk, q), 2, 2, pk))
            parts.append((_crt_lift(5, pk, q), pk // 4, 4, pk))
    orders = tuple(d for _, d, _, _ in parts)
    # walk the whole group once: element = prod g_i^{e_i} over the generators
    elems = np.array([1 % q], dtype=np.int64)
    evecs = np.zeros((1, 0), dtype=np.int64)
    for g, d, _, _ in parts:
        powers = np.array([pow(g, j, q) for j in range(d)], dtype=np.int64)
        elems = (elems[:, None] * powers[None, :] % q).ravel()
        evecs = np.hstack([np.repeat(evecs, d, axis=0), np.tile(np.arange(d), len(evecs))[:, None]])
    logs = np.zeros((q, len(orders)), dtype=np.int64)
    logs[elems] = evecs
    units = np.zeros(q, dtype=bool)
    units[elems] = True
    exponent = math.lcm(*orders)
    roots = [cmath.exp(2j * math.pi * k / exponent) for k in range(exponent)]
    gens = [(c, pk, math.prod(orders[i + 1 :])) for i, (_, _, c, pk) in enumerate(parts)]
    return _UnitGroup(orders, exponent, logs, units, np.array(roots + [0j]), np.array(gens, dtype=np.int64).reshape(-1, 3).T)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q, given by its generator exponents.

    values[n] is chi(n) for residues n = 0..q-1; value_logs[n] holds the
    exact exponent k with chi(n) = e^{2 pi i k / group_exponent}, or -1
    where chi vanishes (gcd(n, q) > 1).  Both are built on first use.
    """

    modulus: int
    group_exponent: int
    gen_exponents: tuple[int, ...]
    is_principal: bool
    conductor: int
    parity: int
    label: int

    @cached_property
    def value_logs(self) -> tuple[int, ...]:
        return tuple(_log_table(self.modulus, [self.gen_exponents])[0].tolist())

    @cached_property
    def values(self) -> tuple[complex, ...]:
        return tuple(_values_at([self])[0].tolist())

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def conjugate(self) -> "DirichletCharacter":
        """The complex-conjugate character (inverse in the dual group)."""
        orders = _unit_group(self.modulus).orders
        return _build_character(self.modulus, tuple((-k) % d for k, d in zip(self.gen_exponents, orders)))

    def __repr__(self) -> str:  # keep tables out of test failure output
        return (
            f"DirichletCharacter(q={self.modulus}, label={self.label}, "
            f"conductor={self.conductor}, parity={self.parity:+d})"
        )


def _log_table(q: int, kexps) -> np.ndarray:
    """value_logs of the characters with the generator exponents kexps, one
    row each: (kexps E/d) @ logs.T mod E at the units, -1 off them."""
    group = _unit_group(q)
    weights = np.array(kexps, dtype=np.int64) * (group.exponent // np.array(group.orders, dtype=np.int64))
    return np.where(group.units, (weights @ group.logs.T) % group.exponent, -1)


def _values_at(chars, residues=None) -> np.ndarray:
    """chi(n) for every chi of chars, of one modulus q (rows), at the residues n
    (columns; n = 0..q-1 for None): the roots indexed by the log table."""
    table = _log_table(chars[0].modulus, [chi.gen_exponents for chi in chars])
    return _unit_group(chars[0].modulus).roots[table if residues is None else table[:, residues]]


def _units(q: int) -> list[int]:
    """The units 1 <= a < q of Z/qZ (q >= 2) in increasing order: the classes of a character sum."""
    return np.flatnonzero(_unit_group(q).units).tolist()


def _fields(q: int, kexps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label, conductor and parity of each character mod q with the generator
    exponents kexps (one row each): a generator of order d and
    component (c, p^e) whose exponent k has order o = d / gcd(k, d) adds
    c gcd(o, p^e) to the lcm of the conductor (1 at k = 0), and
    chi(-1) = e^{2 pi i m / E} with m = sum of k_i (E/d_i) l_i over the
    exponent vector l of q - 1."""
    group = _unit_group(q)
    d, (c, pk, place) = np.array(group.orders, dtype=np.int64), group.gens
    kexps = np.asarray(kexps, dtype=np.int64)
    parts = np.where(kexps > 0, c * np.gcd(d // np.gcd(kexps, d), pk), 1)
    minus_one = kexps @ (group.exponent // d * group.logs[(q - 1) % q]) % group.exponent
    return kexps @ place, np.lcm.reduce(parts, axis=1, initial=1), np.where(minus_one, -1, 1)


def _characters(q: int, kexps) -> list[DirichletCharacter]:
    """The characters mod q with the generator exponents kexps, one per row;
    the principal character is the one of conductor 1."""
    exponent = _unit_group(q).exponent
    rows = zip(map(tuple, np.asarray(kexps).tolist()), *map(np.ndarray.tolist, _fields(q, kexps)))
    return [DirichletCharacter(q, exponent, kexp, f == 1, f, parity, label) for kexp, label, f, parity in rows]


def _build_character(q: int, kexp: tuple[int, ...]) -> DirichletCharacter:
    return _characters(q, [kexp])[0]


def character(q: int, label: int) -> DirichletCharacter:
    """The character mod q with the given label, built alone."""
    if q < 1 or not 0 <= label < euler_phi(q):
        raise ValueError(f"no character mod {q} has label {label}")
    return _build_character(q, tuple(map(int, np.unravel_index(label, _unit_group(q).orders))))


def _exponents(q: int) -> np.ndarray:
    """The generator exponents of every character mod q, one row each in
    label order; runaway tables are refused before anything is built."""
    if q < 1:
        raise ValueError("modulus must be a positive integer")
    _check_work(entries=euler_phi(q) * q)
    orders = _unit_group(q).orders
    return np.indices(orders, dtype=np.int64).reshape(len(orders), math.prod(orders)).T


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in a fixed, reproducible order."""
    return _characters(q, _exponents(q))


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | q such that chi is induced by a character mod f."""
    return chi.conductor


def gauss_sum(chi: DirichletCharacter, n: int) -> complex:
    """sum_{a=1}^{q} chi(a) e^{2 pi i n a / q}, computed as the finite sum."""
    q = chi.modulus
    phases = np.exp(2j * np.pi * ((n % q) * np.arange(q) % q) / q)
    # a = q term equals the a = 0 table entry (chi(0) e^0)
    return complex(np.dot(_values_at([chi])[0], phases))


def partial_character_sum(chi: DirichletCharacter, x: float) -> complex:
    """sum_{1 <= a <= x} chi(a) for a non-principal character."""
    if chi.is_principal:
        raise ValueError("partial character sums are only tracked for non-principal characters")
    m = int(math.floor(x))
    if m < 1:
        return 0.0 + 0.0j
    q = chi.modulus
    vals = _values_at([chi])[0]
    full, rem = divmod(m, q)
    total = full * np.sum(vals)
    if rem:
        total += np.sum(vals[np.arange(1, rem + 1) % q])
    return complex(total)
