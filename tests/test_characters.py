import cmath
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import characters as characters_mod
from zetalab import cli
from zetalab.characters import (
    DirichletCharacter,
    character,
    conductor,
    enumerate_characters,
    euler_phi,
    factorize,
    gauss_sum,
    partial_character_sum,
)

from .oracles import divisors

TOL = 1e-12


# ---------------------------------------------------------------------------
# reference construction: walk the unit group once per character and scan
# every divisor of q for the conductor, O(phi(q)) work per character
# ---------------------------------------------------------------------------


def _reference_unit_group(q):
    gens, orders = [], []
    for p, e in factorize(q):
        pk = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append(characters_mod._crt_lift(3, 4, q))
                orders.append(2)
            else:
                gens.append(characters_mod._crt_lift(pk - 1, pk, q))
                orders.append(2)
                gens.append(characters_mod._crt_lift(5, pk, q))
                orders.append(pk // 4)
        else:
            g = characters_mod._primitive_root_mod_pk(p, e)
            gens.append(characters_mod._crt_lift(g, pk, q))
            orders.append((p - 1) * p ** (e - 1))
    return gens, orders


def _reference_conductor(q, value_logs):
    # smallest f | q with chi(n) = 1 for every n = 1 (mod f) coprime to q
    for f in divisors(q):
        if all(
            value_logs[n % q] == 0 for n in range(1, q + 1) if n % f == 1 % f and math.gcd(n, q) == 1
        ):
            return f
    return q  # unreachable: f = q always passes


def _reference_character(q, orders, walk, kexp):
    # the reference character, and the values and value_logs it must build on demand
    exponent = 1
    for d in orders:
        exponent = exponent * d // math.gcd(exponent, d)
    logs = [-1] * q
    if q == 1:
        logs[0] = 0
    else:
        for evec, n in walk:
            logs[n] = sum(e * k * (exponent // d) for e, k, d in zip(evec, kexp, orders)) % exponent
        if not orders:  # q = 2: trivial unit group
            logs[1 % q] = 0
    roots = [cmath.exp(2j * math.pi * k / exponent) for k in range(exponent)]
    label = 0
    for k, d in zip(kexp, orders):
        label = label * d + k
    ref = DirichletCharacter(
        modulus=q,
        group_exponent=exponent,
        gen_exponents=tuple(kexp),
        is_principal=all(k == 0 for k in kexp),
        conductor=_reference_conductor(q, logs),
        parity=1 if logs[(q - 1) % q] == 0 else -1,
        label=label,
    )
    return ref, tuple(roots[k] if k >= 0 else 0.0 + 0.0j for k in logs), tuple(logs)


def _reference_characters(q):
    gens, orders = _reference_unit_group(q)
    walk = []  # (e, prod gens[i]^{e_i} mod q) over the whole group
    for evec in product(*(range(d) for d in orders)):
        n = 1
        for g, e in zip(gens, evec):
            n = n * pow(g, e, q) % q
        walk.append((evec, n))
    return [_reference_character(q, orders, walk, kexp) for kexp in product(*(range(d) for d in orders))]


_EQUIVALENCE_MODULI = (
    list(range(1, 301))
    + [q for q in range(307, 338) if len(factorize(q)) == 1 and factorize(q)[0][1] == 1]
    + [q for q in range(967, 998) if len(factorize(q)) == 1 and factorize(q)[0][1] == 1]
    + [2**k for k in range(9, 11)]
)


@pytest.mark.parametrize("q", _EQUIVALENCE_MODULI)
def test_table_construction_matches_group_walk_reference(q):
    chars = enumerate_characters(q)
    ref = _reference_characters(q)
    assert len(chars) == len(ref) == euler_phi(q)
    for c, (r, ref_values, ref_logs) in zip(chars, ref):
        assert c == r  # dataclass equality: every field
        assert c.values == ref_values  # complex values exactly
        assert c.value_logs == ref_logs
        assert conductor(c) == r.conductor
        assert character(q, c.label) == c


@pytest.mark.parametrize("q", _EQUIVALENCE_MODULI)
def test_log_table_rows_are_the_characters_tables_bit_for_bit(q):
    chars = enumerate_characters(q)
    for chi in chars:
        assert "values" not in vars(chi) and "value_logs" not in vars(chi)  # built on first use only
    table = characters_mod._log_table(q, [chi.gen_exponents for chi in chars])
    values = characters_mod._unit_group(q).roots[table]
    assert table.shape == (len(chars), q)
    for i, chi in enumerate(chars):
        assert tuple(table[i].tolist()) == chi.value_logs
        assert values[i].tobytes() == np.array(chi.values).tobytes()
    chi = character(q, len(chars) - 1)
    assert "values" not in vars(chi)
    chi(3)
    assert "values" in vars(chi) and "value_logs" not in vars(chi)  # the values read the shared table


def test_primitive_root_mod_p_squared_is_lifted_where_it_is_not_one():
    # 5 is the least primitive root mod 40487, and 5^40486 = 1 mod 40487^2, so
    # mod 40487^2 the generator is its lift 5 + 40487, of order phi = 40486 p
    p, q = 40487, 40487**2
    assert pow(5, p - 1, q) == 1
    g = characters_mod._primitive_root_mod_pk(p, 2)
    assert g == 40492
    assert [f for f, _ in factorize(p - 1)] == [2, 31, 653]
    assert all(pow(g, (p - 1) * p // f, q) != 1 for f in (2, 31, 653, p))


def test_enumeration_mod_2003_builds_no_value_table():
    # phi(q) q = 4e6 table entries: no character may hold its table after enumeration
    characters_mod._unit_group(2003)
    tracemalloc.start()
    try:
        chars = enumerate_characters(2003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chars) == 2002
    assert peak < 16 * 2**20


@pytest.mark.parametrize("q, label", [(7, 6), (7, -1), (0, 0), (-3, 0), (12, 4)])
def test_character_refuses_labels_outside_the_dual_group(q, label):
    with pytest.raises(ValueError, match=f"no character mod {q} has label {label}"):
        character(q, label)
    if q < 1:  # the factorization a modulus is read through refuses it too
        with pytest.raises(ValueError, match="positive integer"):
            factorize(q)


def test_label_lookup_builds_one_character_and_one_table_per_modulus(monkeypatch):
    built = []
    real = characters_mod._build_character

    def counting(q, kexp):
        built.append(q)
        return real(q, kexp)

    monkeypatch.setattr(characters_mod, "_build_character", counting)
    characters_mod._unit_group.cache_clear()
    argv = ["eval", "--kind", "l", "--s", "1,0", "--q", "977", "--label", "528", "--json"]
    assert cli.run(argv) == 0
    assert built == [977]
    assert cli.run(argv) == 0
    assert built == [977, 977]
    info = characters_mod._unit_group.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_q1_single_trivial_character():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    assert chars[0].is_principal
    assert chars[0].values == (1 + 0j,)


def test_q4_enumeration():
    chars = enumerate_characters(4)
    assert len(chars) == 2
    principal = [c for c in chars if c.is_principal]
    other = [c for c in chars if not c.is_principal]
    assert len(principal) == 1 and len(other) == 1
    chi = other[0]
    assert abs(chi(1) - 1) < TOL and abs(chi(3) + 1) < TOL and abs(chi(2)) == 0
    assert repr(chi) == "DirichletCharacter(q=4, label=1, conductor=4, parity=-1)"


def test_q5_exactly_one_real_nonprincipal():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    real_nonprincipal = [
        c
        for c in chars
        if not c.is_principal and all(abs(v.imag) < TOL for v in c.values)
    ]
    assert len(real_nonprincipal) == 1


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 30])
def test_enumeration_counts_and_closure(q):
    chars = enumerate_characters(q)
    assert len(chars) == euler_phi(q)
    assert sum(c.is_principal for c in chars) == 1
    tables = {c.values for c in chars}
    assert len(tables) == len(chars)  # pairwise distinct
    for c in chars:
        conj = tuple(v.conjugate() for v in c.values)
        assert any(max(abs(a - b) for a, b in zip(conj, d.values)) < TOL for d in chars)


def test_enumeration_deterministic():
    a = enumerate_characters(12)
    b = enumerate_characters(12)
    assert [c.label for c in a] == [c.label for c in b]
    assert all(ca.values == cb.values for ca, cb in zip(a, b))


def test_character_invariants_vanish_off_units():
    for q in (6, 9, 10):
        for c in enumerate_characters(q):
            for n in range(q):
                if math.gcd(n if n else q, q) > 1:
                    assert c(n) == 0
                else:
                    assert abs(abs(c(n)) - 1.0) < TOL
            assert abs(c(1) - 1.0) < TOL


@settings(max_examples=200)
@given(
    q=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=0, max_value=200),
    n=st.integers(min_value=0, max_value=200),
    pick=st.integers(min_value=0, max_value=10**6),
)
def test_complete_multiplicativity(q, m, n, pick):
    chars = enumerate_characters(q)
    chi = chars[pick % len(chars)]
    assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-11


def test_conductor_principal_mod_12_is_1():
    principal = next(c for c in enumerate_characters(12) if c.is_principal)
    assert conductor(principal) == 1 and principal.conductor == 1


def test_conductor_nonprincipal_mod_4(chi4):
    assert chi4.conductor == 4 and chi4.is_primitive


def test_conductor_mod8_induced_from_mod4():
    # the character mod 8 that agrees with the mod-4 character on units
    chars8 = enumerate_characters(8)
    chi4vals = {1: 1, 3: -1}
    induced = [
        c
        for c in chars8
        if not c.is_principal
        and all(abs(c(n) - chi4vals[n % 4]) < TOL for n in (1, 3, 5, 7))
    ]
    assert len(induced) == 1
    assert induced[0].conductor == 4
    assert not induced[0].is_primitive


def test_gauss_sum_mod4_is_2i(chi4):
    assert abs(gauss_sum(chi4, 1) - 2j) < TOL


def test_gauss_sum_primitive_mod5_modulus():
    for c in enumerate_characters(5):
        if c.is_principal:
            continue
        assert abs(abs(gauss_sum(c, 1)) - math.sqrt(5)) < 1e-12 * math.sqrt(5)


def test_gauss_sum_shift_zero_vanishes():
    for q in (3, 4, 5, 7, 9):
        for c in enumerate_characters(q):
            if c.is_principal:
                continue
            assert abs(gauss_sum(c, 0)) < 1e-10


def test_gauss_sum_factorization_small_moduli():
    for q in range(3, 31):
        for c in enumerate_characters(q):
            if not c.is_primitive or c.is_principal:
                continue
            tau = gauss_sum(c, 1)
            for n in range(q + 1):
                assert abs(gauss_sum(c, n) - np.conj(c(n)) * tau) < 1e-10


def test_partial_sum_examples(chi4):
    assert abs(partial_character_sum(chi4, 3.0)) < TOL  # 1 + 0 - 1
    assert abs(partial_character_sum(chi4, 1.0) - 1.0) < TOL
    assert partial_character_sum(chi4, 0.5) == 0  # the empty sum


def test_partial_sum_principal_raises(principal4):
    with pytest.raises(ValueError):
        partial_character_sum(principal4, 2.0)


def test_polya_vinogradov_sweep():
    for q in range(3, 51):
        bound = math.sqrt(q) * math.log(q)
        for c in enumerate_characters(q):
            if c.is_principal:
                continue
            worst = max(abs(partial_character_sum(c, x)) for x in range(1, q + 1))
            assert worst <= bound + 1e-12


def test_row_orthogonality():
    for q in (3, 8, 12, 24, 30):
        chars = enumerate_characters(q)
        for c1 in chars:
            for c2 in chars:
                inner = sum(c1(a) * np.conj(c2(a)) for a in range(1, q + 1))
                want = euler_phi(q) if c1.label == c2.label else 0.0
                assert abs(inner - want) < 1e-10


def test_column_orthogonality():
    for q in (5, 8, 12):
        chars = enumerate_characters(q)
        for a in range(1, q + 1):
            for b in range(1, q + 1):
                if math.gcd(b, q) != 1:
                    continue
                inner = sum(c(a) * np.conj(c(b)) for c in chars)
                want = euler_phi(q) if (a - b) % q == 0 and math.gcd(a, q) == 1 else 0.0
                assert abs(inner - want) < 1e-10


def test_conjugate_roundtrip():
    for q in (5, 7, 9):
        for c in enumerate_characters(q):
            cc = c.conjugate()
            assert max(abs(cc(n) - np.conj(c(n))) for n in range(q)) < TOL
            assert cc.conductor == c.conductor


def test_parity_field():
    for q in (3, 4, 5, 8, 12):
        for c in enumerate_characters(q):
            assert abs(c(q - 1) - c.parity) < TOL or abs(c(q - 1)) == 0.0
