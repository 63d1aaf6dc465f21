"""Exhaustive field-axiom checks for every prime power up to 81."""

import hashlib
import json

import numpy as np
import pytest

from symprep.field import make_field


def prime_powers(limit):
    """Every (p, r, q) the field layer supports with q <= limit: p <= 61, r <= 4."""

    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    out = []
    for p in range(2, min(limit, 61) + 1):
        if not is_prime(p):
            continue
        q = p
        r = 1
        while q <= limit and r <= 4:
            out.append((p, r, q))
            q *= p
            r += 1
    return sorted(out, key=lambda t: t[2])


ALL_Q = prime_powers(81)


def tables(f):
    q = f.q
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = f.add(a, b)
            mul[a, b] = f.mul(a, b)
    return add, mul


@pytest.mark.parametrize("p,r,q", ALL_Q, ids=[f"GF{q}" for _, _, q in ALL_Q])
def test_axioms_exhaustive(p, r, q):
    f = make_field(p, r)
    assert f.q == q
    add, mul = tables(f)
    idx = np.arange(q)

    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities
    assert np.array_equal(add[0], idx)
    assert np.array_equal(mul[1], idx)
    # zero annihilates
    assert not mul[0].any()
    # every element has an additive inverse; every nonzero a multiplicative one
    assert np.array_equal(np.sort(np.argwhere(add == 0)[:, 0]), np.sort(idx))
    sub = mul[1:, 1:]
    assert all(1 in sub[i] for i in range(q - 1))
    # nonzero rows of mul are permutations (no zero divisors)
    for i in range(1, q):
        assert len(set(mul[i])) == q

    # associativity and distributivity over all q^3 triples, via table lookups
    x, y, z = np.meshgrid(idx, idx, idx, indexing="ij", sparse=True)
    assert np.array_equal(add[add[x, y], z], add[x, add[y, z]])
    assert np.array_equal(mul[mul[x, y], z], mul[x, mul[y, z]])
    assert np.array_equal(mul[add[x, y], z], add[mul[x, z], mul[y, z]])


@pytest.mark.parametrize("p,r", [(2, 1), (3, 2), (2, 4), (5, 2), (3, 4)])
def test_inverse_and_power(p, r):
    f = make_field(p, r)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
        # Lagrange: a^(q-1) = 1 in the unit group
        assert f.pow(a, f.q - 1) == 1
    for a in range(f.q):
        # Frobenius x -> x^p is additive
        for b in range(f.q):
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


def test_prime_field_is_integers_mod_p():
    f = make_field(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7


def test_field_object_identity_and_errors():
    assert make_field(2, 3) == make_field(2, 3)
    assert make_field(2) != make_field(3)
    with pytest.raises(ValueError):
        make_field(4)  # 4 is not prime
    with pytest.raises(ValueError):
        make_field(67)  # beyond the supported prime bound
    with pytest.raises(ValueError):
        make_field(10**18 + 3)  # a prime far beyond it, refused before trial division
    with pytest.raises(ValueError):
        make_field(2, 5)  # beyond the supported extension degree
    with pytest.raises(ValueError):
        make_field(3, 2).add(0, 11)  # out of range for GF(9)
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


def test_moduli_are_pinned():
    """The axiom checks show a modulus is irreducible, not that it is the same
    one, and the reports at q = 8, 9, 16, 25, 27 give the same dimensions under
    any modulus; so the modulus and its fold rows are pinned for every prime
    p <= 61 with r <= 3, and p <= 23 with r = 4."""
    rows = []
    for p in sorted(p for p, r, _ in prime_powers(61) if r == 1):
        for r in range(1, 4 if p > 23 else 5):
            f = make_field(p, r)
            rows.append([p, r, list(f.modulus), [list(x) for x in f._reduce_rows]])
    assert len(rows) == 63
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "40c5ca34b68986bb8336dc03253cd0ea8dc680a1bd036b5e80ea8106ac8b5602"
