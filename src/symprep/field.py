"""Arithmetic in GF(p^r) for small p and r.

Field elements are plain integers in [0, q), q = p^r.  The base-p digits of
the integer are the coordinates in the polynomial basis 1, x, ..., x^(r-1),
so for prime fields the encoding is just the residue itself.  Every field is
defined by the lexicographically smallest monic irreducible polynomial of
degree r (coefficient tuples compared constant term first), which makes
encodings reproducible across runs and machines.
"""

from __future__ import annotations

import functools

MAX_PRIME = 61
MAX_DEGREE = 4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers; coefficients are tuples, constant term first


def poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_add(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return poly_trim(tuple((x + y) % p for x, y in zip(a, b)))


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    assert b, "division by zero polynomial"
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    inv_lead = pow(lead, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(poly_trim(a)) - 1 >= db and poly_trim(a):
        a = list(poly_trim(a))
        shift = len(a) - 1 - db
        coef = (a[-1] * inv_lead) % p
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * y) % p
    return poly_trim(q), poly_trim(a)


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_powmod(a, e, modulus, p):
    result = (1,)
    base = poly_mod(a, modulus, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), modulus, p)
        base = poly_mod(poly_mul(base, base, p), modulus, p)
        e >>= 1
    return result


def poly_gcd(a, b, p):
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        # make monic so gcd is canonical
        inv = pow(a[-1], p - 2, p)
        a = poly_trim(tuple((c * inv) % p for c in a))
    return a


def is_irreducible(coeffs, p) -> bool:
    """Monic polynomial (full coefficient tuple, constant first) irreducible over GF(p)?

    Uses the Frobenius criterion: f of degree r is irreducible iff
    x^(p^r) == x (mod f) and gcd(x^(p^(r/k)) - x, f) = 1 for each prime k | r.
    """
    r = len(coeffs) - 1
    assert r >= 1 and coeffs[-1] == 1
    x = (0, 1)
    if poly_powmod(x, p**r, coeffs, p) != poly_mod(x, coeffs, p):
        return False
    for k in {d for d in (2, 3) if r % d == 0}:
        probe = poly_add(poly_powmod(x, p ** (r // k), coeffs, p), tuple(-c for c in x), p)
        if poly_gcd(probe, coeffs, p) != (1,):
            return False
    return True


def smallest_irreducible(p: int, r: int):
    """Lexicographically smallest monic irreducible of degree r over GF(p).

    Candidates x^r + c_{r-1} x^{r-1} + ... + c_0 are swept in lexicographic
    order of (c_0, c_1, ..., c_{r-1}); the first irreducible wins.
    """
    if r == 1:
        return (0, 1)  # x itself; prime fields carry no real modulus
    low = [0] * r
    while True:
        cand = tuple(low) + (1,)
        if is_irreducible(cand, p):
            return cand
        for i in range(r - 1, -1, -1):
            # lexicographic order on (c_0, .., c_{r-1}) means the *last*
            # coordinate varies fastest
            low[i] += 1
            if low[i] < p:
                break
            low[i] = 0
        else:
            raise AssertionError("no irreducible polynomial found (impossible)")


class GF:
    """The finite field GF(p^r) acting on integer-encoded elements."""

    __slots__ = ("p", "r", "q", "modulus", "is_gf2", "_reduce_rows")

    def __init__(self, p: int, r: int):
        if not is_prime(p) or p > MAX_PRIME:
            raise ValueError(f"p must be a prime <= {MAX_PRIME}, got {p}")
        if not 1 <= r <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in 1..{MAX_DEGREE}, got {r}")
        self.p = p
        self.r = r
        self.q = p**r
        assert self.q < 2**63
        self.modulus = smallest_irreducible(p, r)
        self.is_gf2 = p == 2 and r == 1
        # x^r .. x^(2r-2) reduced mod the modulus, as digit tuples of length r
        rows = []
        for k in range(r, 2 * r - 1):
            red = poly_mod((0,) * k + (1,), self.modulus, p)
            rows.append(tuple(red) + (0,) * (r - len(red)))
        self._reduce_rows = tuple(rows)

    # -- encoding ----------------------------------------------------------

    def digits(self, a: int):
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for GF({self.q})")
        out = []
        for _ in range(self.r):
            a, d = divmod(a, self.p)
            out.append(d)
        return tuple(out)

    def from_digits(self, ds) -> int:
        v = 0
        for d in reversed(list(ds)):
            v = v * self.p + d % self.p
        return v

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.from_digits(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.from_digits(-x for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        out = list(prod[: self.r])
        for k in range(self.r, 2 * self.r - 1):
            c = prod[k]
            if c:
                row = self._reduce_rows[k - self.r]
                for i in range(self.r):
                    out[i] += c * row[i]
        return self.from_digits(out)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"GF({self.q})" if self.r == 1 else f"GF({self.q})=GF({self.p}^{self.r})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, r: int = 1) -> GF:
    """Construct (and cache) GF(p^r); identical parameters share one object."""
    return GF(p, r)

