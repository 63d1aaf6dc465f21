"""Arithmetic in GF(p^r) for small p and r.

Field elements are plain integers in [0, q), q = p^r.  The base-p digits of
the integer are the coordinates in the polynomial basis 1, x, ..., x^(r-1),
so for prime fields the encoding is just the residue itself.  Every field is
defined by the lexicographically smallest monic irreducible polynomial of
degree r (coefficient tuples compared constant term first), which makes
encodings reproducible across runs and machines.  `smallest_irreducible`
finds it by trial division: a candidate is irreducible iff no monic
polynomial of degree 1..r // 2 divides it.
"""

from __future__ import annotations

import functools
import itertools

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


def _has_factor(f, p: int, k: int) -> bool:
    """Has the monic f (coefficients constant term first) a monic factor of
    degree k over GF(p)?  Long-divides f by every such g."""
    for low in itertools.product(range(p), repeat=k):
        g = low + (1,)
        rem = list(f)
        for shift in range(len(f) - 1 - k, -1, -1):
            c = rem[shift + k]
            if c:
                for i, y in enumerate(g):
                    rem[shift + i] = (rem[shift + i] - c * y) % p
        if not any(rem[:k]):
            return True
    return False


def smallest_irreducible(p: int, r: int):
    """Lexicographically smallest monic irreducible of degree r over GF(p).

    Candidates x^r + c_{r-1} x^{r-1} + ... + c_0 are swept in lexicographic
    order of (c_0, c_1, ..., c_{r-1}), the last coordinate fastest; the first
    with no monic factor of degree 1..r // 2 wins.  That test is exact: a
    reducible polynomial of degree r has a factor of degree at most r / 2.
    For r = 1 the first candidate, x, has nothing to test and wins.
    """
    cands = (low + (1,) for low in itertools.product(range(p), repeat=r))
    return next(f for f in cands if not any(_has_factor(f, p, k) for k in range(1, r // 2 + 1)))


class GF:
    """The finite field GF(p^r) acting on integer-encoded elements."""

    __slots__ = ("p", "r", "q", "modulus", "is_gf2", "_reduce_rows")

    def __init__(self, p: int, r: int):
        if p > MAX_PRIME or not is_prime(p):
            raise ValueError(f"p must be a prime <= {MAX_PRIME}, got {p}")
        if not 1 <= r <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in 1..{MAX_DEGREE}, got {r}")
        self.p = p
        self.r = r
        self.q = p**r
        assert self.q < 2**63
        self.modulus = smallest_irreducible(p, r)
        self.is_gf2 = p == 2 and r == 1
        # x^r .. x^(2r-2) reduced mod the modulus, as digit tuples of length r:
        # x^r = -(c_0 + .. + c_(r-1) x^(r-1)), and x^(k+1) = x * x^k
        row = tuple(-c % p for c in self.modulus[:r])
        rows = []
        for _ in range(r - 1):
            rows.append(row)
            row = tuple((s - row[-1] * c) % p for s, c in zip((0,) + row[:-1], self.modulus))
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
        return self is other or isinstance(other, GF) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"GF({self.q})" if self.r == 1 else f"GF({self.q})=GF({self.p}^{self.r})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, r: int = 1) -> GF:
    """Construct (and cache) GF(p^r); identical parameters share one object."""
    return GF(p, r)

