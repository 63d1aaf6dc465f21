"""Exact linear algebra over GF(p^r).

Matrices are numpy int64 arrays of canonical element encodings, and every
field shares one vectorized path: the encoded-array operations `add`,
`neg`, `mul`, `inv`, `sub_mul`, `matmul` and `det`.  Each takes leading
stack axes, so a batch of matrices is one array of shape (..., n, n) and one
call.  Over a prime field each is the plain mod-p expression, and `mm_modp`
sends large products through float64 BLAS.  Over GF(p^r), r > 1, an array
is split into its r base-p digit planes; plane products run through the
same mod-p product and the degrees r..2r-2 fold back with the field's
reduction rows.  A GF(2) matrix may keep its rows bit-packed instead, 64
columns to a uint64 word: large GF(2) `Mat` products use the Four-Russians
table product on the words, and sums, equality and elimination work on the
words too.

All reduced row echelon forms are canonical: leading coefficient 1, pivot
columns cleared, rows ordered by pivot.  Two subspaces are equal iff their
canonical bases are byte-identical, which is what makes report output
reproducible.
"""

from __future__ import annotations

import functools

import numpy as np

from .checks import require
from .field import GF, make_field

# product of two entries times the inner dimension must stay exactly
# representable in float64 for the BLAS shortcut to be valid
_FLOAT_EXACT = 2**53

# from this many multiply-adds on, a product leaves the plain int64 matmul:
# mm_modp goes through float64 BLAS, a GF(2) Mat through the packed product
_LARGE_MACS = 200_000

# words per block of Four-Russians tables, so a block stays in cache
_TABLE_WORDS = 1 << 16


def _as_array(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    assert arr.ndim == 2
    return arr


def mm_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact matmul of canonical mod-p arrays; leading axes are stacks,
    broadcast as in np.matmul."""
    k, m = a.shape[-1], b.shape[-1]
    assert k == b.shape[-2], f"shape mismatch {a.shape} @ {b.shape}"
    if k == 0:
        stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.zeros(stack + (a.shape[-2], m), dtype=np.int64)
    require((p - 1) * (p - 1) * k < _FLOAT_EXACT, "mod-p product would leave exact float range")
    if a.size * m >= _LARGE_MACS:  # n·k·m, times the stack that a carries
        c = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(c).astype(np.int64) % p
    return (a @ b) % p


# The layer trace in perfbench/layers.py wraps the name mm_modp and counts
# its calls from 2-D shapes, so products of stacks go through this one.
_mm_stacks = mm_modp


# ---------------------------------------------------------------------------
# encoded-array arithmetic over any field; GF(p^r) entries as digit planes


def _planes(f: GF, a) -> np.ndarray:
    """Base-p digit planes of an encoded array, shape (r,) + a.shape."""
    a = np.asarray(a, dtype=np.int64)
    pw = f.p ** np.arange(f.r, dtype=np.int64)
    return (a // pw.reshape((-1,) + (1,) * a.ndim)) % f.p


def _join(f: GF, planes: np.ndarray) -> np.ndarray:
    """Encoded array from coefficient planes of degree below 2r - 1."""
    low = planes[: f.r]
    high = planes[f.r:]
    if high.shape[0]:
        fold = np.array(f._reduce_rows, dtype=np.int64).T  # x^(r+k) -> column k
        low = low + (fold @ high.reshape(high.shape[0], -1)).reshape(low.shape)
    low = low % f.p
    out = low[-1]
    for plane in low[-2::-1]:  # Horner in x = p over the digits
        out = out * f.p + plane
    return out


def add(f: GF, a, b) -> np.ndarray:
    """Entrywise a + b of encoded arrays."""
    if f.p == 2:
        return a ^ b
    if f.r == 1:
        return (a + b) % f.p
    da, db = (_planes(f, x) for x in np.broadcast_arrays(a, b))
    return _join(f, da + db)


def neg(f: GF, a) -> np.ndarray:
    """Entrywise -a of an encoded array."""
    if f.p == 2:
        return a
    if f.r == 1:
        return (-a) % f.p
    return _join(f, -_planes(f, a))


def mul(f: GF, a, b) -> np.ndarray:
    """Entrywise product of encoded arrays, with numpy broadcasting."""
    if f.r == 1:
        return (a * b) % f.p
    da, db = (_planes(f, x) for x in np.broadcast_arrays(a, b))
    prod = np.zeros((2 * f.r - 1,) + da.shape[1:], dtype=np.int64)
    for i in range(f.r):
        prod[i:i + f.r] += da[i] * db
    return _join(f, prod)


@functools.lru_cache(maxsize=None)
def _inv_table(p: int) -> np.ndarray:
    table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    table.flags.writeable = False
    return table


def inv(f: GF, a) -> np.ndarray:
    """Entrywise inverse of an encoded array; a zero entry raises
    ZeroDivisionError, as `GF.inv` does."""
    a = np.asarray(a, dtype=np.int64)
    if not a.all():
        raise ZeroDivisionError(f"0 has no inverse in GF({f.q})")
    if f.r == 1:
        return _inv_table(f.p)[a]
    out, e = np.ones_like(a), f.q - 2  # a^(q-2) = 1/a, by square-and-multiply
    while e:
        if e & 1:
            out = mul(f, out, a)
        a = mul(f, a, a)
        e >>= 1
    return out


def sub_mul(f: GF, a, x, y) -> np.ndarray:
    """Entrywise a - x·y, with numpy broadcasting: one elimination step.

    Fused so that a prime-field step reduces mod p once, not twice.
    """
    if f.r == 1:
        return (a - x * y) % f.p
    return add(f, a, neg(f, mul(f, x, y)))


def matmul(f: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of encoded arrays; leading axes are stacks, broadcast
    as in np.matmul."""
    mm = mm_modp if a.ndim == b.ndim == 2 else _mm_stacks
    if f.r == 1:
        return mm(a, b, f.p)
    r, (n, k), m = f.r, a.shape[-2:], b.shape[-1]
    # block (i, j) of [A_0; ..; A_r-1] @ [B_0 | .. | B_r-1] is A_i @ B_j,
    # the coefficient of x^(i+j)
    pa = np.moveaxis(_planes(f, a), 0, -3)
    pb = np.moveaxis(_planes(f, b), 0, -2)
    blocks = mm(pa.reshape(pa.shape[:-3] + (r * n, k)),
                pb.reshape(pb.shape[:-3] + (k, r * m)), f.p)
    blocks = blocks.reshape(blocks.shape[:-2] + (r, n, r, m))
    prod = np.zeros((2 * r - 1,) + blocks.shape[:-4] + (n, m), dtype=np.int64)
    for i in range(r):
        prod[i:i + r] += np.moveaxis(blocks[..., i, :, :, :], -2, 0)
    return _join(f, prod)


def det(f: GF, stack) -> np.ndarray:
    """Determinants of square encoded matrices, shape (..., n, n) -> (...).

    Gaussian elimination with first-nonzero pivoting, one column at a time
    across the whole stack: the determinant is the product of the pivots,
    negated once per row swap.  A matrix with no pivot in a column takes a
    zero pivot there, so its product is 0.
    """
    a = np.asarray(stack, dtype=np.int64) % f.q  # a fresh array, eliminated in place
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("determinant of a non-square matrix")
    n = a.shape[-1]
    shape = a.shape[:-2]
    a = a.reshape((int(np.prod(shape)), n, n))
    mats = np.arange(a.shape[0])
    out = np.ones(a.shape[0], dtype=np.int64)
    for c in range(n):
        pr = c + np.argmax(a[:, c:, c] != 0, axis=1)
        swap = pr != c
        if swap.any():
            top = a[:, c].copy()
            a[:, c] = a[mats, pr]
            a[mats, pr] = top
            out = np.where(swap, neg(f, out), out)
        piv = a[:, c, c]
        out = mul(f, out, piv)
        below = a[:, c + 1:, c]
        if below.any():  # a zero pivot has only zeros below it
            coef = mul(f, below, inv(f, np.where(piv == 0, 1, piv))[:, None])
            a[:, c + 1:, c:] = sub_mul(f, a[:, c + 1:, c:], coef[:, :, None], a[:, None, c, c:])
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# GF(2) bit-packed rows: bit j of word w in a row is column 64w + j, and the
# bits past the last column are zero


def pack_rows(a: np.ndarray) -> np.ndarray:
    rows, cols = a.shape
    out = np.zeros((rows, 8 * max(1, -(-cols // 64))), dtype=np.uint8)
    out[:, : -(-cols // 8)] = np.packbits(a.astype(np.uint8) & 1, axis=1, bitorder="little")
    return out.view(np.uint64)


def _unpack_bits(w: np.ndarray, cols: int) -> np.ndarray:
    """0/1 uint8 entries of packed rows."""
    return np.unpackbits(w.view(np.uint8), axis=1, count=cols, bitorder="little")


def unpack_rows(w: np.ndarray, cols: int) -> np.ndarray:
    return _unpack_bits(w, cols).astype(np.int64)


def _identity_words(n: int) -> np.ndarray:
    w = np.zeros((n, max(1, -(-n // 64))), dtype=np.uint64)
    i = np.arange(n)
    w[i, i >> 6] = np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))
    return w


def mm_gf2(aw: np.ndarray, k: int, bw: np.ndarray) -> np.ndarray:
    """Packed GF(2) product of A (packed rows, k columns) and B (k packed rows).

    The method of the Four Russians (Arlazarov et al. 1970; Albrecht, Bard
    and Hart, ACM TOMS 37, 2010): the rows of B go in groups of 8, the 256
    sums of each group are tabulated, and each row of A adds one table row
    per group, the one its byte over those 8 columns addresses.
    """
    n, wb = aw.shape[0], bw.shape[1]
    groups = -(-k // 8)
    out = np.zeros((n, wb), dtype=np.uint64)
    if n == 0 or groups == 0:
        return out
    addr = np.ascontiguousarray(aw.view(np.uint8)[:, :groups].T)
    bg = np.zeros((groups * 8, wb), dtype=np.uint64)
    bg[:k] = bw
    bg = bg.reshape(groups, 8, wb)
    step = max(1, _TABLE_WORDS // (256 * wb))
    tab = np.zeros((min(step, groups), 256, wb), dtype=np.uint64)
    for g0 in range(0, groups, step):
        g1 = min(groups, g0 + step)
        t = tab[: g1 - g0]
        for j in range(8):
            h = 1 << j
            np.bitwise_xor(t[:, :h], bg[g0:g1, j, None, :], out=t[:, h:2 * h])
        for g in range(g0, g1):
            out ^= t[g - g0].take(addr[g], axis=0)
    return out


_BIT = tuple(np.uint64(1 << i) for i in range(64))


def _rref_packed(w: np.ndarray, cols: int):
    """In-place RREF on packed GF(2) rows; returns pivot column list."""
    rows = w.shape[0]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        wi = c >> 6
        hits = (w[:, wi] & _BIT[c & 63]).nonzero()[0]
        k = hits.searchsorted(r)
        if k == hits.size:
            continue
        pr = hits[k]
        # rows at and below r are zero left of column c, so words left of
        # wi never change; clearing column c with row pr zeroes row pr too
        row = w[pr, wi:].copy()
        w[hits, wi:] ^= row
        if pr != r:
            w[pr] = w[r]
        w[r, wi:] = row
        pivots.append(c)
        r += 1
    return pivots


# ---------------------------------------------------------------------------
# generic elimination


def _rref_generic(a: np.ndarray, f: GF):
    """RREF of an encoded array (copy); returns (array, pivot list)."""
    a = a % f.q
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = f.inv(int(a[r, c]))
        if inv != 1:
            a[r] = mul(f, a[r], inv)
        sel = np.flatnonzero(a[:, c])
        sel = sel[sel != r]
        if sel.size:
            a[sel] = sub_mul(f, a[sel], a[sel, c, None], a[r])
        pivots.append(c)
        r += 1
    return a, pivots


def rref_array(a: np.ndarray, f: GF, force_generic: bool = False):
    """Canonical RREF of an encoded array; returns (array, pivot tuple)."""
    a = _as_array(a)
    if f.is_gf2 and not force_generic:
        w = pack_rows(a % 2)
        piv = _rref_packed(w, a.shape[1])
        return unpack_rows(w, a.shape[1]), tuple(piv)
    out, piv = _rref_generic(a, f)
    return out, tuple(piv)


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Immutable matrix over a fixed field, entries canonically encoded.

    A GF(2) matrix built with `from_words`, or made by a large product, keeps
    its rows bit-packed (`words`); `.a`, the read-only int64 entries, is then
    unpacked on first use.  Either form is derived from the other on demand
    and kept, so equality, hashing and keys do not depend on the form.
    """

    __slots__ = ("field", "shape", "_a", "_w")

    def __init__(self, field: GF, a):
        arr = np.asarray(a, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if field.r == 1:
            arr = arr % field.p
        elif arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ValueError(f"entries out of range for {field}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self.field = field
        self.shape = arr.shape
        self._a = arr
        self._w = None

    @classmethod
    def _of(cls, field: GF, arr: np.ndarray) -> "Mat":
        """Wrap an int64 array that is already canonical."""
        m = cls.__new__(cls)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        m.field = field
        m.shape = arr.shape
        m._a = arr
        m._w = None
        return m

    @classmethod
    def from_words(cls, field: GF, words: np.ndarray, cols: int) -> "Mat":
        """GF(2) matrix from packed rows in the layout of `pack_rows`."""
        if not field.is_gf2:
            raise ValueError("packed rows are for GF(2) only")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != max(1, -(-cols // 64)):
            raise ValueError(f"{words.shape} words do not hold {cols} columns")
        words.flags.writeable = False
        m = cls.__new__(cls)
        m.field = field
        m.shape = (words.shape[0], cols)
        m._a = None
        m._w = words
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "Mat":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: GF, n: int) -> "Mat":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def a(self) -> np.ndarray:
        if self._a is None:
            arr = unpack_rows(self._w, self.shape[1])
            arr.flags.writeable = False
            self._a = arr
        return self._a

    @property
    def words(self) -> np.ndarray:
        """Packed rows of a GF(2) matrix (read-only)."""
        if self._w is None:
            if not self.field.is_gf2:
                raise ValueError("packed rows are for GF(2) only")
            w = pack_rows(self._a)
            w.flags.writeable = False
            self._w = w
        return self._w

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def _check(self, other: "Mat"):
        if self.field != other.field:
            raise ValueError(f"mismatched fields: {self.field} vs {other.field}")

    def take_rows(self, idx) -> "Mat":
        """The rows at `idx`, in that order."""
        if self._a is None:
            return Mat.from_words(self.field, self._w[idx], self.cols)
        return Mat._of(self.field, self._a[idx])

    def take_cols(self, idx) -> "Mat":
        """The columns at `idx`, in that order."""
        idx = list(idx)
        if self._a is None:
            bits = _unpack_bits(self._w, self.cols)[:, idx]
            return Mat.from_words(self.field, pack_rows(bits), len(idx))
        return Mat._of(self.field, self._a[:, idx])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        f = self.field
        if f.is_gf2 and (self._a is None or other._a is None):
            return Mat.from_words(f, self.words ^ other.words, self.cols)
        return Mat._of(f, add(f, self.a, other.a))

    def __neg__(self) -> "Mat":
        if self.field.p == 2:
            return self
        return Mat._of(self.field, neg(self.field, self.a))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        f = self.field
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        if f.is_gf2 and n * k * m >= _LARGE_MACS:
            return Mat.from_words(f, mm_gf2(self.words, k, other.words), m)
        return Mat._of(f, matmul(f, self.a, other.a))

    def scale(self, c: int) -> "Mat":
        return Mat._of(self.field, mul(self.field, self.a, c))

    @property
    def T(self) -> "Mat":
        if self._a is None:
            bits = _unpack_bits(self._w, self.cols)
            return Mat.from_words(self.field, pack_rows(bits.T), self.rows)
        return Mat._of(self.field, self.a.T)

    def kron(self, other: "Mat") -> "Mat":
        self._check(other)
        prod = mul(self.field, self.a[:, None, :, None], other.a[None, :, None, :])
        return Mat._of(self.field, prod.reshape(self.rows * other.rows,
                                                self.cols * other.cols))

    def pow(self, e: int) -> "Mat":
        if self.rows != self.cols:
            raise ValueError(f"power of a non-square {self.rows}x{self.cols} matrix")
        if e < 0:
            return self.inverse().pow(-e)
        out = Mat.identity(self.field, self.rows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    # -- elimination-based -------------------------------------------------

    def rref(self, force_generic: bool = False):
        if self.field.is_gf2 and not force_generic:
            w = self.words.copy()
            piv = _rref_packed(w, self.cols)
            return Mat.from_words(self.field, w, self.cols), tuple(piv)
        out, piv = rref_array(self.a, self.field, force_generic=force_generic)
        return Mat._of(self.field, out), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        f = self.field
        if f.is_gf2:
            wa = self.words.shape[1]
            aug = np.hstack([self.words, _identity_words(n)])
            piv = _rref_packed(aug, 64 * wa + n)
            if tuple(piv) != tuple(range(n)):
                raise ValueError("matrix is singular")
            return Mat.from_words(f, aug[:, wa:], n)
        aug = np.hstack([self.a, np.eye(n, dtype=np.int64)])
        out, piv = rref_array(aug, f)
        if tuple(piv) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Mat._of(f, out[:, n:])

    def det(self) -> int:
        return int(det(self.field, self.a))

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not (isinstance(other, Mat) and self.field == other.field
                and self.shape == other.shape):
            return False
        if self._a is None or other._a is None:
            return bool(np.array_equal(self.words, other.words))
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self.field, self.shape, self.a.tobytes()))

    def key(self) -> bytes:
        """Dedup key for closure sets."""
        return self.a.tobytes()

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols})"

    def tolist(self):
        return [[int(x) for x in row] for row in self.a]


def entries(m, field: GF | None = None) -> np.ndarray:
    """The encoded entries of a Mat, checked to lie over `field` if given, or
    an encoded array (a stack of matrices, say) as it is."""
    if not isinstance(m, Mat):
        return np.asarray(m, dtype=np.int64)
    if field is not None and m.field != field:
        raise ValueError(f"mismatched fields: {m.field} vs {field}")
    return m.a


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Row space in canonical RREF form; equality is byte equality."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: GF, ambient: int, basis: np.ndarray, pivots):
        self.field = field
        self.ambient = ambient
        basis = np.ascontiguousarray(np.asarray(basis, dtype=np.int64))
        basis.flags.writeable = False
        self.basis = basis
        self.pivots = tuple(pivots)
        assert basis.shape == (len(self.pivots), ambient)

    @classmethod
    def from_rows(cls, field: GF, rows, ambient: int | None = None) -> "Subspace":
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.size == 0 and ambient is not None:
            arr = arr.reshape(0, ambient)
        amb = arr.shape[1] if ambient is None else ambient
        if arr.shape[1] != amb:
            raise ValueError(f"rows of length {arr.shape[1]} in a subspace of dimension {amb}")
        red, piv = rref_array(arr, field)
        return cls(field, amb, red[: len(piv)], piv)

    @classmethod
    def zero(cls, field: GF, ambient: int) -> "Subspace":
        return cls(field, ambient, np.zeros((0, ambient), dtype=np.int64), ())

    @classmethod
    def full(cls, field: GF, ambient: int) -> "Subspace":
        return cls(field, ambient, np.eye(ambient, dtype=np.int64), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of v after clearing its pivot coordinates (v mod this space).

        The basis is in RREF, so the residue is v - v[pivots]·B.
        """
        f = self.field
        v = np.asarray(v, dtype=np.int64) % f.q
        if v.shape != (self.ambient,):
            raise ValueError(f"vector of shape {v.shape} in a space of dimension {self.ambient}")
        return add(f, v, neg(f, matmul(f, v[None, list(self.pivots)], self.basis)[0]))

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.pivots, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient})"


# ---------------------------------------------------------------------------
# the operations


def rref(m: Mat, force_generic: bool = False):
    """(canonical RREF, rank, pivot columns)."""
    red, piv = m.rref(force_generic=force_generic)
    return red, len(piv), piv


def kernel(m: Mat, force_generic: bool = False) -> Subspace:
    """Right null space {v : Mv = 0} as a canonical subspace."""
    red, piv = m.rref(force_generic=force_generic)
    f = m.field
    cols = m.cols
    is_free = np.ones(cols, dtype=bool)
    is_free[list(piv)] = False
    free = np.flatnonzero(is_free)
    if not free.size:
        return Subspace.zero(f, cols)
    # free column c gives e_c minus its RREF column on the pivot coordinates
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    if piv:
        basis[:, list(piv)] = neg(f, red.take_rows(slice(0, len(piv))).a[:, free].T)
    return Subspace.from_rows(f, basis)


def solve(m: Mat, b) -> np.ndarray | None:
    """One solution of Mx = b with free coordinates zeroed, or None."""
    f = m.field
    bvec = np.asarray(b, dtype=np.int64).reshape(-1)
    if bvec.shape[0] != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = np.hstack([m.a, bvec.reshape(-1, 1)])
    red, piv = rref_array(aug, f)
    if piv and piv[-1] == m.cols:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    for i, pc in enumerate(piv):
        x[pc] = red[i, m.cols]
    return x


def _square_family(mats: list[Mat]):
    """(field, n) of n x n matrices over one field; ValueError otherwise."""
    f, n = mats[0].field, mats[0].rows
    if any(g.field != f or g.shape != (n, n) for g in mats):
        raise ValueError("matrices must be square, same size, same field")
    return f, n


def stacked_minus_identity(mats: list[Mat]) -> Mat:
    """The matrices g - 1 stacked top to bottom, packed over GF(2): its
    kernel is the common fixed space of the list."""
    if not mats:
        raise ValueError("need at least one matrix")
    f, n = _square_family(mats)
    if f.is_gf2:
        ident = _identity_words(n)
        return Mat.from_words(f, np.vstack([g.words ^ ident for g in mats]), n)
    ident = Mat.identity(f, n)
    return Mat._of(f, np.vstack([(g - ident).a for g in mats]))


def joint_fixed_space(mats: list[Mat]) -> Subspace:
    """Common fixed space of a list of square matrices over one field."""
    return kernel(stacked_minus_identity(mats))


def quotient_action(mats: list[Mat], x: Mat) -> list[Mat]:
    """Induced action on V / ker x in the coordinates v -> R·v, R the nonzero
    rows of the canonical RREF of x.

    R is 1 on its pivot columns, so A_g·R = R·g forces A_g = (R·g)[:, pivots];
    that equation is checked, and fails with a ValueError exactly when g does
    not map ker x into itself.
    """
    if not mats:
        return []
    f, n = _square_family(mats)
    if x.field != f or x.cols != n:
        raise ValueError("map and matrices live on different spaces")
    red, piv = x.rref()
    if len(piv) == n:  # ker x = 0 and R = 1
        return list(mats)
    r = red.take_rows(slice(0, len(piv)))
    out = []
    for g in mats:
        rg = r @ g
        out.append(rg.take_cols(piv))
        if out[-1] @ r != rg:
            raise ValueError("kernel is not invariant under the given action")
    return out


def radical_of_form(gram: Mat) -> Subspace:
    """Radical {v : B(v, w) = 0 for all w} of a bilinear form's Gram matrix."""
    if gram.rows != gram.cols:
        raise ValueError("Gram matrix must be square")
    return kernel(gram)


# convenience: GF(2) field singleton used throughout the package
GF2 = make_field(2)
