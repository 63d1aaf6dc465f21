"""Exact linear algebra over GF(p^r).

Matrices are numpy int64 arrays of canonical element encodings, and every
field shares one vectorized path: the encoded-array operations `add`,
`neg`, `mul`, `inv`, `sub_mul`, `matmul` and `det`.  Each takes leading
stack axes, so a batch of matrices is one array of shape (..., n, n) and one
call.  Over a prime field each is the plain mod-p expression, and `mm_modp`
sends products of at least _BLAS_MACS multiply-adds through float64 BLAS.
Over GF(p^r), r > 1, an array is split into its r base-p digit planes;
plane products run through the same mod-p product and the degrees r..2r-2
fold back with the field's reduction rows.  Bit-packing of GF(2) rows, 64
columns to a uint64 word, lives in two kernels: `mm_gf2`, the Four-Russians
table product that every GF(2) `Mat` product and every GF(2) batch of
products use, and `rref_array`, which packs every GF(2) elimination; `form`
shows a GF(2) matrix by its packed rows, so that batches of products
compare as words.

Batches of matrix products go through one call: `product_forms` gives the
`form` of a @ b for every a in lefts and b in rights as one array, formed
from the lefts stacked top to bottom times the rights side by side, a chunk
of at most _PRODUCT_CELLS result cells at a time (`spans`); `of_form` turns
a form back into a `Mat`.

All reduced row echelon forms are canonical: leading coefficient 1, pivot
columns cleared, rows ordered by pivot.  Two subspaces are equal iff their
canonical bases are byte-identical, which is what makes report output
reproducible.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .checks import require
from .field import GF, make_field

# p² times the inner dimension must stay below this for mm_modp's float64
# product and its reduction to be exact
_FLOAT_EXACT = 2**53

# from this many multiply-adds on, counted over the broadcast stack, mm_modp
# multiplies in float64 through BLAS: numpy's int64 matmul has no BLAS, and
# below this it is the faster one on the shapes the benchmark workloads make
# at p = 2, 3 and 5 (the sweep in BENCH_blas_layers.json)
_BLAS_MACS = 4_096

# words per block of Four-Russians tables, so a block stays in cache
_TABLE_WORDS = 1 << 16

# result cells, entries or packed words, per product of a batch (`spans`):
# a chunk holds at most this many, or one block that alone holds more, so
# its int64 and float64 temporaries stay at 128 KiB each.  Four times as
# many raised the peak RSS of a mixed-field benchmark worker by 0.8 MiB.
_PRODUCT_CELLS = 1 << 14


def _as_array(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    assert arr.ndim == 2
    return arr


def mm_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact matmul of canonical mod-p arrays; leading axes are stacks,
    broadcast as in np.matmul.

    A product of at least _BLAS_MACS multiply-adds runs in float64 through
    BLAS and is reduced in place, c - ⌊c/p⌋·p, then cast once.  That is
    exact: each sum c = qp + r is an integer, and p(q + 1) <= c + p < p²k
    < 2^53, so c/p lies more than half an ulp below q + 1 and rounds to a
    value in [q, q + 1), whose floor is q; qp and c - qp are exact too.
    """
    n, k, m = a.shape[-2], a.shape[-1], b.shape[-1]
    assert k == b.shape[-2], f"shape mismatch {a.shape} @ {b.shape}"
    if k == 0:
        stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.zeros(stack + (n, m), dtype=np.int64)
    require(p * p * k < _FLOAT_EXACT, "mod-p product would leave exact float range")
    macs = n * k * m
    if a.ndim > 2 or b.ndim > 2:  # times the broadcast stack
        macs *= math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
    if macs < _BLAS_MACS:
        c = a @ b
        c %= p  # in place: no second int64 result
        return c
    c = a.astype(np.float64) @ b.astype(np.float64)
    q = np.divide(c, p)
    np.floor(q, out=q)
    q *= p
    c -= q
    del q  # so the cast below is the second result-sized array, not the third
    return c.astype(np.int64)


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


def unpack_rows(w: np.ndarray, cols: int) -> np.ndarray:
    bits = np.unpackbits(w.view(np.uint8), axis=1, count=cols, bitorder="little")
    return bits.astype(np.int64)


def mm_gf2(aw: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Packed GF(2) product of A (packed rows, k columns) and B (k packed rows).

    The method of the Four Russians (Arlazarov et al. 1970; Albrecht, Bard
    and Hart, ACM TOMS 37, 2010): the rows of B go in groups of 8, the 256
    sums of each group are tabulated, and each row of A adds one table row
    per group, the one its byte over those 8 columns addresses.
    """
    n, (k, wb) = aw.shape[0], bw.shape
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
    """RREF of an encoded array (copy); returns (array, pivot list).

    One scan per column, as in `_rref_packed`: its nonzero rows give the
    pivot row, the first at or below r, and the rows to clear, from column c
    on, since rows at and below r are zero left of it.  The pivot inverse
    comes from `_inv_table` over a prime field, from `GF.inv` over GF(p^r).
    """
    a = a % f.q
    rows, cols = a.shape
    table = _inv_table(f.p) if f.r == 1 else None
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = a[:, c].nonzero()[0]
        k = hits.searchsorted(r)
        if k == hits.size:
            continue
        pr = hits[k]
        lead = int(a[pr, c])
        if lead == 1:
            row = a[pr, c:].copy()
        else:
            row = mul(f, a[pr, c:], int(table[lead]) if table is not None else f.inv(lead))
        if hits.size > 1:  # a lone hit is the pivot row, overwritten below
            a[hits, c:] = sub_mul(f, a[hits, c:], a[hits, c, None], row)
        if pr != r:
            a[pr] = a[r]
        a[r, c:] = row
        pivots.append(c)
        r += 1
    return a, pivots


def rref_array(a: np.ndarray, f: GF):
    """Canonical RREF of an encoded array; returns (array, pivot tuple)."""
    a = _as_array(a)
    if f.is_gf2:
        w = pack_rows(a)  # it keeps the low bit, the entry mod 2
        piv = _rref_packed(w, a.shape[1])
        out = np.empty(a.shape, dtype=np.int64)
        out[:len(piv)] = np.unpackbits(w[:len(piv)].view(np.uint8), axis=1, count=a.shape[1],
                                       bitorder="little")
        out[len(piv):] = 0  # the rows below the rank are zero
        return out, tuple(piv)
    out, piv = _rref_generic(a, f)
    return out, tuple(piv)


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Immutable matrix over a fixed field, entries canonically encoded.

    `.a` holds the read-only int64 entries, and every operation reads them
    but the two that meet packed rows.  A GF(2) product runs `mm_gf2` on
    the bit-packed rows (`words`, packed on first use and kept) of its
    operands, and its result holds only words until `.a` unpacks them on
    first use; equality compares words when either side has no entries yet.
    Eliminations pack inside `rref_array`.
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

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Mat._of(self.field, add(self.field, self.a, other.a))

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
        if f.is_gf2:
            return Mat.from_words(f, mm_gf2(self.words, other.words), other.cols)
        return Mat._of(f, matmul(f, self.a, other.a))

    @property
    def T(self) -> "Mat":
        return Mat._of(self.field, self.a.T)

    def kron(self, other: "Mat") -> "Mat":
        self._check(other)
        prod = mul(self.field, self.a[:, None, :, None], other.a[None, :, None, :])
        return Mat._of(self.field, prod.reshape(self.rows * other.rows,
                                                self.cols * other.cols))

    def pow(self, e: int) -> "Mat":
        """self^e for e >= 0, left-to-right binary: floor(log2 e) squarings
        and popcount(e) - 1 products by self, none by the identity."""
        if self.rows != self.cols:
            raise ValueError(f"power of a non-square {self.rows}x{self.cols} matrix")
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if e == 0:
            return Mat.identity(self.field, self.rows)
        out = self
        for bit in bin(e)[3:]:  # the bits after the leading one
            out = out @ out
            if bit == "1":
                out = out @ self
        return out

    # -- elimination-based -------------------------------------------------

    def rref(self):
        out, piv = rref_array(self.a, self.field)
        return Mat._of(self.field, out), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = np.hstack([self.a, np.eye(n, dtype=np.int64)])
        out, piv = rref_array(aug, self.field)
        if tuple(piv) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Mat._of(self.field, out[:, n:])

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

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols})"

    def tolist(self):
        return [[int(x) for x in row] for row in self.a]


def spans(cells: list[int]) -> list[range]:
    """Consecutive runs of items whose results hold the given numbers of
    cells: a run holds at most _PRODUCT_CELLS cells in all, or is one item
    that alone holds more."""
    if sum(cells) <= _PRODUCT_CELLS:  # the common case: one run
        return [range(len(cells))] if cells else []
    out, start, total = [], 0, 0
    for i, c in enumerate(cells):
        if i > start and total + c > _PRODUCT_CELLS:
            out.append(range(start, i))
            start, total = i, 0
        total += c
    out.append(range(start, len(cells)))
    return out


def _chunks(lefts: list[Mat], rights: list[Mat], width: int):
    """(run of lefts, run of rights, their product) for each chunk of a
    grid: the run's lefts stacked top to bottom times its rights side by
    side, as `form`s, so over GF(2) as packed rows through `mm_gf2`.  Every
    right is width cells wide in the result, and a chunk's result holds at
    most _PRODUCT_CELLS cells or is a single block that alone holds more; a
    run of several lefts takes every right."""
    f, n = lefts[0].field, lefts[0].rows
    for ls in spans([n * width * len(rights)] * len(lefts)):
        stack = _concat([form(lefts[i]) for i in ls], 0)
        for rs in spans([stack.shape[0] * width] * len(rights)):
            side = _concat([form(rights[j]) for j in rs], 1)
            yield ls, rs, mm_gf2(stack, side) if f.is_gf2 else matmul(f, stack, side)


def _concat(arrays: list[np.ndarray], axis: int) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def form(m: Mat) -> np.ndarray:
    """The array that tells m from the other matrices of its field and shape:
    its packed rows (`Mat.words`) over GF(2), its entries otherwise."""
    return m.words if m.field.is_gf2 else m.a


def of_form(field: GF, arr: np.ndarray, cols: int) -> Mat:
    """The matrix with cols columns over field whose `form` is arr."""
    return Mat.from_words(field, arr, cols) if field.is_gf2 else Mat._of(field, arr)


def product_forms(lefts: list[Mat], rights: list[Mat]) -> np.ndarray:
    """The `form` of every product a @ b, a in lefts and b in rights, for
    lefts of one shape and rights of one shape over one field: P[i, :, j] is
    that of lefts[i] @ rights[j].  One product per chunk (`_chunks`)."""
    if not lefts or not rights:
        raise ValueError("need factors on both sides")
    f, (n, k), (kr, m) = lefts[0].field, lefts[0].shape, rights[0].shape
    if any(x.field != f for x in lefts + rights) or k != kr \
            or any(a.shape != (n, k) for a in lefts) or any(b.shape != (k, m) for b in rights):
        raise ValueError(f"cannot multiply {lefts!r} by {rights!r}: the factors need one "
                         "field, one shape on each side and one inner size")
    width = form(rights[0]).shape[1]
    grid = None
    for ls, rs, out in _chunks(lefts, rights, width):
        if len(ls) == len(lefts) and len(rs) == len(rights):
            return out.reshape(len(ls), n, len(rs), width)  # the one chunk
        if grid is None:
            grid = np.empty((len(lefts), n, len(rights), width), dtype=out.dtype)
        grid[ls.start:ls.stop, :, rs.start:rs.stop] = out.reshape(len(ls), n, len(rs), width)
    return grid


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

    @property
    def dim(self) -> int:
        return len(self.pivots)

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


def kernel(m: Mat) -> Subspace:
    """Right null space {v : Mv = 0} as a canonical subspace, from one elimination.

    M is reduced with its columns reversed, and each free column c of the
    reversal gives e_c minus its RREF column, which is nonzero only on pivot
    columns before c.  Read back in the original order, the vector of a free
    column has its leading 1 there and 0 on every other free column, so the
    vectors listed by that column are already the canonical RREF.
    """
    f, cols = m.field, m.cols
    red, piv = rref_array(m.a[:, ::-1], f)
    is_free = np.ones(cols, dtype=bool)
    is_free[list(piv)] = False
    free = np.flatnonzero(is_free)[::-1]
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    if piv:
        basis[:, list(piv)] = neg(f, red[: len(piv)][:, free].T)
    return Subspace(f, cols, basis[:, ::-1], (cols - 1 - free).tolist())


def _square_family(mats: list[Mat]):
    """(field, n) of n x n matrices over one field; ValueError otherwise."""
    f, n = mats[0].field, mats[0].rows
    if any(g.field != f or g.shape != (n, n) for g in mats):
        raise ValueError("matrices must be square, same size, same field")
    return f, n


def stacked_minus_identity(mats: list[Mat]) -> Mat:
    """The matrices g - 1 stacked top to bottom: its kernel is the common
    fixed space of the list."""
    if not mats:
        raise ValueError("need at least one matrix")
    f, n = _square_family(mats)
    ident = Mat.identity(f, n)
    return Mat._of(f, np.vstack([(g - ident).a for g in mats]))


def joint_fixed_space(mats: list[Mat]) -> Subspace:
    """Common fixed space of a list of square matrices over one field."""
    return kernel(stacked_minus_identity(mats))


def quotient_action(mats: list[Mat], x: Mat) -> list[Mat]:
    """Induced action on V / ker x in the coordinates v -> R·v, R the nonzero
    rows of the canonical RREF of x.

    R is 1 on its pivot columns, so A_g·R = R·g forces A_g = (R·g)[:, pivots];
    that equation is checked, and fails with a ValueError exactly when some g
    does not map ker x into itself.  R·g for every g is one `product_forms`,
    and A_g·R for every g another.
    """
    if not mats:
        return []
    f, n = _square_family(mats)
    if x.field != f or x.cols != n:
        raise ValueError("map and matrices live on different spaces")
    red, piv = x.rref()
    if len(piv) == n:  # ker x = 0 and R = 1
        return list(mats)
    r = Mat._of(f, red.a[: len(piv)])
    rg = product_forms([r], mats)[0].swapaxes(0, 1)  # the form of R·g at [g]
    acts = of_form(f, rg.reshape(-1, rg.shape[2]), n).a.reshape(len(mats), len(piv), n)
    out = [Mat._of(f, a) for a in acts[:, :, list(piv)]]
    if not np.array_equal(product_forms(out, [r])[:, :, 0], rg):
        raise ValueError("kernel is not invariant under the given action")
    return out


# convenience: GF(2) field singleton used throughout the package
GF2 = make_field(2)
