"""Independent brute-force oracles.

Each oracle recomputes a quantity the main code paths produce, by a method
sharing as little machinery as possible: full group enumeration instead of
bitmask sweeps, exhaustive subspace decomposition instead of norm ranks,
corner-removal recursion instead of hook products.  Tests freeze main-path
values only after these agree.
"""

from __future__ import annotations

import functools

import numpy as np

from . import perm as pm
from .checks import require
from .field import GF, make_field
from .linalg import Mat, Subspace, kernel, mm_modp


# ---------------------------------------------------------------------------
# parabolic-trivial subgroups by exhaustive closure

# elements filtered per batched product.  It bounds the memory of the
# stacked images: for the dickson suite at max_n 8 (one BLAS thread, with
# the int8 rows of pm.closure), the process's peak RSS was 32.2 MiB at 512
# and 32.3 MiB at 1024, and 2048 and 8192 raised it by 1.4 and 5.3 MiB.
_FILTER_CHUNK = 512


@functools.lru_cache(maxsize=None)
def _trivial_rows(n: int) -> np.ndarray:
    """The elements of S_n acting trivially on W and V/W, as read-only rows.

    Enumerates S_n as the sorted int8 element array of pm.closure and maps
    each chunk of at most _FILTER_CHUNK rows through the mod-2
    representation with one gather (irrep_images), whose images are int64
    whatever the rows' dtype.  The chunk's D = g - I is then filtered
    in two stages.  Stage 1 keeps the g with D B^T = 0, where the rows of B
    span W: g fixes W pointwise.  Stage 2 runs on those few rows only and
    keeps the g with R D = 0, where R v is the residue of v after clearing
    W's pivots: g is the identity on V/W.  For a Lagrangian W of a form g
    preserves, stage 1 already implies stage 2 (V/W is dual to W); stage 2
    stays because it is the definition, and this oracle assumes no form.
    D is left unreduced and each product is read through x & 1, which is
    x mod 2 for every int64, negatives included.  The survivors stay
    sorted and int8, as closure returns them.  No packed-word tricks
    anywhere.
    """
    from .dickson import half_dim, irrep_images, lagrangian_pair

    w, _, _ = lagrangian_pair(half_dim(n))
    dim = w.ambient
    elements = pm.closure(pm.standard_gens("sym", n))
    ident = np.eye(dim, dtype=np.int64)
    basis = w.basis
    residue = (ident + basis.T @ ident[list(w.pivots)]) % 2
    survivors = []
    for start in range(0, len(elements), _FILTER_CHUNK):
        block = elements[start:start + _FILTER_CHUNK]
        diff = irrep_images(block, 2) - ident
        fixes_w = ~((diff @ basis.T) & 1).any(axis=(1, 2))
        diff = diff[fixes_w]
        trivial_on_quotient = ~((residue @ diff) & 1).any(axis=(1, 2))
        survivors.append(block[fixes_w][trivial_on_quotient])
    survivors = np.concatenate(survivors)
    survivors.flags.writeable = False
    return survivors


def enum_parabolic(n: int, kind: str) -> dict:
    """Brute-force rank/order of the subgroup acting trivially on W and V/W.

    One exhaustive S_n sweep per degree (_trivial_rows, cached by n, so only
    sensible for n <= 8) decides both kinds: the A_n elements that act
    trivially are exactly the even S_n elements that do, so "alt" keeps the
    survivors of sign +1.  The kept rows, still sorted, must be exactly the
    span that elementary_abelian_span certifies; that check runs on every
    call.  Needs 5 <= n <= 8: at n = 4 the Klein four-group acts trivially on
    all of V, and the subgroup is dihedral of order 8, not elementary abelian.
    Returns {n, kind, rank, order}.
    """
    if not 5 <= n <= 8:
        raise ValueError(f"exhaustive oracle needs 5 <= n <= 8, got {n}")
    if kind not in ("sym", "alt"):
        raise ValueError(f"kind must be sym or alt, got {kind!r}")
    survivors = _trivial_rows(n)
    if kind == "alt":
        survivors = survivors[np.array([pm.sign(g) == 1 for g in survivors.tolist()])]
    certified = pm.elementary_abelian_span(survivors, 2)
    require(certified is not None and np.array_equal(certified[1], survivors),
            "trivially-acting elements should form an elementary abelian group")
    return {"n": n, "kind": kind, "rank": len(certified[0]), "order": len(survivors)}


# ---------------------------------------------------------------------------
# free summand counting by exhaustive decomposition (GF(2), dim <= 6)
#
# Vectors live as bitmasks; a subspace is the frozenset of all its elements.


def _image_table(mat: Mat) -> list[int]:
    """Bitmask -> bitmask lookup for the matrix acting on GF(2)^dim."""
    dim = mat.rows
    cols = [sum(int(mat.a[i, j]) << i for i in range(dim)) for j in range(dim)]
    out = []
    for v in range(1 << dim):
        acc = 0
        rest = v
        j = 0
        while rest:
            if rest & 1:
                acc ^= cols[j]
            rest >>= 1
            j += 1
        out.append(acc)
    return out


def _span_of(vectors) -> frozenset:
    """All XOR combinations, via a top-bit Gaussian basis."""
    by_top = {}
    for v in vectors:
        while v:
            t = v.bit_length() - 1
            if t in by_top:
                v ^= by_top[t]
            else:
                by_top[t] = v
                break
    space = {0}
    for b in by_top.values():
        space |= {x ^ b for x in space}
    return frozenset(space)


def _invariant_complement(group_tables, span: frozenset, dim: int):
    """An invariant subspace meeting span only in zero, of complementary size.

    Breadth-first growth over invariant subspaces, pruning any that touch
    span; invariant spaces are exactly those built by repeatedly adjoining
    the full orbit span of one new vector.
    """
    target = (1 << dim) // len(span)
    zero = frozenset({0})
    if target == 1:
        return zero
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for space in frontier:
            for v in range(1, 1 << dim):
                if v in space:
                    continue
                orbit = [t[v] for t in group_tables]
                bigger = _span_of(list(space) + orbit)
                if len(bigger & span) > 1:
                    continue
                if len(bigger) == target:
                    return bigger
                if len(bigger) < target and bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return None


def _vec_of(mask: int, dim: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(dim)], dtype=np.int64)


def _restrict_to(mats: list[Mat], space: frozenset, fld: GF) -> list[Mat]:
    """Matrices of the action on an invariant subspace, in its RREF basis."""
    dim = mats[0].rows
    rows = [_vec_of(v, dim) for v in sorted(space) if v]
    sub = Subspace.from_rows(fld, rows, ambient=dim)
    piv = list(sub.pivots)
    out = []
    for m in mats:
        img = mm_modp(m.a, sub.basis.T, 2)
        coef = img[piv, :]
        require(np.array_equal(mm_modp(sub.basis.T, coef, 2), img),
                "subspace not invariant under restriction")
        out.append(Mat(fld, coef))
    return out


def decompose_small_module(mats: list[Mat], group_order: int) -> int:
    """Number of free summands over the group generated by the matrices.

    Pure search: a free summand is the orbit span of a single vector whose
    translates are independent, paired with an invariant complement; peel one
    off and recurse.  Krull-Schmidt makes greedy peeling safe.  Exponential
    in the dimension; capped at dimension 8 over GF(2), and the complement
    search can get slow near the cap when many subspaces are invariant.

    group_order is the order of the abstract group the matrices represent,
    so a free summand has dimension group_order.  It is not read off the
    matrices: an unfaithful action, such as the restriction to a complement
    in the recursion, generates a smaller matrix group.  That group's order
    must divide group_order, or ValueError.
    """
    fld = mats[0].field
    if fld.q != 2:
        raise ValueError("brute-force decomposition implemented for GF(2) only")
    dim = mats[0].rows
    if dim > 8:
        raise ValueError("brute-force decomposition capped at dimension 8")
    if dim == 0:
        return 0
    ident = Mat.identity(fld, dim)
    elems = {ident: None}  # a set in insertion order
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                y = m @ g
                if y not in elems:
                    if len(elems) > 64:
                        raise ValueError("brute-force decomposition capped at 64 group elements")
                    elems[y] = None
                    nxt.append(y)
        frontier = nxt
    group = list(elems)
    if group_order % len(group):
        raise ValueError(f"group order {group_order} is not a multiple of "
                         f"{len(group)}, the order of the matrix group")
    if group_order > dim:
        return 0
    group_tables = [_image_table(m) for m in group]
    for v in range(1, 1 << dim):
        span = _span_of([t[v] for t in group_tables])
        if len(span) != (1 << group_order):
            continue
        comp = _invariant_complement(group_tables, span, dim)
        if comp is None:
            continue
        if comp == {0}:
            return 1
        return 1 + decompose_small_module(_restrict_to(mats, comp, fld), group_order)
    return 0


# ---------------------------------------------------------------------------
# random test modules for the norm-rank formula


def _random_invertible(rng, dim: int) -> np.ndarray:
    while True:
        s = rng.integers(0, 2, size=(dim, dim)).astype(np.int64)
        if Mat(make_field(2), s).rank() == dim:
            return s


def _random_involution(rng, fld: GF, dim: int) -> Mat:
    """I + N with N square-zero of random positive rank, randomly conjugated."""
    k = int(rng.integers(1, dim // 2 + 1))
    n0 = np.zeros((dim, dim), dtype=np.int64)
    for i in range(k):
        n0[2 * i, 2 * i + 1] = 1
    sm = Mat(fld, _random_invertible(rng, dim))
    n = sm @ Mat(fld, n0) @ sm.inverse()
    out = Mat.identity(fld, dim) + n
    require(out @ out == Mat.identity(fld, dim) and out != Mat.identity(fld, dim),
            "random involution is not a nontrivial involution")
    return out


def _random_commuting_pair(rng, fld: GF, dim: int):
    """Two commuting involutions generating a rank-2 group, or None.

    The second generator is sampled from the kernel of X -> XN - NX (so it
    commutes by construction) and kept when X is square-zero and not 0 or N.
    """
    ident = Mat.identity(fld, dim)
    for _ in range(40):
        a = _random_involution(rng, fld, dim)
        n = (a - ident).a % 2
        # X -> XN - NX on row-major vec(X), column (i, j) the image of e_ij
        eye = np.eye(dim, dtype=np.int64)
        centralizer = kernel(Mat(fld, (np.kron(eye, n.T) - np.kron(n, eye)) % 2))
        for _ in range(60):
            coeffs = rng.integers(0, 2, size=centralizer.dim).astype(np.int64)
            x = (coeffs @ centralizer.basis % 2).reshape(dim, dim)
            if not x.any() or np.array_equal(x, n):
                continue
            if ((x @ x) % 2).any():
                continue
            b = ident + Mat(fld, x)
            require(a @ b == b @ a, "sampled pair does not commute")
            return [a, b]
    return None


def make_test_modules(seed: int = 0):
    """Seeded random (generators, label) cases for validating summand counts:
    30 single involutions, then 30 commuting pairs."""
    fld = make_field(2)
    rng = np.random.default_rng(900_000 + seed)
    cases = []
    for i in range(30):
        dim = int(rng.integers(2, 7))
        cases.append(([_random_involution(rng, fld, dim)], f"rand-C2-{i}-dim{dim}"))
    made = 0
    while made < 30:
        dim = int(rng.integers(3, 7))
        pair = _random_commuting_pair(rng, fld, dim)
        if pair is None:
            continue
        cases.append((pair, f"rand-K4-{made}-dim{dim}"))
        made += 1
    return cases


def validate_norm_rank(seed: int = 0) -> dict:
    """Compare norm-operator ranks with brute-force free summand counts.

    Runs over the random test modules plus a few symmetric-group restrictions
    of dimension at most 6.  Returns per-case results and an overall verdict.
    """
    from . import snmod

    fld = make_field(2)
    cases = make_test_modules(seed)
    mod = snmod.irreducible_D((3, 2), 2)
    cases.append(([mod.act(g) for g in pm.special_subgroups(5, "H", m=2).generators],
                  "D(3,2)|H_4"))
    mod = snmod.irreducible_D((4, 1), 2)
    cases.append(([mod.act(g) for g in pm.special_subgroups(5, "H", m=2).generators],
                  "D(4,1)|H_4"))
    cases.append(([mod.act(g) for g in pm.special_subgroups(5, "K").generators],
                  "D(4,1)|K"))
    mod = snmod.irreducible_D((2, 1), 2)
    cases.append(([mod.act(pm.transposition(3, 0, 1))], "D(2,1)|C_2"))
    results = []
    for mats, label in cases:
        via_norm = snmod.free_count(fld, mats[0].rows, mats)
        via_search = decompose_small_module(mats, group_order=2 ** len(mats))
        results.append({"label": label, "dim": mats[0].rows,
                        "norm_rank": via_norm, "search_count": via_search,
                        "match": via_norm == via_search})
    return {"all_match": all(r["match"] for r in results),
            "cases": len(results), "results": results}


# ---------------------------------------------------------------------------
# tableau counting by corner removal


@functools.lru_cache(maxsize=None)
def tableau_count(lam: tuple) -> int:
    """Standard tableau count via the recursion over removable corners."""
    if not lam:
        return 1
    if sum(lam) > 12:
        raise ValueError("tableau oracle is capped at 12 boxes")
    if not all(a >= b for a, b in zip(lam, lam[1:])) or lam[-1] <= 0:
        raise ValueError(f"{lam} is not a partition")
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
            total += tableau_count(tuple(x for x in smaller if x))
    return total


# ---------------------------------------------------------------------------
# partitions into distinct parts, counted through partitions into odd parts


def distinct_part_count(n: int) -> int:
    """q(n), the number of partitions of n into distinct parts.

    By Euler's theorem these are as many as the partitions of n into odd
    parts, which the coin-change recursion over the parts 1, 3, 5, ...
    counts; no partition is listed.  In characteristic 2 the 2-regular
    partitions are exactly the ones into distinct parts.
    """
    ways = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]
