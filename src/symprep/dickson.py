"""Mod-p permutation representations of S_n and their symplectic geometry.

The heart of the module: over GF(2) the (n-1 or n-2)-dimensional quotient of
the permutation module carries a nondegenerate alternating form (all-ones
minus identity Gram), the span of e_{2i-1}+e_{2i} is a Lagrangian W, and the
subgroup of S_n acting trivially on both W and V/W is elementary abelian of
rank floor(n/2).  Everything here is computed exactly, with an element
image formula, applied to whole blocks of permutations at once, that avoids
multiplying out generator words.  The representation itself is one
read-only `snmod.GModule` per (n, p), and the Dickson form and its
Lagrangian pair one frozen value per half-dimension d: perm_irrep, dickson_form and lagrangian_pair
build and check each once per process, and every caller shares it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import perm as pm
from .checks import require
from .field import GF, make_field
from .forms import FormSpec, is_isotropic, preserves_form, unipotent_hom_dim
from .linalg import GF2, Mat, Subspace, matmul, mm_modp
from .snmod import GModule


def half_dim(n: int) -> int:
    """d_n = ceil(n/2) - 1: half the mod-2 irrep dimension."""
    return (n + 1) // 2 - 1


# ---------------------------------------------------------------------------
# the permutation irreducible


def _irrep_tables(n: int, p: int):
    """(ambient point count N, dim, E) for the reduced permutation module.

    E is an N x dim integer array whose row j is the expansion of the j-th
    ambient "difference vector" in the chosen basis; the image of any
    permutation g is then column-by-column E[g(i)] - E[g(N)], so arbitrary
    elements cost O(dim^2) with no generator factorization.
    """
    if p == 2:
        big = n + (n % 2)
        dim = big - 2
        e = np.zeros((big, dim), dtype=np.int64)
        e[:dim] = np.eye(dim, dtype=np.int64)
        e[big - 2] = 1  # sum of all basis vectors
        return big, dim, e
    if n % p == 0:
        dim = n - 2
        e = np.zeros((n, dim), dtype=np.int64)
        e[:dim] = np.eye(dim, dtype=np.int64)
        e[n - 2] = (p - 1)  # minus the sum of all basis vectors
        return n, dim, e
    dim = n - 1
    e = np.zeros((n, dim), dtype=np.int64)
    e[:dim] = np.eye(dim, dtype=np.int64)
    return n, dim, e


@functools.lru_cache(maxsize=None)
def _difference_table(n: int, p: int) -> np.ndarray:
    """The read-only (N, N, dim) table diff[a, b] = (E[a] - E[b]) mod p.

    E and the ambient point count N are those of _irrep_tables; every image
    column that irrep_images returns is one entry of this table.
    """
    _, _, e = _irrep_tables(n, p)
    diff = (e[:, None, :] - e[None, :, :]) % p
    diff.flags.writeable = False
    return diff


def irrep_images(perms: np.ndarray, p: int) -> np.ndarray:
    """Images under perm_irrep(n, p) of the rows of a (k, n) permutation array.

    Returns a (k, dim, dim) int64 array.  Column i of the image of g is
    E[g(i)] - E[g(N)] mod p, with E and the ambient point count N from
    _irrep_tables and g extended to fix the ambient points n..N-1.  Every
    such difference is precomputed once per (n, p) in _difference_table, so
    a whole block of elements costs one gather.
    """
    k, n = perms.shape
    diff = _difference_table(n, p)
    big, dim = diff.shape[1:]
    ext = np.concatenate([perms, np.broadcast_to(np.arange(n, big), (k, big - n))], axis=1)
    return diff[ext[:, :dim], ext[:, big - 1:]].transpose(0, 2, 1)


def _faithful_exactly(n: int, p: int) -> bool:
    """Exact kernel triviality.

    Small n: every element's image, in one batch, and only the identity may
    act trivially.  n >= 5: the kernel is a normal subgroup, and the only
    normal subgroups of S_n are 1, A_n and S_n, so nontrivial action of a
    3-cycle and of a transposition settles it.
    """
    if n >= 5:
        perms = [pm.from_cycles("(1 2 3)", n), pm.transposition(n, 0, 1)]
    else:
        perms = list(itertools.permutations(range(n)))
    images = irrep_images(np.array(perms), p)
    trivial = int((images == np.eye(images.shape[1], dtype=np.int64)).all(axis=(1, 2)).sum())
    return trivial == (0 if n >= 5 else 1)


def _check_word_consistency(rep: GModule):
    """On 20 random words in the swaps (k, k+1), the product of generator
    images is the word's image.

    Each word of length at most 10 is padded with identity slots to length
    10, so the 20 products are nine stacked products over a (20, dim, dim)
    stack; their elements' images are one irrep_images call.
    """
    rng = random.Random(0)
    n, pad = rep.n, len(rep.gen_actions)  # slot pad is the identity
    swaps = [pm.transposition(n, k, k + 1) for k in range(pad)]
    slots = np.full((20, 10), pad)
    elements = []
    for row in slots:
        length = rng.randint(1, 10)
        row[:length] = [rng.randrange(pad) for _ in range(length)]
        g = pm.identity(n)
        for k in row[:length]:
            g = pm.compose(g, swaps[k])
        elements.append(g)
    mats = np.stack([m.a for m in rep.gen_actions] + [np.eye(rep.dim, dtype=np.int64)])
    prod = mats[slots[:, 0]]
    for col in slots.T[1:]:
        prod = matmul(rep.field, prod, mats[col])
    require(np.array_equal(prod, irrep_images(np.array(elements), rep.field.p)),
            "generator images disagree with the element formula")


@functools.lru_cache(maxsize=None)
def perm_irrep(n: int, p: int) -> GModule:
    """The reduced permutation representation of S_n over GF(p), on the
    swaps (k, k+1) with their images from irrep_images.

    dim = n-1 when p does not divide n, n-2 when it does; for p = 2 the
    module is realized inside GF(2)^(2 ceil(n/2)) so that the symplectic
    basis conventions below apply verbatim for odd and even n alike.  The
    images are certified against the element formula on 20 random words,
    not by the Coxeter relations.  Cached: each (n, p) is built and checked
    once per process, and the read-only module is shared by every caller.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if p == 2 and n < 4:
        raise ValueError("mod-2 reduced module needs n >= 4 to be nonzero")
    fld = make_field(p)
    swaps = np.array([pm.transposition(n, k, k + 1) for k in range(n - 1)])
    rep = GModule(n, fld, [Mat(fld, m) for m in irrep_images(swaps, p)],
                  label=f"perm-irrep(S{n}, p={p})", check=False)
    _check_word_consistency(rep)
    return rep


# ---------------------------------------------------------------------------
# the symplectic structure


@functools.lru_cache(maxsize=None)
def dickson_form(d: int) -> FormSpec:
    """All-ones-minus-identity Gram on GF(2)^(2d): B(x, y) = sum_{i != j} x_i y_j.

    Cached: each d is built once per process, and the frozen result is
    shared by every caller.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    j = np.ones((2 * d, 2 * d), dtype=np.int64) - np.eye(2 * d, dtype=np.int64)
    return FormSpec(kind="symplectic", gram=Mat(GF2, j))


def check_invariance(rep: GModule, form: FormSpec) -> bool:
    """Does every Coxeter generator image g satisfy gᵀ·B·g = B?  One stacked check."""
    if rep.dim != form.dim or rep.field != form.gram.field:
        raise ValueError("representation and form live on different spaces")
    return bool(preserves_form(np.stack([m.a for m in rep.gen_actions]), form).all())


@functools.lru_cache(maxsize=None)
def lagrangian_pair(d: int):
    """Dual pair of Lagrangians for the Dickson form on GF(2)^(2d).

    W is spanned by w_i = e_{2i-1} + e_{2i}; the dual basis vectors are
    partial sums e_1 + ... + e_{2i-1}.  The pairing matrix of the two bases,
    W·G·W'ᵀ for the Gram matrix G, is checked to be the identity, and both
    bases isotropic, before anything is returned.  Cached: each d is built
    and checked once per process, and the result, (W, W', pairing) with
    read-only arrays, is shared by every caller.
    """
    form = dickson_form(d)
    w_rows = np.kron(np.eye(d, dtype=np.int64), np.ones(2, dtype=np.int64))
    dual_rows = (np.arange(2 * d) <= 2 * np.arange(d)[:, None]).astype(np.int64)
    pairing = Mat(GF2, w_rows) @ form.gram @ Mat(GF2, dual_rows.T)
    require(pairing == Mat.identity(GF2, d), "Lagrangian bases do not pair to the identity")
    require(is_isotropic(form, w_rows) and is_isotropic(form, dual_rows),
            "Lagrangian bases are not isotropic")
    return Subspace.from_rows(GF2, w_rows), Subspace.from_rows(GF2, dual_rows), pairing


# ---------------------------------------------------------------------------
# trivial-action subgroup of a parabolic


@dataclass(frozen=True)
class ParabolicResult:
    rank: int
    order: int
    witness: tuple
    elements: tuple


def _sweep_survivors_gf2(n: int, w: Subspace, parity: Optional[int]):
    """All g in S_n (or A_n when parity=1) acting trivially on w and V/w.

    A depth-first backtrack assigns g one point at a time: the simplest form
    of partition backtrack (Leon, J. Symbolic Comput. 12, 1991).  The
    trivial-action conditions are integer bitmask checks, and each runs as
    soon as every point it reads has an image: a row of w reads the points of
    its support, and an odd-weight row also reads the last ambient point; the
    V/w condition on column j reads j and the last ambient point.  S_n moves
    that point only for even n, and then it is assigned first.  The A_n
    parity is tested at the leaves.  A subtree is cut only by a failed check,
    so the survivors are exactly those of a full n! sweep.  They are returned
    in lexicographic order.
    """
    big, dim, e = _irrep_tables(n, 2)
    last = big - 1
    moved_last = big == n  # for odd n, S_n fixes the last ambient point
    ebits = [int(sum(1 << k for k in range(dim) if e[j, k] % 2)) for j in range(big)]
    red = [(piv, int(sum((1 << k) for k in range(dim) if w.basis[i, k]))) for i, piv in enumerate(w.pivots)]
    order = ([last] if moved_last else []) + [j for j in range(n) if j != last]
    depth = {pt: k for k, pt in enumerate(order)}
    # checks[k]: (points read, constant, reduce against w?) for each check
    # whose last point to be assigned is order[k]; it passes when the XOR
    # of the images' ebits and the constant is 0 (after reduction, if asked)
    checks = [[] for _ in order]

    def add(points, const, reduce):
        checks[max(depth[pt] for pt in points)].append((points, const, reduce))

    for row in w.basis:
        bits = tuple(k for k in range(dim) if row[k])
        odd = moved_last and len(bits) & 1
        add(bits + ((last,) if odd else ()), int(sum(1 << k for k in bits)), False)
    for j in range(dim):
        add((j, last) if moved_last else (j,), 1 << j, True)

    g = list(range(big))
    survivors = []

    def extend(k, free):
        if k == len(order):
            perm = tuple(g[:n])
            if parity is None or pm.sign(perm) == parity:
                survivors.append(perm)
            return
        pt = order[k]
        for img in free:
            g[pt] = img
            for points, acc, reduce in checks[k]:
                for q in points:
                    acc ^= ebits[g[q]]
                if reduce:
                    for pivbit, rowmask in red:
                        if (acc >> pivbit) & 1:
                            acc ^= rowmask
                if acc:
                    break
            else:
                extend(k + 1, [x for x in free if x != img])

    extend(0, list(range(n)))
    return sorted(survivors)


def parabolic_trivial_subgroup(n: int, kind: str, w: Subspace) -> ParabolicResult:
    """Subgroup of S_n (kind "sym") or A_n ("alt") acting trivially on w and V/w.

    V is the mod-2 permutation irreducible of perm_irrep(n, 2) and w a
    subspace of it.  Every such element is found by the point-by-point
    backtrack of _sweep_survivors_gf2, which cuts each branch at its first
    failed check and so never lists the n! permutations.  The survivors are
    certified to be the elementary abelian group their greedy witness spans:
    the span has 2^rank rows and equals the sorted survivors.  The witness is
    checked once more through the matrices of perm_irrep.
    """
    if kind not in ("sym", "alt"):
        raise ValueError(f"kind must be sym or alt, got {kind!r}")
    rep = perm_irrep(n, 2)  # rejects n < 4
    if w.field != rep.field or w.ambient != rep.dim:
        raise ValueError(f"w must be a subspace of GF(2)^{rep.dim}")
    survivors = _sweep_survivors_gf2(n, w, 1 if kind == "alt" else None)
    rows = np.array(survivors)
    certified = pm.elementary_abelian_span(rows, 2)
    require(certified is not None, "trivial-action subgroup is not elementary abelian")
    witness, span = certified
    rank = len(witness)
    require(len(span) == 2**rank and np.array_equal(span, rows),
            "witness span, survivor count and 2^rank disagree")
    require(gl_parabolic_check(rep, w, pm.GroupPresentation("perm", n, witness)),
            "witness does not act trivially through the representation matrices")
    return ParabolicResult(rank=rank, order=2**rank, witness=witness, elements=tuple(survivors))


@functools.lru_cache(maxsize=None)
def standard_parabolic(n: int, kind: str) -> ParabolicResult:
    """The trivial-action subgroup of S_n or A_n for the standard mod-2 Lagrangian.

    Cached: each (n, kind) is searched once per process, and the frozen
    result is shared by every caller.
    """
    return parabolic_trivial_subgroup(n, kind, lagrangian_pair(half_dim(n))[0])


def gl_parabolic_check(rep: GModule, w: Subspace, group: pm.GroupPresentation) -> bool:
    """Do all generators of the given subgroup act trivially on w and V/w?

    With D = g - 1 over one batch of generator images and B the RREF basis
    of w, g fixes w pointwise iff D·B^T = 0, and acts as the identity on V/w
    iff R·D = 0, where R v = v - B^T v[pivots] is the residue of v modulo w.
    Each condition is one product over the whole batch, the D stacked top to
    bottom for the first and side by side for the second.
    """
    if group.degree != rep.n:
        raise ValueError("subgroup degree does not match the represented group")
    p, dim, basis = rep.field.p, rep.dim, w.basis
    ident = np.eye(dim, dtype=np.int64)
    diff = (irrep_images(group.generator_rows(), p) - ident) % p
    residue = (ident - basis.T @ ident[list(w.pivots)]) % p
    fixes_w = mm_modp(diff.reshape(-1, dim), basis.T, p)
    on_quotient = mm_modp(residue, diff.transpose(1, 0, 2).reshape(dim, -1), p)
    return not fixes_w.any() and not on_quotient.any()


# ---------------------------------------------------------------------------
# doubling into the symplectic group


def _standard_symplectic(fld: GF, g: int) -> FormSpec:
    """The form with Gram [[0, I], [-I, 0]] on GF(q)^(2g)."""
    gram = np.zeros((2 * g, 2 * g), dtype=np.int64)
    gram[:g, g:] = np.eye(g, dtype=np.int64)
    gram[g:, :g] = (-np.eye(g, dtype=np.int64)) % fld.p
    return FormSpec(kind="symplectic", gram=Mat(fld, gram))


def diagonal_rep(rep: GModule):
    """The Coxeter generator images doubled as g |-> diag(g, g^-T) on V + V*.

    Returns (images, form): one 2·dim matrix per swap (k, k+1).  A swap is an
    involution, so g^-T = gᵀ; diag(g, gᵀ) preserves the standard symplectic
    form iff g·g = 1, so one stacked form check certifies every image.
    """
    d = rep.dim
    form = _standard_symplectic(rep.field, d)
    gens = np.stack([m.a for m in rep.gen_actions])
    out = np.zeros((len(gens), 2 * d, 2 * d), dtype=np.int64)
    out[:, :d, :d], out[:, d:, d:] = gens, gens.transpose(0, 2, 1)
    require(bool(preserves_form(out, form).all()), "doubled image must preserve the symplectic form")
    return tuple(Mat._of(rep.field, block) for block in out), form


def siegel_unipotent_dim(g: int, p: int) -> int:
    """Dimension of the full unipotent radical of the Lagrangian stabilizer in Sp_2g.

    Computed as the solution-space dimension of the invariance constraints on
    phi: V/W -> W, not from the closed form, so it can serve as a cross-check
    of binom(g+1, 2).
    """
    return unipotent_hom_dim(_standard_symplectic(make_field(p), g), g)


# ---------------------------------------------------------------------------
# serialization


def rep_to_json(rep: GModule) -> dict:
    """A perm_irrep module on (1 2) and (1 2 .. n), and its exact faithfulness."""
    n, p = rep.n, rep.field.p
    group = pm.standard_gens("sym", n)
    return {
        "kind": "representation",
        "label": rep.label,
        "field": {"p": p, "r": rep.field.r, "modulus": list(rep.field.modulus)},
        "group": {
            "kind": group.kind,
            "degree": group.degree,
            "label": group.label,
            "generators": [pm.to_cycles(g) for g in group.generators],
        },
        "dim": rep.dim,
        "faithful": _faithful_exactly(n, p),
        "generators": [
            {"cycles": pm.to_cycles(g), "matrix": m.tolist()}
            for g, m in zip(group.generators, irrep_images(group.generator_rows(), p))
        ],
    }
