"""Modular representations of symmetric groups: Specht modules, their
irreducible quotients, and restriction behavior on 2-subgroups.

The construction is concrete: the tabloid permutation module is an explicit
coordinate space, standard polytabloids are integer vectors in it, and every
Coxeter-generator action is straightened back into the standard-polytabloid
basis by solving against the own-tabloid block.  Everything downstream (Loewy
filtrations, norm ranks, Jordan profiles, fingerprints) is plain linear
algebra over GF(p).

The appendix claims built on this algebra are rows of `suites.FAMILIES`;
here are only the sweeps their jobs read and `verify_appendix`, which runs
one of those rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import InitVar, dataclass
from typing import Iterable, Optional

import numpy as np

from . import perm as pm
from .checks import require
from .field import GF, make_field
# the layer trace in perfbench/layers.py wraps linalg's functions by module, so
# joint_fixed_space, kernel and mm_modp stay importable from here although
# nothing here calls them; batched products go through product_forms alone
from .linalg import (Mat, form, joint_fixed_space, kernel, mm_modp,  # noqa: F401
                     of_form, product_forms, quotient_action, rref_array, spans)
from .records import VerificationReport, run_jobs


# ---------------------------------------------------------------------------
# partition combinatorics


def partitions(n: int, max_part: Optional[int] = None):
    """Weakly decreasing tuples summing to n, largest first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def check_partition(lam) -> tuple:
    lam = tuple(int(x) for x in lam)
    if not lam or not all(a > 0 for a in lam):
        raise ValueError(f"parts of {lam} must be positive")
    if not all(a >= b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"parts of {lam} must be weakly decreasing")
    return lam


def is_p_regular(lam, p: int) -> bool:
    """No part repeated p or more times."""
    lam = check_partition(lam)
    return all(lam.count(v) < p for v in set(lam))


def p_regular_partitions(n: int, p: int) -> list[tuple]:
    return [lam for lam in partitions(n) if is_p_regular(lam, p)]


def conjugate(lam) -> tuple:
    lam = check_partition(lam)
    return tuple(sum(1 for a in lam if a > j) for j in range(lam[0]))


def hook_length_dim(lam) -> int:
    lam = check_partition(lam)
    conj = conjugate(lam)
    prod = 1
    for i, li in enumerate(lam):
        for j in range(li):
            prod *= li - j + conj[j] - i - 1
    num = math.factorial(sum(lam))
    require(num % prod == 0, "hook-length product does not divide n!")
    return num // prod


# ---------------------------------------------------------------------------
# tabloids and polytabloids

# cap on the slots of a shape's dense code index, 64 MiB of int32 (see
# _Tabloids).  Every 2-regular shape to n = 13 fits (4^12 slots at most); a
# shape with many rows, such as (2, 1^8) with 9^9 slots, looks its codes up
# by binary search instead.
_INDEX_SLOTS = 1 << 24

# standard tableaux per block when the polytabloid terms are looked up and
# when a witness is reduced over them.  The int64 term codes and a pair's
# gathered words exist for one block at a time, which caps the peak memory
# of the large shapes; at n = 10 the largest, (4, 3, 2, 1), takes three blocks.
_BLOCK = 256


def _tabloid_words(lam: tuple):
    """(row words, codes) of every tabloid of shape lam, in increasing code order.

    The tabloids with row sizes s are, in code order, those with sizes
    s - e_i followed by the entry in row i, the new most significant digit,
    for i in increasing order.  So the words of each size vector s <= lam are
    built once, from those one entry smaller.  The words are int8, as a row
    index is below len(lam), at most 15 for a shape whose codes fit int64;
    _tabloids keeps them, 1 byte per entry where int64 took 8.
    """
    rows = len(lam)
    built = {(0,) * rows: np.zeros((1, 0), dtype=np.int8)}
    for sizes in sorted(itertools.product(*(range(k + 1) for k in lam)), key=sum)[1:]:
        parts = [(i, built[sizes[:i] + (sizes[i] - 1,) + sizes[i + 1:]])
                 for i in range(rows) if sizes[i]]
        m = sum(sizes) - 1
        words = np.empty((sum(len(w) for _, w in parts), m + 1), dtype=np.int8)
        at = 0
        for i, w in parts:
            words[at:at + len(w), :m], words[at:at + len(w), m] = w, i
            at += len(w)
        built[sizes] = words
    words = built[lam]
    return words, words @ rows ** np.arange(sum(lam), dtype=np.int64)


def standard_tableaux(words: np.ndarray, rows: int) -> np.ndarray:
    """The row words that are standard tableaux, in the basis order.

    Row i of a word's filling holds the entries x with word[x] = i in
    increasing order; its columns increase iff every prefix of the word
    fills each row at most as often as the row above.  The basis order is
    lexicographic in the word, with the row of the first entry as the major key.
    """
    # counts[t * width + i + 1] counts row i in the prefix of word t; the
    # slot before row 0 never binds.  A word drops out at its first breach.
    width = rows + 1
    counts = np.zeros(len(words) * width, dtype=np.int64)
    counts[::width] = words.shape[1]
    alive = np.arange(len(words))
    for x in range(words.shape[1]):
        above = alive * width + words[alive, x]
        counts[above + 1] += 1
        alive = alive[counts[above] >= counts[above + 1]]
    standard = words[alive]
    return standard[np.lexsort(standard.T[::-1])]


@functools.lru_cache(maxsize=None)
def _symmetric_group(c: int):
    """(perms, signs) of S_c, read-only: the (c! x c) int64 array of its
    permutations in `itertools.permutations` order and their signs."""
    perms = np.array(list(itertools.permutations(range(c))), dtype=np.int64)
    signs = np.array([pm.sign(sig) for sig in perms], dtype=np.int64)
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


def _column_group(lam: tuple):
    """(column perms, signs) of the column group of lam, one term per element.

    perms[j] is the (c_j! x c_j) int64 array of the permutations of column
    j, of height c_j, in `itertools.permutations` order.  The terms are
    their choices over the columns in `itertools.product` order, and term k
    carries the sign signs[k] of that permutation of the cells.  Both are
    read-only; the arrays of each height are built once per process.
    """
    groups = [_symmetric_group(c) for c in conjugate(lam)]
    signs = functools.reduce(np.multiply.outer, [col_signs for _, col_signs in groups])
    signs = np.asarray(signs, dtype=np.int64).reshape(-1)
    signs.flags.writeable = False
    return [perms for perms, _ in groups], signs


def _polytabloid_terms(lam: tuple, tableaux: np.ndarray, perms: list) -> np.ndarray:
    """int64 term codes of the standard polytabloids of the row words tableaux.

    The polytabloid of t is the signed sum of {σt} over its column group;
    the term for σ puts the entry in row a of column j into row σ_j(a),
    with the σ_j listed by `_column_group(lam)`.  A code is a sum over the
    columns, so the (tableau x term) code array, row r the polytabloid of
    tableaux[r], is an outer sum of one small product per column.
    """
    # a stable argsort lists each filling row by row, left to right, so cell
    # (a, j) sits at position start[a] + j; weight[:, a] is base^(its entry).
    # A column of height 1 has one term and adds 0, as its entry stays in row 0.
    start = np.cumsum((0,) + lam[:-1])
    order = np.argsort(tableaux, axis=1, kind="stable")
    codes = np.zeros((len(tableaux), 1), dtype=np.int64)
    for j, col in enumerate(perms):
        if len(col) > 1:
            weight = len(lam) ** order[:, start[:col.shape[1]] + j]
            codes = (codes[:, :, None] + (weight @ col.T)[:, None, :]).reshape(len(tableaux), -1)
    return codes


class _Tabloids:
    """The tabloids of one shape lam and its standard polytabloids.

    A tabloid of shape lam is its row word: entry x is the row that holds x.
    Its code is the row word read in base len(lam), sum of row(x) * base^x,
    so sorted codes index the tabloids.  The row sizes fix the row of the
    last entry, so the low n - 1 digits of a code already name its tabloid,
    and a dense table over them turns a code into its index in one gather.

    words and codes list the tabloids in code order, tableaux the standard
    ones in the basis order, and row r of the (tableau x term) int32 array
    terms holds the tabloid indices of the polytabloid of tableaux[r], term k
    with sign signs[k].
    """

    def __init__(self, lam: tuple):
        n = sum(lam)
        if len(lam) ** n > 2**63:  # the codes are int64; checked before any word is listed
            raise ValueError(f"tabloid codes of {lam} overflow int64: {len(lam)}^{n} > 2^63")
        self.lam = lam
        self.words, self.codes = _tabloid_words(lam)
        self.powers = len(lam) ** np.arange(n, dtype=np.int64)  # base^x, the weight of entry x
        # slots no tabloid fills hold 0, so a lookup compares the code it finds
        slots = len(lam) ** (n - 1)
        self.index = None
        if slots <= _INDEX_SLOTS:
            self.index = np.zeros(slots, dtype=np.int32)
            self.index[self.codes % slots] = np.arange(len(self.codes), dtype=np.int32)
        self.tableaux = standard_tableaux(self.words, len(lam))
        require(len(self.tableaux) == hook_length_dim(lam),
                "tableau count disagrees with hook lengths")
        # the term codes are looked up _BLOCK tableaux at a time, so only
        # the int32 terms are held for the whole shape
        perms, self.signs = _column_group(lam)
        self.terms = np.empty((len(self.tableaux), len(self.signs)), dtype=np.int32)
        for lo in range(0, len(self.tableaux), _BLOCK):
            term_codes = _polytabloid_terms(lam, self.tableaux[lo:lo + _BLOCK], perms)
            self.terms[lo:lo + _BLOCK] = self.positions(term_codes,
                                                        "polytabloid term is not a tabloid")

    def positions(self, query: np.ndarray, message: str) -> np.ndarray:
        """int32 positions of the query codes in codes; CheckFailed(message) if one is not there."""
        if self.index is None:
            at = np.minimum(np.searchsorted(self.codes, query), len(self.codes) - 1).astype(np.int32)
        else:
            at = self.index[query % len(self.index)]
        require(bool((self.codes[at] == query).all()), message)
        return at

    def perm(self, g: pm.Perm) -> np.ndarray:
        """Index map m with (g . x) = x[m] for coefficient vectors x over tabloids.

        g moves the entry x of a tabloid to g(x), so (g . x)[T] = x[g^-1 . T],
        and the row word of g^-1 . T is the word of T read at g: its digit at
        x is word[g(x)], so word[g(x)] weighs base^x.
        """
        weights = np.zeros(len(g), dtype=np.int64)
        weights[list(g)] = self.powers
        return self.positions(self.words @ weights, "moved code is not a tabloid code")


# One slot: the quadratic sweep reads a shape's tabloids for its witness
# table and right after for D(lam), then moves on; it clears the slot when it ends.
_tabloids = functools.lru_cache(maxsize=1)(_Tabloids)


# ---------------------------------------------------------------------------
# the module class


@dataclass(frozen=True, eq=False)
class GModule:
    """A representation of S_n over GF(p), stored as Coxeter-generator matrices.

    gen_actions[i] is the matrix of the adjacent swap (i, i+1), 0-based, in
    column convention.  Unless `check` is False, generator relations
    (involution, braid, distant commutation) are checked at construction:
    as matrix identities up to dimension 400, above it applied to a
    64-column random block, which any violation survives with probability at
    most p^-64.  Cached builders share one module with every caller, so it is
    read-only: setting an attribute raises AttributeError.  Equality is identity.
    """

    n: int
    field: GF
    gen_actions: tuple
    label: str = ""
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        gen_actions = tuple(self.gen_actions)
        if self.n < 2 or len(gen_actions) != self.n - 1:
            raise ValueError(f"need n >= 2 and n - 1 generators, got n = {self.n} and {len(gen_actions)}")
        object.__setattr__(self, "gen_actions", gen_actions)
        object.__setattr__(self, "_act_cache", {})  # act's memo, {permutation: image}
        for g in gen_actions:
            if g.field != self.field or g.shape != (self.dim, self.dim):
                raise ValueError("generators must be square matrices of one size over the field")
        if check and self.dim > 0:
            self._check_relations(full=self.dim <= 400)

    @property
    def dim(self) -> int:
        return self.gen_actions[0].rows

    def _check_relations(self, full: bool):
        """Check the Coxeter relations of s_0, .., s_k exactly on v: the
        identity if full, else a fixed random 64-column block.

        With w(i, j) = s_i·s_j·v, involution is w(i, i) = v, distant
        commutation w(i, j) = w(j, i) for |i - j| >= 2, and braid
        s_i·w(i+1, i) = s_(i+1)·w(i, i+1).  The words are formed a band of
        generators at a time, the band's rows of words holding at most
        linalg._PRODUCT_CELLS cells of their `form` (`spans`): one
        `product_forms` gives w(i, j) for i in the band and every j from its
        first on, one more w(i, j) for i past the band and j in it, and one
        more the braid sides, read off the grid of the band's generators
        times the words w(i+1, i) and w(i, i+1).  The block's images s_j·v
        are one `product_forms` too.  So a module whose words fit one band
        takes two product calls, three with the block, at any n.  The first
        failing family in the order involution, braid, distant names the
        error.
        """
        gens, f, m = list(self.gen_actions), self.field, len(self.gen_actions)
        if full:
            v, moved = Mat.identity(f, self.dim), gens
        else:
            v = Mat(f, np.random.default_rng(77003).integers(0, f.q, size=(self.dim, 64)))
            moved = [of_form(f, x, v.cols) for x in product_forms(gens, [v])[:, :, 0]]
        one = form(v)
        involution = braid = distant = True
        for band in spans([m * one.size] * m):
            lo, hi = band.start, band.stop
            t = hi - lo
            words = product_forms(gens[lo:hi], moved[lo:])  # s_i·s_j·v at [i - lo, :, j - lo]
            below = product_forms(gens[hi:], moved[lo:hi]) if hi < m else None  # at [i - hi, ...]

            def w(i, j):
                """Forms of s_i·s_j·v for index arrays i, j counted from lo."""
                if below is None:
                    return words[i, :, j]
                up = i < t
                out = np.empty((len(i),) + words.shape[1:2] + words.shape[3:], words.dtype)
                out[up], out[~up] = words[i[up], :, j[up]], below[i[~up] - t, :, j[~up]]
                return out

            i = np.arange(t)
            far_i, far_j = np.nonzero(np.arange(m - lo) >= i[:, None] + 2)
            at = i[i + lo + 1 < m]
            involution &= bool((w(i, i) == one).all())
            distant &= np.array_equal(w(far_i, far_j), w(far_j, far_i))
            if len(at):
                # s_(lo+k)·w(k+1, k) at [k, :, k] and s_(lo+k+1)·w(k, k+1) at
                # [k + 1, :, len(at) + k]
                sides = product_forms(gens[lo:lo + len(at) + 1],
                                      [of_form(f, x, v.cols)
                                       for x in np.concatenate([w(at + 1, at), w(at, at + 1)])])
                braid &= np.array_equal(sides[at, :, at], sides[at + 1, :, len(at) + at])
        require(involution, "generator is not an involution")
        require(braid, "braid relation fails")
        require(distant, "distant generators must commute")

    def act(self, g: pm.Perm) -> Mat:
        """Image of an arbitrary permutation via its adjacent-swap factorization."""
        if len(g) != self.n:
            raise ValueError(f"permutation of degree {len(g)} on a module for S_{self.n}")
        g = tuple(g)
        cached = self._act_cache.get(g)
        if cached is not None:
            return cached
        word = pm.adjacent_factorization(g)
        out = self.gen_actions[word[0]] if word else Mat.identity(self.field, self.dim)
        for i in word[1:]:
            out = self.gen_actions[i] @ out
        self._act_cache[g] = out
        return out

    def restrict(self, new_n: int) -> "GModule":
        """Same space as a module for the smaller symmetric group."""
        if not 2 <= new_n <= self.n:
            raise ValueError(f"cannot restrict S_{self.n} to S_{new_n}")
        return GModule(new_n, self.field, self.gen_actions[: new_n - 1],
                       label=f"{self.label}|S{new_n}", check=False)

    def __repr__(self):
        return f"GModule({self.label or 'S_' + str(self.n)}, dim {self.dim})"


# ---------------------------------------------------------------------------
# Specht modules and irreducible quotients


@functools.lru_cache(maxsize=None)
def _specht_core(lam: tuple, p: int):
    """(n, dim, generator matrices, Gram matrix) for the standard-polytabloid basis.

    The basis b has one int64 row per standard polytabloid and one column
    per tabloid.  The tabloid {t} of a standard tableau t is the last tabloid
    of its polytabloid e_t (James, LNM 682, §8), so the own-tabloid block,
    b at the columns {t}, is checked upper unitriangular, which also makes b
    independent mod p.  s_k permutes the columns of b (`_Tabloids.perm`);
    straightening reads coef = (s_k·b)[:, own]·block⁻¹ and checks
    coef·b = s_k·b exactly, as a matrix identity on every column, at every
    dimension.  Both go a run of generators at a time with their s_k·b
    stacked, a run holding at most linalg._PRODUCT_CELLS entries of them
    (`spans`): one product gives every coef of the run, one more every
    coef·b, so a shape that fits one run takes two products at any n.  The
    tabloid data is read from `_tabloids`, the one build per shape that
    lam's witness table also reads.
    """
    lam = check_partition(lam)
    n = sum(lam)
    if n < 2:
        raise ValueError(f"degree {n} is below 2")
    fld = make_field(p)
    tab = _tabloids(lam)
    dim = len(tab.tableaux)
    entries = np.zeros((dim, len(tab.codes)), dtype=np.int64)
    entries[np.arange(dim)[:, None], tab.terms] = tab.signs % p
    b = Mat._of(fld, entries)
    own = tab.positions(tab.tableaux @ tab.powers, "standard tableau is not a tabloid")
    block = entries[:, own]
    require(not np.tril(block, -1).any() and (block.diagonal() == 1).all(),
            "own-tabloid block must be upper unitriangular")
    binv = Mat._of(fld, block).inverse()
    gen_mats = []
    for run in spans([entries.size] * (n - 1)):
        moves = np.stack([tab.perm(pm.transposition(n, k, k + 1)) for k in run])
        coef = Mat._of(fld, entries[:, moves[:, own]].swapaxes(0, 1).reshape(-1, dim)) @ binv
        # s_k·b for each k of the run, stacked; freed before the next run's
        require(coef @ b == Mat._of(fld, entries[:, moves].swapaxes(0, 1).reshape(coef.rows, -1)),
                "straightening failed")
        gen_mats += [Mat._of(fld, c.T) for c in coef.a.reshape(-1, dim, dim)]
    gram = b @ b.T
    return n, dim, tuple(gen_mats), gram


@functools.lru_cache(maxsize=None)
def specht_module(lam: tuple, p: int) -> GModule:
    """Row span of the standard polytabloids inside the tabloid module."""
    lam = check_partition(lam)
    n, dim, gens, _ = _specht_core(lam, p)
    return GModule(n, make_field(p), gens, label=f"S{lam} mod {p}")


def specht_gram(lam: tuple, p: int) -> Mat:
    """Gram matrix of the tabloid inner product on the standard basis."""
    return _specht_core(check_partition(lam), p)[3]


@functools.lru_cache(maxsize=None)
def irreducible_D(lam: tuple, p: int) -> GModule:
    """Quotient of the Specht module by the radical of its bilinear form, the
    Gram kernel, in the coordinates of the Gram row space (`quotient_action`).
    A nonsingular Gram matrix keeps the Specht basis and checked generators."""
    lam = check_partition(lam)
    if not is_p_regular(lam, p):
        raise ValueError(f"{lam} is not {p}-regular")
    s = specht_module(lam, p)
    mats = quotient_action(list(s.gen_actions), specht_gram(lam, p))
    return GModule(s.n, s.field, mats, label=f"D{lam} mod {p}",
                   check=mats[0].rows < s.dim)


def basic_spin_restriction(k: int) -> GModule:
    """Restriction to S_2k of the mod-2 irreducible for the partition (k+1, k)."""
    if k < 1:
        raise ValueError(f"k = {k} is below 1")
    return irreducible_D((k + 1, k), 2).restrict(2 * k)


# ---------------------------------------------------------------------------
# structural invariants of restrictions


@dataclass(frozen=True)
class LoewySeries:
    layer_dims: tuple

    @property
    def length(self) -> int:
        return len(self.layer_dims)


def _layers_of_mats(dim: int, mats: list[Mat]) -> tuple:
    """Socle layer dimensions of a dim-dimensional space under the matrices
    g_i of commuting generators of a p-group, checked to commute.

    The x_i = g_i - 1 generate the augmentation ideal J, which for a p-group
    in characteristic p is the radical of the group algebra, so the socle
    series is soc^j = {v : J^j v = 0}.  As the g_i commute, J^j is spanned by
    the words in the x_i of length at least j, so soc^j is the common kernel
    of the words of length j, and dim soc^j = dim - dim R_j for the row
    spaces R_0 = F^dim and R_(j+1) = Σ_i R_j·x_i.  Each layer takes one
    product of a basis of R_j by every x_i and one elimination of the
    stacked rows, whose canonical rows are the basis of R_(j+1).  No
    generators is the trivial group, whose one layer is the whole space.
    """
    if not mats:
        return (dim,) if dim else ()
    f = mats[0].field
    if len(mats) > 1:
        prods = product_forms(mats, mats)  # g_i·g_j at [i, :, j]
        require(np.array_equal(prods, prods.swapaxes(0, 2)), "generators must commute")
    ident = Mat.identity(f, dim)
    xs = [g - ident for g in mats]
    stack, rank, layers = np.concatenate([x.a for x in xs]), dim, []
    while rank:  # stack holds the rows of R_j·x_i for every i
        red, piv = rref_array(stack, f)
        require(len(piv) < rank, "invariant space of a p-group vanished on a nonzero module")
        layers.append(rank - len(piv))
        rank = len(piv)
        if rank:
            prods = product_forms([Mat._of(f, red[:rank])], xs)[0].swapaxes(0, 1)  # R_j·x_i at [i]
            stack = of_form(f, prods.reshape(-1, prods.shape[2]), dim).a
    return tuple(layers)


@functools.lru_cache(maxsize=None)
def _elementary_rank(gens: tuple, degree: int, p: int) -> Optional[int]:
    """Rank of the elementary abelian p-group the permutations gens generate,
    or None when they generate no such group; each generator list is
    certified once per process."""
    rows = np.array(gens, dtype=np.intp).reshape(len(gens), degree)
    certified = pm.elementary_abelian_span(rows, p)
    return None if certified is None else len(certified[0])


def _restriction(mod: GModule, group: pm.GroupPresentation, independent: bool) -> list[Mat]:
    """The generator matrices on mod of an elementary abelian p-group, p the
    field's prime; ValueError if the group is no such group on mod's points,
    or if independent generators are asked for and the listed ones are not."""
    p = mod.field.p
    if group.degree != mod.n:
        raise ValueError("subgroup degree does not match the module")
    rank = _elementary_rank(group.generators, group.degree, p)
    if rank is None:
        raise ValueError(f"{group.label or 'subgroup'} is not an elementary abelian {p}-group")
    if independent and rank != len(group.generators):
        raise ValueError("listed generators must be independent")
    return [mod.act(g) for g in group.generators]


def loewy_length(mod: GModule, group: pm.GroupPresentation) -> LoewySeries:
    """Number of invariants-quotient steps to exhaust the module over the subgroup."""
    mats = _restriction(mod, group, independent=False)
    series = LoewySeries(_layers_of_mats(mod.dim, mats))
    require(sum(series.layer_dims) == mod.dim, "Loewy layers do not add up to the dimension")
    return series


def free_count(field: GF, dim: int, mats: list[Mat]) -> int:
    """Number of free summands of field^dim over an elementary abelian p-group,
    from the matrices of independent generators: the rank of the norm, which
    then factors as the product of the sums 1 + g + ... + g^(p-1), each equal
    to (g - 1)^(p-1) in characteristic p since C(p-1, j) = (-1)^j mod p.
    Each free summand takes p^k dimensions, k the number of generators."""
    norm = ident = Mat.identity(field, dim)
    for a in mats:
        norm = norm @ (a - ident).pow(field.p - 1)
    count = norm.rank()
    require(count * field.p ** len(mats) <= dim, "more free summands than the dimension allows")
    return count


def free_summand_count(mod: GModule, group: pm.GroupPresentation) -> int:
    """The number of free summands over the subgroup, which must be
    elementary abelian with independent listed generators."""
    return free_count(mod.field, mod.dim, _restriction(mod, group, independent=True))


def cyclic_profile(mod: GModule, g: pm.Perm) -> tuple:
    """Multiset (ascending tuple) of Jordan block sizes of an order-p element.

    x = g - 1 is nilpotent and the socle series is ker x ⊂ ker x^2 ⊂ ..., so
    the k-th socle layer l_k, dim ker x^k - dim ker x^(k-1), counts the
    Jordan blocks of size at least k: l_k - l_(k+1) of them have size k.
    """
    group = pm.GroupPresentation("perm", mod.n, (g,), label=pm.to_cycles(g))
    layers = _layers_of_mats(mod.dim, _restriction(mod, group, independent=True))
    require(len(layers) <= mod.field.p, "p-th power of a unipotent difference must vanish")
    below = layers[1:] + (0,)
    return tuple(k for k, (here, nxt) in enumerate(zip(layers, below), 1)
                 for _ in range(here - nxt))


def tensor_module(a: GModule, b: GModule) -> GModule:
    if a.n != b.n or a.field != b.field:
        raise ValueError("tensor factors must share degree and field")
    gens = tuple(x.kron(y) for x, y in zip(a.gen_actions, b.gen_actions))
    return GModule(a.n, a.field, gens, label=f"({a.label})*({b.label})")


# ---------------------------------------------------------------------------
# fingerprints: the implemented proxy for isomorphism of restrictions


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants of a module over a listed elementary abelian group.

    Equal fingerprints are the documented stand-in for an isomorphism of
    restrictions; inequality genuinely refutes one.
    """

    dim: int
    layers: tuple
    free_count: int
    gen_fixed_dims: tuple


def fingerprint_of_mats(field: GF, dim: int, mats: list[Mat]) -> Fingerprint:
    """Fingerprint of field^dim under the matrices of independent generators
    of an elementary abelian p-group, with the same layers and free count as
    `loewy_length` and `free_summand_count`.

    Only what a module for (Z/p)^k needs is checked: each matrix has order
    dividing p, and the matrices commute (checked with the layers).  The
    matrices of an unfaithful action may be dependent, so the group itself is
    certified where its generators come from (`fingerprint` certifies
    permutations).  A matrix that is not dim x dim over field raises
    ValueError.
    """
    if any(a.field != field or a.rows != dim or a.cols != dim for a in mats):
        raise ValueError(f"generator matrices must be {dim} x {dim} over the field")
    ident = Mat.identity(field, dim)
    for a in mats:
        require(a.pow(field.p) == ident, "generator order must divide p")
    return Fingerprint(
        dim=dim,
        layers=_layers_of_mats(dim, mats),
        free_count=free_count(field, dim, mats),
        gen_fixed_dims=tuple(dim - (a - ident).rank() for a in mats),
    )


def fingerprint(mod: GModule, group: pm.GroupPresentation) -> Fingerprint:
    """Fingerprint of the module restricted to an elementary abelian subgroup
    with independent listed generators."""
    return fingerprint_of_mats(mod.field, mod.dim, _restriction(mod, group, independent=True))


# ---------------------------------------------------------------------------
# serialization


def module_to_json(mod: GModule) -> dict:
    return {
        "kind": "gmodule",
        "label": mod.label,
        "n": mod.n,
        "field": {"p": mod.field.p, "r": mod.field.r, "modulus": list(mod.field.modulus)},
        "dim": mod.dim,
        "generators": [
            {"coxeter_index": i, "matrix": m.tolist()}
            for i, m in enumerate(mod.gen_actions)
        ],
    }


# ---------------------------------------------------------------------------
# the theorem sweeps


def _lam_id(lam) -> str:
    return "-".join(str(x) for x in lam)


def _cyclic_group(n: int, p: int) -> pm.GroupPresentation:
    cyc = pm.from_cycles("(" + " ".join(str(i + 1) for i in range(p)) + ")", n)
    return pm.GroupPresentation("perm", n, (cyc,), label=f"C_{p}")


def _mixed_subgroups(n: int, even_part: bool) -> list[pm.GroupPresentation]:
    """The Klein-block times transposition-block chain of 2-subgroups."""
    kind = "KmHtilde" if even_part else "KmH"
    base = "Htilde" if even_part else "H"
    subs = [pm.special_subgroups(n, base)]
    for m in range(1, n // 4 + 1):
        subs.append(pm.special_subgroups(n, kind, m=m))
    return subs


def _decide_witnesses(lam: tuple, subs: list[pm.GroupPresentation]) -> list[bool]:
    """Per subgroup, whether the tabloid module proves D(lam) has Loewy length >= 3 on it.

    A subgroup E is generated by commuting involutions g_i; with x_i = g_i - 1
    and x_i^2 = 0, D|E has Loewy length <= 2 iff x_i x_j D = 0 for all i < j.
    D = S / (S meet S^perp), with S the row span of the polytabloid matrix b,
    and the tabloid permutations P_i are symmetric, so x_i x_j D = 0 iff
    b (P_i - 1)(P_j - 1) b^T = 0.  That product is applied to one fixed
    64-column block V over GF(2), one uint64 word per standard tableau drawn
    from random.Random(5077); a nonzero word is an exact witness.  False means
    only that no witness turned up, and the caller decides that subgroup on
    D(lam) itself.

    Every subgroup's generators are certified up front, once per process.
    The rest is done only as a verdict reads it: a subgroup stops at its
    first witnessed pair, a pair (g_i, g_j) shared by two subgroups is
    decided once, the tabloid map of a generator is formed, and checked to
    be an involution, when a pair first reads it, and a pair's reduction
    over the standard tableaux stops at its first nonzero block of _BLOCK.
    """
    for sub in subs:
        require(_elementary_rank(sub.generators, sub.degree, 2) is not None,
                "subgroup generators must be commuting involutions")
    tab = _tabloids(lam)
    terms = tab.terms
    v = np.frombuffer(random.Random(5077).randbytes(8 * len(terms)), dtype=np.uint64)
    u = np.zeros(len(tab.codes), dtype=np.uint64)
    np.bitwise_xor.at(u, terms, v[:, None])
    maps, pairs = {}, {}

    def mapped(g):
        """(m, (g - 1) u) for the tabloid map m of g."""
        if g not in maps:
            m = tab.perm(g)
            require(np.array_equal(m[m], np.arange(len(m))),
                    "tabloid map of an involution is not an involution")
            maps[g] = m, u ^ u[m]
        return maps[g]

    def witnessed(gi, gj):
        if (gi, gj) not in pairs:
            (mi, _), (_, y) = mapped(gi), mapped(gj)
            z = y ^ y[mi]
            pairs[gi, gj] = any(np.bitwise_xor.reduce(z[terms[lo:lo + _BLOCK]], axis=1).any()
                                for lo in range(0, len(terms), _BLOCK))
        return pairs[gi, gj]

    def decided(gens):
        return any(witnessed(gens[i], gens[j]) for j in range(len(gens)) for i in range(j))

    return [decided(sub.generators) for sub in subs]


@functools.lru_cache(maxsize=None)
def _witness_table(lam: tuple) -> dict:
    """{subgroup generators: witnessed} over the sym and the alt chain of degree sum(lam).

    The chains share most generators, so the two quadratic twins build the
    tabloid data of lam once; only the verdicts are kept.  A failed check in
    either chain fails the twin that asked first, and a table that failed is
    not kept, so the other twin builds it again and fails too.
    """
    n = sum(lam)
    subs = _mixed_subgroups(n, False) + _mixed_subgroups(n, True)
    return {sub.generators: seen for sub, seen in zip(subs, _decide_witnesses(lam, subs))}


def _sweep_quadratic(n: int, even_part: bool):
    """(quadratic hits, (module, subgroup) rows) over the 2-regular modules x subgroups.

    A pair is a hit when D(lam) has Loewy length <= 2 on the subgroup.  A
    tabloid witness rules a pair out; every other pair, and so every hit, is
    decided by the socle series of D(lam).  A module counts when dim D > 1,
    which a witness implies, as it shows a Loewy length of at least 3.

    The last shape's tabloids are freed when the sweep ends: the other twin
    reads the kept witness tables and D(lam), not the tabloids.
    """
    subs = _mixed_subgroups(n, even_part)
    hits = []
    rows = []
    try:
        for lam in p_regular_partitions(n, 2):
            table = _witness_table(lam)
            witnessed = [table[sub.generators] for sub in subs]
            mod = None if all(witnessed) else irreducible_D(lam, 2)
            if mod is not None and mod.dim <= 1:
                continue
            for sub, seen in zip(subs, witnessed):
                rows.append((_lam_id(lam), sub.label))
                if not seen and loewy_length(mod, sub).length <= 2:
                    hits.append([_lam_id(lam), sub.label])
    finally:
        _tabloids.cache_clear()
    return hits, rows


@functools.lru_cache(maxsize=None)
def _odd_cyclic_series(lam: tuple, p: int):
    """(dim D(lam), its Loewy series on the p-cycle, or None where dim <= 1).

    An odd p-cycle is an even permutation, so the sym and the alt twin of the
    odd-cyclic claims ask for the same series; both read it from here, as the
    quadratic twins read `_witness_table`.  A computation that raises is not
    kept, so the other twin computes it again and fails too.
    """
    mod = irreducible_D(lam, p)
    if mod.dim <= 1:
        return mod.dim, None
    return mod.dim, loewy_length(mod, _cyclic_group(sum(lam), p))


# the appendix rows' entry point; suites owns them and imports this module
def verify_appendix(theorem: str, ns: Iterable[int], p: int) -> list[VerificationReport]:
    from .suites import appendix_jobs
    return run_jobs(appendix_jobs(theorem, ns, p))
