"""Permutations, permutation groups, and elementary abelian subgroup search.

Permutations are tuples of 0-based images; text I/O uses 1-based cycle
notation like "(1 2)(3 4)".  compose(a, b) applies b first, then a, matching
left action on points.  Arrays hold one permutation per row, and there
compose(a, b) is the gather a[b].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Perm = tuple


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    assert len(a) == len(b)
    return tuple(a[x] for x in b)


def cycles_of(a: Perm):
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = a[j]
        out.append(tuple(cyc))
    return out


def sign(a: Perm) -> int:
    """+1 for even permutations, -1 for odd: a k-cycle is k - 1 swaps."""
    return -1 if sum(len(c) - 1 for c in cycles_of(a)) % 2 else 1


def to_cycles(a: Perm) -> str:
    cycs = cycles_of(a)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)


def from_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based disjoint cycle notation; "()" is the identity."""
    text = text.replace(",", " ").strip()
    if text in ("", "()"):
        return identity(degree)
    if text.count("(") != text.count(")") or not text.startswith("("):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    used = set()
    for chunk in text.split(")"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.startswith("("):
            raise ValueError(f"malformed cycle notation: {text!r}")
        pts = [int(t) - 1 for t in chunk[1:].split()]
        if len(pts) < 2:
            raise ValueError(f"cycles need at least two points: {text!r}")
        for x in pts:
            if not 0 <= x < degree:
                raise ValueError(f"point {x + 1} out of range 1..{degree}")
            if x in used:
                raise ValueError(f"point {x + 1} repeated; cycles must be disjoint")
            used.add(x)
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
    return tuple(images)


def transposition(n: int, i: int, j: int) -> Perm:
    """Swap of 0-based points i and j inside S_n."""
    out = list(range(n))
    out[i], out[j] = j, i
    return tuple(out)


def double_transposition(n: int, a: int, b: int, c: int, d: int) -> Perm:
    out = list(range(n))
    out[a], out[b], out[c], out[d] = b, a, d, c
    return tuple(out)


def adjacent_factorization(g: Perm) -> list[int]:
    """Indices i with g equal to the composition of swaps (i, i+1).

    Bubble sort of the one-line form; a swap at position i right-multiplies
    by s_i, so g = s_{i_k} o ... o s_{i_1} for the recorded list [i_1...i_k]
    and a matrix homomorphism image is the left-to-right product
    M(s_{i_k}) ... M(s_{i_1}), built by multiplying on the left while
    walking the list in order.
    """
    arr = list(g)
    out = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                out.append(i)
                changed = True
    return out


# ---------------------------------------------------------------------------
# group presentations and closure


@dataclass(frozen=True)
class GroupPresentation:
    """A group given by generators: permutations or (elsewhere) matrices."""

    kind: str  # "sym" | "alt" | "perm"
    degree: int
    generators: tuple
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("sym", "alt", "perm"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if any(len(g) != self.degree for g in self.generators):
            raise ValueError(f"generators must all have degree {self.degree}")

    def generator_rows(self) -> np.ndarray:
        """The generators as a (count, degree) array, one per row."""
        return np.array(self.generators, dtype=np.intp).reshape(-1, self.degree)


def standard_gens(kind: str, n: int) -> GroupPresentation:
    """S_n = <(1 2), (1 2 .. n)>; A_n = <(1 2 3), n-cycle or (n-1)-cycle>."""
    if kind == "sym":
        if n < 2:
            return GroupPresentation("sym", max(n, 1), (), label=f"S{n}")
        gens = (transposition(n, 0, 1), tuple(list(range(1, n)) + [0]))
        if n == 2:
            gens = (gens[0],)
        return GroupPresentation("sym", n, gens, label=f"S{n}")
    if kind == "alt":
        if n < 3:
            raise ValueError(f"A_n needs n >= 3, got {n}")
        three = from_cycles("(1 2 3)", n)
        if n % 2 == 1:
            long = tuple(list(range(1, n)) + [0])  # (1 2 .. n), even when n odd
        else:
            long = tuple([0] + list(range(2, n)) + [1])  # (2 3 .. n)
        gens = (three,) if n == 3 else (three, long)
        return GroupPresentation("alt", n, gens, label=f"A{n}")
    raise ValueError(f"unknown kind {kind!r}")


# elements closure enumerates before it refuses a group
CLOSURE_CAP = 10**7


def closure(group: GroupPresentation) -> np.ndarray:
    """Breadth-first product closure of a group's permutation generators.

    Returns the group as an (order, degree) int64 array, one element per row
    in one-line form, with the rows sorted lexicographically (the order of
    sorted tuples).  Each round composes the whole frontier with every
    generator as one gather and dedupes the products by their base-degree
    integer codes, so the degree is limited to 15 for the codes to fit in
    int64.  Raises ValueError as soon as a round takes the group past
    CLOSURE_CAP elements, so at most CLOSURE_CAP times the generator count
    rows are held.  It enumerates whole groups for the parabolic oracle and
    the rank search; certification goes through elementary_abelian_span, at
    any degree.
    """
    degree = group.degree
    if degree > 15:
        raise ValueError(f"closure codes need degree <= 15, got {degree}")
    gens = group.generator_rows()
    weights = degree ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    frontier = np.arange(degree, dtype=np.int64)[None, :]
    seen = frontier @ weights
    while len(frontier):
        products = frontier[:, gens].reshape(-1, degree)
        codes, first = np.unique(products @ weights, return_index=True)
        fresh = seen[np.searchsorted(seen, codes).clip(max=len(seen) - 1)] != codes
        if len(seen) + np.count_nonzero(fresh) > CLOSURE_CAP:
            raise ValueError(f"group has more than CLOSURE_CAP = {CLOSURE_CAP} elements")
        frontier = products[first[fresh]]
        seen = np.sort(np.concatenate([seen, codes[fresh]]), kind="stable")
    return seen[:, None] // weights % degree


def elementary_abelian_span(elements: np.ndarray, p: int):
    """(witness, span) of the elementary abelian p-group the rows generate,
    or None when they generate no such group.

    elements is a (k, degree) integer array, one permutation per row in
    one-line form, and p is a prime.  The rows are walked in order.  A row g
    outside the span so far joins the witness once gathers show g^p = 1 and
    that g commutes with the witness so far; the span then grows by its
    cosets span·g^j for j = 1 .. p - 1, one gather each.  So the witness is
    the greedy independent generating list of the rows in their order (an
    identity or repeated row is skipped), and span holds the p^len(witness)
    elements of the group, sorted lexicographically as closure sorts them.
    Nothing is encoded, so any degree works.
    """
    elements = np.asarray(elements, dtype=np.intp)
    ident = np.arange(elements.shape[1])
    witness = np.empty((0, len(ident)), dtype=np.intp)
    span = ident[None, :]
    members = {tuple(ident.tolist())}
    for g in elements:
        if tuple(g.tolist()) in members:
            continue
        powers = [g]
        for _ in range(p - 1):
            powers.append(g[powers[-1]])
        if not np.array_equal(powers[-1], ident) or not np.array_equal(g[witness], witness[:, g]):
            return None
        cosets = [span[:, gj] for gj in powers[:-1]]
        members.update(map(tuple, np.concatenate(cosets).tolist()))
        span = np.concatenate([span] + cosets)
        witness = np.vstack([witness, g])
    return tuple(map(tuple, witness.tolist())), span[np.lexsort(span.T[::-1])]


# ---------------------------------------------------------------------------
# special elementary abelian subgroups of S_n


def special_subgroups(n: int, kind: str, m: int = 0) -> GroupPresentation:
    """Named elementary abelian 2-subgroups of S_n.

    kind "H":        pairwise disjoint transpositions (1 2), (3 4), ...
    kind "K":        the Klein four group on points 1..4
    kind "KmH":      m Klein blocks on 4m points, then H on the rest
    kind "Htilde":   even part of H: (1 2)(3 4), (1 2)(5 6), ...
    kind "KmHtilde": m Klein blocks, then the even part of H on the rest
    """
    if kind == "H":
        k = m if m > 0 else n // 2
        if 2 * k > n:
            raise ValueError(f"{k} disjoint transpositions need n >= {2 * k}, got {n}")
        gens = tuple(transposition(n, 2 * i, 2 * i + 1) for i in range(k))
        return GroupPresentation("perm", n, gens, label=f"H_{n if m == 0 else 2 * k}")
    if kind == "K":
        if n < 4:
            raise ValueError(f"the Klein four group needs n >= 4, got {n}")
        gens = (double_transposition(n, 0, 1, 2, 3), double_transposition(n, 0, 2, 1, 3))
        return GroupPresentation("perm", n, gens, label="K")
    if kind == "Htilde":
        k = n // 2
        gens = tuple(double_transposition(n, 0, 1, 2 * i, 2 * i + 1) for i in range(1, k))
        return GroupPresentation("perm", n, gens, label=f"H~_{n}")
    if kind in ("KmH", "KmHtilde"):
        if m < 1 or 4 * m > n:
            raise ValueError(f"{kind} needs 1 <= m <= n / 4, got m = {m}, n = {n}")
        gens = []
        for b in range(m):
            o = 4 * b
            gens.append(double_transposition(n, o, o + 1, o + 2, o + 3))
            gens.append(double_transposition(n, o, o + 2, o + 1, o + 3))
        t0 = 4 * m
        tail = n - t0
        if kind == "KmH":
            gens += [transposition(n, t0 + 2 * j, t0 + 2 * j + 1) for j in range(tail // 2)]
            label = f"K^{m}xH_{tail}" if m > 1 else f"KxH_{tail}"
        else:
            gens += [
                double_transposition(n, t0, t0 + 1, t0 + 2 * j, t0 + 2 * j + 1)
                for j in range(1, tail // 2)
            ]
            label = f"K^{m}xH~_{tail}" if m > 1 else f"KxH~_{tail}"
        return GroupPresentation("perm", n, tuple(gens), label=label)
    raise ValueError(f"unknown subgroup kind {kind!r}")


# ---------------------------------------------------------------------------
# exhaustive search for the maximal elementary abelian rank


@dataclass
class SearchResult:
    rank: int
    witness: tuple
    exact: bool


# nodes the rank search pops before it stops and reports exact = False
SEARCH_BUDGET = 5_000_000


def elem_abelian_rank_search(elements: np.ndarray, p: int) -> SearchResult:
    """Largest rank of an elementary abelian p-subgroup of a group, given as
    the element array that closure returns.

    Depth-first search over canonically increasing chains of commuting
    order-p elements, p prime.  Every subgroup of rank k contains an
    increasing independent generating chain (greedy argument), so the search
    is exhaustive unless it pops more than SEARCH_BUDGET nodes; `exact`
    reports which case happened.  With Q the order-p rows, the codes of the
    product table Q[:, Q][i, j] = q_i o q_j, formed a block of rows at a
    time, decide commutation; looked up in the codes of Q they give
    index[i][j], the row of q_i o q_j (-1 if that is no order-p row), for the
    commuting pairs and the diagonal, the only ones the search reads.  A
    subgroup is a bitmask over Q, the identity left out.
    """
    ident = np.arange(elements.shape[1])
    power = elements
    for _ in range(p - 1):
        power = np.take_along_axis(elements, power, axis=1)
    rows = elements[(power == ident).all(axis=1) & (elements != ident).any(axis=1)]
    m = len(rows)
    if m == 0:
        return SearchResult(0, (), True)
    if len(ident) > 15:
        raise ValueError(f"product codes need degree <= 15, got {len(ident)}")
    weights = len(ident) ** np.arange(len(ident) - 1, -1, -1, dtype=np.int64)
    codes, block = np.empty((m, m), dtype=np.int64), 128
    for lo in range(0, m, block):  # no m x m x degree gather at once
        codes[lo:lo + block] = rows[lo:lo + block][:, rows] @ weights
    commute = codes == codes.T
    ii, jj = np.nonzero(commute)  # the commuting pairs and the diagonal
    row_codes = rows @ weights
    order = np.argsort(row_codes, kind="stable")
    at = np.searchsorted(row_codes[order], codes[ii, jj]).clip(max=m - 1)
    found = np.where(row_codes[order][at] == codes[ii, jj], order[at], -1).tolist()
    ends, cols = np.cumsum(np.bincount(ii, minlength=m)).tolist(), jj.tolist()
    index = [dict(zip(cols[a:b], found[a:b])) for a, b in zip([0] + ends, ends)]
    np.fill_diagonal(commute, False)
    adj = [int.from_bytes(bits.tobytes(), "little")
           for bits in np.packbits(commute, axis=1, bitorder="little")]
    # powers[i] lists the rows of q_i, q_i^2, .., q_i^(p-1)
    powers = [[i] for i in range(m)]
    for _ in range(p - 2):
        for i, pw in enumerate(powers):
            pw.append(index[pw[-1]][i])
    bit = [1 << i for i in range(m)]

    def grow(sub: int, y: int) -> int:
        """The bitmask of <sub, q_y>: s o q_y^j for every s in sub plus the identity."""
        out = sub
        for j in powers[y]:
            out |= bit[j]
        while sub:
            low = sub & -sub
            sub ^= low
            products = index[low.bit_length() - 1]
            for j in powers[y]:
                out |= bit[products[j]]
        return out

    best: list = []
    nodes = 0
    exact = True
    # stack entries: (chosen row list, subgroup bitmask, candidate bitmask)
    stack = [([i], grow(0, i), adj[i] >> (i + 1) << (i + 1)) for i in range(m - 1, -1, -1)]
    while stack:
        chosen, sub, cands = stack.pop()
        nodes += 1
        if nodes > SEARCH_BUDGET:
            exact = False
            break
        if len(chosen) > len(best):
            best = chosen
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            if not sub & low:
                stack.append((chosen + [i], grow(sub, i), cands & adj[i]))
    return SearchResult(len(best), tuple(tuple(rows[i].tolist()) for i in best), exact)
