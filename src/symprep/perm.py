"""Permutations, permutation groups, and elementary abelian subgroup search.

Permutations are tuples of 0-based images; text I/O uses 1-based cycle
notation like "(1 2)(3 4)".  compose(a, b) applies b first, then a, matching
left action on points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

Perm = tuple


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    assert len(a) == len(b)
    return tuple(a[x] for x in b)


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def sign(a: Perm) -> int:
    """+1 for even permutations, -1 for odd."""
    seen = [False] * len(a)
    s = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = a[j]
            clen += 1
        if clen % 2 == 0:
            s = -s
    return s


def order(a: Perm) -> int:
    seen = [False] * len(a)
    o = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = a[j]
            clen += 1
        o = lcm(o, clen)
    return o


def extend(a: Perm, n: int) -> Perm:
    """View a as a permutation of n >= len(a) points, fixing the new ones."""
    assert n >= len(a)
    return tuple(a) + tuple(range(len(a), n))


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
        assert self.kind in ("sym", "alt", "perm")
        for g in self.generators:
            assert len(g) == self.degree


@dataclass
class ElementSet:
    elements: list
    complete: bool

    def __len__(self):
        return len(self.elements)


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
        assert n >= 3
        three = from_cycles("(1 2 3)", n)
        if n % 2 == 1:
            long = tuple(list(range(1, n)) + [0])  # (1 2 .. n), even when n odd
        else:
            long = tuple([0] + list(range(2, n)) + [1])  # (2 3 .. n)
        gens = (three,) if n == 3 else (three, long)
        return GroupPresentation("alt", n, gens, label=f"A{n}")
    raise ValueError(f"unknown kind {kind!r}")


def closure(group, cap: int = 10**7) -> ElementSet:
    """Breadth-first product closure of permutation generators.

    Exceeding the cap is not an error: you get the partial set back with
    complete=False.
    """
    if isinstance(group, GroupPresentation):
        gens, degree = list(group.generators), group.degree
    else:
        gens = list(group)
        if not gens:
            raise ValueError("need a GroupPresentation to close an empty generator list")
        degree = len(gens[0])
    e = identity(degree)
    seen = {e}
    frontier = [e]
    complete = True
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        complete = False
                        frontier = []
                        fresh = []
                        break
                    seen.add(y)
                    fresh.append(y)
            else:
                continue
            break
        frontier = fresh
    return ElementSet(sorted(seen), complete)


def is_elementary_abelian(group, p: int, cap: int = 10**6):
    """(is elementary abelian p-group, rank).  Accepts a presentation or gens."""
    if isinstance(group, GroupPresentation):
        gens = list(group.generators)
        degree = group.degree
    else:
        gens = list(group)
        degree = len(gens[0]) if gens else 1
    gens = [g for g in gens if g != identity(degree)]
    if not gens:
        return True, 0
    for g in gens:
        if order(g) != p:
            return False, 0
    for a, b in itertools.combinations(gens, 2):
        if compose(a, b) != compose(b, a):
            return False, 0
    es = closure(GroupPresentation("perm", degree, tuple(gens)), cap=cap)
    assert es.complete
    size = len(es)
    rank = 0
    while p**rank < size:
        rank += 1
    assert p**rank == size, "commuting order-p generators must span p^k elements"
    return True, rank


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
        assert 2 * k <= n
        gens = tuple(transposition(n, 2 * i, 2 * i + 1) for i in range(k))
        return GroupPresentation("perm", n, gens, label=f"H_{n if m == 0 else 2 * k}")
    if kind == "K":
        assert n >= 4
        gens = (double_transposition(n, 0, 1, 2, 3), double_transposition(n, 0, 2, 1, 3))
        return GroupPresentation("perm", n, gens, label="K")
    if kind == "Htilde":
        k = n // 2
        gens = tuple(double_transposition(n, 0, 1, 2 * i, 2 * i + 1) for i in range(1, k))
        return GroupPresentation("perm", n, gens, label=f"H~_{n}")
    if kind in ("KmH", "KmHtilde"):
        assert m >= 1 and 4 * m <= n
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
    nodes: int


def elem_abelian_rank_search(elements: ElementSet, p: int, budget: int = 5_000_000) -> SearchResult:
    """Largest rank of an elementary abelian p-subgroup inside a listed group.

    Depth-first search over canonically increasing chains of commuting
    order-p elements.  Every subgroup of rank k contains an increasing
    independent generating chain (greedy argument), so the search is
    exhaustive whenever the node budget is not exceeded; `exact` reports
    which case happened.  Commutation is precomputed as bitsets, which is
    what makes S_8 practical.
    """
    elems = elements.elements
    pelems = [g for g in elems if order(g) == p]
    m = len(pelems)
    if m == 0:
        return SearchResult(0, (), True, 0)
    adj = [0] * m
    for i in range(m):
        gi = pelems[i]
        for j in range(i + 1, m):
            gj = pelems[j]
            if compose(gi, gj) == compose(gj, gi):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    all_mask = (1 << m) - 1
    higher = [(all_mask >> (i + 1)) << (i + 1) for i in range(m)]

    best_rank = 0
    best_wit: tuple = ()
    nodes = 0
    exact = True
    deg = len(pelems[0])
    ident = identity(deg)

    # stack entries: (chosen index list, subgroup element set, candidate bitmask)
    stack = []
    for i in range(m - 1, -1, -1):
        sub = {ident}
        y = pelems[i]
        acc = y
        for _ in range(p - 1):
            sub.add(acc)
            acc = compose(acc, y)
        stack.append(([i], sub, adj[i] & higher[i]))

    while stack:
        chosen, sub, cands = stack.pop()
        nodes += 1
        if nodes > budget:
            exact = False
            break
        if len(chosen) > best_rank:
            best_rank = len(chosen)
            best_wit = tuple(pelems[i] for i in chosen)
        c = cands
        while c:
            low = c & (-c)
            i = low.bit_length() - 1
            c ^= low
            y = pelems[i]
            if y in sub:
                continue
            new_sub = set(sub)
            acc = y
            for _ in range(p - 1):
                for s in sub:
                    new_sub.add(compose(s, acc))
                acc = compose(acc, y)
            stack.append((chosen + [i], new_sub, cands & adj[i] & higher[i]))
    return SearchResult(best_rank, best_wit, exact, nodes)
