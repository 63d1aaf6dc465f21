"""Permutation layer: composition conventions, cycles, subgroups, searches."""

import itertools
import tracemalloc

import numpy as np
import pytest

from symprep import perm as pm


def test_compose_applies_right_first():
    # a = (1 2), b = (2 3) as 0-based swaps; compose(a, b) sends 2 -> b -> 1 -> a -> 0
    a = pm.transposition(3, 0, 1)
    b = pm.transposition(3, 1, 2)
    c = pm.compose(a, b)
    assert c[2] == 0 and c[0] == 1 and c[1] == 2


def test_sign_multiplicative():
    for a in itertools.permutations(range(4)):
        for b in itertools.permutations(range(4)):
            assert pm.sign(pm.compose(a, b)) == pm.sign(a) * pm.sign(b)


def test_cycle_round_trip():
    g = pm.from_cycles("(1 4 2)(3 6)", 7)
    assert pm.from_cycles(pm.to_cycles(g), 7) == g
    assert pm.to_cycles(pm.identity(3)) == "()"
    # 1-based cycle text, 0-based tuples
    assert pm.from_cycles("(1 2)", 2) == (1, 0)


def test_adjacent_factorization_reconstructs():
    for g in itertools.permutations(range(5)):
        word = pm.adjacent_factorization(g)
        acc = pm.identity(5)
        for i in word:
            acc = pm.compose(pm.transposition(5, i, i + 1), acc)
        assert acc == g
        # length parity equals the sign
        assert (-1) ** len(word) == pm.sign(g)


def test_standard_gens_generate():
    # the closure array against itertools, in the same lexicographic order
    for n in range(4, 9):
        for kind in ("sym", "alt"):
            arr = pm.closure(pm.standard_gens(kind, n))
            want = [g for g in itertools.permutations(range(n))
                    if kind == "sym" or pm.sign(g) == 1]
            assert arr.dtype == np.int8 and arr.shape == (len(want), n), (n, kind)
            assert [tuple(g) for g in arr.tolist()] == want, (n, kind)


def test_closure_memory_of_s8():
    # S_8 is 40320 int8 rows of 8, 315 KiB; the peak covers the sorted codes,
    # the rows of every round and the last round's products, with no int64
    # copy of the rows and no decode of the codes (5.2 MiB when there were)
    pm.closure(pm.standard_gens("sym", 8))  # numpy's first-call allocations
    tracemalloc.start()
    try:
        arr = pm.closure(pm.standard_gens("sym", 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(arr) == 40320 and peak < 2.5 * 2**20, peak


def test_closure_at_degree_15_is_the_certified_span():
    # 7 disjoint transpositions in S_15: weights up to 15^14, so every code
    # is below 15^15 < 2^63
    h15 = pm.special_subgroups(15, "H")
    arr = pm.closure(h15)
    witness, span = pm.elementary_abelian_span(h15.generator_rows(), 2)
    assert arr.dtype == np.int8 and arr.shape == (128, 15)
    assert witness == h15.generators and np.array_equal(arr, span)


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(pm, "CLOSURE_CAP", 100)
    with pytest.raises(ValueError):
        pm.closure(pm.standard_gens("sym", 7))
    monkeypatch.setattr(pm, "CLOSURE_CAP", 120)
    assert len(pm.closure(pm.standard_gens("sym", 5))) == 120
    with pytest.raises(ValueError):
        pm.closure(pm.special_subgroups(16, "H", m=1))  # codes would overflow int64
    monkeypatch.setattr(pm, "CLOSURE_CAP", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            pm.closure(pm.standard_gens("sym", 12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1000 rows of 12 int64 entries are 96 kB; S_12 itself would be 46 GB
    assert peak < 2**20


def test_bad_arguments_raise_value_error():
    with pytest.raises(ValueError):
        pm.GroupPresentation("cyclic", 3, ())
    with pytest.raises(ValueError):
        pm.GroupPresentation("perm", 4, ((1, 0, 2),))
    with pytest.raises(ValueError):
        pm.standard_gens("alt", 2)
    with pytest.raises(ValueError):
        pm.special_subgroups(5, "H", m=3)
    with pytest.raises(ValueError):
        pm.special_subgroups(3, "K")
    for kind, n, m in (("KmH", 8, 0), ("KmHtilde", 7, 2)):
        with pytest.raises(ValueError):
            pm.special_subgroups(n, kind, m=m)


def _span_rank(group, p=2):
    certified = pm.elementary_abelian_span(group.generator_rows(), p)
    return None if certified is None else len(certified[0])


def test_elementary_abelian_span():
    assert _span_rank(pm.special_subgroups(8, "H")) == 4
    assert _span_rank(pm.special_subgroups(8, "Htilde")) == 3
    assert _span_rank(pm.special_subgroups(8, "K")) == 2
    # a 3-cycle is not an involution
    assert _span_rank(pm.GroupPresentation("perm", 4, (pm.from_cycles("(1 2 3)", 4),))) is None
    # past the degree cap of closure: 2^10 rows, each a product of the witness
    h20 = pm.special_subgroups(20, "H")
    witness, span = pm.elementary_abelian_span(h20.generator_rows(), 2)
    assert witness == h20.generators and span.shape == (1024, 20)
    assert len(set(map(tuple, span.tolist()))) == 1024
    assert span.tolist() == sorted(span.tolist())
    # odd p: <(1 2 3), (4 5 6)> has 9 elements
    c3 = np.array([pm.from_cycles("(1 2 3)", 6), pm.from_cycles("(4 5 6)", 6)])
    witness, span = pm.elementary_abelian_span(c3, 3)
    assert len(witness) == 2 and len(span) == 9
    c3_group = pm.GroupPresentation("perm", 6, tuple(map(tuple, c3.tolist())))
    assert set(map(tuple, span.tolist())) == set(map(tuple, pm.closure(c3_group).tolist()))
    # (1 2) and (2 3) are involutions that do not commute
    assert pm.elementary_abelian_span(np.array([pm.transposition(4, 0, 1),
                                                pm.transposition(4, 1, 2)]), 2) is None
    # an identity and a repeated or dependent row join neither witness nor span
    a, b = pm.transposition(6, 0, 1), pm.transposition(6, 2, 3)
    witness, span = pm.elementary_abelian_span(
        np.array([pm.identity(6), a, a, b, pm.compose(a, b)]), 2)
    assert witness == (a, b) and len(span) == 4


def test_special_subgroup_chain_labels_and_ranks():
    kxh = pm.special_subgroups(8, "KmH", m=1)
    assert kxh.label == "KxH_4" and len(kxh.generators) == 4
    k2 = pm.special_subgroups(8, "KmH", m=2)
    assert k2.label == "K^2xH_0" and len(k2.generators) == 4
    assert _span_rank(k2) == 4
    kxht = pm.special_subgroups(9, "KmHtilde", m=1)
    assert _span_rank(kxht) == 2 + (5 // 2 - 1)


def test_h_pair_count_parameter():
    h4 = pm.special_subgroups(9, "H", m=2)
    assert h4.label == "H_4" and len(h4.generators) == 2
    assert all(len(g) == 9 for g in h4.generators)


def test_elem_abelian_rank_search_small():
    sr = pm.elem_abelian_rank_search(pm.closure(pm.standard_gens("sym", 4)), 2)
    assert sr.exact and sr.rank == 2  # the Klein four group inside S_4
    sr6 = pm.elem_abelian_rank_search(pm.closure(pm.standard_gens("alt", 6)), 2)
    assert sr6.exact and sr6.rank == 2
    sr3 = pm.elem_abelian_rank_search(pm.closure(pm.standard_gens("sym", 3)), 3)
    assert sr3.exact and sr3.rank == 1


def _rank_search(kind, n, p):
    return pm.elem_abelian_rank_search(pm.closure(pm.standard_gens(kind, n)), p)


def test_elem_abelian_rank_search_known_ranks():
    # floor(n/2) disjoint transpositions in S_n; in A_n, 2 floor(n/4) from
    # Klein blocks; floor(n/p) disjoint p-cycles, which are even, at odd p
    cases = ([("sym", n, 2, n // 2) for n in range(2, 8)]
             + [("alt", n, 2, 2 * (n // 4)) for n in range(3, 9)]
             + [(kind, n, p, n // p) for p in (3, 5) for kind in ("sym", "alt")
                for n in range(3, 8)])
    for kind, n, p, rank in cases:
        sr = _rank_search(kind, n, p)
        assert (sr.rank, sr.exact) == (rank, True), (kind, n, p)
        rows = np.array(sr.witness, dtype=np.intp).reshape(-1, n)
        assert pm.elementary_abelian_span(rows, p)[0] == sr.witness, (kind, n, p)
    # the witnesses the dickson report echoes
    assert [pm.to_cycles(g) for g in _rank_search("alt", 6, 2).witness] == [
        "(3 4)(5 6)", "(1 2)(3 4)"]
    assert [pm.to_cycles(g) for g in _rank_search("alt", 7, 2).witness] == [
        "(4 5)(6 7)", "(1 3)(4 5)"]


def test_elem_abelian_rank_search_reports_an_exhausted_budget(monkeypatch):
    monkeypatch.setattr(pm, "SEARCH_BUDGET", 1)
    sr = _rank_search("sym", 4, 2)
    assert not sr.exact and sr.rank == 1


def test_double_transposition_even():
    g = pm.double_transposition(6, 0, 1, 2, 3)
    assert pm.sign(g) == 1
    assert g != pm.identity(6) and pm.compose(g, g) == pm.identity(6)  # order 2
