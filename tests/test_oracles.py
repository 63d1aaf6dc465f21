"""Independent slow-path checkers: exhaustive parabolic enumeration,
brute-force free-summand peeling, and the tableau counting recursion."""

import functools
import inspect
import itertools
import math

import numpy as np
import pytest

from symprep import dickson, oracles
from symprep import perm as pm
from symprep.checks import CheckFailed
from symprep.dickson import (half_dim, lagrangian_pair,
                             parabolic_trivial_subgroup, perm_irrep)
from symprep.field import make_field
from symprep.linalg import Mat, Subspace
from symprep.oracles import (decompose_small_module, enum_parabolic,
                             make_test_modules, tableau_count,
                             validate_norm_rank)
from symprep.snmod import hook_length_dim, partitions


def test_enum_parabolic_reference_point():
    res = enum_parabolic(6, "sym")
    assert res["rank"] == 3 and res["order"] == 8


def test_enum_parabolic_chunks_not_dividing_group_order(monkeypatch):
    # the default chunk leaves a partial last chunk at n = 7, 8, which
    # criterion 02 in test_acceptance covers; 11 is a prime above 8, so it
    # never divides |S_n| or |A_n|, and 1 is the smallest chunk.  The sweep
    # is cached by degree, so the cache is cleared for each patched chunk
    # and every degree must be swept again with it.
    assert all(math.factorial(n) % oracles._FILTER_CHUNK for n in (7, 8))
    for chunk in (11, 1):
        monkeypatch.setattr(oracles, "_FILTER_CHUNK", chunk)
        oracles._trivial_rows.cache_clear()
        for n in (5, 6, 7) if chunk > 1 else (5, 6):
            misses = oracles._trivial_rows.cache_info().misses
            for kind in ("sym", "alt"):
                r = n // 2 - (1 if kind == "alt" else 0)
                res = enum_parabolic(n, kind)
                assert (res["rank"], res["order"]) == (r, 2**r), (n, kind, chunk)
            assert oracles._trivial_rows.cache_info().misses == misses + 1, (n, chunk)


def test_enum_parabolic_agrees_with_main_path():
    for n in (5, 6, 7):
        w, _, _ = lagrangian_pair(half_dim(n))
        for kind in ("sym", "alt"):
            main = parabolic_trivial_subgroup(n, kind, w)
            oracle = enum_parabolic(n, kind)
            assert (main.rank, main.order) == (oracle["rank"], oracle["order"]), (n, kind)
        # the alt oracle keeps the even S_n survivors: each must lie in the
        # group that the A_n generators close to
        alt = {tuple(g) for g in pm.closure(pm.standard_gens("alt", n)).tolist()}
        even = [tuple(g) for g in oracles._trivial_rows(n).tolist() if pm.sign(g) == 1]
        assert len(even) == main.order and set(even) <= alt, n


def test_enum_parabolic_sweeps_once_per_degree_and_certifies_every_call(monkeypatch):
    oracles._trivial_rows.cache_clear()
    enum_parabolic(6, "sym")
    enum_parabolic(6, "alt")
    info = oracles._trivial_rows.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert not oracles._trivial_rows(6).flags.writeable
    monkeypatch.setattr(pm, "elementary_abelian_span", lambda elements, p: None)
    for kind in ("sym", "alt"):
        with pytest.raises(CheckFailed):
            enum_parabolic(6, kind)
    assert oracles._trivial_rows.cache_info().misses == 1


@functools.lru_cache(maxsize=None)
def _elements_and_images(n):
    """Every g in S_n in lexicographic order with its matrix on perm_irrep(n, 2);
    they do not depend on W, so the cases share them."""
    rep = perm_irrep(n, 2)
    return tuple((g, rep.act(g)) for g in itertools.permutations(range(n)))


def _trivial_reference(n, w):
    """The counts of elements of S_n fixing w pointwise and of those that are
    the identity on V/w, and the array of those doing both, one element at a
    time in lexicographic order, by Mat arithmetic."""
    f = make_field(2)
    ident = Mat.identity(f, w.ambient)
    b = Mat(f, w.basis)
    residue = ident + b.T @ Mat(f, np.eye(w.ambient, dtype=np.int64)[list(w.pivots)])
    fixes_w = on_quotient = 0
    trivial = []
    for g, image in _elements_and_images(n):
        d = image - ident
        on_w, on_v_mod_w = not (d @ b.T).a.any(), not (residue @ d).a.any()
        fixes_w += on_w
        on_quotient += on_v_mod_w
        if on_w and on_v_mod_w:
            trivial.append(g)
    return fixes_w, on_quotient, np.array(trivial, dtype=np.int64)


# W from the half dimension d (None: the standard Lagrangian), and whether
# the W test keeps rows the V/W test drops, and the other way round
_STAGE_CASES = {
    # a symplectic g fixing a Lagrangian W pointwise is the identity on
    # V/W, which is dual to W, and the other way round
    "standard": (None, (False, False)),
    # (g - 1)V inside a line <w> forces gw = w, but not the converse
    "line": ([(0, 1)], (True, False)),
    # the plane <e_1 + e_2, e_1 + e_3> is not isotropic
    "plane": ([(0, 1), (0, 2)], (True, True)),
}


@pytest.mark.parametrize("case", sorted(_STAGE_CASES))
def test_trivial_rows_match_an_element_by_element_reference(monkeypatch, case):
    # the W test and the V/W test are two stages of the filter; only a W on
    # which they keep different rows shows a dropped stage
    supports, stages_differ = _STAGE_CASES[case]
    if supports is not None:
        def patched(d):
            rows = np.zeros((len(supports), 2 * d), dtype=np.int64)
            for i, support in enumerate(supports):
                rows[i, list(support)] = 1
            return Subspace.from_rows(make_field(2), rows), None, None
        monkeypatch.setattr(dickson, "lagrangian_pair", patched)
    oracles._trivial_rows.cache_clear()
    try:
        for n in (5, 6, 7):
            w, _, _ = dickson.lagrangian_pair(half_dim(n))
            fixes_w, on_quotient, trivial = _trivial_reference(n, w)
            differ = (fixes_w > len(trivial), on_quotient > len(trivial))
            assert differ == stages_differ, n
            rows = oracles._trivial_rows(n)
            assert rows.dtype == np.int8 and not rows.flags.writeable, n
            assert np.array_equal(rows, trivial), n
        # one row per chunk: most chunks then fail the W test outright and
        # leave nothing for the V/W test
        monkeypatch.setattr(oracles, "_FILTER_CHUNK", 1)
        oracles._trivial_rows.cache_clear()
        assert fixes_w < math.factorial(7)
        assert np.array_equal(oracles._trivial_rows(7), trivial)
    finally:
        oracles._trivial_rows.cache_clear()


def test_oracle_filter_uses_none_of_the_main_path_kernels():
    for fn in (oracles._trivial_rows, enum_parabolic):
        src = inspect.getsource(fn)
        for name in ("mm_gf2", "pack_rows", "rref_array", "_sweep_survivors_gf2"):
            assert name not in src, (fn.__name__, name)


def test_enum_parabolic_cap():
    with pytest.raises(ValueError):
        enum_parabolic(9, "sym")
    with pytest.raises(ValueError):
        enum_parabolic(3, "sym")
    # at n = 4 the trivially-acting subgroup is dihedral, so n = 4 is bad
    # input, not a failed check
    for kind in ("sym", "alt"):
        with pytest.raises(ValueError):
            enum_parabolic(4, kind)
    with pytest.raises(ValueError):
        enum_parabolic(6, "perm")


def _regular_module(rank):
    """Translation action of C_2^rank on its own group algebra over GF(2)."""
    f = make_field(2)
    dim = 2**rank
    mats = []
    for i in range(rank):
        rows = [[0] * dim for _ in range(dim)]
        for v in range(dim):
            rows[v ^ (1 << i)][v] = 1
        mats.append(Mat(f, rows))
    return mats


def test_decompose_regular_modules():
    for rank in (1, 2, 3):
        assert decompose_small_module(_regular_module(rank), group_order=2**rank) == 1


def test_decompose_trivial_and_sums():
    f = make_field(2)
    ident = Mat.identity(f, 3)
    # trivial action: no free summand over a nontrivial group
    assert decompose_small_module([ident], group_order=2) == 0
    # two copies of the regular C_2 module
    reg = _regular_module(1)[0]
    double = reg.kron(Mat.identity(f, 2))
    assert decompose_small_module([double], group_order=2) == 2
    # regular C_2 plus a trivial line
    block = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert decompose_small_module([Mat(f, block)], group_order=2) == 1


def test_decompose_group_order_semantics():
    f = make_field(2)
    reg = _regular_module(1)[0]
    # over the full Klein group the C_2-regular plane is not free
    assert decompose_small_module([reg], group_order=4) == 0
    with pytest.raises(ValueError):
        decompose_small_module([reg], group_order=3)  # closure size 2 must divide


def test_decompose_caps():
    f = make_field(2)
    with pytest.raises(ValueError):
        decompose_small_module([Mat.identity(f, 9)], group_order=2)
    with pytest.raises(ValueError):
        decompose_small_module([Mat.identity(make_field(3), 3)], group_order=3)


def test_make_test_modules_shapes():
    cases = make_test_modules(seed=1)
    assert [label.split("-")[1] for _, label in cases] == ["C2"] * 30 + ["K4"] * 30
    f = make_field(2)
    for mats, label in cases:
        assert len(mats) == (1 if "C2" in label else 2)
        for m in mats:
            assert m @ m == Mat.identity(f, m.rows)


def test_validate_norm_rank_seeds():
    for seed in (0, 3):
        res = validate_norm_rank(seed=seed)
        assert res["all_match"], res
        assert res["cases"] >= 60


def test_tableau_count_vs_hook():
    assert tableau_count((5, 2)) == 14
    for n in (3, 4, 5, 6, 7):
        for lam in partitions(n):
            assert tableau_count(lam) == hook_length_dim(lam)


def test_tableau_count_cap():
    with pytest.raises(ValueError):
        tableau_count((9, 4))  # 13 boxes exceeds the n <= 12 oracle cap
    with pytest.raises(ValueError):
        tableau_count((2, 3))
