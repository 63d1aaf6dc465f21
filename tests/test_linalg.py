"""Exact linear algebra: RREF paths, dualities, subspaces, quotient actions."""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import symprep
from symprep.field import make_field
from symprep import linalg
from symprep.linalg import (Mat, Subspace, _rref_generic, add, det, form, inv,
                            joint_fixed_space, kernel, matmul, mm_gf2, mm_modp, mul, neg,
                            of_form, pack_rows, product_forms, quotient_action, spans,
                            stacked_minus_identity)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF9 = make_field(3, 2)
GF5 = make_field(5)

# products from this many multiply-adds on take the packed GF(2) path
SWITCH = 200_000


def random_mat(field, rows, cols, rng):
    return Mat(field, rng.integers(0, field.q, size=(rows, cols)))


def _generic_kernel(m):
    """kernel(m) worked out with the generic elimination alone, as the
    reference for the packed GF(2) path."""
    f = m.field
    red, piv = _rref_generic(m.a, f)
    free = [c for c in range(m.cols) if c not in piv]
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = neg(f, red[: len(piv)][:, free].T)
    red, piv = _rref_generic(basis, f)
    return Subspace(f, m.cols, red[: len(piv)], piv)


def test_identity_and_arithmetic():
    i3 = Mat.identity(GF3, 3)
    a = Mat(GF3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    assert a @ i3 == a and i3 @ a == a
    assert (a - a) == Mat.zeros(GF3, 3, 3)
    assert np.array_equal((a + a).a, mul(GF3, a.a, 2))
    assert (a.T).T == a
    assert a.pow(0) == i3
    assert a.pow(3) == a @ a @ a


def test_pow_takes_no_product_by_the_identity(monkeypatch):
    """self^e in floor(log2 e) + popcount(e) - 1 products."""
    real = Mat.__matmul__
    calls = []
    monkeypatch.setattr(Mat, "__matmul__", lambda x, y: calls.append(1) or real(x, y))
    a = Mat(GF3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    want = a
    for e in range(1, 9):
        calls.clear()
        assert a.pow(e) == want
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e
        want = real(want, a)


def test_inverse_round_trip_all_fields():
    rng = np.random.default_rng(5)
    for f in (GF2, GF3, GF4, GF9):
        found = 0
        while found < 5:
            a = random_mat(f, 4, 4, rng)
            if a.rank() < 4:
                continue
            found += 1
            assert a @ a.inverse() == Mat.identity(f, 4)
            assert a.inverse() @ a == Mat.identity(f, 4)


def test_det_multiplicative():
    rng = np.random.default_rng(11)
    for f in (GF2, GF3, GF9):
        for _ in range(10):
            a = random_mat(f, 3, 3, rng)
            b = random_mat(f, 3, 3, rng)
            assert det(f, (a @ b).a) == f.mul(int(det(f, a.a)), int(det(f, b.a)))


def test_rank_kernel_duality_1000_random():
    """rank + nullity = cols, kernel vectors annihilate, row/col ranks agree."""
    rng = np.random.default_rng(20240601)
    fields = (GF2, GF3, GF4, GF9, make_field(5))
    for i in range(1000):
        f = fields[i % len(fields)]
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = random_mat(f, rows, cols, rng)
        r = a.rank()
        ker = kernel(a)
        assert r + ker.dim == cols
        assert a.T.rank() == r
        if ker.dim:
            prod = np.stack([_apply(a, v) for v in ker.basis])
            assert not prod.any()


def test_kernel_one_elimination_matches_two_step_kernel():
    """kernel reads the canonical RREF of ker M off one elimination of M with
    its columns reversed; _generic_kernel eliminates M, then the basis."""
    rng = np.random.default_rng(24)
    fields = (GF2, GF3, GF5, make_field(7), GF4, make_field(2, 3), GF9)
    for i in range(2100):
        f = fields[i % len(fields)]
        rows, cols = (int(x) for x in rng.integers(0, 9, size=2))
        entries = rng.integers(0, f.q, size=(rows, cols))
        entries[rng.random((rows, cols)) < rng.random()] = 0  # vary the rank
        m = Mat(f, entries)
        assert kernel(m) == _generic_kernel(m), (f, entries.tolist())


def _apply(a: Mat, v: np.ndarray) -> np.ndarray:
    if a.field.r == 1:
        return mm_modp(a.a, v.reshape(-1, 1), a.field.p).reshape(-1)
    out = np.zeros(a.rows, dtype=np.int64)
    for i in range(a.rows):
        acc = 0
        for j in range(a.cols):
            acc = a.field.add(acc, a.field.mul(int(a.a[i, j]), int(v[j])))
        out[i] = acc
    return out


def test_packed_vs_generic_bit_identical():
    """The GF(2) word-packed elimination must equal the generic path exactly."""
    rng = np.random.default_rng(77)
    for _ in range(300):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 70))
        a = random_mat(GF2, rows, cols, rng)
        red_packed, piv_packed = a.rref()
        red_generic, piv_generic = _rref_generic(a.a, GF2)
        assert tuple(piv_packed) == tuple(piv_generic)
        assert np.array_equal(red_packed.a, red_generic)


def test_rref_canonical_properties():
    rng = np.random.default_rng(3)
    for f in (GF2, GF3, GF9):
        for _ in range(30):
            a = random_mat(f, 6, 8, rng)
            red, piv = a.rref()
            for k, j in enumerate(piv):
                col = red.a[:, j]
                assert col[k] == 1 and not np.delete(col, k).any()
            # idempotent
            red2, piv2 = red.rref()
            assert np.array_equal(red2.a, red.a) and tuple(piv) == tuple(piv2)


def _with_row(s, v):
    return Subspace.from_rows(s.field, np.vstack([s.basis, v]))


def test_subspace_membership_by_span():
    # v lies in s exactly when adjoining it leaves the canonical subspace equal
    s = Subspace.from_rows(GF2, [[1, 0, 1, 0], [0, 1, 1, 0]])
    assert s.dim == 2
    assert _with_row(s, [1, 1, 0, 0]) == s
    assert _with_row(s, [0, 0, 0, 1]) != s
    assert _with_row(s, [1, 1, 0, 1]) != s and _with_row(s, [1, 0, 1, 0]) == s


def test_joint_fixed_space_permutation():
    # swap of two coordinates fixes exactly the diagonal and the third axis
    m = Mat(GF2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    fs = joint_fixed_space([m])
    assert fs.dim == 2
    assert fs == Subspace.from_rows(GF2, [[1, 1, 0], [0, 0, 1]])


def test_quotient_action_commutes_with_projection():
    """R·m v = q·R v for the projection v -> R·v, R the nonzero RREF rows of m - 1."""
    rng = np.random.default_rng(21)
    for f in (GF2, GF3, GF4):
        checked = 0
        for _ in range(20):
            m = random_mat(f, 6, 6, rng)
            x = stacked_minus_identity([m])
            red, piv = x.rref()
            rank = len(piv)
            if rank in (0, 6):
                continue
            q = quotient_action([m], x)[0]
            r = Mat(f, red.a[:rank])
            assert q.shape == (rank, rank)
            for _ in range(5):
                v = rng.integers(0, f.q, size=6)
                assert np.array_equal(_apply(r, _apply(m, v)), _apply(q, _apply(r, v)))
            checked += 1
        assert checked >= 3, f"too few proper quotients over {f}"


def test_quotient_action_rejects_non_invariant():
    m = Mat(GF2, [[1, 1], [0, 1]])
    bad = Mat(GF2, [[1, 0]])  # kernel spanned by e2, and e2 -> e1 + e2
    with pytest.raises(ValueError):
        quotient_action([m], bad)


@pytest.mark.parametrize("f,n", [(GF3, 4), (GF2, 70)], ids=["GF3", "GF2-packed"])
def test_quotient_action_rejects_the_one_generator_that_leaves_the_kernel(f, n):
    """ker x = span(e_n); the first two generators keep it, the last sends
    e_n to e_1 + e_n.  At n = 70 over GF(2) the products take the packed path."""
    rng = np.random.default_rng(n)
    x = Mat(f, np.diag([1] * (n - 1) + [0]))
    keep = []
    for _ in range(2):
        g = rng.integers(0, f.q, size=(n, n))
        g[:-1, -1] = 0
        keep.append(Mat(f, g))
    assert all((x @ g).rank() <= n - 1 for g in keep)
    quotient_action(keep, x)
    leave = keep[0].a.copy()
    leave[0, -1] = 1
    with pytest.raises(ValueError, match="not invariant"):
        quotient_action(keep + [Mat(f, leave)], x)


def test_quotient_action_of_the_zero_map_is_the_zero_space():
    """x = 0 has the whole space as kernel: every image is 0 x 0."""
    for f, n in ((GF2, 3), (GF2, 70), (GF3, 4), (GF9, 3)):
        rng = np.random.default_rng(n + f.q)
        mats = [random_mat(f, n, n, rng) for _ in range(3)]
        out = quotient_action(mats, Mat.zeros(f, 2, n))
        assert [m.shape for m in out] == [(0, 0)] * 3
        assert all(m == Mat.zeros(f, 0, 0) for m in out)


def _grid_matches(f, lefts, rights):
    """product_forms(lefts, rights) holds the form of a @ b at [i, :, j]."""
    grid = product_forms(lefts, rights)
    assert grid.shape[:3] == (len(lefts), lefts[0].rows, len(rights))
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            assert np.array_equal(grid[i, :, j], form(a @ b))
            assert of_form(f, grid[i, :, j], b.cols) == a @ b
    return grid


_FIELDS = pytest.mark.parametrize("f,n", [(GF2, 3), (GF2, 70), (GF3, 5), (GF4, 4), (GF9, 4)],
                                  ids=["GF2", "GF2-packed", "GF3", "GF4", "GF9"])


@_FIELDS
def test_batched_products_match_one_product_per_block(f, n):
    """One left times many rights and many lefts times one right, each shape
    in one call; a 0-row left; factors that do not multiply."""
    rng = np.random.default_rng(7 * n + f.q)
    a = random_mat(f, n, n, rng)
    for m in (n, 1, 2 * n + 5, 130):
        _grid_matches(f, [a], [random_mat(f, n, m, rng) for _ in range(3)])
        _grid_matches(f, [random_mat(f, m, n, rng) for _ in range(3)], [a])
    empty = _grid_matches(f, [Mat.zeros(f, 0, n)], [a, a])
    assert empty.shape[:3] == (1, 0, 2)
    with pytest.raises(ValueError):  # inner sizes
        product_forms([a], [random_mat(f, n + 1, 2, rng)])
    with pytest.raises(ValueError):
        product_forms([random_mat(f, 2, n + 1, rng)], [a])
    other = GF5 if f != GF5 else GF3
    with pytest.raises(ValueError):  # fields
        product_forms([a], [Mat.identity(other, n)])
    with pytest.raises(ValueError):
        product_forms([Mat.identity(other, n)], [a])
    with pytest.raises(ValueError):  # mixed shapes on one side
        product_forms([a], [a, random_mat(f, n, n + 1, rng)])
    with pytest.raises(ValueError):
        product_forms([a, random_mat(f, n + 1, n, rng)], [a])
    with pytest.raises(ValueError):
        product_forms([], [a])


@_FIELDS
def test_of_form_round_trips(f, n):
    rng = np.random.default_rng(5 * n + f.q)
    for rows, cols in ((n, n), (0, n), (n, 130), (1, 1)):
        m = random_mat(f, rows, cols, rng)
        back = of_form(f, form(m), cols)
        assert back == m and back.shape == m.shape and np.array_equal(back.a, m.a)
    if f.is_gf2:
        with pytest.raises(ValueError):  # words too narrow for the columns
            of_form(f, form(m), 65)


@pytest.mark.parametrize("cells", [None, 1, 30, 300], ids=["default", "one-block", "30", "300"])
@_FIELDS
def test_chunked_grids_and_pairs_match_one_product_per_block(f, n, cells, monkeypatch):
    """product_forms against a @ b block by block, in one chunk, one block
    per chunk, chunks of a few blocks, and a grid wider than the default
    chunk; and products of pairs read off the diagonal of one grid, as the
    braid relation check reads them."""
    if cells is not None:
        monkeypatch.setattr(linalg, "_PRODUCT_CELLS", cells)
    rng = np.random.default_rng(11 * n + f.q)
    for h in (n, 1, 2 * n + 3):
        for w in (n, 1, 130, 2 * n + 5):
            _grid_matches(f, [random_mat(f, h, n, rng) for _ in range(3)],
                          [random_mat(f, n, w, rng) for _ in range(4)])
    squares = [random_mat(f, n, n, rng) for _ in range(5)]
    # each of 2 rights is wider than the default chunk's cells over 3 lefts
    width = -(-(1 << 14) // (3 * n)) * (64 if f.is_gf2 else 1)
    wide = [random_mat(f, n, width, rng) for _ in range(2)]
    assert _grid_matches(f, squares[:3], wide).size > 1 << 14
    blocks = [random_mat(f, n, 3, rng) for _ in range(4)]
    grid = _grid_matches(f, squares[:4], blocks)
    pairs = grid[np.arange(4), :, np.arange(4)]
    assert np.array_equal(pairs, np.stack([form(a @ b) for a, b in zip(squares, blocks)]))


def test_spans_cut_runs_at_the_cell_budget(monkeypatch):
    monkeypatch.setattr(linalg, "_PRODUCT_CELLS", 10)
    assert spans([]) == []
    assert spans([3, 3, 3]) == [range(0, 3)]
    assert spans([4, 4, 4, 11, 2]) == [range(0, 2), range(2, 3), range(3, 4), range(4, 5)]
    monkeypatch.setattr(linalg, "_PRODUCT_CELLS", 1)
    assert spans([1, 1, 1]) == [range(0, 1), range(1, 2), range(2, 3)]


# public entry points given arguments from different spaces
_BAD_ARGUMENTS = {
    "quotient_action-field": lambda: quotient_action([Mat.identity(GF3, 2)], Mat.zeros(GF2, 1, 2)),
    "quotient_action-ambient": lambda: quotient_action([Mat.identity(GF2, 3)], Mat.zeros(GF2, 1, 2)),
    "quotient_action-sizes": lambda: quotient_action([Mat.identity(GF2, 2), Mat.identity(GF2, 3)],
                                                     Mat.zeros(GF2, 1, 2)),
    "from_rows-ambient": lambda: Subspace.from_rows(GF2, [[1, 0]], ambient=3),
    "pow-non-square": lambda: Mat(GF2, [[1, 0, 1]]).pow(2),
    "pow-negative": lambda: Mat.identity(GF2, 2).pow(-1),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_bad_arguments_raise_value_error(case):
    with pytest.raises(ValueError):
        _BAD_ARGUMENTS[case]()


_MISMATCH_UNDER_O = """
import sys
from symprep.field import make_field
from symprep.linalg import GF2, Mat, quotient_action
if not sys.flags.optimize:
    sys.exit(3)
for mats, x in (([Mat.identity(make_field(3), 2)], Mat.zeros(GF2, 1, 2)),
                ([Mat.identity(GF2, 3)], Mat.zeros(GF2, 1, 2)),
                ([Mat(GF2, [[1, 1], [0, 1]])], Mat(GF2, [[1, 0]]))):
    try:
        quotient_action(mats, x)
    except ValueError:
        print("raised ValueError")
"""


def test_argument_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _MISMATCH_UNDER_O],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised ValueError"] * 3


_SWEEP_IMPORTS = """
import sys
from symprep.snmod import verify_appendix
verify_appendix("char2", [8], 2)
verify_appendix("charnot2", [5], 3)
for name in sys.argv[1:]:
    print(name, name in sys.modules)
"""


@functools.lru_cache(maxsize=None)
def _imported_by_sweeps() -> dict:
    """{module: imported?} in a fresh interpreter after a mod-2 and a mod-3 sweep."""
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    proc = subprocess.run([sys.executable, "-c", _SWEEP_IMPORTS, "numpy.ma", "numpy.random"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {name: seen == "True" for name, seen in map(str.split, proc.stdout.splitlines())}


def test_sweeps_do_not_import_numpy_ma():
    """kernel finds its free columns without np.unique, which imports numpy.ma."""
    assert _imported_by_sweeps()["numpy.ma"] is False


def test_sweeps_do_not_import_numpy_random():
    """The witness block comes from the stdlib random module, and the Specht
    core checks straightening exactly, with no random projection."""
    assert _imported_by_sweeps()["numpy.random"] is False


def test_quotient_action_functorial():
    """Composing then quotienting equals quotienting then composing."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = random_mat(GF2, 5, 5, rng)
        b = random_mat(GF2, 5, 5, rng)
        x = stacked_minus_identity([a, b])
        if x.rank() in (0, 5):
            continue
        qa, qb = quotient_action([a, b], x)
        qab = quotient_action([a @ b], x)[0]
        assert qa @ qb == qab


def test_kron_mixed_products():
    a = Mat(GF3, [[1, 2], [0, 1]])
    b = Mat(GF3, [[2, 0], [1, 1]])
    c = Mat(GF3, [[1, 1], [2, 0]])
    d = Mat(GF3, [[0, 2], [1, 2]])
    assert (a @ c).kron(b @ d) == (a.kron(b)) @ (c.kron(d))


def test_key_and_hash_stability():
    a = Mat(GF2, [[1, 0], [1, 1]])
    b = Mat(GF2, [[1, 0], [1, 1]])
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 65, 130])
def test_packed_product_matches_int64_reference(k):
    """Four-Russians products equal (a @ b) % 2 below and above the switch."""
    rng = np.random.default_rng(1000 + k)
    big = int(np.ceil(np.sqrt(SWITCH / k))) + 3
    for n, m in ((3, 5), (big, big), (big + 61, big - 2), (1, SWITCH // k + 1)):
        a = rng.integers(0, 2, size=(n, k))
        b = rng.integers(0, 2, size=(k, m))
        ref = (a @ b) % 2
        prod = Mat(GF2, a) @ Mat(GF2, b)
        assert (n * k * m >= SWITCH) == (prod._a is None)
        assert np.array_equal(prod.a, ref)
        assert np.array_equal(mm_modp(a, b, 2), ref)
        assert np.array_equal(mm_gf2(pack_rows(a), pack_rows(b)), pack_rows(ref))


def test_packed_product_empty_operands():
    rng = np.random.default_rng(4)
    for n, k, m in ((0, 600, 600), (600, 600, 0), (600, 0, 600), (0, 0, 0)):
        a = rng.integers(0, 2, size=(n, k))
        b = rng.integers(0, 2, size=(k, m))
        assert np.array_equal(mm_gf2(pack_rows(a), pack_rows(b)), pack_rows(np.zeros((n, m))))
        prod = Mat(GF2, a) @ Mat(GF2, b)
        assert prod.shape == (n, m) and not prod.a.any()


def test_words_and_int64_forms_agree():
    rng = np.random.default_rng(8)
    for rows, cols in ((5, 3), (70, 64), (33, 130), (0, 9), (4, 0)):
        a = rng.integers(0, 2, size=(rows, cols))
        packed = Mat.from_words(GF2, pack_rows(a), cols)
        dense = Mat(GF2, a)
        assert packed == dense and dense == packed
        assert hash(packed) == hash(dense)
        assert Mat.from_words(GF2, pack_rows(a), cols).T == dense.T
        if a.size:
            b = a.copy()
            b[-1, -1] ^= 1
            assert Mat.from_words(GF2, pack_rows(b), cols) != dense


def test_packed_arithmetic_and_elimination():
    """Sums, transposes, row picks, RREF and inverses on words match int64."""
    rng = np.random.default_rng(12)
    n = 150
    a = random_mat(GF2, n, n, rng)
    b = random_mat(GF2, n, n, rng)
    pa = Mat.from_words(GF2, pack_rows(a.a), n)
    pb = Mat.from_words(GF2, pack_rows(b.a), n)
    assert np.array_equal((pa + pb).a, (a.a + b.a) % 2)
    assert pa - pb == pa + pb
    assert np.array_equal(pa.T.a, a.a.T)
    assert np.array_equal(pa.a[[4, 0, 149]], a.a[[4, 0, 149]])
    red_p, piv_p = pa.rref()
    red_g, piv_g = _rref_generic(a.a, GF2)
    assert piv_p == tuple(piv_g) and np.array_equal(red_p.a, red_g)
    while a.rank() < n:
        a = random_mat(GF2, n, n, rng)
    ident = Mat.identity(GF2, n)
    inv = Mat.from_words(GF2, pack_rows(a.a), n).inverse()
    assert a @ inv == ident and inv @ a == ident
    singular = Mat(GF2, np.vstack([a.a[:-1], a.a[:1]]))
    with pytest.raises(ValueError):
        singular.inverse()


@pytest.mark.parametrize("field", [GF2, GF3, GF5], ids=["GF2", "GF3", "GF5"])
def test_kernel_large_duality(field):
    """Vectorized kernel: rank + nullity = cols and M·v = 0, above the switch."""
    rng = np.random.default_rng(field.p)
    for rows, cols, r in ((90, 140, 60), (140, 90, 40), (64, 200, 64)):
        m = random_mat(field, rows, r, rng) @ random_mat(field, r, cols, rng)
        ker = kernel(m)
        assert m.rank() + ker.dim == cols
        assert ker.dim >= cols - r
        assert rows * cols * ker.dim >= SWITCH
        assert not (m @ Mat(field, ker.basis).T).a.any()
        assert ker == _generic_kernel(m)


def test_joint_fixed_space_large_gf2():
    """Packed g ⊕ I stacking gives the same fixed space as the generic path."""
    rng = np.random.default_rng(17)
    n = 96
    perm_mats = []
    for _ in range(3):
        pmat = np.zeros((n, n), dtype=np.int64)
        pmat[np.arange(n), rng.permutation(n)] = 1
        perm_mats.append(Mat(GF2, pmat))
    fixed = joint_fixed_space(perm_mats)
    stacked = Mat(GF2, np.vstack([(g.a + np.eye(n, dtype=np.int64)) % 2 for g in perm_mats]))
    assert fixed == _generic_kernel(stacked)
    for g in perm_mats:
        assert not ((g.a @ fixed.basis.T - fixed.basis.T) % 2).any()


def test_quotient_action_large_gf2():
    """The packed quotient equals (R·g)[:, pivots] worked out on int64 entries."""
    rng = np.random.default_rng(19)
    n = 96
    perm_mats = []
    for _ in range(2):
        pmat = np.zeros((n, n), dtype=np.int64)
        pmat[np.arange(n), rng.permutation(n)] = 1
        perm_mats.append(Mat(GF2, pmat))
    x = stacked_minus_identity(perm_mats)
    red, piv = _rref_generic(x.a, GF2)
    r = red[: len(piv)]
    for g, q in zip(perm_mats, quotient_action(perm_mats, x)):
        assert np.array_equal(q.a, (r @ g.a % 2)[:, list(piv)])


# ---------------------------------------------------------------------------
# extension fields: the digit-plane array path against scalar GF arithmetic

EXT_FIELDS = [make_field(p, r) for p, r in
              ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (3, 4))]


@functools.lru_cache(maxsize=None)
def _scalar_tables(f):
    """Addition and multiplication tables filled by the scalar GF methods."""
    els = range(f.q)
    return ([[f.add(x, y) for y in els] for x in els],
            [[f.mul(x, y) for y in els] for x in els])


def _ref_matmul(f, a, b):
    add, mul = _scalar_tables(f)
    a, b = a.tolist(), b.tolist()
    out = np.zeros((len(a), len(b[0]) if b else 0), dtype=np.int64)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            acc = 0
            for t in range(len(b)):
                acc = add[acc][mul[a[i][t]][b[t][j]]]
            out[i, j] = acc
    return out


def _ref_entrywise(op, a, b):
    return np.array([[op(int(x), int(y)) for x, y in zip(ra, rb)]
                     for ra, rb in zip(a, b)], dtype=np.int64).reshape(a.shape)


def _ref_rref(f, a):
    m = a.tolist()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                coef = m[i][c]
                m[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return np.array(m, dtype=np.int64).reshape(a.shape), tuple(pivots)


def _ref_det(f, a):
    m = a.tolist()
    n = len(m)
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = f.neg(det)
        det = f.mul(det, m[c][c])
        inv = f.inv(m[c][c])
        for i in range(c + 1, n):
            coef = f.mul(m[i][c], inv)
            m[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(m[i], m[c])]
    return det


def _ref_reduce(f, s, v):
    v = [int(x) for x in v]
    for row, c in zip(s.basis.tolist(), s.pivots):
        coef = v[c]
        v = [f.sub(x, f.mul(coef, y)) for x, y in zip(v, row)]
    return np.array(v, dtype=np.int64)


@pytest.mark.parametrize("f", EXT_FIELDS, ids=lambda f: f"GF{f.q}")
def test_extension_array_path_matches_scalar_reference(f):
    from symprep.forms import FormSpec

    rng = np.random.default_rng(f.q)
    for _ in range(3):
        a, c = random_mat(f, 4, 5, rng), random_mat(f, 4, 5, rng)
        b = random_mat(f, 5, 3, rng)
        t = int(rng.integers(0, f.q))
        assert np.array_equal((a @ b).a, _ref_matmul(f, a.a, b.a))
        assert np.array_equal((a + c).a, _ref_entrywise(f.add, a.a, c.a))
        assert np.array_equal((a - c).a, _ref_entrywise(f.sub, a.a, c.a))
        assert np.array_equal((-a).a, _ref_entrywise(f.sub, np.zeros_like(a.a), a.a))
        assert np.array_equal(mul(f, a.a, t), _ref_entrywise(f.mul, np.full_like(a.a, t), a.a))
        small, other = random_mat(f, 2, 3, rng), random_mat(f, 3, 2, rng)
        kron = [[f.mul(int(small.a[i // 3, j // 2]), int(other.a[i % 3, j % 2]))
                 for j in range(6)] for i in range(6)]
        assert np.array_equal(small.kron(other).a, np.array(kron))

        sq = random_mat(f, 4, 4, rng)
        singular = Mat(f, np.vstack([sq.a[:3], sq.a[1:2]]))
        for m in (sq, singular, Mat(f, sq.a[[2, 0, 3, 1]])):
            assert det(f, m.a) == _ref_det(f, m.a)

        # rank at most 3, so some columns are not pivots
        low = Mat(f, _ref_matmul(f, random_mat(f, 6, 3, rng).a, random_mat(f, 3, 7, rng).a))
        red, piv = low.rref()
        ref_red, ref_piv = _ref_rref(f, low.a)
        assert piv == ref_piv and np.array_equal(red.a, ref_red)

        s = Subspace.from_rows(f, low.a)
        v = rng.integers(0, f.q, size=7)
        # the scalar residue clears the pivots, and v minus it lies in s
        residue = _ref_reduce(f, s, v)
        assert not residue[list(s.pivots)].any()
        assert _with_row(s, [f.sub(int(x), int(y)) for x, y in zip(v, residue)]) == s

        g = random_mat(f, 4, 4, rng)
        gram = g + g.T
        if gram.rank() == 4:
            form = FormSpec(kind="symmetric", gram=gram)
            u, w = rng.integers(0, f.q, size=(2, 4))
            ref = _ref_matmul(f, _ref_matmul(f, u.reshape(1, -1), gram.a), w.reshape(-1, 1))
            assert (Mat(f, u.reshape(1, -1)) @ form.gram @ Mat(f, w.reshape(-1, 1))) == Mat(f, ref)


def _rref_cases(f, rng):
    """1 x n, n x 1, wide and tall matrices, each also with zero columns and repeated rows."""
    for rows, cols in ((1, 6), (6, 1), (3, 8), (8, 3), (5, 5)):
        for _ in range(4):
            a = rng.integers(0, f.q, size=(rows, cols))
            yield a
            a = a.copy()
            a[:, rng.integers(0, cols, size=max(1, cols // 2))] = 0
            a[rows // 2:] = a[: rows - rows // 2]
            yield a
    yield np.zeros((3, 4), dtype=np.int64)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_field_rref_matches_scalar_reference(p):
    f = make_field(p)
    rng = np.random.default_rng(100 + p)
    for a in _rref_cases(f, rng):
        red, piv = Mat(f, a).rref()
        ref_red, ref_piv = _ref_rref(f, a)
        assert piv == ref_piv and np.array_equal(red.a, ref_red), a


@pytest.mark.parametrize("f", [make_field(3, 2), make_field(2, 2)], ids=["GF9", "GF4"])
def test_extension_large_product_matches_scalar_reference(f):
    """Above the switch the planes take mm_modp's float64 BLAS product, at
    p = 2 as at odd p."""
    rng = np.random.default_rng(40 + f.q)
    n, k, m = 60, 60, 60
    assert n * k * m >= SWITCH
    a, b = random_mat(f, n, k, rng), random_mat(f, k, m, rng)
    assert np.array_equal((a @ b).a, _ref_matmul(f, a.a, b.a))


def _blas_switch_cases():
    """(a, b, p, runs BLAS) for 2-D products, stacks, and a 2-D left times a
    stacked right, just below and at linalg._BLAS_MACS multiply-adds over
    the broadcast stack, at p = 2, 3, 5 and 61.  The operands are random, all
    p - 1, or rows of 1 and of p - 1 times columns holding p or p + 1 entries
    p - 1, whose sums (p - 1)p and (p - 1)(p + 1) land on qp and qp - 1."""
    t, k = linalg._BLAS_MACS, 64
    rng = np.random.default_rng(53)
    for p in (2, 3, 5, 61):
        rows = np.array([[1] * k, [p - 1] * k])
        for lead_a, lead_b in (((), ()), ((2,), (2,)), ((), (2,))):
            stack = int(np.prod(np.broadcast_shapes(lead_a, lead_b)))
            top = -(-t // (stack * 2 * k))
            for m in (top - 1, top):
                cols = np.where(np.arange(k)[:, None] < p + np.arange(m) % 2, p - 1, 0)
                for a, b in ((rng.integers(0, p, size=lead_a + (2, k)),
                              rng.integers(0, p, size=lead_b + (k, m))),
                             (np.full(lead_a + (2, k), p - 1), np.full(lead_b + (k, m), p - 1)),
                             (np.broadcast_to(rows, lead_a + (2, k)),
                              np.broadcast_to(cols, lead_b + (k, m)))):
                    yield a, b, p, stack * 2 * k * m >= t


def _python_int_sums(a, b):
    """Every entry of a @ b over the broadcast stack, summed in Python ints."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:]).reshape((-1,) + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:]).reshape((-1,) + b.shape[-2:])
    sums = [[[sum(int(x) * int(y) for x, y in zip(row, col)) for col in bm.T] for row in am]
            for am, bm in zip(a, b)]
    return np.array(sums, dtype=np.int64).reshape(lead + (a.shape[-2], b.shape[-1]))


def check_blas_switch_products():
    """Each case of `_blas_switch_cases` equals its Python-int reference, and
    some sums land on qp - 1 and on qp, q >= 1, on both sides of the switch.
    It raises by hand, not by assert, so that it checks under python -O."""
    landed = set()
    for a, b, p, blas in _blas_switch_cases():
        sums = _python_int_sums(a, b)
        if not np.array_equal(mm_modp(a, b, p), sums % p):
            raise AssertionError(f"{a.shape} @ {b.shape} mod {p} is wrong")
        landed |= {(p, blas, int(r)) for r in sums[sums >= p] % p if r in (0, p - 1)}
    want = {(p, blas, r) for p in (2, 3, 5, 61) for blas in (False, True) for r in (0, p - 1)}
    if landed != want:
        raise AssertionError(f"no sum landed on {sorted(want - landed)}")


def test_mod_p_products_are_exact_on_both_sides_of_the_blas_switch(monkeypatch):
    real, calls = np.divide, []
    monkeypatch.setattr(np, "divide", lambda *args: calls.append(1) or real(*args))
    for a, b, p, blas in _blas_switch_cases():
        calls.clear()
        mm_modp(a, b, p)
        assert bool(calls) == blas, (a.shape, b.shape)  # only the BLAS path divides
    monkeypatch.undo()
    check_blas_switch_products()


def test_mod_p_products_are_exact_on_both_sides_of_the_blas_switch_under_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import test_linalg; test_linalg.check_blas_switch_products(); print('exact')"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([here, src])),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["exact"]


# ---------------------------------------------------------------------------
# stacks: leading axes run the same path as one matrix


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 5, 61])
def test_array_inverse_matches_scalar(q):
    f = make_field(*{4: (2, 2), 8: (2, 3), 9: (3, 2), 25: (5, 2), 27: (3, 3)}.get(q, (q, 1)))
    nonzero = np.arange(1, f.q).reshape(-1, 1)
    assert inv(f, nonzero).ravel().tolist() == [f.inv(x) for x in range(1, f.q)]
    with pytest.raises(ZeroDivisionError):
        inv(f, np.array([1, 0]))


def _det_stack(f, rng, n=4):
    """Random matrices beside singular ones, ones whose first pivot needs a
    row swap, and the identity."""
    mats = [rng.integers(0, f.q, size=(n, n)) for _ in range(6)]
    low = rng.integers(0, f.q, size=(n, n))
    low[-1] = low[0]  # a repeated row
    swap = rng.integers(0, f.q, size=(n, n))
    swap[:2, 0] = 0  # the first two rows have no pivot in column 0
    swap[2, 0] = 1
    zero_col = rng.integers(0, f.q, size=(n, n))
    zero_col[:, 1] = 0
    return np.stack(mats + [low, swap, zero_col, np.eye(n, dtype=np.int64),
                            np.zeros((n, n), dtype=np.int64)])


@pytest.mark.parametrize("f", [GF2, GF5, GF4, GF9, make_field(3, 3)],
                         ids=lambda f: f"GF{f.q}")
def test_stacked_det_matches_reference(f):
    rng = np.random.default_rng(70 + f.q)
    for n in (3, 5):
        stack = _det_stack(f, rng, n)
        dets = det(f, stack)
        assert dets.shape == (stack.shape[0],)
        assert dets.tolist() == [_ref_det(f, m) for m in stack]
        assert 0 in dets.tolist() and det(f, stack[-2]) == 1
        assert np.array_equal(det(f, stack[:10].reshape(2, 5, n, n)), dets[:10].reshape(2, 5))
    ones = rng.integers(0, f.q, size=(6, 1, 1))
    assert det(f, ones).tolist() == ones.ravel().tolist()
    assert det(f, np.zeros((2, 0, 0), dtype=np.int64)).tolist() == [1, 1]
    assert det(f, Mat.zeros(f, 0, 0).a) == 1
    for bad in (np.zeros((2, 3, 4), dtype=np.int64), np.zeros(3, dtype=np.int64)):
        with pytest.raises(ValueError):
            det(f, bad)


@pytest.mark.parametrize("f", [GF2, GF5, GF4, GF9, make_field(3, 3)],
                         ids=lambda f: f"GF{f.q}")
def test_stacked_ops_match_per_slice(f):
    """Stacked matmul, add, neg and mul equal their per-slice results, with a
    plain matrix broadcast against the stack; a stack as long as the field's
    degree must not be read as its digit planes."""
    rng = np.random.default_rng(90 + f.q)
    for size in (2, 3, 7):
        a = rng.integers(0, f.q, size=(size, 4, 5))
        b = rng.integers(0, f.q, size=(size, 5, 3))
        c = rng.integers(0, f.q, size=(5, 3))
        e = rng.integers(0, f.q, size=(4, 5))
        assert np.array_equal(matmul(f, a, b), [matmul(f, x, y) for x, y in zip(a, b)])
        assert np.array_equal(matmul(f, a, c), [matmul(f, x, c) for x in a])
        assert np.array_equal(matmul(f, e, b), [matmul(f, e, y) for y in b])
        assert np.array_equal(add(f, a, e), [add(f, x, e) for x in a])
        assert np.array_equal(mul(f, a, e), [mul(f, x, e) for x in a])
        assert np.array_equal(neg(f, a), [neg(f, x) for x in a])
