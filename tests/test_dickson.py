"""The mod-p representation cut from the permutation module, its symplectic
pairing, Lagrangian structure, and parabolic subgroup computations."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import symprep
from symprep import perm as pm
from symprep.checks import CheckFailed
from symprep.dickson import (_check_word_consistency, _sweep_survivors_gf2,
                             check_invariance, diagonal_rep, dickson_form,
                             gl_parabolic_check, half_dim, irrep_images,
                             lagrangian_pair, parabolic_trivial_subgroup,
                             perm_irrep, rep_to_json, siegel_unipotent_dim,
                             standard_parabolic)
from symprep.field import make_field
from symprep.forms import is_isotropic, preserves_form
from symprep.linalg import GF2, Mat, Subspace
from symprep.snmod import GModule, fingerprint, irreducible_D


def test_dimensions_by_characteristic():
    # char 2: dim = n - 2 for even n, n - 1 for odd n (always even)
    assert perm_irrep(6, 2).dim == 4
    assert perm_irrep(7, 2).dim == 6
    assert perm_irrep(8, 2).dim == 6
    assert perm_irrep(9, 2).dim == 8
    # odd characteristic: n - 2 when p divides n, else n - 1
    assert perm_irrep(6, 3).dim == 4
    assert perm_irrep(7, 3).dim == 6
    assert perm_irrep(10, 5).dim == 8
    assert perm_irrep(7, 5).dim == 6
    assert half_dim(8) == 3 and half_dim(9) == 4


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        perm_irrep(1, 2)
    with pytest.raises(ValueError):
        perm_irrep(3, 2)  # needs n >= 4 in characteristic 2


def test_homomorphism_on_random_words():
    rng = np.random.default_rng(4)
    rep = perm_irrep(7, 3)
    for _ in range(15):
        a = tuple(rng.permutation(7))
        b = tuple(rng.permutation(7))
        assert rep.act(pm.compose(a, b)) == rep.act(a) @ rep.act(b)


def test_perm_irrep_is_built_once_and_frozen():
    rep = perm_irrep(6, 2)
    assert perm_irrep(6, 2) is rep
    with pytest.raises(AttributeError):
        rep.dim = 0
    with pytest.raises(ValueError):
        rep.act(pm.identity(5))


def test_faithfulness_flags():
    assert rep_to_json(perm_irrep(5, 2))["faithful"]
    assert rep_to_json(perm_irrep(8, 2))["faithful"]
    assert not rep_to_json(perm_irrep(4, 2))["faithful"]  # Klein kernel at n = 4


def test_batched_images_match_act():
    rng = np.random.default_rng(11)
    cases = [(n, 2) for n in range(5, 11)] + [(7, 3), (10, 5)]
    for n, p in cases:
        rep = perm_irrep(n, p)
        perms = np.stack([rng.permutation(n) for _ in range(12)])
        images = irrep_images(perms, p)
        assert images.shape == (12, rep.dim, rep.dim), (n, p)
        for g, img in zip(perms.tolist(), images):
            assert Mat(rep.field, img) == rep.act(tuple(g)), (n, p, g)


def _reference_image(g, p):
    """The matrix of g on the reduced permutation module, one column at a time.

    V is the sum-zero submodule of GF(p)^N, where N = n, or for p = 2 the even
    2 ceil(n/2) with g fixing the extra point, taken modulo the all-ones
    vector when p divides N, in the basis b_i = e_i - e_(N-1).
    """
    n = len(g)
    big = n + n % 2 if p == 2 else n
    quotient = big % p == 0
    dim = big - 2 if quotient else big - 1
    g = list(g) + list(range(n, big))
    cols = []
    for i in range(dim):
        v = [0] * big
        v[g[i]] += 1
        v[g[big - 1]] -= 1  # g b_i = e_g(i) - e_g(N-1)
        coords = v[:big - 1]  # v = sum_j v_j b_j, as v sums to 0
        if quotient:  # all-ones = sum_j b_j: clear b_(N-2)
            coords = [c - coords[big - 2] for c in coords[:big - 2]]
        cols.append([c % p for c in coords])
    return [[col[i] for col in cols] for i in range(dim)]


def test_images_match_column_by_column_reference():
    rng = random.Random(5)
    cases = [(itertools.permutations(range(n)), p) for n in (5, 6) for p in (2, 3, 5)]
    cases += [([rng.sample(range(n), n) for _ in range(50)], 2) for n in (9, 10, 24)]
    for perms, p in cases:
        perms = np.array(list(perms))
        images = irrep_images(perms, p)
        assert images.dtype == np.int64 and len(images) == len(perms)
        for g, img in zip(perms.tolist(), images):
            assert img.tolist() == _reference_image(g, p), (p, g)


@pytest.mark.parametrize("n", [11, 12, 16, 24])
def test_two_constructions_agree_past_the_claims(n):
    """Jordan's module and D(n-1, 1) mod 2, built from polytabloids, have one
    dimension and one fingerprint over H_n above the claims' largest degree."""
    rep, mod = perm_irrep(n, 2), irreducible_D((n - 1, 1), 2)
    sub = pm.special_subgroups(n, "H")
    assert rep.dim == mod.dim
    assert fingerprint(rep, sub) == fingerprint(mod, sub)


def test_invariance_all_small_degrees():
    for n in range(5, 11):
        rep = perm_irrep(n, 2)
        form = dickson_form(rep.dim // 2)
        assert check_invariance(rep, form)


def test_lagrangian_duality():
    for d in (2, 3, 4):
        w, dual, pairing = lagrangian_pair(d)
        assert w.dim == d and dual.dim == d
        assert pairing == Mat.identity(pairing.field, d)


def test_lagrangian_pair_matches_entrywise_construction():
    """W, W' and their pairing against rows and values built one entry at a
    time, with B(x, y) = sum over i != j of x_i y_j; d = 11 is n = 24."""
    for d in range(1, 12):
        dim = 2 * d
        w_rows = [[int(k in (2 * i, 2 * i + 1)) for k in range(dim)] for i in range(d)]
        dual_rows = [[int(k <= 2 * i) for k in range(dim)] for i in range(d)]

        def b(x, y):
            return sum(x[i] * y[j] for i in range(dim) for j in range(dim) if i != j) % 2

        w, dual, pairing = lagrangian_pair(d)
        assert w == Subspace.from_rows(GF2, w_rows)
        assert dual == Subspace.from_rows(GF2, dual_rows)
        assert pairing.tolist() == [[b(x, y) for y in dual_rows] for x in w_rows]
        assert pairing == Mat.identity(GF2, d)


def test_dickson_form_and_lagrangian_pair_are_built_once_and_frozen():
    form = dickson_form(3)
    assert dickson_form(3) is form
    pair = lagrangian_pair(3)
    assert lagrangian_pair(3) is pair
    w, dual, pairing = pair
    for arr in (w.basis, dual.basis, pairing.a, form.gram.a):
        with pytest.raises(ValueError):
            arr[0, 0] ^= 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        form.kind = "symmetric"


def test_parabolic_ranks_exact_small():
    for n in (5, 6, 7, 8):
        w, _, _ = lagrangian_pair(half_dim(n))
        res = parabolic_trivial_subgroup(n, "sym", w)
        assert res.rank == n // 2 and res.order == 2 ** (n // 2)
        res_a = parabolic_trivial_subgroup(n, "alt", w)
        assert res_a.rank == n // 2 - 1


def test_parabolic_witnesses_are_disjoint_transpositions():
    w, _, _ = lagrangian_pair(half_dim(8))
    res = parabolic_trivial_subgroup(8, "sym", w)
    cycles = sorted(pm.to_cycles(g) for g in res.witness)
    assert cycles == ["(1 2)", "(3 4)", "(5 6)", "(7 8)"]


def test_parabolic_rejects_bad_input():
    w, _, _ = lagrangian_pair(3)
    for n, kind, sub in ((8, "perm", w),  # only S_n and A_n
                         (9, "sym", w),  # V has dimension 8 at n = 9
                         (8, "sym", Subspace.from_rows(make_field(3), [], ambient=6)),  # not over GF(2)
                         (3, "sym", Subspace.from_rows(GF2, [], ambient=2))):  # V is zero below n = 4
        with pytest.raises(ValueError):
            parabolic_trivial_subgroup(n, kind, sub)


def test_exact_search_finds_the_disjoint_transpositions():
    for n in range(5, 13):
        pairs = pm.GroupPresentation(
            "perm", n, tuple(pm.transposition(n, 2 * i, 2 * i + 1) for i in range(n // 2)))
        full = tuple(map(tuple, pm.closure(pairs).tolist()))
        for kind in ("sym", "alt"):
            want = full if kind == "sym" else tuple(g for g in full if pm.sign(g) == 1)
            res = standard_parabolic(n, kind)
            assert res.elements == want, (n, kind)
            assert res.order == len(want)


def test_parabolic_certification_past_the_closure_cap():
    # closure needs degree <= 15; the certification walks the survivors at any degree
    for n in (16, 20):
        res = standard_parabolic(n, "sym")
        assert (res.rank, res.order, len(res.elements)) == (n // 2, 2 ** (n // 2), 2 ** (n // 2))
        assert sorted(res.witness) == sorted(pm.special_subgroups(n, "H").generators)
        res_a = standard_parabolic(n, "alt")
        assert (res_a.rank, res_a.order) == (n // 2 - 1, 2 ** (n // 2 - 1))


def _other_pairing_lagrangian(d: int) -> Subspace:
    """Span of e_1+e_3, e_2+e_4, e_5+e_7, e_6+e_8, ... (and e_{2d-1}+e_{2d} for odd d)."""
    rows = np.zeros((d, 2 * d), dtype=np.int64)
    for i in range(d):
        a = 4 * (i // 2) + i % 2
        b = a + 2 if a + 2 < 2 * d else a + 1
        rows[i, a] = rows[i, b] = 1
    assert is_isotropic(dickson_form(d), rows)
    return Subspace.from_rows(GF2, rows)


def test_backtrack_matches_brute_force_on_other_lagrangians():
    for n in (5, 6, 7):
        rep = perm_irrep(n, 2)
        d = rep.dim // 2
        _, dual, _ = lagrangian_pair(d)
        assert any(sum(row) % 2 for row in dual.basis)  # odd-weight rows read the last point
        for w in (dual, _other_pairing_lagrangian(d)):
            for kind, parity in (("sym", None), ("alt", 1)):
                brute = [g for g in map(tuple, pm.closure(pm.standard_gens(kind, n)).tolist())
                         if gl_parabolic_check(rep, w, pm.GroupPresentation("perm", n, (g,)))]
                assert _sweep_survivors_gf2(n, w, parity) == brute, (n, kind)
                assert parabolic_trivial_subgroup(n, kind, w).elements == tuple(brute), (n, kind)


def test_standard_parabolic_is_searched_once_and_frozen():
    res = standard_parabolic(6, "sym")
    assert standard_parabolic(6, "sym") is res
    with pytest.raises(AttributeError):
        res.rank = 0


_BROKEN_CHECK = """
import sys
from symprep import oracles
from symprep import perm as pm
from symprep.dickson import standard_parabolic
if not sys.flags.optimize:
    sys.exit(3)
pm.elementary_abelian_span = lambda elements, p: None
for check in (lambda: standard_parabolic(6, "sym"), lambda: oracles.enum_parabolic(6, "sym"),
              lambda: oracles.enum_parabolic(6, "alt")):
    try:
        check()
    except AssertionError as exc:
        print("raised", type(exc).__name__)
"""


def test_parabolic_certification_survives_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CHECK], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised CheckFailed"] * 3


_SWAPPED_IMAGES = """
import sys
from symprep.checks import CheckFailed
from symprep.dickson import _check_word_consistency, perm_irrep
from symprep.snmod import GModule
if not sys.flags.optimize:
    sys.exit(3)
rep = perm_irrep(6, 2)
_check_word_consistency(rep)
try:
    _check_word_consistency(GModule(6, rep.field, rep.gen_actions[::-1], check=False))
except CheckFailed as exc:
    print("raised", type(exc).__name__)
"""


@pytest.mark.parametrize("n,p", [(6, 2), (7, 3), (10, 5)])
def test_word_check_rejects_swapped_generator_images(n, p):
    rep = perm_irrep(n, p)
    a, b, *rest = rep.gen_actions
    assert a != b
    _check_word_consistency(rep)
    with pytest.raises(CheckFailed):
        _check_word_consistency(GModule(n, rep.field, (b, a, *rest), check=False))


def test_word_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _SWAPPED_IMAGES], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised CheckFailed"]


def test_gl_parabolic_check():
    rep = perm_irrep(8, 2)
    w, _, _ = lagrangian_pair(rep.dim // 2)
    h = pm.special_subgroups(8, "H")
    assert gl_parabolic_check(rep, w, h)
    s8 = pm.standard_gens("sym", 8)
    assert not gl_parabolic_check(rep, w, s8)


def test_diagonal_rep_symplectic():
    rep = perm_irrep(6, 2)
    images, form = diagonal_rep(rep)
    assert len(images) == len(rep.gen_actions)
    for m in images:
        assert m.shape == (2 * rep.dim, 2 * rep.dim)
        assert preserves_form(m, form)


def test_diagonal_rep_doubles_by_the_inverse_transpose_or_raises():
    rep = perm_irrep(7, 3)
    d = rep.dim
    images, _ = diagonal_rep(rep)
    for m, img in zip(rep.gen_actions, images):
        assert Mat(rep.field, img.a[:d, :d]) == m
        assert Mat(rep.field, img.a[d:, d:]) == m.inverse().T
        assert not img.a[:d, d:].any() and not img.a[d:, :d].any()
    f = make_field(3)
    order_3 = GModule(3, f, [Mat(f, [[0, 1], [1, 0]]), Mat(f, [[1, 1], [0, 1]])], check=False)
    with pytest.raises(CheckFailed):
        diagonal_rep(order_3)


def test_siegel_dims():
    for g in range(1, 6):
        for p in (2, 3, 5):
            assert siegel_unipotent_dim(g, p) == g * (g + 1) // 2


def test_json_round_trip():
    rep = perm_irrep(6, 2)
    doc = rep_to_json(rep)
    assert (doc["dim"], doc["field"]["p"], doc["faithful"]) == (rep.dim, 2, True)
    assert len(doc["generators"]) == len(pm.standard_gens("sym", 6).generators)
    for g in doc["generators"]:
        assert Mat(rep.field, g["matrix"]) == rep.act(pm.from_cycles(g["cycles"], 6))
