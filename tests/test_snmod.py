"""Symmetric group modules in positive characteristic: construction from
tabloid combinatorics, quotients by the form radical, and the structural
invariants of restrictions to 2-subgroups and p-cycles."""

import collections
import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import symprep
from symprep import perm as pm
from symprep.checks import CheckFailed
from symprep.field import make_field
from symprep.linalg import Mat, rref_array
from symprep.records import canonical_json
from symprep.snmod import (Fingerprint, GModule, LoewySeries,
                           basic_spin_restriction, check_partition,
                           conjugate, cyclic_profile,
                           fingerprint, fingerprint_of_mats,
                           free_summand_count, hook_length_dim, irreducible_D,
                           is_p_regular, loewy_length,
                           module_to_json, p_regular_partitions, partitions,
                           specht_gram, specht_module, standard_tableaux,
                           tensor_module, verify_appendix)


# ---------------------------------------------------------------------------
# partition combinatorics


def test_partition_counts():
    assert len(list(partitions(5))) == 7
    assert len(list(partitions(8))) == 22
    assert len(list(partitions(4, max_part=2))) == 3


def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        check_partition([1, 3])
    with pytest.raises(ValueError):
        check_partition([3, 0])
    with pytest.raises(ValueError):
        check_partition([])


def test_regularity_and_conjugate():
    assert is_p_regular((4, 1), 2)
    assert not is_p_regular((2, 2, 1), 2)
    assert is_p_regular((2, 2, 1), 3)
    assert not is_p_regular((1, 1, 1), 3)
    assert len(p_regular_partitions(6, 2)) == 4  # (6),(5,1),(4,2),(3,2,1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)


def test_tableaux_vs_hook():
    from symprep import snmod

    for lam in ((3,), (2, 1), (3, 2), (5, 2), (2, 2, 1), (4, 3, 1)):
        words, _ = snmod._tabloid_words(lam)
        assert len(standard_tableaux(words, len(lam))) == hook_length_dim(lam)
    assert hook_length_dim((5, 2)) == 14
    assert hook_length_dim((2, 1)) == 2
    assert hook_length_dim((3, 3, 2)) == 42


# ---------------------------------------------------------------------------
# module construction


def test_specht_dims():
    assert specht_module((4, 1), 3).dim == 4
    assert specht_module((2, 2), 2).dim == 2
    assert specht_module((3, 2), 2).dim == 5
    assert specht_module((2, 2, 1), 3).dim == 5


def test_irreducible_dims_known_values():
    assert irreducible_D((5, 1), 2).dim == 4
    assert irreducible_D((6, 1), 2).dim == 6
    assert irreducible_D((7, 1), 2).dim == 6
    assert irreducible_D((5, 2), 2).dim == 14  # nondegenerate form here
    assert irreducible_D((5, 3), 2).dim == 8
    assert irreducible_D((4, 1), 5).dim == 3
    assert irreducible_D((3, 2), 2).dim == 4


def test_irreducible_rejects_singular_partition():
    with pytest.raises(ValueError):
        irreducible_D((2, 2, 1), 2)
    with pytest.raises(ValueError):
        irreducible_D((1, 1, 1), 3)


def test_gram_radical_consistency():
    lam, p = (3, 1), 2
    gram = specht_gram(lam, p)
    assert gram.rows == specht_module(lam, p).dim
    assert irreducible_D(lam, p).dim == gram.rank()


def test_relation_check_rejects_garbage():
    f = make_field(3)
    good = Mat(f, [[0, 1], [1, 0]])
    bad = Mat(f, [[1, 1], [0, 1]])  # order 3, not an involution
    with pytest.raises(CheckFailed):
        GModule(3, f, [good, bad])


_NOT_AN_INVOLUTION = """
import sys
from symprep.checks import CheckFailed
from symprep.field import make_field
from symprep.linalg import Mat
from symprep.snmod import GModule
if not sys.flags.optimize:
    sys.exit(3)
f = make_field(3)
try:
    GModule(3, f, [Mat(f, [[0, 1], [1, 0]]), Mat(f, [[1, 1], [0, 1]])])
except CheckFailed as exc:
    print(exc)
"""


def test_relation_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _NOT_AN_INVOLUTION],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["generator is not an involution"]


# S(5,3,2) mod 2 has dimension 450: its straightening is checked exactly, as
# at every dimension, and its relations on a 64-column block (dim > 400)
_SAMPLED = (5, 3, 2)


def test_sampled_checks_pass_above_dimension_400():
    mod = specht_module(_SAMPLED, 2)
    assert mod.dim == 450 and len(mod.gen_actions) == 9


def _planted(family: str, mod) -> list:
    """The generators of mod with one defect that breaks only that relation family."""
    gens, f, n = list(mod.gen_actions), mod.field, mod.n
    if family == "involution":
        a = gens[1].a.copy()
        a[0, 0] = (a[0, 0] + 1) % f.p
        gens[1] = Mat(f, a)
    elif family == "braid":  # the identity commutes with all and braids with none
        gens[4] = Mat.identity(f, mod.dim)
    else:  # (n-2 n) for (n-1 n) braids with (n-2 n-1) but moves a point of (n-3 n-2)
        gens[-1] = mod.act(pm.transposition(n, n - 3, n - 1))
    return gens


_RELATION_MESSAGES = {"involution": "generator is not an involution",
                      "braid": "braid relation fails",
                      "distant": "distant generators must commute"}


@pytest.mark.parametrize("family", sorted(_RELATION_MESSAGES))
@pytest.mark.parametrize("lam,p", [((3, 2, 1), 3), (_SAMPLED, 2)], ids=["exact", "sampled"])
def test_relation_check_names_a_single_planted_defect(lam, p, family):
    mod = specht_module(lam, p)
    assert (mod.dim > 400) == (lam == _SAMPLED)
    with pytest.raises(CheckFailed) as exc:
        GModule(mod.n, mod.field, _planted(family, mod))
    assert str(exc.value) == _RELATION_MESSAGES[family]


def test_permutation_matrices_of_a_triangle_fail_only_distant_commutation():
    f = make_field(3)
    gens = [Mat(f, np.eye(3, dtype=np.int64)[list(g)]) for g in ((1, 0, 2), (0, 2, 1), (2, 1, 0))]
    with pytest.raises(CheckFailed) as exc:
        GModule(4, f, gens)
    assert str(exc.value) == "distant generators must commute"


def _word_by_word(gens, f, dim):
    """The relation check with one product per word, the reference for
    GModule's batched check: the first failing message, or None."""
    if dim <= 400:
        block, one = None, Mat.identity(f, dim)
    else:
        block = Mat(f, np.random.default_rng(77003).integers(0, f.q, size=(dim, 64)))
        one = block

    def word(*mats):
        out = block
        for m in reversed(mats):
            out = m if out is None else m @ out
        return out

    if any(word(a, a) != one for a in gens):
        return "generator is not an involution"
    if any(word(a, b, a) != word(b, a, b) for a, b in zip(gens, gens[1:])):
        return "braid relation fails"
    if any(word(gens[i], gens[j]) != word(gens[j], gens[i])
           for i in range(len(gens)) for j in range(i + 2, len(gens))):
        return "distant generators must commute"
    return None


def _batched(n, f, gens):
    try:
        GModule(n, f, gens)
    except CheckFailed as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_batched_relation_verdicts_match_word_by_word(p):
    """Single defects on every S(lam) with n <= 7: each entry of each generator
    where dim <= 4, eight seeded entries per generator above, and each
    generator swapped for the identity, for its neighbour, and the last one
    for a transposition that breaks only distant commutation."""
    _assert_batched_verdicts_match_word_by_word(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_product_chunks_give_the_word_by_word_verdicts(p, monkeypatch):
    """The same defects with the product budget at one block, so that every
    band holds one generator and every product call one block."""
    from symprep import linalg

    monkeypatch.setattr(linalg, "_PRODUCT_CELLS", 1)
    _assert_batched_verdicts_match_word_by_word(p)


def _assert_batched_verdicts_match_word_by_word(p):
    rng = np.random.default_rng(p)
    seen = set()
    for n in range(2, 8):
        for lam in partitions(n):
            mod = specht_module(lam, p)
            f, dim, gens = mod.field, mod.dim, list(mod.gen_actions)
            cases = [gens]
            for i, g in enumerate(gens):
                cells = (np.ndindex(dim, dim) if dim <= 4
                         else zip(*rng.integers(0, dim, size=(2, 8))))
                for a, b in cells:
                    bad = g.a.copy()
                    bad[a, b] = (bad[a, b] + 1) % p
                    cases.append(gens[:i] + [Mat(f, bad)] + gens[i + 1:])
                cases.append(gens[:i] + [Mat.identity(f, dim)] + gens[i + 1:])
                cases.append(gens[:i] + [gens[i - 1]] + gens[i + 1:])
            if n >= 4:
                cases.append(gens[:-1] + [mod.act(pm.transposition(n, n - 3, n - 1))])
            for case in cases:
                verdict = _word_by_word(case, f, dim)
                assert _batched(n, f, case) == verdict, (lam, p)
                seen.add(verdict)
    assert seen == {None, *_RELATION_MESSAGES.values()}


def _clear_module_caches(snmod):
    for cache in (snmod._tabloids, snmod._specht_core, snmod.specht_module, snmod.irreducible_D):
        cache.cache_clear()


def test_exact_straightening_rejects_a_rolled_tabloid_map(monkeypatch):
    from symprep import snmod

    real = snmod._Tabloids.perm
    _clear_module_caches(snmod)
    monkeypatch.setattr(snmod._Tabloids, "perm", lambda self, g: np.roll(real(self, g), 1))
    with pytest.raises(CheckFailed, match="straightening failed"):
        specht_module(_SAMPLED, 2)


def test_exact_straightening_rejects_one_swap_between_dimensions_200_and_400(monkeypatch):
    """S(8,4) mod 2 has dimension 275.  The map of s_5 on its tabloids, with
    two entries swapped whose columns of b differ, must fail straightening."""
    from symprep import snmod

    lam, s5 = (8, 4), pm.transposition(12, 5, 6)
    tab = snmod._Tabloids(lam)
    assert len(tab.tableaux) == 275
    b = np.zeros((len(tab.tableaux), len(tab.codes)), dtype=np.int64)
    b[np.arange(len(b))[:, None], tab.terms] = tab.signs % 2
    bad = tab.perm(s5)
    j = next(j for j in range(1, len(bad)) if not np.array_equal(b[:, bad[0]], b[:, bad[j]]))
    bad[[0, j]] = bad[[j, 0]]
    real = snmod._Tabloids.perm
    _clear_module_caches(snmod)
    monkeypatch.setattr(snmod._Tabloids, "perm",
                        lambda self, g: bad if g == s5 and self.lam == lam else real(self, g))
    with pytest.raises(CheckFailed, match="straightening failed"):
        specht_module(lam, 2)


def test_reversed_basis_order_fails_the_unitriangular_check(monkeypatch):
    """Listing the standard tableaux backwards makes the own-tabloid block
    lower triangular; the core must refuse it, not invert it."""
    from symprep import snmod

    real = snmod.standard_tableaux
    _clear_module_caches(snmod)
    monkeypatch.setattr(snmod, "standard_tableaux", lambda words, rows: real(words, rows)[::-1])
    try:
        with pytest.raises(CheckFailed, match="own-tabloid block must be upper unitriangular"):
            specht_module((3, 2), 2)
    finally:
        _clear_module_caches(snmod)  # drop whatever was built on the reversed order


def test_specht_core_matches_the_augmented_solve():
    """The own-tabloid block gives the generators and Gram matrix of the
    earlier route, which read its pivots off one elimination of [b | I]."""
    _assert_specht_core_matches_the_augmented_solve(8)


def test_one_product_chunks_give_the_augmented_solve(monkeypatch):
    """The same generators to n = 7 with the product budget at one block,
    so that each generator's straightening is its own run."""
    from symprep import linalg, snmod

    monkeypatch.setattr(linalg, "_PRODUCT_CELLS", 1)
    _clear_module_caches(snmod)
    try:
        _assert_specht_core_matches_the_augmented_solve(7)
    finally:
        _clear_module_caches(snmod)  # drop what was built on one-block chunks


def _assert_specht_core_matches_the_augmented_solve(max_n):
    from symprep import snmod

    for lam in (lam for n in range(2, max_n + 1) for lam in partitions(n)):
        n, tab = sum(lam), snmod._tabloids(lam)
        for p in (2, 3, 5):
            f = make_field(p)
            b = np.zeros((len(tab.tableaux), len(tab.codes)), dtype=np.int64)
            b[np.arange(len(b))[:, None], tab.terms] = tab.signs % p
            red, piv = rref_array(np.hstack([b, np.eye(len(b), dtype=np.int64)]), f)
            binv, piv = Mat._of(f, red[:, b.shape[1]:]), np.array(piv)
            gens = tuple((Mat._of(f, b[:, tab.perm(pm.transposition(n, k, k + 1))[piv]]) @ binv).T
                         for k in range(n - 1))
            _, _, core_gens, gram = snmod._specht_core(lam, p)
            assert core_gens == gens and gram == Mat(f, b) @ Mat(f, b).T, (lam, p)


# tracemalloc peaks of specht_module with its tabloids prebuilt, measured
# when straightening and the relation checks took two products per
# generator: dim 450 takes the sampled relation check, dim 315 the full one
_PER_GENERATOR_PEAK_MIB = {((5, 3, 2), 2): 41.8, ((6, 3, 1), 3): 51.5}


@pytest.mark.parametrize("lam, p", sorted(_PER_GENERATOR_PEAK_MIB))
def test_specht_module_peak_memory_is_at_most_that_of_per_generator_products(lam, p):
    import tracemalloc

    from symprep import snmod

    _clear_module_caches(snmod)
    snmod._tabloids(lam)
    tracemalloc.start()
    try:
        specht_module(lam, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _clear_module_caches(snmod)
    assert peak <= _PER_GENERATOR_PEAK_MIB[lam, p] * 2**20


def test_column_groups_are_read_only_and_built_once_per_height():
    from symprep import snmod

    snmod._symmetric_group.cache_clear()
    perms, signs = snmod._column_group((3, 3, 2))
    assert [len(x) for x in perms] == [6, 6, 2] and len(signs) == 72
    assert not signs.flags.writeable and not any(x.flags.writeable for x in perms)
    snmod._column_group((4, 4, 2))  # columns of heights 3, 3, 2, 2
    assert snmod._symmetric_group.cache_info().misses == 2


_PINNED_MODULES = [
    ((4, 2, 1), 2, "3ac7b0f9f8e4c168c79b8f529106260f5996f0ce9872103c734810f8e449bf11"),
    ((3, 2), 2, "06e97ded18fcc49f04aff006e17b3ce95851ca84c10932102998f72afeb2e0e3"),
    ((5, 3, 2), 2, "b24c61cc002039fc9c4d48774f94c45d3c44f311c18a688cd66551cd23ce59e0"),
    ((3, 2), 3, "51d0eaad04bb6e791eda789dd94b699406ad9e03f52095b2bf68a6fb24fb01bf"),
    ((5, 2), 3, "67755f3756e7d2fcca6d4060811e9bf86e83bd14ec4add93e4d2c80dc360c289"),
    ((6, 3, 1), 3, "78622823c36985f0d9d736d74021f693cbb1a5621da986e01059b261312a934f"),
]


@pytest.mark.parametrize("lam, p, digest", _PINNED_MODULES,
                         ids=[f"{','.join(map(str, lam))}-p{p}" for lam, p, _ in _PINNED_MODULES])
def test_dump_module_bytes_are_pinned(lam, p, digest):
    """The generator matrices of D(lam), as `dump module` writes them; the
    `verify` digests see only the claims read off them."""
    doc = canonical_json(module_to_json(irreducible_D(lam, p)))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_act_is_multiplicative():
    mod = irreducible_D((4, 2), 3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = tuple(rng.permutation(6))
        b = tuple(rng.permutation(6))
        assert mod.act(pm.compose(a, b)) == mod.act(a) @ mod.act(b)


def test_restrict_keeps_prefix_action():
    mod = irreducible_D((5, 2), 2)
    res = mod.restrict(5)
    assert res.n == 5 and res.dim == mod.dim
    g5 = pm.transposition(5, 0, 1)
    g7 = pm.transposition(7, 0, 1)
    assert res.act(g5) == mod.act(g7)


def test_bad_module_arguments_raise_value_error():
    mod = irreducible_D((3, 2), 2)
    f = mod.field
    with pytest.raises(ValueError):
        mod.restrict(6)
    with pytest.raises(ValueError):
        mod.act(pm.identity(6))
    with pytest.raises(ValueError):
        GModule(4, f, mod.gen_actions)  # S_4 needs 3 generators, not 4
    with pytest.raises(ValueError):
        verify_appendix("char2", [8], 3)
    with pytest.raises(ValueError):
        verify_appendix("charnot2", [5], 2)


def test_appendix_degree_outside_the_family_is_bad_input(monkeypatch):
    """A degree outside a theorem family's range raises before any job exists,
    as a bad key or prime does, so no tabloid is built and no fail report made."""
    from symprep import snmod

    built = []

    def no_tabloids(lam):
        built.append(lam)
        raise AssertionError(f"tabloids of {lam} built")

    monkeypatch.setattr(snmod, "_tabloids", no_tabloids)
    first = snmod.QUADRATIC_FIRST_N
    cases = [("charnot2", [13], 7), ("charnot2_alt", [4], 5), ("H2kproj", [13], 2),
             ("H2kproj", [5, 13], 2), ("length2", [1], 2)]
    cases += [(theorem, [n], 2) for theorem in ("char2", "char2_alt") for n in range(4, first)]
    for theorem, ns, p in cases:
        with pytest.raises(ValueError, match="outside the supported range"):
            verify_appendix(theorem, ns, p)
    assert built == []
    assert first == 8


# ---------------------------------------------------------------------------
# restriction invariants


def test_loewy_layers_sum_and_cyclic_consistency():
    # for a single order-p generator the filtration depth must equal the
    # largest Jordan block size
    mod = irreducible_D((4, 1), 5)
    grp = pm.GroupPresentation("perm", 5, (pm.from_cycles("(1 2 3 4 5)", 5),), "C5")
    series = loewy_length(mod, grp)
    prof = cyclic_profile(mod, pm.from_cycles("(1 2 3 4 5)", 5))
    assert sum(series.layer_dims) == mod.dim
    assert series.length == max(prof) == 3
    assert prof == (3,)


def test_loewy_over_transposition_subgroup():
    mod = irreducible_D((7, 1), 2)
    sub = pm.special_subgroups(8, "H")
    series = loewy_length(mod, sub)
    assert series.layer_dims == (3, 3)


def test_loewy_rejects_non_p_subgroup():
    mod = irreducible_D((4, 1), 2)
    bad = pm.GroupPresentation("perm", 5, (pm.from_cycles("(1 2 3)", 5),), "C3")
    with pytest.raises(ValueError):
        loewy_length(mod, bad)


def test_restriction_invariants_reject_non_elementary_abelian_groups():
    # <(1 2), (2 3)> is S_3 and <(1 2 3 4)> is cyclic of order 4: both are bad
    # input at p = 2, not a failed check
    mod = irreducible_D((3, 1), 2)
    s3 = pm.GroupPresentation("perm", 4, (pm.transposition(4, 0, 1), pm.transposition(4, 1, 2)))
    c4 = pm.GroupPresentation("perm", 4, (pm.from_cycles("(1 2 3 4)", 4),))
    for group in (s3, c4):
        for invariant in (loewy_length, free_summand_count, fingerprint):
            with pytest.raises(ValueError, match="not an elementary abelian 2-group"):
                invariant(mod, group)
    # dependent generators are fine for the Loewy series alone
    a, b = pm.transposition(4, 0, 1), pm.transposition(4, 2, 3)
    dependent = pm.GroupPresentation("perm", 4, (a, b, pm.compose(a, b)))
    assert loewy_length(mod, dependent) == loewy_length(mod, pm.special_subgroups(4, "H"))
    for invariant in (free_summand_count, fingerprint):
        with pytest.raises(ValueError, match="independent"):
            invariant(mod, dependent)
    with pytest.raises(ValueError, match="degree"):
        loewy_length(mod, pm.special_subgroups(6, "H"))


def test_free_summand_counts():
    assert free_summand_count(irreducible_D((3, 2), 2).restrict(4),
                              pm.special_subgroups(4, "H")) == 1
    assert free_summand_count(irreducible_D((4, 1), 2).restrict(4),
                              pm.special_subgroups(4, "K")) == 1
    assert free_summand_count(irreducible_D((4, 1), 2).restrict(4),
                              pm.special_subgroups(4, "H")) == 0


def test_free_summand_rejects_dependent_generators():
    mod = irreducible_D((4, 1), 2)
    g = pm.double_transposition(5, 0, 1, 2, 3)
    dependent = pm.GroupPresentation("perm", 5, (g, g), "dup")
    with pytest.raises(ValueError):
        free_summand_count(mod, dependent)
    not_elab = pm.GroupPresentation("perm", 5, (pm.from_cycles("(1 2 3 4)", 5),), "C4")
    with pytest.raises(ValueError):
        free_summand_count(mod, not_elab)


def test_cyclic_profile_order_guard():
    mod = irreducible_D((4, 1), 5)
    with pytest.raises(ValueError, match="not an elementary abelian 5-group"):
        cyclic_profile(mod, pm.transposition(5, 0, 1))
    with pytest.raises(ValueError, match="independent"):
        cyclic_profile(mod, pm.identity(5))


def test_tensor_module():
    a = irreducible_D((4, 1), 5)
    t = tensor_module(a, a)
    assert t.dim == a.dim**2
    g = pm.from_cycles("(1 2 3 4 5)", 5)
    assert t.act(g) == a.act(g).kron(a.act(g))
    b = irreducible_D((3, 1), 5)
    with pytest.raises(ValueError):
        tensor_module(a, b)


def test_tensor_profile_all_odd():
    a = irreducible_D((4, 1), 5)
    prof = cyclic_profile(tensor_module(a, a), pm.from_cycles("(1 2 3 4 5)", 5))
    assert prof == (1, 3, 5)
    assert all(b % 2 == 1 for b in prof)


def _rank_of_powers_blocks(a: Mat, p: int) -> tuple:
    """Jordan blocks of a unipotent a from the ranks of (a - 1)^k, k <= p."""
    x = a - Mat.identity(a.field, a.rows)
    ranks, power = [a.rows], x
    for _ in range(p):
        ranks.append(power.rank())
        power = power @ x
    assert ranks[p] == 0
    blocks = []
    for k in range(1, p + 1):
        at_least_next = ranks[k] - ranks[k + 1] if k < p else 0
        blocks += [k] * (ranks[k - 1] - ranks[k] - at_least_next)
    return tuple(blocks)


def _power_sum_norm_rank(mats: list, p: int) -> int:
    """Rank of the product of the sums 1 + g + ... + g^(p-1)."""
    ident = Mat.identity(mats[0].field, mats[0].rows)
    norm = ident
    for a in mats:
        total, power = ident, a
        for _ in range(p - 1):
            total, power = total + power, power @ a
        norm = norm @ total
    return norm.rank()


def test_socle_layer_invariants_match_ranks_of_powers_and_power_sums():
    """Jordan profile, free count and fixed dimensions at the standard p-cycle,
    and the free count at two disjoint p-cycles, on every p-regular λ ⊢ n <= 7."""
    from symprep import snmod
    from symprep.linalg import joint_fixed_space
    seen = 0
    for p in (2, 3, 5, 7):
        cycle = "(" + " ".join(map(str, range(1, p + 1))) + ")"
        second = "(" + " ".join(map(str, range(p + 1, 2 * p + 1))) + ")"
        for n in range(max(2, p), 8):
            for lam in p_regular_partitions(n, p):
                mod = irreducible_D(lam, p)
                g = pm.from_cycles(cycle, n)
                a = mod.act(g)
                assert cyclic_profile(mod, g) == _rank_of_powers_blocks(a, p), (lam, p)
                fp = fingerprint_of_mats(mod.field, mod.dim, [a])
                assert fp.free_count == _power_sum_norm_rank([a], p), (lam, p)
                assert fp.gen_fixed_dims == (joint_fixed_space([a]).dim,), (lam, p)
                if n >= 2 * p:
                    mats = [a, mod.act(pm.from_cycles(second, n))]
                    assert (snmod.free_count(mod.field, mod.dim, mats)
                            == _power_sum_norm_rank(mats, p)), (lam, p)
                seen += 1
    assert seen == 87


def test_planted_extra_socle_layer_fails_the_order_check(monkeypatch):
    from symprep import snmod
    mod, g = irreducible_D((2, 1), 2), pm.transposition(3, 0, 1)
    assert cyclic_profile(mod, g) == (2,)
    real = snmod._layers_of_mats
    monkeypatch.setattr(snmod, "_layers_of_mats", lambda dim, mats: real(dim, mats) + (1,))
    with pytest.raises(CheckFailed, match="p-th power"):
        cyclic_profile(mod, g)


def test_act_of_the_identity_and_of_one_swap():
    mod = irreducible_D((4, 2), 3)
    assert mod.act(pm.identity(6)) == Mat.identity(mod.field, mod.dim)
    assert mod.act(pm.transposition(6, 2, 3)) == mod.gen_actions[2]


# ---------------------------------------------------------------------------
# spin restrictions and fingerprints


def test_spin_restriction_dims():
    for k in (1, 2, 3, 4):
        assert basic_spin_restriction(k).dim == 2**k


def test_fingerprint_equality_tensor_square():
    m4 = basic_spin_restriction(2)
    m2 = basic_spin_restriction(1)
    left = fingerprint(m4, pm.special_subgroups(4, "H"))
    a = m2.gen_actions[0]
    ident = Mat.identity(m2.field, m2.dim)
    right = fingerprint_of_mats(m2.field, m2.dim ** 2, [a.kron(ident), ident.kron(a)])
    assert left == right
    assert left.dim == 4 and left.free_count == 1


def test_fingerprint_independence_check():
    # the matrices of an unfaithful action may be dependent: (Z/2)^2 acting
    # through one swap has the swap's fixed line twice and no free summand
    f = make_field(2)
    swap = Mat(f, [[0, 1], [1, 0]])
    assert fingerprint_of_mats(f, 2, [swap, swap]) == Fingerprint(2, (1, 1), 0, (1, 1))
    assert fingerprint_of_mats(f, 0, []) == Fingerprint(0, (), 0, ())


def test_fingerprint_of_the_trivial_group_agrees_with_the_other_invariants():
    mod = irreducible_D((4, 1), 2)
    trivial = pm.GroupPresentation("perm", 5, ())
    assert fingerprint(mod, trivial) == Fingerprint(4, (4,), 4, ())
    assert loewy_length(mod, trivial).layer_dims == (4,)
    assert free_summand_count(mod, trivial) == 4


def test_fingerprint_of_mats_checks_the_matrices():
    f2, f3 = make_field(2), make_field(3)
    swap = Mat(f2, [[0, 1], [1, 0]])
    for bad in (Mat.identity(f2, 3), Mat(f3, [[0, 1], [1, 0]])):
        with pytest.raises(ValueError, match="2 x 2 over the field"):
            fingerprint_of_mats(f2, 2, [swap, bad])
    # (1 2) and (2 3) as 3 x 3 permutation matrices: order 2, not commuting
    s12 = Mat(f2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    s23 = Mat(f2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(CheckFailed, match="commute"):
        fingerprint_of_mats(f2, 3, [s12, s23])
    with pytest.raises(CheckFailed, match="order must divide p"):
        fingerprint_of_mats(f2, 3, [s12 @ s23])


def test_fingerprint_distinguishes():
    mod = irreducible_D((5, 1), 2)
    h6 = pm.special_subgroups(6, "H")
    k6 = pm.special_subgroups(6, "K")
    assert fingerprint(mod, h6) != fingerprint(mod, k6)


# ---------------------------------------------------------------------------
# serialization and sweeps


def test_module_json_round_trip():
    mod = irreducible_D((3, 2), 2)
    doc = module_to_json(mod)
    assert doc["n"] == mod.n and doc["dim"] == mod.dim
    assert [g["coxeter_index"] for g in doc["generators"]] == list(range(mod.n - 1))
    assert [Mat(mod.field, g["matrix"]) for g in doc["generators"]] == list(mod.gen_actions)


def test_verify_appendix_odd_cyclic():
    reports = verify_appendix("charnot2", [5], 3)
    assert reports and all(r.status == "pass" for r in reports)
    ids = {r.claim_id for r in reports}
    assert "appendix/odd-cyclic-depth/p3/n5/4-1" in ids


def test_raising_appendix_claim_fails_alone(monkeypatch):
    from symprep import snmod

    real = snmod.loewy_length

    def flaky(mod, group):
        if mod.label == "D(3, 1, 1) mod 3":
            raise RuntimeError("boom")
        return real(mod, group)

    # an earlier sweep may hold the series in the twin cache, past the patch
    snmod._odd_cyclic_series.cache_clear()
    monkeypatch.setattr(snmod, "loewy_length", flaky)
    reports = verify_appendix("charnot2", [5], 3)
    bad = [r for r in reports if r.status != "pass"]
    assert [(r.claim_id, r.status) for r in bad] == [
        ("appendix/odd-cyclic-depth/p3/n5/3-1-1", "fail")]
    assert "boom" in bad[0].computed
    good = [r.inputs["partition"] for r in reports if r.status == "pass"]
    assert sorted(good) == [[2, 2, 1], [4, 1]]
    assert all(r.claim_id.endswith("/" + "-".join(map(str, r.inputs["partition"])))
               for r in reports if r.status == "pass")


def test_odd_cyclic_twins_share_one_loewy_series(monkeypatch):
    from symprep import snmod

    real = snmod.loewy_length
    calls = []

    def counted(mod, group):
        calls.append(mod.label)
        return real(mod, group)

    snmod._odd_cyclic_series.cache_clear()
    monkeypatch.setattr(snmod, "loewy_length", counted)
    sym = verify_appendix("charnot2", [7], 5)
    alt = verify_appendix("charnot2_alt", [7], 5)
    wide = [lam for lam in p_regular_partitions(7, 5) if irreducible_D(lam, 5).dim > 1]
    assert sorted(calls) == sorted(f"D{lam} mod 5" for lam in wide)
    assert len(sym) == len(alt) == len(wide)
    for s, a in zip(sym, alt):
        assert a.claim_id == s.claim_id.replace("odd-cyclic-depth/", "odd-cyclic-depth-alt/")
        assert a.inputs == s.inputs and a.status == s.status == "pass"


def test_verify_appendix_quadratic_n8():
    (report,) = verify_appendix("char2", [8], 2)
    assert report.status == "pass"
    assert report.computed == [["5-3", "K^2xH_0"], ["7-1", "H_8"]]


def test_verify_appendix_alt_n8_recorded():
    (report,) = verify_appendix("char2_alt", [8], 2)
    assert report.status == "recorded"
    assert ["7-1", "H~_8"] in report.computed


def test_verify_appendix_length2():
    reports = verify_appendix("length2", [6], 2)
    assert reports and all(r.status == "pass" for r in reports)


# ---------------------------------------------------------------------------
# the quadratic-pair sweep through tabloid witnesses


def _socle_series_sweep(n, alt):
    """Hits, modules and pairs of the sweep over every pair, all on D(lam)."""
    from symprep import snmod

    hits, modules, pairs = [], 0, 0
    for lam in p_regular_partitions(n, 2):
        mod = irreducible_D(lam, 2)
        if mod.dim <= 1:
            continue
        modules += 1
        for sub in snmod._mixed_subgroups(n, alt):
            pairs += 1
            if loewy_length(mod, sub).length <= 2:
                hits.append([snmod._lam_id(lam), sub.label])
    return sorted(hits), modules, pairs


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("theorem", ["char2", "char2_alt"])
def test_quadratic_sweep_matches_socle_series(n, theorem):
    (report,) = verify_appendix(theorem, [n], 2)
    hits, modules, pairs = _socle_series_sweep(n, theorem == "char2_alt")
    assert report.computed == hits
    assert (report.inputs["modules_checked"], report.inputs["pairs_checked"]) == (modules, pairs)


@pytest.mark.parametrize("theorem", ["char2", "char2_alt"])
def test_quadratic_sweep_missing_a_module_fails(monkeypatch, theorem):
    # (4, 3, 1) leaves no hit at n = 8, so only the count against q(8) - 1,
    # from the odd-part recursion, sees that it was never swept
    from symprep import snmod

    real = snmod.p_regular_partitions
    monkeypatch.setattr(snmod, "p_regular_partitions",
                        lambda n, p: [lam for lam in real(n, p) if lam != (4, 3, 1)])
    (report,) = verify_appendix(theorem, [8], 2)
    assert report.status == "fail"
    assert "not q(8) - 1 = 5" in report.computed


def test_quadratic_sweep_without_witnesses_gives_same_reports(monkeypatch):
    from symprep import snmod
    from symprep.records import report_to_dict

    def sweep():
        return [report_to_dict(r) for th in ("char2", "char2_alt")
                for r in verify_appendix(th, [8, 9], 2)]

    found = sweep()
    monkeypatch.setattr(snmod, "_witness_table", lambda lam: collections.defaultdict(bool))
    assert sweep() == found


def test_planted_quadratic_hit_at_n11_fails(monkeypatch):
    from symprep import snmod

    real_witnesses, real_loewy = snmod._witness_table, snmod.loewy_length

    def no_witness_for_9_2(lam):
        return collections.defaultdict(bool) if lam == (9, 2) else real_witnesses(lam)

    def two_layers_on_9_2(mod, group):
        if mod.label == "D(9, 2) mod 2":
            return LoewySeries((mod.dim - 1, 1))
        return real_loewy(mod, group)

    monkeypatch.setattr(snmod, "_witness_table", no_witness_for_9_2)
    monkeypatch.setattr(snmod, "loewy_length", two_layers_on_9_2)
    (report,) = verify_appendix("char2", [11], 2)
    assert report.status == "fail"
    assert ["9-2", "H_11"] in report.computed


@pytest.mark.parametrize("n", [5, 6])
def test_standard_tableaux_are_the_increasing_fillings_in_word_order(n):
    """Against the definition: every filling of the cells, row by row, that
    increases along rows and down columns, listed by its row word."""
    from symprep import snmod

    for lam in snmod.partitions(n):
        cells = [(i, j) for i, size in enumerate(lam) for j in range(size)]
        want = []
        for filling in itertools.permutations(range(n)):
            at = dict(zip(cells, filling))
            if all(at[i, j] < at.get((i, j + 1), n) and at[i, j] < at.get((i + 1, j), n)
                   for i, j in cells):
                word = [0] * n
                for (i, _), x in at.items():
                    word[x] = i
                want.append(word)
        words, _ = snmod._tabloid_words(lam)
        assert standard_tableaux(words, len(lam)).tolist() == sorted(want), lam


def test_tabloid_perm_rejects_non_tabloid_code(monkeypatch):
    from symprep import snmod

    tab = snmod._Tabloids((5, 2))
    m = tab.perm(pm.transposition(7, 0, 3))
    assert np.array_equal(m[m], np.arange(len(tab.codes)))
    # the first tabloid, 0 and 1 in row 1, is no standard tableau; with its
    # code kept and its word put wholly in row 1, no permutation moves that
    # word to a tabloid code
    real = snmod._tabloid_words

    def first_word_in_row_1(lam):
        words, codes = real(lam)
        words = words.copy()
        words[0] = 1
        return words, codes

    monkeypatch.setattr(snmod, "_tabloid_words", first_word_in_row_1)
    with pytest.raises(CheckFailed, match="not a tabloid code"):
        snmod._Tabloids((5, 2)).perm(pm.transposition(7, 0, 6))


def test_tabloid_words_match_the_definition():
    """The tabloids of lam are the distinct rearrangements of its row word,
    listed by code, the word read in base len(lam) with entry 0 lowest."""
    from symprep import snmod

    shapes = [lam for n in range(1, 9) for lam in partitions(n)]
    assert (2, 2, 1, 1, 1) in shapes and (1,) * 6 in shapes
    for lam in shapes:
        base = len(lam)
        row_word = [i for i, size in enumerate(lam) for _ in range(size)]
        # code order is the order of the words read from the last entry
        want = sorted(set(itertools.permutations(row_word)), key=lambda w: w[::-1])
        words, codes = snmod._tabloid_words(lam)
        assert words.dtype == np.int8 and codes.dtype == np.int64, lam
        assert words.tolist() == [list(w) for w in want], lam
        assert codes.tolist() == [sum(r * base ** x for x, r in enumerate(w)) for w in want], lam


@pytest.mark.parametrize("lam", [lam for n in range(2, 10) for lam in p_regular_partitions(n, 2)]
                         + [(3, 2, 2, 1)])
def test_polytabloid_terms_lookup_matches_binary_search(monkeypatch, lam):
    from symprep import snmod

    tab = snmod._Tabloids(lam)
    assert tab.index is not None
    # no table fits in zero slots, so this lookup goes through searchsorted
    monkeypatch.setattr(snmod, "_INDEX_SLOTS", 0)
    ref = snmod._Tabloids(lam)
    assert ref.index is None
    assert tab.terms.dtype == ref.terms.dtype == np.int32
    assert np.array_equal(tab.terms, ref.terms) and np.array_equal(tab.signs, ref.signs)


def test_polytabloid_terms_match_the_definition():
    """Every term and sign against the definition: term sigma of tableau t
    moves the entry in cell (a, j) to row sigma_j(a), and its sign is that of
    sigma as one permutation of the cells, by pm.sign."""
    from symprep import snmod

    for lam in (lam for n in range(2, 9) for lam in partitions(n)):
        n, conj = sum(lam), conjugate(lam)
        tab = snmod._Tabloids(lam)
        codes, tableaux, terms, signs = tab.codes, tab.tableaux, tab.terms, tab.signs
        choices = list(itertools.product(*(itertools.permutations(range(c)) for c in conj)))
        # cell (a, j) is number offset[j] + a, column by column
        offset = list(itertools.accumulate(conj, initial=0))
        want_signs = [pm.sign(tuple(offset[j] + a for j, sig in enumerate(choice) for a in sig))
                      for choice in choices]
        assert signs.tolist() == want_signs, lam
        # a term's code sums, over the cells, its new row times base^(the entry there)
        weight = [[len(lam) ** [x for x in range(n) if t[x] == a][j]
                   for j, c in enumerate(conj) for a in range(c)] for t in tableaux.tolist()]
        new_row = [[a for sig in choice for a in sig] for choice in choices]
        term_codes = np.array(weight, dtype=np.int64) @ np.array(new_row, dtype=np.int64).T
        want_terms = np.searchsorted(codes, term_codes)
        assert np.array_equal(codes[want_terms], term_codes), lam
        assert np.array_equal(terms, want_terms), lam


@pytest.mark.parametrize("slots", [None, 0])
def test_polytabloid_term_aliasing_a_tabloid_in_the_low_digits_fails(monkeypatch, slots):
    from symprep import snmod

    if slots is not None:
        monkeypatch.setattr(snmod, "_INDEX_SLOTS", slots)
    tab = snmod._Tabloids((2, 2))
    assert (tab.index is None) == (slots == 0)
    # a (3, 1) tableau looked up among the (2, 2) tabloids: its first term
    # has row word (0, 0, 1, 0), code 4, not a (2, 2) tabloid, but its low
    # three digits are those of the tabloid (0, 0, 1, 1), code 12
    term_codes = snmod._polytabloid_terms((3, 1), np.array([[0, 0, 1, 0]]),
                                          snmod._column_group((3, 1))[0])
    assert term_codes[0, 0] == 4
    assert 4 not in tab.codes and 12 in tab.codes and 4 % 2**3 == 12 % 2**3
    with pytest.raises(CheckFailed, match="polytabloid term is not a tabloid"):
        tab.positions(term_codes, "polytabloid term is not a tabloid")


@pytest.mark.parametrize("n", [8, 9])
def test_witness_table_matches_each_chain_on_its_own(n):
    from symprep import snmod

    for lam in p_regular_partitions(n, 2):
        for alt in (False, True):
            subs = snmod._mixed_subgroups(n, alt)
            table = snmod._witness_table(lam)
            assert [table[sub.generators] for sub in subs] == snmod._decide_witnesses(lam, subs)


def test_witnesses_need_commuting_involutions():
    from symprep import snmod

    s1, s2 = pm.transposition(5, 0, 1), pm.transposition(5, 1, 2)
    for gens in ((s1, s2), (pm.from_cycles("(1 2 3)", 5),)):
        with pytest.raises(CheckFailed, match="commuting involutions"):
            snmod._decide_witnesses((3, 2), [pm.GroupPresentation("perm", 5, gens)])


def test_quadratic_twins_certify_each_subgroup_once(monkeypatch):
    from symprep import snmod

    spans = []
    real = pm.elementary_abelian_span
    monkeypatch.setattr(pm, "elementary_abelian_span",
                        lambda rows, p: spans.append(rows.tolist()) or real(rows, p))
    snmod._witness_table.cache_clear()
    snmod._elementary_rank.cache_clear()
    reports = verify_appendix("char2", [9], 2) + verify_appendix("char2_alt", [9], 2)
    assert [r.status for r in reports] == ["pass", "pass"]
    # the chains share K^2 at n = 9: six subgroups, five generator lists
    distinct = {sub.generators for alt in (False, True) for sub in snmod._mixed_subgroups(9, alt)}
    assert len(spans) == len(distinct) == 5
    assert sorted(map(str, spans)) == sorted(str([list(g) for g in gens]) for gens in distinct)


def test_cached_certification_still_rejects_non_commuting_generators():
    from symprep import snmod

    sub = pm.GroupPresentation("perm", 6, (pm.transposition(6, 0, 1), pm.transposition(6, 1, 2)))
    snmod._elementary_rank.cache_clear()
    for lam in ((4, 2), (3, 2, 1)):
        with pytest.raises(CheckFailed, match="commuting involutions"):
            snmod._decide_witnesses(lam, [sub])
    info = snmod._elementary_rank.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_quadratic_twins_build_one_witness_table_per_partition():
    from symprep import snmod

    snmod._witness_table.cache_clear()
    verify_appendix("char2", [9], 2)
    verify_appendix("char2_alt", [9], 2)
    info = snmod._witness_table.cache_info()
    assert info.misses == len(p_regular_partitions(9, 2)) == info.hits


def test_quadratic_twins_build_the_tabloids_of_each_partition_once(monkeypatch):
    """The witness table of lam and D(lam) read one tabloid build of lam."""
    from symprep import snmod

    calls = []
    real = snmod._tabloid_words
    monkeypatch.setattr(snmod, "_tabloid_words", lambda lam: calls.append(lam) or real(lam))
    snmod._witness_table.cache_clear()
    _clear_module_caches(snmod)
    verify_appendix("char2", [9], 2)
    verify_appendix("char2_alt", [9], 2)
    assert len(calls) == len(p_regular_partitions(9, 2)) == 8
    assert sorted(calls) == sorted(p_regular_partitions(9, 2))
    # (8, 1) has no witness on H_9, so its D is built from the same tabloids
    assert snmod._specht_core.cache_info().misses >= 1


def test_quadratic_sweep_frees_the_tabloids():
    """With cold caches each twin builds tabloids, and none is kept after it."""
    from symprep import snmod

    snmod._witness_table.cache_clear()
    _clear_module_caches(snmod)
    for theorem in ("char2", "char2_alt"):
        (r,) = verify_appendix(theorem, [9], 2)
        assert r.status == "pass"
        assert snmod._tabloids.cache_info().currsize == 0


def test_blocked_tabloids_and_witnesses_match_one_block(monkeypatch):
    """With 3 standard tableaux per block, the term lookup and every witness
    reduction run over several blocks; terms, signs and verdicts must match
    a build and a reduction that take each shape in one block.  Besides the
    chains, each pair of a chain subgroup is a subgroup of its own, so every
    pair's verdict is compared, also where its witness is past the first block."""
    from symprep import snmod

    monkeypatch.setattr(snmod, "_BLOCK", 10**9)
    shapes = [lam for n in range(2, 10) for lam in p_regular_partitions(n, 2)]
    whole = {}
    for lam in shapes:
        n = sum(lam)
        subs = snmod._mixed_subgroups(n, False) + snmod._mixed_subgroups(n, True)
        pairs = {(gens[i], gens[j]) for gens in (sub.generators for sub in subs)
                 for j in range(len(gens)) for i in range(j)}
        subs += [pm.GroupPresentation("perm", n, pair) for pair in sorted(pairs)]
        snmod._tabloids.cache_clear()
        whole[lam] = snmod._Tabloids(lam), subs, snmod._decide_witnesses(lam, subs)
    monkeypatch.setattr(snmod, "_BLOCK", 3)
    for lam, (ref, subs, verdicts) in whole.items():
        snmod._tabloids.cache_clear()
        tab = snmod._tabloids(lam)
        assert tab.terms.dtype == ref.terms.dtype == np.int32, lam
        assert np.array_equal(tab.terms, ref.terms) and np.array_equal(tab.signs, ref.signs), lam
        assert snmod._decide_witnesses(lam, subs) == verdicts, lam
    snmod._tabloids.cache_clear()
    assert any(any(verdicts) for _, _, verdicts in whole.values())


def test_witness_maps_are_formed_once_on_first_use_and_checked(monkeypatch):
    """Each tabloid map the witnesses read is formed once, and each is checked
    to be an involution before any pair reads it; a subgroup decided by its
    first pair leaves its other generators unmapped."""
    from symprep import snmod

    events = []
    real_perm, real_require = snmod._Tabloids.perm, snmod.require

    def perm(self, g):
        m = real_perm(self, g)
        events.append(("map", g))
        return m

    monkeypatch.setattr(snmod._Tabloids, "perm", perm)
    monkeypatch.setattr(snmod, "require",
                        lambda cond, msg: events.append(("check", msg)) or real_require(cond, msg))
    n = 9
    subs = snmod._mixed_subgroups(n, False) + snmod._mixed_subgroups(n, True)
    gens = {g for sub in subs for g in sub.generators}
    unmapped = 0
    for lam in p_regular_partitions(n, 2):
        snmod._tabloids.cache_clear()
        snmod._tabloids(lam)
        events.clear()
        snmod._decide_witnesses(lam, subs)
        formed = [k for k, e in enumerate(events) if e[0] == "map"]
        assert len({events[k] for k in formed}) == len(formed), lam
        for k in formed:
            assert events[k + 1] == ("check", "tabloid map of an involution is not an involution")
        unmapped += len(gens) - len(formed)
    snmod._tabloids.cache_clear()
    assert unmapped > 0


def test_rolled_map_of_the_first_klein_generator_fails_the_claim(monkeypatch):
    """Every KmH subgroup's first pair reads its first Klein generator, so
    rolling that one map fails the claim even though no other map is wrong."""
    from symprep import snmod

    klein = snmod._mixed_subgroups(8, False)[1].generators[0]
    assert all(sub.generators[0] == klein for sub in snmod._mixed_subgroups(8, False)[1:])
    real = snmod._Tabloids.perm
    monkeypatch.setattr(snmod._Tabloids, "perm",
                        lambda self, g: np.roll(real(self, g), 1) if g == klein else real(self, g))
    snmod._witness_table.cache_clear()
    _clear_module_caches(snmod)
    (r,) = verify_appendix("char2", [8], 2)
    snmod._witness_table.cache_clear()
    assert r.status == "fail"
    assert r.computed == "CheckFailed('tabloid map of an involution is not an involution')"


_CORRUPT_TABLOID_MAPS = """
import sys
import numpy as np
from symprep import snmod
if not sys.flags.optimize:
    sys.exit(3)
real_words, real_perm = snmod._tabloid_words, snmod._Tabloids.perm


def first_word_in_the_last_row(lam):
    # the first tabloid puts 0 in the last row, so it is no standard tableau
    # (or the only tabloid of a one-row shape, where this changes nothing);
    # its code stays, and its word wholly in the last row is no tabloid
    words, codes = real_words(lam)
    words = words.copy()
    words[0] = len(lam) - 1
    return words, codes


snmod._tabloid_words = first_word_in_the_last_row
(r,) = snmod.verify_appendix("char2", [8], 2)
print(r.status, r.computed)
snmod._tabloid_words = real_words
snmod._tabloids.cache_clear()
snmod._Tabloids.perm = lambda self, g: np.roll(real_perm(self, g), 1)
(r,) = snmod.verify_appendix("char2_alt", [8], 2)
print(r.status, r.computed)
"""


def test_corrupt_tabloid_map_fails_the_claim_under_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_TABLOID_MAPS],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "fail CheckFailed('moved code is not a tabloid code')",
        "fail CheckFailed('tabloid map of an involution is not an involution')"]
