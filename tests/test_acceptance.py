"""The ten acceptance criteria, one test each, with their runtime budgets.

Each test prints a single `criterion NN PASS/FAIL` line (visible under
pytest -s or in captured output) and fails hard if the computation or the
time budget is violated.  Nothing here is weakened or sampled down: every
range below is the full contracted range.
"""

import time
from contextlib import contextmanager

import numpy as np

from symprep import perm as pm
from symprep.classical import grid_points, intersection_dim, make_classical
from symprep.dickson import (check_invariance, dickson_form, half_dim,
                             lagrangian_pair, parabolic_trivial_subgroup,
                             perm_irrep, siegel_unipotent_dim)
from symprep.field import MAX_DEGREE, MAX_PRIME, is_prime, make_field
from symprep.linalg import Mat, _rref_generic, kernel, rref_array
from symprep.oracles import enum_parabolic, validate_norm_rank
from symprep.records import SuiteConfig, reports_to_json
from symprep.snmod import (basic_spin_restriction, cyclic_profile,
                           fingerprint, fingerprint_of_mats,
                           free_summand_count, irreducible_D, loewy_length,
                           p_regular_partitions, tensor_module,
                           verify_appendix)
from symprep.suites import run_suite


@contextmanager
def criterion(num: int, budget_s: float, title: str):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {title}")
        raise
    dt = time.monotonic() - t0
    ok = dt < budget_s
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {verdict} ({dt:.2f}s / budget {budget_s:g}s): {title}")
    assert ok, f"time budget exceeded: {dt:.2f}s >= {budget_s}s"


def test_criterion_01_symplectic_invariance():
    with criterion(1, 1.0, "mod-2 irreducible preserves the pairing, 5 <= n <= 12"):
        for n in range(5, 13):
            rep = perm_irrep(n, 2)
            assert check_invariance(rep, dickson_form(rep.dim // 2)), n


def test_criterion_02_parabolic_rank_table():
    with criterion(2, 120.0, "parabolic trivial-action ranks, exact to n=12, "
                             "oracle to n=8"):
        for n in range(5, 13):
            w, _, _ = lagrangian_pair(half_dim(n))
            for kind in ("sym", "alt"):
                res = parabolic_trivial_subgroup(n, kind, w)
                want = n // 2 - (1 if kind == "alt" else 0)
                assert res.rank == want, (n, kind, res.rank)
                assert res.order == len(res.elements) == 2**want
                if n <= 8:
                    ora = enum_parabolic(n, kind)
                    assert (ora["rank"], ora["order"]) == (res.rank, res.order)


def test_criterion_03_unipotent_overlap_grid():
    with criterion(3, 30.0, "overlap dimension matches the closed forms on all "
                            "36 grid points, root span certified"):
        pts = grid_points()
        assert len(pts) == 36
        for family, m, q in pts:
            res = intersection_dim(make_classical(family, m, q))
            assert res.match, (family, m, q, res.computed, res.closed_form)
            assert res.span_dim == res.computed


def test_criterion_04_lagrangian_stabilizer_dimension():
    with criterion(4, 1.0, "constraint-system dimension g(g+1)/2 for the doubled "
                           "symplectic group, g <= 5"):
        for g in range(1, 6):
            assert siegel_unipotent_dim(g, 2) == g * (g + 1) // 2


def test_criterion_05_odd_characteristic_depth():
    with criterion(5, 30.0, "Loewy length >= 3 on the p-cycle for every "
                            "non-character irreducible, p in {3,5}, n <= 7"):
        for p, lo in ((3, 3), (5, 5)):
            checked = 0
            for n in range(lo, 8):
                cyc = pm.from_cycles("(" + " ".join(str(i) for i in range(1, p + 1)) + ")", n)
                grp = pm.GroupPresentation("perm", n, (cyc,), f"C{p}")
                for lam in p_regular_partitions(n, p):
                    mod = irreducible_D(lam, p)
                    if mod.dim <= 1:
                        continue
                    assert loewy_length(mod, grp).length >= 3, (p, n, lam)
                    checked += 1
            assert checked > 0
        five = pm.from_cycles("(1 2 3 4 5)", 5)
        assert cyclic_profile(irreducible_D((4, 1), 5), five) == (3,)
        three5 = pm.from_cycles("(1 2 3)", 4)
        assert cyclic_profile(irreducible_D((3, 1), 3), three5) == (3,)
        assert cyclic_profile(irreducible_D((2, 1, 1), 3), three5) == (3,)


def test_criterion_06_quadratic_pair_sweep():
    with criterion(6, 300.0, "exhaustive quadratic sweep at n = 8..11, "
                             "and its even-subgroup twin at n = 11"):
        reports = {r.claim_id: r for r in verify_appendix("char2", [8, 9, 10, 11], 2)
                   + verify_appendix("char2_alt", [11], 2)}
        r8 = reports["appendix/quadratic-pairs/n8"]
        assert r8.status == "pass"
        assert r8.computed == [["5-3", "K^2xH_0"], ["7-1", "H_8"]]
        for n in (9, 10, 11):
            r = reports[f"appendix/quadratic-pairs/n{n}"]
            assert r.status == "pass"
            assert r.computed == [[f"{n - 1}-1", f"H_{n}"]], (n, r.computed)
        r11 = reports["appendix/quadratic-pairs-alt/n11"]
        assert r11.status == "pass"
        assert r11.computed == [["10-1", "H~_11"]]
        for r in (reports["appendix/quadratic-pairs/n11"], r11):
            assert (r.inputs["modules_checked"], r.inputs["pairs_checked"]) == (11, 33)


def test_criterion_07_free_summands_and_spin_recursion():
    with criterion(7, 60.0, "norm validation, then free summands for the six "
                            "two-row pairs, spin dims, tensor recursion"):
        assert validate_norm_rank(seed=0)["all_match"]
        for n, k in ((5, 2), (6, 2), (7, 2), (7, 3), (8, 3), (9, 4)):
            mod = irreducible_D((n - k, k), 2)
            sub = pm.special_subgroups(n, "H", m=k)
            assert free_summand_count(mod, sub) >= 1, (n, k)
        for k in (1, 2, 3, 4):
            assert basic_spin_restriction(k).dim == 2**k
        m4 = basic_spin_restriction(2)
        m2 = basic_spin_restriction(1)
        left = fingerprint(m4, pm.special_subgroups(4, "H"))
        a = m2.gen_actions[0]
        ident = Mat.identity(m2.field, m2.dim)
        right = fingerprint_of_mats(m2.field, m2.dim ** 2, [a.kron(ident), ident.kron(a)])
        assert left == right


def test_criterion_08_two_constructions_agree():
    with criterion(8, 60.0, "permutation-module and polytabloid constructions "
                            "agree in dim and fingerprint, 5 <= n <= 10"):
        for n in range(5, 11):
            rep = perm_irrep(n, 2)
            mod = irreducible_D((n - 1, 1), 2)
            assert rep.dim == mod.dim, n
            sub = pm.special_subgroups(n, "H")
            fp_mod = fingerprint(mod, sub)
            fp_rep = fingerprint_of_mats(rep.field, rep.dim,
                                         [rep.act(g) for g in sub.generators])
            assert fp_mod == fp_rep, n


def test_criterion_09_odd_tensor_blocks():
    with criterion(9, 1.0, "tensor square of the dim-3 irreducible has only odd "
                           "blocks at the 5-cycle"):
        mod = irreducible_D((4, 1), 5)
        prof = cyclic_profile(tensor_module(mod, mod), pm.from_cycles("(1 2 3 4 5)", 5))
        assert all(b % 2 == 1 for b in prof)
        assert prof == (1, 3, 5)


def test_criterion_10_infrastructure():
    with criterion(10, 30.0, "field axioms, rank/kernel duality, packed parity, "
                             "byte-stable reports"):
        # exhaustive field axioms for every constructible order up to 81
        qs = sorted(p**r for p in range(2, MAX_PRIME + 1) if is_prime(p)
                    for r in range(1, MAX_DEGREE + 1) if p**r <= 81)
        assert {2, 3, 4, 8, 9, 16, 25, 27, 49, 81} <= set(qs)
        for q in qs:
            f = make_field(*_pr(q))
            el = np.arange(q, dtype=np.int64)
            add = np.array([[f.add(a, b) for b in el] for a in el])
            mul = np.array([[f.mul(a, b) for b in el] for a in el])
            assert (add == add.T).all() and (mul == mul.T).all()
            assert (add[0] == el).all() and (mul[1] == el).all()
            i, j, k = np.meshgrid(el, el, el, indexing="ij")
            assert (add[add[i, j], k] == add[i, add[j, k]]).all()
            assert (mul[mul[i, j], k] == mul[i, mul[j, k]]).all()
            assert (mul[i, add[j, k]] == add[mul[i, j], mul[i, k]]).all()
            for a in range(1, q):
                assert f.mul(a, f.inv(a)) == 1

        # 1000 random rank/kernel dualities
        rng = np.random.default_rng(123)
        fields = [make_field(2), make_field(3), make_field(5), make_field(2, 2), make_field(3, 2)]
        for t in range(1000):
            f = fields[t % len(fields)]
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            m = Mat(f, rng.integers(0, f.q, size=(rows, cols)))
            assert m.rank() + kernel(m).dim == cols

        # packed GF(2) elimination must agree with the generic path bit for bit
        f2 = make_field(2)
        for _ in range(200):
            a = rng.integers(0, 2, size=(int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            fast, piv_fast = rref_array(a.astype(np.int64), f2)
            slow, piv_slow = _rref_generic(a.astype(np.int64), f2)
            assert (fast == slow).all() and piv_fast == tuple(piv_slow)

        # identical configs give byte-identical reports
        cfg = SuiteConfig(max_n=12, grid=(("SL", 3, 2), ("Sp", 2, 2)))
        r1, _ = run_suite("lietype", cfg)
        r2, _ = run_suite("lietype", cfg)
        assert reports_to_json("lietype", cfg, r1) == reports_to_json("lietype", cfg, r2)


def _pr(q: int):
    """(p, r) with p prime and p**r == q."""
    for p in range(2, q + 1):
        if q % p == 0:
            r = 0
            while q > 1:
                assert q % p == 0
                q //= p
                r += 1
            return p, r
    raise AssertionError
