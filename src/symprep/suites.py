"""Claim suites: one table of claim families, read by one loop into ordered
batches of verification jobs with stable reports.

A job is (claim_id, thunk); the thunk returns one VerificationReport.  Each
row of FAMILIES makes one family's jobs at the degrees it runs at, which are
written there and nowhere else, so a new family is one factory and one row.
Jobs run through `records.run_jobs`, one after another in table order, and a
raising thunk turns into a fail report instead of crashing the run.  The
appendix rows keyed appendix/{theorem}/p{p} also run one at a time, through
`appendix_jobs` and `snmod.verify_appendix`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import classical, dickson, oracles, snmod
from . import perm as pm
from .checks import require
from .linalg import Mat
from .records import SuiteConfig, exit_code, make_report, run_jobs


# ---------------------------------------------------------------------------
# dickson suite: invariance, parabolic ranks, Lagrangian stabilizer dims


def _invariance_job(n: int):
    label = f"dickson/symplectic-invariance/S{n}"

    def job():
        rep = dickson.perm_irrep(n, 2)
        form = dickson.dickson_form(rep.dim // 2)
        return make_report(
            claim_id=label,
            statement="the mod-2 irreducible cut from the permutation module "
                      "preserves the shared-moved-points pairing",
            inputs={"n": n, "dim": rep.dim},
            expected=True,
            computed=dickson.check_invariance(rep, form),
        )
    return label, job


def _parabolic_job(n: int, kind: str):
    tag = ("S" if kind == "sym" else "A") + str(n)
    label = f"dickson/parabolic-rank/{tag}"

    def job():
        res = dickson.standard_parabolic(n, kind)
        expected = n // 2 - (1 if kind == "alt" else 0)
        return make_report(
            claim_id=label,
            statement="rank of the elementary abelian subgroup acting trivially "
                      "on a Lagrangian and its quotient",
            inputs={"n": n, "kind": kind, "mode": "exact_enum", "order": res.order,
                    "exact": True,
                    "witness": [pm.to_cycles(g) for g in res.witness]},
            expected=expected,
            computed=res.rank,
        )
    return label, job


def _parabolic_oracle_job(n: int, kind: str):
    tag = ("S" if kind == "sym" else "A") + str(n)
    label = f"dickson/parabolic-rank-oracle/{tag}"

    def job():
        res = dickson.standard_parabolic(n, kind)
        ora = oracles.enum_parabolic(n, kind)
        return make_report(
            claim_id=label,
            statement="bit-sweep parabolic subgroup agrees with the closure-and-"
                      "filter oracle in both rank and order",
            inputs={"n": n, "kind": kind},
            expected={"rank": res.rank, "order": res.order},
            computed={"rank": ora["rank"], "order": ora["order"]},
        )
    return label, job


def _alt_max_rank_job(n: int):
    label = f"dickson/even-subgroup-max-rank/n{n}"

    def job():
        sr = pm.elem_abelian_rank_search(pm.closure(pm.standard_gens("alt", n)), 2)
        b = (n - 2) // 4
        return make_report(
            claim_id=label,
            statement="largest elementary abelian 2-rank in the even permutations; "
                      "recorded without assertion because the tabulated value 2b-1 "
                      "disagrees with direct search",
            inputs={"n": n, "tabulated": 2 * b - 1, "search_exact": sr.exact,
                    "witness": [pm.to_cycles(g) for g in sr.witness]},
            expected="recorded-only",
            computed=sr.rank,
            status="recorded",
        )
    return label, job


def _siegel_job(g: int):
    label = f"dickson/lagrangian-stabilizer-dim/g{g}"

    def job():
        return make_report(
            claim_id=label,
            statement="unipotent radical of a Lagrangian stabilizer in the rank-g "
                      "symplectic group has dimension g(g+1)/2",
            inputs={"g": g, "p": 2},
            expected=g * (g + 1) // 2,
            computed=dickson.siegel_unipotent_dim(g, 2),
        )
    return label, job


def _doubled_job(n: int):
    label = f"dickson/doubled-symplectic/S{n}"

    def job():
        rep = dickson.perm_irrep(n, 2)
        images, _ = dickson.diagonal_rep(rep)
        w, _, _ = dickson.lagrangian_pair(dickson.half_dim(n))
        witness = dickson.standard_parabolic(n, "sym").witness
        original = np.stack([rep.act(g).a for g in witness])
        return make_report(
            claim_id=label,
            statement="the block-diagonal embedding g + inverse-transpose lands in "
                      "the symplectic group and the original image fixes the "
                      "distinguished Lagrangian flag",
            inputs={"n": n, "doubled_dim": images[0].rows},
            expected=True,
            computed=bool(dickson.gl_parabolic_check(original, w).all()),
        )
    return label, job


# ---------------------------------------------------------------------------
# lietype suite: the unipotent intersection grid


def _grid_job(family: str, m: int, q: int):
    label = f"lietype/{family}/m{m}/q{q}"

    def job():
        spec = classical.make_classical(family, m, q)
        res = classical.intersection_dim(spec)
        return make_report(
            claim_id=label,
            statement="solution space of the flag-triviality constraints matches "
                      "the closed form and is spanned by root elements",
            inputs={"family": family, "m": m, "q": q,
                    "span_dim": res.span_dim,
                    "rp_reference": classical.rp_reference(family, m, q)},
            expected=res.closed_form,
            computed=res.computed,
        )
    return label, job


def _bridge_job(m: int, q: int):
    label = f"lietype/odd-orthogonal-even-char-bridge/m{m}/q{q}"

    def job():
        sp = classical.intersection_dim(classical.make_classical("Sp", m, q))
        return make_report(
            claim_id=label,
            statement="in even characteristic the odd orthogonal reference value "
                      "is the symplectic intersection dimension of the same rank",
            inputs={"m": m, "q": q},
            expected=classical.rp_reference("SOodd", m, q),
            computed=sp.computed,
        )
    return label, job


# ---------------------------------------------------------------------------
# appendix suite: Loewy sweeps, free summands, cross-construction agreement
#
# The thunks read snmod.irreducible_D, snmod.loewy_length and the other
# helpers as attributes of snmod when they run, so a wrapper set on snmod
# after import reaches them too.


def _odd_depth_job(n: int, lam: tuple, p: int, alt: bool):
    claim_id = f"appendix/odd-cyclic-depth{'-alt' if alt else ''}/p{p}/n{n}/{snmod._lam_id(lam)}"

    def job():
        dim, series = snmod._odd_cyclic_series(lam, p)
        if series is None:
            return None
        return make_report(
            claim_id=claim_id,
            statement="restriction of a non-character mod-p irreducible to the "
                      "cyclic group on the first p points has Loewy length at least 3"
                      + (" (cycle taken inside the even subgroup)" if alt else ""),
            inputs={"partition": list(lam), "p": p, "n": n, "dim": dim,
                    "layers": list(series.layer_dims)},
            expected=True,
            computed=series.length >= 3,
        )
    return claim_id, job


def _quadratic_job(n: int, alt: bool):
    claim_id = f"appendix/quadratic-pairs{'-alt' if alt else ''}/n{n}"

    def job():
        hits, rows = snmod._sweep_quadratic(n, even_part=alt)
        modules, want = len(set(r[0] for r in rows)), oracles.distinct_part_count(n) - 1
        # D(n) is the only 2-regular D(lam) of dimension at most 1
        require(modules == want, f"the sweep checked {modules} modules, not q({n}) - 1 = {want}")
        require(len(rows) == modules * len(snmod._mixed_subgroups(n, alt)),
                f"the sweep checked {len(rows)} pairs, not one per module and subgroup")
        expected_hits = [[f"{n - 1}-1", ("H~_" if alt else "H_") + str(n)]]
        if n == 8 and not alt:
            expected_hits.append(["5-3", "K^2xH_0"])
        recorded = alt and n == 8
        return make_report(
            claim_id=claim_id,
            statement="Loewy length at most 2 over the Klein-by-transposition "
                      "subgroup chain happens only at the listed module/subgroup pairs",
            inputs={"n": n, "modules_checked": modules,
                    "pairs_checked": len(rows), "sweep": "all 2-regular"},
            expected="recorded-only" if recorded else sorted(expected_hits),
            computed=sorted(hits),
            status="recorded" if recorded else None,
        )
    return claim_id, job


def _norm_rank_job():
    claim_id = "appendix/norm-rank-validation"

    def job():
        return make_report(
            claim_id=claim_id,
            statement="norm-operator rank equals the brute-force free summand count "
                      "on every random small test module",
            inputs={"seed": 0},
            expected=True,
            computed=oracles.validate_norm_rank(seed=0)["all_match"],
        )
    return claim_id, job


def _free_summand_job(n: int, k: int):
    claim_id = f"appendix/pair-partition-free-summand/n{n}/k{k}"
    sub = pm.special_subgroups(n, "H", m=k)

    def job():
        mod = snmod.irreducible_D((n - k, k), 2)
        count = snmod.free_summand_count(mod, sub)
        return make_report(
            claim_id=claim_id,
            statement="the two-row mod-2 irreducible keeps a free summand over "
                      "the rank-k transposition subgroup",
            inputs={"partition": [n - k, k], "subgroup": sub.label,
                    "dim": mod.dim, "free_count": count},
            expected=True,
            computed=count >= 1,
        )
    return claim_id, job


def _spin_dim_job(k: int):
    claim_id = f"appendix/spin-restriction-dim/k{k}"

    def job():
        return make_report(
            claim_id=claim_id,
            statement="restricting the pair-partition irreducible one point down "
                      "gives dimension 2^k",
            inputs={"k": k, "partition": [k + 1, k]},
            expected=2**k,
            computed=snmod.basic_spin_restriction(k).dim,
        )
    return claim_id, job


def _spin_tensor_job():
    claim_id = "appendix/spin-tensor-recursion"

    def job():
        m4 = snmod.basic_spin_restriction(2)
        m2 = snmod.basic_spin_restriction(1)
        left = snmod.fingerprint(m4, pm.special_subgroups(4, "H"))
        a = m2.gen_actions[0]
        ident = Mat.identity(m2.field, m2.dim)
        # a x 1 and 1 x a generate (Z/2)^2 by construction
        right = snmod.fingerprint_of_mats(m2.field, m2.dim ** 2, [a.kron(ident), ident.kron(a)])
        return make_report(
            claim_id=claim_id,
            statement="the dim-4 restriction over its transposition subgroup matches "
                      "the tensor square of the dim-2 one over the product subgroup, "
                      "fingerprint for fingerprint",
            inputs={"left": repr(left), "right": repr(right)},
            expected=True,
            computed=left == right,
        )
    return claim_id, job


def _three_part_job(n: int, lam: tuple, sub: pm.GroupPresentation):
    claim_id = f"appendix/three-part-depth/n{n}/{snmod._lam_id(lam)}/{sub.label}"

    def job():
        mod = snmod.irreducible_D(lam, 2)
        if mod.dim <= 1:
            return None
        series = snmod.loewy_length(mod, sub)
        return make_report(
            claim_id=claim_id,
            statement="mod-2 irreducibles with at least three parts have "
                      "Loewy length at least 3 on rank-2 four-point subgroups",
            inputs={"partition": list(lam), "subgroup": sub.label,
                    "dim": mod.dim, "layers": list(series.layer_dims),
                    "free_count": snmod.free_summand_count(mod, sub)},
            expected=True,
            computed=series.length >= 3,
        )
    return claim_id, job


def _profile_job(lam: tuple, p: int, expected: list):
    label = f"appendix/jordan-profile/p{p}/{snmod._lam_id(lam)}"

    def job():
        mod = snmod.irreducible_D(lam, p)
        prof = snmod.cyclic_profile(mod, snmod._cyclic_group(mod.n, p).generators[0])
        return make_report(
            claim_id=label,
            statement="Jordan block sizes of the standard p-cycle on the "
                      "irreducible head of the row-span module",
            inputs={"partition": list(lam), "p": p, "dim": mod.dim},
            expected=expected,
            computed=list(prof),
        )
    return label, job


def _green_tensor_job():
    label = "appendix/odd-tensor-blocks"

    def job():
        d = snmod.irreducible_D((4, 1), 5)
        t = snmod.tensor_module(d, d)
        prof = snmod.cyclic_profile(t, snmod._cyclic_group(5, 5).generators[0])
        return make_report(
            claim_id=label,
            statement="tensor square of the 3-dimensional mod-5 module splits "
                      "into odd-size Jordan blocks at a 5-cycle",
            inputs={"dim": t.dim, "all_odd": all(b % 2 == 1 for b in prof)},
            expected=[1, 3, 5],
            computed=list(prof),
        )
    return label, job


def _cross_construction_job(n: int):
    label = f"appendix/two-construction-agreement/n{n}"

    def job():
        rep = dickson.perm_irrep(n, 2)
        mod = snmod.irreducible_D((n - 1, 1), 2)
        sub = pm.special_subgroups(n, "H")
        fp_mod, fp_rep = snmod.fingerprint(mod, sub), snmod.fingerprint(rep, sub)
        return make_report(
            claim_id=label,
            statement="the permutation-module construction and the row-span "
                      "construction of the same irreducible agree in dimension "
                      "and in fingerprint over the transposition subgroup",
            inputs={"n": n, "rep_dim": rep.dim, "mod_dim": mod.dim},
            expected={"dims_equal": True, "fingerprints_equal": True},
            computed={"dims_equal": rep.dim == mod.dim,
                      "fingerprints_equal": fp_mod == fp_rep},
        )
    return label, job


# ---------------------------------------------------------------------------
# the family table and the entry point


# One row per claim family, in report order: "suite/family": (degrees, jobs).
# degrees are the n it runs at by default, the largest being its cap, and none
# for a family not swept by degree; jobs(ns, config) are its (claim_id, thunk)
# jobs at the degrees ns.
FAMILIES = {
    "dickson/symplectic-invariance": (
        range(5, 13), lambda ns, _: [_invariance_job(n) for n in ns]),
    "dickson/parabolic-rank": (range(5, 13), lambda ns, _: [
        _parabolic_job(n, k) for n in ns for k in ("sym", "alt")]),
    "dickson/parabolic-rank-oracle": (range(5, 9), lambda ns, _: [
        _parabolic_oracle_job(n, k) for n in ns for k in ("sym", "alt")]),
    "dickson/even-subgroup-max-rank": ((6, 7), lambda ns, _: [_alt_max_rank_job(n) for n in ns]),
    "dickson/lagrangian-stabilizer-dim": ((), lambda ns, _: [_siegel_job(g) for g in range(1, 6)]),
    "dickson/doubled-symplectic": ((6, 8), lambda ns, _: [_doubled_job(n) for n in ns]),
    "lietype/grid": ((), lambda ns, config: [_grid_job(*pt) for pt in (
        classical.grid_points() if config.grid is None else config.grid)]),
    "lietype/odd-orthogonal-even-char-bridge": ((), lambda ns, config: [
        _bridge_job(m, q) for q in (2, 4) for m in (2, 3)] if config.grid is None else []),
    "appendix/charnot2/p3": (range(3, 8), lambda ns, _: [
        _odd_depth_job(n, lam, 3, False) for n in ns for lam in snmod.p_regular_partitions(n, 3)]),
    "appendix/charnot2_alt/p3": (range(3, 8), lambda ns, _: [
        _odd_depth_job(n, lam, 3, True) for n in ns for lam in snmod.p_regular_partitions(n, 3)]),
    "appendix/charnot2/p5": (range(5, 8), lambda ns, _: [
        _odd_depth_job(n, lam, 5, False) for n in ns for lam in snmod.p_regular_partitions(n, 5)]),
    "appendix/charnot2_alt/p5": (range(5, 8), lambda ns, _: [
        _odd_depth_job(n, lam, 5, True) for n in ns for lam in snmod.p_regular_partitions(n, 5)]),
    "appendix/jordan-profile": ((), lambda ns, _: [
        _profile_job(lam, p, [3]) for lam, p in (((4, 1), 5), ((3, 1), 3), ((2, 1, 1), 3))]),
    # the quadratic-pair twins state their hits from n = 8 on
    "appendix/char2/p2": (range(8, 13), lambda ns, _: [_quadratic_job(n, False) for n in ns]),
    "appendix/char2_alt/p2": (range(8, 13), lambda ns, _: [_quadratic_job(n, True) for n in ns]),
    "appendix/length2/p2": ((6,), lambda ns, _: [
        _three_part_job(n, lam, sub)
        for n in ns for lam in snmod.p_regular_partitions(n, 2) if len(lam) >= 3
        for sub in (pm.special_subgroups(n, "K"), pm.special_subgroups(n, "H", m=2))]),
    "appendix/H2kproj/p2": (range(5, 13), lambda ns, _: [
        _norm_rank_job(), *(_free_summand_job(n, k) for n in ns for k in range(2, (n + 1) // 2)),
        *(_spin_dim_job(k) for k in (1, 2, 3, 4)), _spin_tensor_job()]),
    "appendix/odd-tensor-blocks": ((), lambda ns, _: [_green_tensor_job()]),
    "appendix/two-construction-agreement": (
        range(5, 11), lambda ns, _: [_cross_construction_job(n) for n in ns]),
}
# below its first degree a suite runs no family at all
FIRST_DEGREE = {"dickson": 5, "lietype": 0, "appendix": 4}
SUITE_NAMES = (*FIRST_DEGREE, "all")
# the largest cap: the default and the bound of every --max-n
MAX_DEGREE = max(n for degrees, _ in FAMILIES.values() for n in degrees)


def suite_jobs(name: str, config: SuiteConfig) -> list:
    """The jobs of one suite, each family at its degrees up to config.max_n."""
    if config.max_n < FIRST_DEGREE[name]:
        return []
    return [job for key, (degrees, jobs) in FAMILIES.items() if key.split("/")[0] == name
            for job in jobs([n for n in degrees if n <= config.max_n], config)]


def appendix_jobs(theorem: str, ns: Iterable[int], p: int) -> list:
    """The jobs of the row appendix/{theorem}/p{p} at the degrees ns; a key with
    no row or a degree outside the row raises ValueError before any job exists."""
    key = f"appendix/{theorem}/p{p}"
    if key not in FAMILIES:
        raise ValueError(f"no family row {key}: an unknown theorem key or a prime it is not run at")
    degrees, jobs = FAMILIES[key]
    ns = sorted(set(int(n) for n in ns))
    if not set(ns) <= set(degrees):
        raise ValueError(f"{theorem} degrees {ns} outside the supported range "
                         f"{degrees[0]}..{degrees[-1]}")
    return jobs(ns, None)


def check_max_n(max_n: int, cap: int = MAX_DEGREE):
    if max_n < 0:
        raise ValueError(f"max_n {max_n} is negative")
    if max_n > cap:
        raise ValueError(f"max_n {max_n} is above the largest supported degree {cap}")


def run_suite(name: str, config: SuiteConfig | None = None):
    """Execute one suite (or all of them); returns (reports, exit code)."""
    config = config if config is not None else SuiteConfig(max_n=MAX_DEGREE)
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    check_max_n(config.max_n)
    parts = FIRST_DEGREE if name == "all" else (name,)
    reports = run_jobs([job for part in parts for job in suite_jobs(part, config)])
    return reports, exit_code(reports)
