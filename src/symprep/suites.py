"""Claim suites: one table of claim families, read by one loop into ordered
batches of verification jobs with stable reports.

A job is (claim_id, thunk); the thunk returns one VerificationReport.  Each
row of FAMILIES makes one family's jobs at the degrees it runs at, so a new
family is one row.  Jobs run through `records.run_jobs`, one after another
in table order, and a raising thunk turns into a fail report instead of
crashing the run.
"""

from __future__ import annotations

from typing import Callable

from . import classical, dickson, oracles, snmod
from . import perm as pm
from .records import SuiteConfig, exit_code, make_report, run_jobs


# ---------------------------------------------------------------------------
# dickson suite: invariance, parabolic ranks, Lagrangian stabilizer dims


def _invariance_job(n: int):
    def job():
        rep = dickson.perm_irrep(n, 2)
        form = dickson.dickson_form(rep.dim // 2)
        return make_report(
            claim_id=f"dickson/symplectic-invariance/S{n}",
            statement="the mod-2 irreducible cut from the permutation module "
                      "preserves the shared-moved-points pairing",
            inputs={"n": n, "dim": rep.dim},
            expected=True,
            computed=dickson.check_invariance(rep, form),
        )
    return f"dickson/symplectic-invariance/S{n}", job


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
        return make_report(
            claim_id=label,
            statement="the block-diagonal embedding g + inverse-transpose lands in "
                      "the symplectic group and the original image fixes the "
                      "distinguished Lagrangian flag",
            inputs={"n": n, "doubled_dim": images[0].rows},
            expected=True,
            computed=dickson.gl_parabolic_check(rep, w, pm.GroupPresentation("perm", n, witness)),
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


def _profile_job(lam: tuple, p: int, expected: list):
    label = f"appendix/jordan-profile/p{p}/{'-'.join(map(str, lam))}"

    def job():
        mod = snmod.irreducible_D(lam, p)
        cyc = pm.from_cycles("(" + " ".join(str(i + 1) for i in range(p)) + ")", mod.n)
        prof = snmod.cyclic_profile(mod, cyc)
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
        prof = snmod.cyclic_profile(t, pm.from_cycles("(1 2 3 4 5)", 5))
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
        # fingerprint certifies sub before the rep side reads its generators
        fp_mod = snmod.fingerprint(mod, sub)
        fp_rep = snmod.fingerprint_of_mats(rep.field, rep.dim,
                                           [rep.act(g) for g in sub.generators])
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


def _theorem(theorem: str, p: int) -> Callable:
    return lambda ns, _: snmod.appendix_jobs(theorem, ns, p)


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
    "appendix/charnot2/p3": (range(3, 8), _theorem("charnot2", 3)),
    "appendix/charnot2_alt/p3": (range(3, 8), _theorem("charnot2_alt", 3)),
    "appendix/charnot2/p5": (range(5, 8), _theorem("charnot2", 5)),
    "appendix/charnot2_alt/p5": (range(5, 8), _theorem("charnot2_alt", 5)),
    "appendix/jordan-profile": ((), lambda ns, _: [
        _profile_job(lam, p, [3]) for lam, p in (((4, 1), 5), ((3, 1), 3), ((2, 1, 1), 3))]),
    "appendix/char2": (range(snmod.QUADRATIC_FIRST_N, 13), _theorem("char2", 2)),
    "appendix/char2_alt": (range(snmod.QUADRATIC_FIRST_N, 13), _theorem("char2_alt", 2)),
    "appendix/length2": ((6,), _theorem("length2", 2)),
    "appendix/H2kproj": (range(5, 13), _theorem("H2kproj", 2)),
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
