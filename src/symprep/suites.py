"""Claim suites: ordered batches of verification jobs with stable reports.

A job is (label, thunk); the thunk returns one VerificationReport or a list
of them.  Jobs may run in a thread pool, but reports are always assembled in
declaration order, and a raising thunk turns into a fail report instead of
crashing the run.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

from . import classical, dickson, oracles, snmod
from . import perm as pm
from .records import (SuiteConfig, VerificationReport, exit_code, make_report,
                      render)

SUITE_NAMES = ("dickson", "lietype", "appendix", "all")


def _run_jobs(jobs, config: SuiteConfig) -> list[VerificationReport]:
    def guarded(label, fn):
        t0 = time.monotonic()
        try:
            result = fn()
        except Exception as exc:  # surface as a fail report, keep the suite going
            result = make_report(
                claim_id=label, statement="claim evaluation raised an exception",
                inputs={}, expected="no exception", computed=repr(exc),
                status="fail")
        ms = int((time.monotonic() - t0) * 1000)
        reports = result if isinstance(result, list) else [result]
        for r in reports:
            if r.runtime_ms is None:
                r.runtime_ms = ms
        return reports

    if config.jobs > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(guarded, label, fn) for label, fn in jobs]
            batches = [f.result() for f in futures]
    else:
        batches = [guarded(label, fn) for label, fn in jobs]
    return [r for batch in batches for r in batch]


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


def _parabolic_job(n: int, kind: str, config: SuiteConfig):
    tag = ("S" if kind == "sym" else "A") + str(n)
    label = f"dickson/parabolic-rank/{tag}"

    def job():
        rep = dickson.perm_irrep(n, 2)
        if kind == "alt":
            rep = dickson.restrict_to_alternating(rep)
        w, _, _ = dickson.lagrangian_pair(rep.dim // 2)
        mode = "exact_enum" if math.factorial(n) <= config.enum_cap else "certified_bound"
        res = dickson.parabolic_trivial_subgroup(rep, w, mode=mode, cap=config.enum_cap)
        expected = n // 2 - (1 if kind == "alt" else 0)
        return make_report(
            claim_id=label,
            statement="rank of the elementary abelian subgroup acting trivially "
                      "on a Lagrangian and its quotient"
                      + ("" if res.exact else " (witness lower bound, not a sweep)"),
            inputs={"n": n, "kind": kind, "mode": mode, "order": res.order,
                    "exact": res.exact,
                    "witness": [pm.to_cycles(g) for g in res.witness]},
            expected=expected,
            computed=res.rank,
        )
    return label, job


def _parabolic_oracle_job(n: int, kind: str, config: SuiteConfig):
    tag = ("S" if kind == "sym" else "A") + str(n)
    label = f"dickson/parabolic-rank-oracle/{tag}"

    def job():
        rep = dickson.perm_irrep(n, 2)
        if kind == "alt":
            rep = dickson.restrict_to_alternating(rep)
        w, _, _ = dickson.lagrangian_pair(rep.dim // 2)
        res = dickson.parabolic_trivial_subgroup(rep, w, cap=config.enum_cap)
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
        es = pm.closure(pm.standard_gens("alt", n))
        sr = pm.elem_abelian_rank_search(es, 2)
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
        doubled, form = dickson.diagonal_rep(rep)
        w, _, _ = dickson.lagrangian_pair(rep.dim // 2)
        return make_report(
            claim_id=label,
            statement="the block-diagonal embedding g + inverse-transpose lands in "
                      "the symplectic group and the original image fixes the "
                      "distinguished Lagrangian flag",
            inputs={"n": n, "doubled_dim": doubled.dim},
            expected=True,
            computed=dickson.gl_parabolic_check(
                rep, dickson.lagrangian_pair(rep.dim // 2)[0],
                pm.GroupPresentation("perm", n,
                                     dickson.parabolic_trivial_subgroup(rep, w).witness)),
        )
    return label, job


def dickson_suite(config: SuiteConfig) -> list:
    top = min(config.max_n, 12)
    if top < 5:
        return []
    jobs = []
    for n in range(5, top + 1):
        jobs.append(_invariance_job(n))
    for n in range(5, top + 1):
        for kind in ("sym", "alt"):
            jobs.append(_parabolic_job(n, kind, config))
    for n in range(5, min(top, 8) + 1):
        for kind in ("sym", "alt"):
            jobs.append(_parabolic_oracle_job(n, kind, config))
    for n in (6, 7):
        if n <= top:
            jobs.append(_alt_max_rank_job(n))
    for g in range(1, 6):
        jobs.append(_siegel_job(g))
    for n in (6, 8):
        if n <= top:
            jobs.append(_doubled_job(n))
    return jobs


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


def lietype_suite(config: SuiteConfig) -> list:
    grid = classical.grid_points() if config.grid is None else list(config.grid)
    jobs = [_grid_job(family, m, q) for family, m, q in grid]
    if config.grid is None:
        for q in (2, 4):
            for m in (2, 3):
                jobs.append(_bridge_job(m, q))
    return jobs


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
        fp_mod = snmod.fingerprint(mod, sub)
        fp_rep = snmod.fingerprint_of_mats([rep.act(g) for g in sub.generators],
                                           rep.field, verify_independent=False)
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


def appendix_suite(config: SuiteConfig) -> list:
    top = min(config.max_n, 12)
    if top < 4:
        return []
    jobs = []
    jobs.append(("appendix/odd-cyclic-depth/p3",
                 lambda: snmod.verify_appendix("charnot2", range(3, min(top, 7) + 1), 3)))
    jobs.append(("appendix/odd-cyclic-depth-alt/p3",
                 lambda: snmod.verify_appendix("charnot2_alt", range(3, min(top, 7) + 1), 3)))
    if top >= 5:
        jobs.append(("appendix/odd-cyclic-depth/p5",
                     lambda: snmod.verify_appendix("charnot2", range(5, min(top, 7) + 1), 5)))
        jobs.append(("appendix/odd-cyclic-depth-alt/p5",
                     lambda: snmod.verify_appendix("charnot2_alt", range(5, min(top, 7) + 1), 5)))
    jobs.append(_profile_job((4, 1), 5, [3]))
    jobs.append(_profile_job((3, 1), 3, [3]))
    jobs.append(_profile_job((2, 1, 1), 3, [3]))
    if top >= 8:
        ns = list(range(8, top + 1))
        jobs.append(("appendix/quadratic-pairs",
                     lambda: snmod.verify_appendix("char2", ns, 2)))
        jobs.append(("appendix/quadratic-pairs-alt",
                     lambda: snmod.verify_appendix("char2_alt", ns, 2)))
    if top >= 6:
        jobs.append(("appendix/three-part-depth",
                     lambda: snmod.verify_appendix("length2", [6], 2)))
    jobs.append(("appendix/free-summands",
                 lambda: snmod.verify_appendix("H2kproj", range(5, top + 1), 2)))
    jobs.append(_green_tensor_job())
    for n in range(5, min(top, 10) + 1):
        jobs.append(_cross_construction_job(n))
    return jobs


# ---------------------------------------------------------------------------
# entry point


def run_suite(name: str, config: SuiteConfig | None = None):
    """Execute one suite (or all of them); returns (reports, exit code)."""
    config = config if config is not None else SuiteConfig()
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    builders = {"dickson": dickson_suite, "lietype": lietype_suite,
                "appendix": appendix_suite}
    if name == "all":
        jobs = []
        for part in ("dickson", "lietype", "appendix"):
            jobs.extend(builders[part](config))
    else:
        jobs = builders[name](config)
    reports = _run_jobs(jobs, config)
    return reports, exit_code(reports)


def render_suite(name: str, config: SuiteConfig | None = None):
    """Run a suite and produce (rendered text, exit code)."""
    config = config if config is not None else SuiteConfig()
    reports, code = run_suite(name, config)
    return render(name, config, reports), code
