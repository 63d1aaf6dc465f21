"""Command-line front end: verify suites, emit tables, run oracles, dump objects.

All state comes in through flags, never environment variables, and JSON output
is canonical (sorted keys, no floats), so identical invocations give identical
bytes.  Exit codes: 0 all pass/recorded, 1 any fail or failed certification
check, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import sys

from . import classical, dickson, oracles, snmod
from . import perm as pm
from .checks import CheckFailed
from .records import SuiteConfig, canonical_json, render, render_rows
from .suites import SUITE_NAMES, run_suite


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_partition(text: str) -> tuple:
    try:
        lam = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise SystemExit(2)
    return lam


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--max-n", type=int, default=12, dest="max_n",
                   help="largest symmetric-group degree to sweep")
    p.add_argument("--enum-cap", type=int, default=10**7, dest="enum_cap",
                   help="largest group order an exact enumeration may attempt")
    p.add_argument("--format", choices=("text", "json", "csv", "md"), default="text")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="include runtimes in reports (breaks byte-stability)")


def _cmd_verify(args) -> int:
    config = SuiteConfig(max_n=args.max_n, enum_cap=args.enum_cap,
                         format=args.format, out=args.out, seed=args.seed,
                         jobs=args.jobs, timings=args.timings)
    reports, code = run_suite(args.suite, config)
    _emit(render(args.suite, config, reports), args.out)
    return code


def _grid_table_rows():
    return [
        {"family": r["family"], "m": r["m"], "q": r["q"], "computed": r["computed"],
         "closed_form": r["closed_form"], "match": r["match"]}
        for r in classical.grid_rows()
    ]


def _parabolic_table_rows(max_n: int, enum_cap: int):
    rows = []
    for n in range(5, min(max_n, 12) + 1):
        for kind in ("sym", "alt"):
            res = dickson.standard_parabolic(n, kind, enum_cap)
            rows.append({"n": n, "kind": kind, "rank": res.rank,
                         "order": res.order, "exact": res.exact})
    return rows


def _cmd_table(args) -> int:
    if args.name == "rp":
        rows = _grid_table_rows()
    else:
        rows = _parabolic_table_rows(args.max_n, args.enum_cap)
    _emit(render_rows(rows, args.format), args.out)
    return 0


def _regular_module(rank: int):
    """The group algebra of an elementary abelian 2-group acting on itself."""
    from .field import make_field
    from .linalg import Mat
    import numpy as np

    fld = make_field(2)
    size = 2**rank
    mats = []
    for i in range(rank):
        a = np.zeros((size, size), dtype=np.int64)
        for v in range(size):
            a[v ^ (1 << i), v] = 1
        mats.append(Mat(fld, a))
    return mats


def _cmd_oracle(args) -> int:
    if args.kind == "enum_parabolic":
        if args.n is None or args.group is None:
            raise SystemExit(2)
        doc = oracles.enum_parabolic(args.n, args.group)
        _emit(canonical_json(doc), args.out)
        return 0
    if args.kind == "tableau_count":
        if args.partition is None:
            raise SystemExit(2)
        lam = _parse_partition(args.partition)
        doc = {"partition": list(lam), "count": oracles.tableau_count(lam)}
        _emit(canonical_json(doc), args.out)
        return 0
    # decompose_small_module: demo decompositions or the full norm validation
    if args.demo:
        rank = {"regular-c2": 1, "regular-k4": 2}.get(args.demo)
        if rank is None:
            raise SystemExit(2)
        mats = _regular_module(rank)
        count = oracles.decompose_small_module(mats, group_order=2**rank)
        doc = {"module": args.demo, "dim": mats[0].rows, "free_count": count}
        _emit(canonical_json(doc), args.out)
        return 0
    verdict = oracles.validate_norm_rank(seed=args.seed)
    doc = {"cases": verdict["cases"], "all_match": verdict["all_match"],
           "mismatches": [r["label"] for r in verdict["results"] if not r["match"]]}
    _emit(canonical_json(doc), args.out)
    return 0 if verdict["all_match"] else 1


def _cmd_dump(args) -> int:
    if args.object == "perm_irrep":
        rep = dickson.perm_irrep(args.n, args.p)
        _emit(canonical_json(dickson.rep_to_json(rep)), args.out)
        return 0
    if args.object == "module":
        if args.partition is None:
            raise SystemExit(2)
        lam = _parse_partition(args.partition)
        mod = snmod.irreducible_D(lam, args.p)
        _emit(canonical_json(snmod.module_to_json(mod)), args.out)
        return 0
    _emit(render_rows(_grid_table_rows(), args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symprep",
        description="exact mod-p verification of symplectic permutation "
                    "representations, classical-group intersection dimensions, "
                    "and symmetric-group Loewy structure")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a claim suite and report")
    pv.add_argument("suite", choices=SUITE_NAMES)
    _add_common(pv)
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("table", help="emit a computed table")
    pt.add_argument("name", choices=("rp", "parabolic"))
    pt.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    pt.add_argument("--out", default=None)
    pt.add_argument("--max-n", type=int, default=12, dest="max_n")
    pt.add_argument("--enum-cap", type=int, default=10**7, dest="enum_cap")
    pt.set_defaults(fn=_cmd_table)

    po = sub.add_parser("oracle", help="run an independent brute-force oracle")
    po.add_argument("kind", choices=("enum_parabolic", "decompose_small_module",
                                     "tableau_count"))
    po.add_argument("--n", type=int, default=None)
    po.add_argument("--group", choices=("sym", "alt"), default=None)
    po.add_argument("--partition", default=None, help="comma-separated parts, e.g. 5,2")
    po.add_argument("--demo", default=None,
                    help="decompose a named module: regular-c2 or regular-k4")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--out", default=None)
    po.set_defaults(fn=_cmd_oracle)

    pd = sub.add_parser("dump", help="serialize a representation, module, or table")
    pd.add_argument("object", choices=("perm_irrep", "module", "grid"))
    pd.add_argument("--n", type=int, default=8)
    pd.add_argument("--p", type=int, default=2)
    pd.add_argument("--partition", default=None)
    pd.add_argument("--format", choices=("json", "csv", "md"), default="json")
    pd.add_argument("--out", default=None)
    pd.set_defaults(fn=_cmd_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
