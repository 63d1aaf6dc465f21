"""Command-line front end: verify suites, emit tables, run oracles, dump objects.

All state comes in through flags, never environment variables, and JSON output
is canonical (sorted keys, no floats), so identical invocations give identical
bytes.  Each oracle, table and dump kind is a subcommand of its own that takes
only the flags it reads.  Exit codes: 0 all pass/recorded, 1 any fail or failed
certification check, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
import tempfile

from . import classical, dickson, oracles, snmod
from .checks import CheckFailed
from .records import REPORT_FORMATS, SuiteConfig, canonical_json, render, render_rows
from .suites import FAMILIES, MAX_DEGREE, SUITE_NAMES, check_max_n, run_suite

PARABOLIC_DEGREES, _ = FAMILIES["dickson/parabolic-rank"]


@contextlib.contextmanager
def _output(out: str | None):
    """Yield the function that writes the output text to --out or stdout.

    A temporary file is created beside --out before the work starts, so an
    unwritable path fails at once; it replaces --out only when the work
    succeeds, and is removed otherwise, so a failed run leaves no file.
    """
    if not out:
        yield sys.stdout.write
        return
    try:
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out) or ".",
                                   prefix=f".{os.path.basename(out)}.", suffix=".tmp")
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open(out, "w") would give
            yield fh.write
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def partition(text: str) -> tuple:
    """comma-separated parts, e.g. 5,2"""
    # argparse names the type function in its error: "invalid partition value"
    return tuple(int(x) for x in text.replace(" ", "").split(","))


def _json(doc_of):
    """The handler that prints canonical_json(doc_of(args)) and exits 0."""
    return lambda args: (canonical_json(doc_of(args)), 0)


def _cmd_verify(args):
    config = SuiteConfig(max_n=args.max_n, format=args.format, timings=args.timings)
    reports, code = run_suite(args.suite, config)
    return render(args.suite, config, reports), code


def _parabolic_table_rows(max_n: int):
    check_max_n(max_n, max(PARABOLIC_DEGREES))
    if max_n < min(PARABOLIC_DEGREES):
        raise ValueError(f"max_n {max_n} is below the first parabolic degree "
                         f"{min(PARABOLIC_DEGREES)}, so the table would be empty")
    rows = []
    for n in (n for n in PARABOLIC_DEGREES if n <= max_n):
        for kind in ("sym", "alt"):
            res = dickson.standard_parabolic(n, kind)
            rows.append({"n": n, "kind": kind, "rank": res.rank,
                         "order": res.order, "exact": True})
    return rows


def _check_degree(n: int, suite: str):
    """ValueError if n is above the largest degree of the suite's rows of FAMILIES."""
    cap = max(d for key, (ns, _) in FAMILIES.items() if key.startswith(f"{suite}/") for d in ns)
    if n > cap:
        raise ValueError(f"n {n} is above the largest {suite} degree {cap}")


def _perm_irrep_json(args):
    # its difference table takes 2 N^2 dim int64 entries, 16 GB at n = 1000
    _check_degree(args.n, "dickson")
    return dickson.rep_to_json(dickson.perm_irrep(args.n, args.p))


def _module_json(args):
    _check_degree(sum(args.partition), "appendix")
    return snmod.module_to_json(snmod.irreducible_D(args.partition, args.p))


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


def _cmd_decompose(args):
    """The named demo module's free summand count, or the full norm validation."""
    if args.demo:
        rank = {"regular-c2": 1, "regular-k4": 2}[args.demo]
        mats = _regular_module(rank)
        count = oracles.decompose_small_module(mats, group_order=2**rank)
        return canonical_json({"module": args.demo, "dim": mats[0].rows, "free_count": count}), 0
    verdict = oracles.validate_norm_rank(seed=args.seed)
    doc = {"cases": verdict["cases"], "all_match": verdict["all_match"],
           "mismatches": [r["label"] for r in verdict["results"] if not r["match"]]}
    return canonical_json(doc), 0 if verdict["all_match"] else 1


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per verify suite, table, oracle and dump kind; each
    declares the flags its handler reads and nothing else."""
    parser = argparse.ArgumentParser(
        prog="symprep",
        description="exact mod-p verification of symplectic permutation "
                    "representations, classical-group intersection dimensions, "
                    "and symmetric-group Loewy structure")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, fn, **kw):
        p = group.add_parser(name, **kw)
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    pv = leaf(sub, "verify", _cmd_verify, help="run a claim suite and report")
    pv.add_argument("suite", choices=SUITE_NAMES)
    pv.add_argument("--max-n", type=int, default=MAX_DEGREE, dest="max_n",
                    help="largest symmetric-group degree to sweep")
    pv.add_argument("--format", choices=REPORT_FORMATS, default="text")
    pv.add_argument("--timings", action="store_true",
                    help="include runtimes in reports (breaks byte-stability)")

    tables = sub.add_parser("table", help="emit a computed table").add_subparsers(
        dest="name", required=True)
    pt = leaf(tables, "rp", lambda a: (render_rows(classical.grid_rows(), a.format), 0))
    pp = leaf(tables, "parabolic",
              lambda a: (render_rows(_parabolic_table_rows(a.max_n), a.format), 0))
    pp.add_argument("--max-n", type=int, default=max(PARABOLIC_DEGREES), dest="max_n")
    for p in (pt, pp):
        p.add_argument("--format", choices=("csv", "md", "json"), default="csv")

    kinds = sub.add_parser("oracle", help="run an independent brute-force oracle").add_subparsers(
        dest="kind", required=True)
    pe = leaf(kinds, "enum_parabolic", _json(lambda a: oracles.enum_parabolic(a.n, a.group)))
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--group", choices=("sym", "alt"), required=True)
    pc = leaf(kinds, "tableau_count", _json(lambda a: {
        "partition": list(a.partition), "count": oracles.tableau_count(a.partition)}))
    pc.add_argument("--partition", type=partition, required=True, help=partition.__doc__)
    pds = leaf(kinds, "decompose_small_module", _cmd_decompose).add_mutually_exclusive_group()
    pds.add_argument("--demo", default=None, choices=("regular-c2", "regular-k4"),
                     help="decompose a named module instead of validating norm ranks")
    pds.add_argument("--seed", type=int, default=0)

    objects = sub.add_parser(
        "dump", help="serialize a representation or module as canonical JSON").add_subparsers(
        dest="object", required=True)
    pi = leaf(objects, "perm_irrep", _json(_perm_irrep_json))
    pi.add_argument("--n", type=int, default=8)
    pmod = leaf(objects, "module", _json(_module_json))
    pmod.add_argument("--partition", type=partition, required=True, help=partition.__doc__)
    for p in (pi, pmod):
        p.add_argument("--p", type=int, default=2)
    return parser


def main(argv=None) -> int:
    """Run the leaf's handler, which returns (output text, exit code), and write the text."""
    args = build_parser().parse_args(argv)
    try:
        with _output(args.out) as write:
            text, code = args.fn(args)
            write(text)
        return code
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
