"""The three benchmark workloads as lists of independent calls into symprep.

Each call is a (label, thunk) pair whose thunk returns a list of
VerificationReport.  A workload seed only shuffles the order of its calls:
the inputs and the answers never depend on it, but which call pays a module
cache miss does.  symprep is imported inside `calls` so that the launcher can
import this file without importing the package it measures.
"""

from __future__ import annotations

import random

NAMES = ("quadratic-sweep", "parabolic-sweep", "mixed-field")

# verify_appendix treats every degree on its own, so one call per degree gives
# the same claims as one call over the whole range and can be shuffled.
QUADRATIC_NS = (8, 9, 10)
ODD_DEPTH = ((3, range(3, 8)), (5, range(5, 8)))

# Extension-field points of the unipotent-overlap computation: the scalar GF
# path at q = 4..27, which the 36-point lietype grid barely reaches.
EXT_POINTS = (
    ("Sp", 3, 4), ("Sp", 4, 4), ("Sp", 5, 4),
    ("Sp", 3, 8), ("Sp", 4, 8), ("Sp", 3, 9), ("Sp", 4, 9),
    ("SOeven", 4, 4), ("SOeven", 4, 8), ("SOeven", 4, 9), ("SOeven", 5, 4),
    ("SOodd", 3, 9), ("SOodd", 3, 25),
    ("SL", 6, 8), ("SL", 6, 16), ("SL", 5, 27),
)


def suite_config(name: str):
    """The SuiteConfig a workload's reports are rendered with."""
    from symprep.records import SuiteConfig

    return SuiteConfig(max_n=10 if name == "parabolic-sweep" else 12, format="json")


def _appendix(theorem: str, n: int, p: int):
    from symprep import snmod

    return f"{theorem}/p{p}/n{n}", lambda: snmod.verify_appendix(theorem, [n], p)


def _intersection(family: str, m: int, q: int):
    from symprep import classical, records

    def job():
        res = classical.intersection_dim(classical.make_classical(family, m, q))
        return [records.make_report(
            claim_id=f"bench/ext-intersection/{family}/m{m}/q{q}",
            statement="constraint nullity and root span of the unipotent overlap "
                      "agree with the closed form over an extension field",
            inputs={"family": family, "m": m, "q": q},
            expected={"dim": res.closed_form, "span_dim": res.closed_form},
            computed={"dim": res.computed, "span_dim": res.span_dim},
        )]
    return f"intersection/{family}/m{m}/q{q}", job


def _suite(name: str, config):
    from symprep import suites

    return f"suite/{name}", lambda: suites.run_suite(name, config)[0]


def calls(name: str, seed: int) -> list:
    """The workload's calls, in the order the seed picks."""
    if name == "quadratic-sweep":
        out = [_appendix(th, n, 2) for th in ("char2", "char2_alt") for n in QUADRATIC_NS]
    elif name == "parabolic-sweep":
        out = [_suite("dickson", suite_config(name))]
    elif name == "mixed-field":
        out = [_appendix(th, n, p) for th in ("charnot2", "charnot2_alt")
               for p, ns in ODD_DEPTH for n in ns]
        out.append(_suite("lietype", suite_config(name)))
        out += [_intersection(*pt) for pt in EXT_POINTS]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    random.Random(seed).shuffle(out)
    return out
