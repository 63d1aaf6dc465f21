"""Verification report records and their serializations.

Every checkable claim in the suites produces one VerificationReport.  JSON
output is canonical: sorted keys, integers and strings only, and timings are
left out unless explicitly requested, so identical configurations give
byte-identical files.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, asdict
from typing import Optional

STATUSES = ("pass", "fail", "recorded")
REPORT_FORMATS = ("text", "json", "csv", "md")


@dataclass
class VerificationReport:
    claim_id: str
    statement: str
    inputs: dict
    expected: object
    computed: object
    status: str
    runtime_ms: Optional[int] = None  # stamped by run_jobs

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}; choose from {STATUSES}")


def make_report(claim_id: str, statement: str, inputs: dict, expected, computed,
                status: Optional[str] = None) -> VerificationReport:
    """Status defaults to pass/fail by comparing computed against expected."""
    if status is None:
        status = "pass" if computed == expected else "fail"
    return VerificationReport(claim_id=claim_id, statement=statement, inputs=inputs,
                              expected=expected, computed=computed, status=status)


def run_jobs(jobs) -> list[VerificationReport]:
    """Run (claim_id, thunk) jobs in order and stamp each report's runtime.

    A thunk returns one VerificationReport under its job's claim id, or None
    when it has nothing to claim.  A raising thunk, or one whose report has
    another claim id, becomes a fail report under its job's claim id whose
    `raised_at` input lists the innermost three frames below this one as
    "file.py:LINE in func", and the jobs after it still run.
    """
    out = []
    for claim_id, fn in jobs:
        t0 = time.monotonic()
        try:
            r = fn()
            if r is not None and r.claim_id != claim_id:
                raise ValueError(f"the job of {claim_id} reported {r.claim_id}")
        except Exception as exc:  # surface as a fail report, keep the run going
            frames = traceback.extract_tb(exc.__traceback__.tb_next)[-3:]  # not run_jobs
            where = [f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}" for f in frames]
            r = make_report(claim_id=claim_id, statement="claim evaluation raised an exception",
                            inputs={"raised_at": where}, expected="no exception",
                            computed=repr(exc), status="fail")
        if r is not None:
            r.runtime_ms = int((time.monotonic() - t0) * 1000)
            out.append(r)
    return out


@dataclass
class SuiteConfig:
    max_n: int  # no default: records cannot read the cap, suites.MAX_DEGREE
    grid: Optional[tuple] = None  # None = the standard (family, m, q) grid
    format: str = "text"  # one of REPORT_FORMATS
    timings: bool = False

    def __post_init__(self):
        if self.format not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {self.format!r}; "
                             f"choose from {REPORT_FORMATS}")

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["grid"] is not None:
            d["grid"] = [list(pt) for pt in d["grid"]]
        return d


def _plain(value):
    """Recursively convert to JSON-safe builtins.

    Floats and every type other than bool, int, str, None, dict, list and
    tuple are rejected: a numpy scalar would otherwise pass as its str, so
    np.int8(3) would become "3" and change the report's JSON type silently.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        raise TypeError("reports must not contain floats")
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    raise TypeError(f"reports hold bool, int, str and None in dicts and lists, "
                    f"not {type(value).__name__}")


def report_to_dict(r: VerificationReport, timings: bool = False) -> dict:
    d = {
        "claim_id": r.claim_id,
        "statement": r.statement,
        "inputs": _plain(r.inputs),
        "expected": _plain(r.expected),
        "computed": _plain(r.computed),
        "status": r.status,
    }
    if timings:
        d["runtime_ms"] = None if r.runtime_ms is None else int(r.runtime_ms)
    return d


def summarize(reports: list[VerificationReport]) -> dict:
    return {s: sum(1 for r in reports if r.status == s) for s in STATUSES}


def exit_code(reports: list[VerificationReport]) -> int:
    return 1 if any(r.status == "fail" for r in reports) else 0


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reports_to_json(suite: str, config: SuiteConfig, reports: list[VerificationReport]) -> str:
    doc = {
        "suite": suite,
        "config": config.to_dict(),
        "claims": [report_to_dict(r, timings=config.timings) for r in reports],
        "summary": summarize(reports),
    }
    return canonical_json(doc)


def reports_to_csv(reports: list[VerificationReport], timings: bool = False) -> str:
    cols = ["claim_id", "status", "expected", "computed"]
    if timings:
        cols.append("runtime_ms")
    dicts = [report_to_dict(r, timings=timings) for r in reports]
    return _table(cols, [[d[c] for c in cols] for d in dicts], "csv")


def reports_to_markdown(reports: list[VerificationReport], timings: bool = False) -> str:
    cols = ["expected", "computed"] + (["runtime_ms"] if timings else [])
    rows = []
    for r in reports:
        d = report_to_dict(r, timings=timings)
        rows.append([r.claim_id, r.status] + [json.dumps(d[c], sort_keys=True) for c in cols])
    return _table(["claim", "status"] + cols, rows, "md")


def reports_to_text(reports: list[VerificationReport], timings: bool = False) -> str:
    lines = []
    for r in reports:
        extra = f"  [{r.runtime_ms} ms]" if timings else ""
        lines.append(f"{r.status.upper():>8}  {r.claim_id}: expected {r.expected!r}, "
                     f"computed {r.computed!r}{extra}")
    s = summarize(reports)
    lines.append(f"total {len(reports)}: " + ", ".join(f"{v} {k}" for k, v in s.items() if v))
    return "\n".join(lines) + "\n"


def render(suite: str, config: SuiteConfig, reports: list[VerificationReport]) -> str:
    if config.format == "json":
        return reports_to_json(suite, config, reports)
    if config.format == "csv":
        return reports_to_csv(reports, timings=config.timings)
    if config.format == "md":
        return reports_to_markdown(reports, timings=config.timings)
    return reports_to_text(reports, timings=config.timings)


def _csv_cell(value) -> str:
    """A string as it is, anything else as sorted-key JSON; quoted when it
    holds a comma or a double quote."""
    cell = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    if "," in cell or '"' in cell:
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


def _table(cols: list, rows: list, fmt: str) -> str:
    """Header plus one line per row of cells, as md (cells as str) or csv."""
    if fmt == "md":
        lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    else:
        lines = [",".join(cols)]
        lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def render_rows(rows: list[dict], fmt: str) -> str:
    """A table of flat rows with one set of keys, as json, md or csv."""
    if fmt == "json":
        return canonical_json(rows)
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    return _table(cols, [[r[c] for c in cols] for r in rows], fmt)
