"""Verification report records and their serializations.

Every checkable claim in the suites produces one VerificationReport.  JSON
output is canonical: sorted keys, integers and strings only, and timings are
left out unless explicitly requested, so identical configurations give
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Optional

STATUSES = ("pass", "fail", "recorded", "partial")


@dataclass
class VerificationReport:
    claim_id: str
    statement: str
    inputs: dict
    expected: object
    computed: object
    status: str
    runtime_ms: Optional[int] = None  # None until timed

    def __post_init__(self):
        assert self.status in STATUSES, self.status


def make_report(claim_id: str, statement: str, inputs: dict, expected, computed,
                status: Optional[str] = None,
                runtime_ms: Optional[int] = None) -> VerificationReport:
    """Status defaults to pass/fail by comparing computed against expected."""
    if status is None:
        status = "pass" if computed == expected else "fail"
    return VerificationReport(claim_id=claim_id, statement=statement, inputs=inputs,
                              expected=expected, computed=computed, status=status,
                              runtime_ms=runtime_ms)


@dataclass
class SuiteConfig:
    max_n: int = 12
    enum_cap: int = 10**7
    grid: Optional[tuple] = None  # None = the standard (family, m, q) grid
    format: str = "text"  # text | json | csv | md
    out: Optional[str] = None
    seed: int = 0
    jobs: int = 1
    timings: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("out")  # output path must not affect report bytes
        if d["grid"] is not None:
            d["grid"] = [list(pt) for pt in d["grid"]]
        return d


def _plain(value):
    """Recursively convert to JSON-safe builtins; floats are rejected."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        raise TypeError("reports must not contain floats")
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


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
    lines = [",".join(cols)]
    for r in reports:
        d = report_to_dict(r, timings=timings)
        row = []
        for c in cols:
            cell = json.dumps(d[c], sort_keys=True) if not isinstance(d[c], str) else d[c]
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            row.append(cell)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reports_to_markdown(reports: list[VerificationReport]) -> str:
    lines = ["| claim | status | expected | computed |", "|---|---|---|---|"]
    for r in reports:
        d = report_to_dict(r)
        exp = json.dumps(d["expected"], sort_keys=True)
        comp = json.dumps(d["computed"], sort_keys=True)
        lines.append(f"| {r.claim_id} | {r.status} | {exp} | {comp} |")
    return "\n".join(lines) + "\n"


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
        return reports_to_markdown(reports)
    return reports_to_text(reports, timings=config.timings)


def render_rows(rows: list[dict], fmt: str) -> str:
    """A table of flat rows with one set of keys, as json, md or csv."""
    if fmt == "json":
        return canonical_json(rows)
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    if fmt == "md":
        lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        lines += ["| " + " | ".join(str(r[c]) for c in cols) + " |" for r in rows]
    else:
        lines = [",".join(cols)]
        lines += [",".join(str(r[c]).lower() if isinstance(r[c], bool) else str(r[c])
                           for c in cols) for r in rows]
    return "\n".join(lines) + "\n"
