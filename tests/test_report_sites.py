"""Reports are made only in the claim table: inside the package, make_report
is called in suites.py, where every claim family has its row, and in
records.py, whose job runner turns a raising claim into a fail report."""

import ast
from pathlib import Path

import symprep

PACKAGE = Path(symprep.__file__).resolve().parent


def test_make_report_is_called_only_in_the_table():
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "make_report":
                    calls.setdefault(path.name, []).append(node.lineno)
    assert len(calls.get("suites.py", ())) > 10  # the scan sees the table
    assert set(calls) == {"suites.py", "records.py"}, calls
