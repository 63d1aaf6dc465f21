"""Report records, suite execution, output formats, determinism guarantees,
and the command line entry point."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import symprep
from symprep.records import (STATUSES, SuiteConfig, VerificationReport,
                             exit_code, make_report, render, report_to_dict,
                             reports_to_csv, reports_to_json, run_jobs,
                             summarize)
from symprep.suites import SUITE_NAMES, run_suite


def _sample(status="pass", computed=3):
    return make_report(
        claim_id="demo/thing/n5", statement="a demo claim",
        inputs={"n": 5}, expected=3, computed=computed,
        status=None if status == "auto" else status,
    )


def test_make_report_status_from_equality():
    assert _sample("auto", computed=3).status == "pass"
    assert _sample("auto", computed=4).status == "fail"
    assert _sample("recorded").status == "recorded"
    with pytest.raises(ValueError):
        make_report("x", "s", {}, 1, 1, status="unknown")


def test_plain_value_guard():
    with pytest.raises(TypeError):
        # floats are not reproducible; rejected when the report is serialized
        report_to_dict(make_report("x", "s", {"t": 0.5}, 1, 1))
    # numpy scalars would otherwise turn into their str
    for value in (np.int8(3), np.int64(3), np.bool_(True)):
        with pytest.raises(TypeError):
            report_to_dict(make_report("x", "s", {"t": [value]}, 1, 1))
        with pytest.raises(TypeError):
            report_to_dict(make_report("x", "s", {}, value, 1))
    report_to_dict(make_report("x", "s", {"t": [1, "two", True, None]}, 1, 1))


def test_report_dict_timings_toggle():
    r = VerificationReport("a", "s", {}, 1, 1, "pass", runtime_ms=42)
    assert "runtime_ms" not in report_to_dict(r)
    assert report_to_dict(r, timings=True)["runtime_ms"] == 42


def test_run_jobs_times_each_job_and_fails_alone():
    def slow():
        time.sleep(0.02)
        return make_report("a", "s", {}, 1, 1)

    def raising():
        raise RuntimeError("boom")

    reports = run_jobs([("a", slow), ("b", raising), ("c", lambda: None),
                        ("d", lambda: make_report("d", "s", {}, 1, 1))])
    assert [r.claim_id for r in reports] == ["a", "b", "d"]
    assert [r.status for r in reports] == ["pass", "fail", "pass"]
    assert reports[0].runtime_ms >= 20 and reports[2].runtime_ms < 20
    assert "boom" in reports[1].computed
    assert all(isinstance(r.runtime_ms, int) for r in reports)


def test_report_under_another_claim_id_fails_under_its_jobs_id():
    reports = run_jobs([("a", lambda: make_report("b", "s", {}, 1, 1)),
                        ("c", lambda: make_report("c", "s", {}, 1, 1))])
    assert [(r.claim_id, r.status) for r in reports] == [("a", "fail"), ("c", "pass")]
    assert "the job of a reported b" in reports[0].computed


def test_raising_job_reports_where_it_raised():
    from symprep import snmod

    (report,) = run_jobs([("bad", lambda: snmod.check_partition((0,)))])
    where = report.inputs["raised_at"]
    assert report.status == "fail" and report.computed.startswith("ValueError(")
    assert 2 <= len(where) <= 3 and where[0].startswith("test_harness.py:")
    assert where[-1].startswith("snmod.py:") and where[-1].endswith(" in check_partition")


def test_appendix_timings_are_per_claim():
    reports, _ = run_suite("appendix", SuiteConfig(max_n=6, timings=True))
    assert len(reports) > 10
    assert all(type(r.runtime_ms) is int and r.runtime_ms >= 0 for r in reports)


def test_summary_and_exit_codes():
    rs = [_sample(), _sample("recorded")]
    s = summarize(rs)
    assert s == {"pass": 1, "fail": 0, "recorded": 1}
    assert exit_code(rs) == 0
    assert exit_code(rs + [_sample("auto", computed=9)]) == 1
    with pytest.raises(ValueError):
        make_report("x", "s", {}, 1, 1, status="partial")


def test_json_schema_top_level():
    cfg = SuiteConfig(max_n=0, grid=())
    doc = json.loads(reports_to_json("all", cfg, []))
    assert set(doc) == {"suite", "config", "claims", "summary"}
    assert doc["claims"] == []
    assert set(doc["summary"]) == set(STATUSES)
    assert "out" not in doc["config"]


def test_csv_render():
    text = reports_to_csv([_sample()])
    lines = text.strip().split("\n")
    assert lines[0].startswith("claim_id,")
    assert lines[1].startswith("demo/thing/n5,")


def test_render_formats():
    cfg = SuiteConfig(max_n=0, grid=(), format="md")
    assert "|" in render("all", cfg, [_sample()])
    cfg = SuiteConfig(max_n=0, grid=(), format="text")
    out = render("all", cfg, [_sample()])
    assert "pass" in out and "demo/thing/n5" in out


def test_markdown_runtime_column_only_under_timings():
    r = _sample()
    r.runtime_ms = 7
    plain = render("all", SuiteConfig(max_n=0, grid=(), format="md"), [r])
    assert plain == ("| claim | status | expected | computed |\n|---|---|---|---|\n"
                     "| demo/thing/n5 | pass | 3 | 3 |\n")
    timed = render("all", SuiteConfig(max_n=0, grid=(), format="md", timings=True), [r])
    assert timed == ("| claim | status | expected | computed | runtime_ms |\n"
                     "|---|---|---|---|---|\n| demo/thing/n5 | pass | 3 | 3 | 7 |\n")
    csv = render("all", SuiteConfig(max_n=0, grid=(), format="csv", timings=True), [r])
    assert csv.splitlines()[0].endswith(",runtime_ms") and csv.splitlines()[1].endswith(",7")


def test_suite_config_rejects_unknown_format():
    with pytest.raises(ValueError, match="yaml"):
        SuiteConfig(max_n=12, format="yaml")


def test_suite_config_max_n_has_no_default():
    """A config without max_n would not follow suites.MAX_DEGREE when a cap is raised."""
    with pytest.raises(TypeError, match="max_n"):
        SuiteConfig()


def test_empty_suite_contract():
    reports, code = run_suite("all", SuiteConfig(max_n=0, grid=()))
    assert reports == [] and code == 0


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")
    assert set(SUITE_NAMES) == {"dickson", "lietype", "appendix", "all"}


def test_small_suite_deterministic_bytes():
    cfg1 = SuiteConfig(max_n=6, grid=())
    reports1, code1 = run_suite("dickson", cfg1)
    out1 = reports_to_json("dickson", cfg1, reports1)
    reports2, code2 = run_suite("dickson", SuiteConfig(max_n=6, grid=()))
    out2 = reports_to_json("dickson", SuiteConfig(max_n=6, grid=()), reports2)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical


def test_lietype_restricted_grid():
    cfg = SuiteConfig(max_n=12, grid=(("SL", 3, 2), ("Sp", 2, 3)))
    reports, code = run_suite("lietype", cfg)
    assert code == 0
    assert [r.claim_id for r in reports] == ["lietype/SL/m3/q2", "lietype/Sp/m2/q3"]
    assert all(r.status == "pass" for r in reports)


def _cli(*args):
    """(exit code, stdout, stderr) of cli.main run in this process; an
    argparse error arrives as SystemExit(2)."""
    from symprep import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_verify_json():
    # the entry point as installed, in a fresh interpreter
    proc = subprocess.run([sys.executable, "-m", "symprep.cli", "verify", "lietype",
                           "--max-n", "0", "--format", "json"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["suite"] == "lietype"
    assert doc["summary"]["fail"] == 0


def test_python_m_symprep_runs_the_cli():
    args = ("verify", "dickson", "--max-n", "5", "--format", "json")
    proc = subprocess.run([sys.executable, "-m", "symprep", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = _cli(*args)
    assert code == 0 and proc.stdout == out


def test_cli_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cfg = ("verify", "dickson", "--max-n", "5", "--format", "json")
    code1, _, _ = _cli(*cfg, "--out", str(a))
    code2, _, _ = _cli(*cfg, "--out", str(b))
    assert code1 == code2 == 0
    # identical config: byte-identical files
    assert a.read_bytes() == b.read_bytes()


# sha256 of `verify appendix --max-n N --format json`; 12 is the default
_APPENDIX_DIGESTS = {
    10: "a36a6b6a8cc22113d7e1e7761e61e783cad5c5e9c23c8a3934594a3d312f3105",
    12: "d8cf618777726afb66ab1bcbd6436331580942c9b4e185eb24d470416d7f7bd1",
}


@pytest.mark.parametrize("max_n", sorted(_APPENDIX_DIGESTS))
def test_appendix_report_bytes_are_pinned(max_n):
    """The appendix report at --max-n 10 and 12, byte for byte; n = 11, 12
    run the largest GF(2) relation checks and Loewy series.  A change that
    adds or changes an appendix claim updates these digests and says so in
    CHANGES.md; any other change must leave them as they are."""
    code, out, _ = _cli("verify", "appendix", "--max-n", str(max_n), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _APPENDIX_DIGESTS[max_n]


_DICKSON_DIGEST = "9a958e24545766ef2f93b0ee9c8830454713dad8cf8b83ba440f68d05a08720c"


def test_dickson_report_bytes_are_pinned():
    """The dickson report at --max-n 10, byte for byte, with the rank-search
    and parabolic witnesses it echoes.  A change that adds or changes a
    dickson claim updates this digest and says so in CHANGES.md."""
    code, out, _ = _cli("verify", "dickson", "--max-n", "10", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DICKSON_DIGEST


_LIETYPE_DIGEST = "6f1f5d7553e1605ba234f5b4bdbb77ee4b1f78c6e38dee8af8a652be82de72c7"


def test_lietype_report_bytes_are_pinned():
    """The lietype report, byte for byte, with the extension-field
    eliminations of its overlap grid.  A change that adds or changes a
    lietype claim updates this digest and says so in CHANGES.md."""
    code, out, _ = _cli("verify", "lietype", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _LIETYPE_DIGEST


# sha256 of json.dumps({"<suite>/<max_n>": claim ids}, sort_keys=True) over
# dickson, lietype and appendix at every max_n from 0 to 12
_CLAIM_LIST_DIGEST = "f1676e1416feb6c455cea3affb259645f3acac12ab9d9247ec003c43c136a5de"


def test_claim_lists_are_pinned():
    """Every suite's claim ids, in order, at every --max-n, built from the
    family table without running a claim.  A change that adds, drops or moves
    a claim updates this digest and says so in CHANGES.md."""
    from symprep import suites

    names = ("dickson", "lietype", "appendix")
    ids = {f"{name}/{m}": [claim_id for claim_id, _ in suites.suite_jobs(name, SuiteConfig(max_n=m))]
           for name in names for m in range(13)}
    assert sum(map(len, ids.values())) == 1768
    assert [len(ids[f"{name}/12"]) for name in names] == [41, 40, 160]
    assert ids["dickson/4"] == ids["appendix/3"] == []
    digest = hashlib.sha256(json.dumps(ids, sort_keys=True).encode()).hexdigest()
    assert digest == _CLAIM_LIST_DIGEST


def test_appendix_rows_give_the_same_jobs_through_both_entry_points():
    """The appendix suite is its rows' jobs in table order, and the lookup
    behind verify_appendix gives each appendix/{theorem}/p{p} row's claim ids
    at its degrees, in order, whatever order the degrees come in.  No claim
    runs."""
    from symprep import suites

    config = SuiteConfig(max_n=suites.MAX_DEGREE)
    by_rows, looked_up = [], 0
    for key, (degrees, jobs) in suites.FAMILIES.items():
        if not key.startswith("appendix/"):
            continue
        ids = [claim_id for claim_id, _ in jobs(list(degrees), config)]
        by_rows += ids
        if key.count("/") == 2:
            theorem, p = key.split("/")[1], int(key.rsplit("/p", 1)[1])
            for ns in (degrees, list(reversed(degrees)) * 2):
                assert [claim_id for claim_id, _ in suites.appendix_jobs(theorem, ns, p)] == ids
            looked_up += 1
    assert looked_up == 8
    assert by_rows == [claim_id for claim_id, _ in suites.suite_jobs("appendix", config)]
    assert [claim_id for claim_id, _ in suites.appendix_jobs("H2kproj", [], 2)] == [
        "appendix/norm-rank-validation", *(f"appendix/spin-restriction-dim/k{k}" for k in range(1, 5)),
        "appendix/spin-tensor-recursion"]


def test_cli_dickson_config_and_exact_claims(capsys):
    from symprep import cli, suites

    assert cli.main(["verify", "dickson", "--max-n", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["config"]) == {"format", "grid", "max_n", "timings"}
    claims = run_jobs([suites._parabolic_job(n, kind)
                       for n in range(5, 13) for kind in ("sym", "alt")])
    assert not [c.claim_id for c in claims if c.inputs.get("exact") is not True]
    ranks = {c.claim_id: (c.computed, c.inputs["order"]) for c in claims if c.status == "pass"}
    assert len(ranks) == 16
    for tag, want in (("S11", (5, 32)), ("A11", (4, 16)), ("S12", (6, 64)), ("A12", (5, 32))):
        assert ranks[f"dickson/parabolic-rank/{tag}"] == want


# a flag of another kind of the same command, which this kind does not read
_UNREAD_FLAGS = [
    ("table", "rp", "--max-n", "5"),
    ("oracle", "enum_parabolic", "--n", "6", "--group", "sym", "--partition", "5,2"),
    ("oracle", "enum_parabolic", "--n", "6", "--group", "sym", "--demo", "regular-c2"),
    ("oracle", "enum_parabolic", "--n", "6", "--group", "sym", "--seed", "3"),
    ("oracle", "tableau_count", "--partition", "5,2", "--n", "5"),
    ("oracle", "tableau_count", "--partition", "5,2", "--group", "sym"),
    ("oracle", "tableau_count", "--partition", "5,2", "--demo", "regular-c2"),
    ("oracle", "tableau_count", "--partition", "5,2", "--seed", "3"),
    ("oracle", "decompose_small_module", "--n", "5"),
    ("oracle", "decompose_small_module", "--group", "sym"),
    ("oracle", "decompose_small_module", "--partition", "5,2"),
    ("dump", "perm_irrep", "--partition", "5,2"),
    ("dump", "module", "--partition", "5,2", "--n", "5"),
]


@pytest.mark.parametrize("args", [("verify", "dickson", "--jobs", "2"),
                                  ("verify", "dickson", "--enum-cap", "5"),
                                  ("verify", "dickson", "--seed", "3"),
                                  ("table", "parabolic", "--enum-cap", "5"),
                                  ("dump", "grid"),
                                  ("dump", "module", "--partition", "3,2", "--format", "json"),
                                  *_UNREAD_FLAGS,
                                  ("oracle", "decompose_small_module", "--demo", "regular-c2",
                                   "--seed", "1")])
def test_cli_removed_flags_exit_2(args):
    """A flag the command does not read, or --seed beside --demo, which draws
    nothing at random, is bad input: exit 2 with an error line."""
    code, out, err = _cli(*args)
    assert code == 2 and out == "", args
    line = next(x for x in err.splitlines() if "error: " in x)
    assert line.split("error: ", 1)[1].strip(), args


_LEAF_FLAGS = {
    ("verify",): {"--max-n", "--format", "--out", "--timings"},
    ("table", "rp"): {"--format", "--out"},
    ("table", "parabolic"): {"--max-n", "--format", "--out"},
    ("oracle", "enum_parabolic"): {"--n", "--group", "--out"},
    ("oracle", "tableau_count"): {"--partition", "--out"},
    ("oracle", "decompose_small_module"): {"--demo", "--seed", "--out"},
    ("dump", "perm_irrep"): {"--n", "--p", "--out"},
    ("dump", "module"): {"--partition", "--p", "--out"},
}


def test_cli_leaf_flag_sets_are_pinned():
    """Every leaf command's flags, read off the parser: a flag that its handler
    does not read must not come back."""
    import argparse

    from symprep import cli

    def leaves(parser, path=()):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, path + (name,))

    flags = dict(leaves(cli.build_parser()))
    assert flags == _LEAF_FLAGS
    assert sum(map(len, flags.values())) == 23


@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_cli_unwritable_out_exits_2(tmp_path, where):
    """An --out that cannot be opened is bad input: one error line, no file."""
    target = tmp_path / where
    code, out, err = _cli("table", "rp", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_cli_bad_out_exits_2_before_the_work(monkeypatch, tmp_path):
    """An --out in a missing directory is refused before any claim runs."""
    from symprep import cli

    def never(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", never)
    code, out, err = _cli("verify", "all", "--format", "json",
                          "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_out_leaves_only_the_target(tmp_path):
    target = tmp_path / "x.csv"
    code, out, _ = _cli("table", "rp", "--out", str(target))
    assert code == 0 and out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    assert target.read_text(encoding="utf-8") == _cli("table", "rp")[1]
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(target).st_mode & 0o777 == 0o666 & ~umask


def test_cli_failed_check_leaves_out_untouched(monkeypatch, tmp_path):
    """A run that a failed check ends writes nothing: a new --out is not
    created, and an old one keeps its bytes."""
    from symprep import cli
    from symprep.checks import CheckFailed

    def failing(*args):
        raise CheckFailed("planted")

    monkeypatch.setattr(cli, "run_suite", failing)
    target = tmp_path / "x.json"
    assert _cli("verify", "dickson", "--out", str(target)) == (1, "", "check failed: planted\n")
    assert list(tmp_path.iterdir()) == []
    target.write_text("kept\n", encoding="utf-8")
    assert _cli("verify", "dickson", "--out", str(target)) == (1, "", "check failed: planted\n")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text(encoding="utf-8") == "kept\n"


def test_cli_table_rp_csv():
    code, out, _ = _cli("table", "rp")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,m,q,computed,closed_form,match"
    assert len(lines) == 37  # header + 36 grid points
    assert all(line.endswith("true") for line in lines[1:])


# sha256 of `table rp --format F`
_TABLE_RP_DIGESTS = {
    "csv": "0e69de29f673d56d28d9498bd1f6937ce0b75923c39e35d712d55192e4037a24",
    "md": "b398a45a1e9ff24b0bbf67ddca188337d787129cfb226778545859ca66fa884c",
    "json": "56d39e2cd1621c77206d923579fc8d3a3ed0e4e74b4eb0fb04c0729319502215",
}


@pytest.mark.parametrize("fmt", sorted(_TABLE_RP_DIGESTS))
def test_cli_table_rp_bytes_are_pinned(fmt):
    """`table rp` in every format, byte for byte: the six columns of
    `classical.grid_rows` over the 36 grid points."""
    code, out, _ = _cli("table", "rp", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_RP_DIGESTS[fmt]


def test_cli_oracle_tableaux():
    code, out, _ = _cli("oracle", "tableau_count", "--partition", "5,2")
    assert code == 0
    assert json.loads(out)["count"] == 14


def test_cli_oracle_enum():
    code, out, _ = _cli("oracle", "enum_parabolic", "--n", "6", "--group", "sym")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3 and doc["order"] == 8


def test_cli_oracle_decompose_demo():
    code, out, _ = _cli("oracle", "decompose_small_module", "--demo", "regular-c2")
    assert code == 0
    assert json.loads(out)["free_count"] == 1


def test_cli_dump_module():
    code, out, _ = _cli("dump", "module", "--partition", "3,2", "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "gmodule" and doc["dim"] == 4


def test_cli_dump_perm_irrep():
    from symprep.dickson import perm_irrep, rep_to_json
    from symprep.records import canonical_json

    code, out, _ = _cli("dump", "perm_irrep", "--n", "6", "--p", "2")
    assert code == 0
    assert out == canonical_json(rep_to_json(perm_irrep(6, 2)))
    doc = json.loads(out)
    assert doc["dim"] == 4 and doc["faithful"] is True


def test_cli_dump_perm_irrep_above_the_dickson_rows_exits_2(monkeypatch):
    """--n above the dickson rows' largest degree is refused before the
    permutation irreducible's difference table is built."""
    from symprep import dickson, suites

    def no_table(n, p):
        raise AssertionError(f"difference table of S_{n} built")

    monkeypatch.setattr(dickson, "_difference_table", no_table)
    cap = max(n for key, (degrees, _) in suites.FAMILIES.items() if key.startswith("dickson/")
              for n in degrees)
    assert cap == 12
    for n in ("13", "1000"):
        code, out, err = _cli("dump", "perm_irrep", "--n", n)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: n {n} is above")


def test_cli_dump_module_above_the_appendix_rows_exits_2(monkeypatch):
    """A --partition of n above the appendix rows' largest degree is refused
    before any tabloid is built, as perm_irrep is above the dickson rows."""
    from symprep import snmod, suites

    def no_tabloids(lam):
        raise AssertionError(f"tabloids of {lam} built")

    monkeypatch.setattr(snmod, "_tabloids", no_tabloids)
    cap = max(n for key, (degrees, _) in suites.FAMILIES.items() if key.startswith("appendix/")
              for n in degrees)
    assert cap == 12
    for parts in ("7,6", "12,1"):
        code, out, err = _cli("dump", "module", "--partition", parts)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: n 13 is above")


def test_library_builds_above_the_appendix_rows():
    """The degree caps live in suites.FAMILIES alone: the library builds modules at n = 13."""
    from symprep import snmod

    assert snmod.basic_spin_restriction(6).dim == 64
    assert snmod.irreducible_D((12, 1), 2).dim == 12


def test_tabloid_codes_that_overflow_int64_are_refused(monkeypatch):
    """(30, 1, 1, 1, 1) has 5^34 > 2^63 codes but only 1,113,024 tabloids: the
    code check refuses it before any row word is listed, so no code wraps."""
    from symprep import snmod

    def no_words(lam):
        raise AssertionError(f"row words of {lam} listed")

    monkeypatch.setattr(snmod, "_tabloid_words", no_words)
    with pytest.raises(ValueError, match=r"tabloid codes of \(30, 1, 1, 1, 1\) overflow int64"):
        snmod.specht_module((30, 1, 1, 1, 1), 5)


def test_cli_bad_args_exit_2():
    code, _, err = _cli("verify", "bogus-suite")
    assert code == 2
    code, _, _ = _cli("table", "rp", "--format", "yaml")
    assert code == 2
    code, _, _ = _cli("oracle", "enum_parabolic", "--n", "99", "--group", "sym")
    assert code == 2
    for argv in (("oracle", "tableau_count", "--partition", "a,b"),
                 ("oracle", "enum_parabolic", "--n", "6"),
                 ("oracle", "enum_parabolic", "--n", "4", "--group", "sym"),
                 ("dump", "module"),
                 ("oracle", "decompose_small_module", "--demo", "bogus"),
                 ("verify", "dickson", "--max-n", "13"),
                 ("verify", "appendix", "--max-n", "13"),
                 ("verify", "lietype", "--max-n", "13"),
                 ("table", "parabolic", "--max-n", "13"),
                 ("verify", "all", "--max-n", "-5"),
                 ("table", "parabolic", "--max-n", "-1"),
                 ("table", "parabolic", "--max-n", "4"),
                 ("table", "parabolic", "--max-n", "0")):
        code, _, err = _cli(*argv)
        assert code == 2, argv
        line = next(x for x in err.splitlines() if "error: " in x)
        assert line.split("error: ", 1)[1].strip(), argv


_BAD_INPUT = """
import sys
from symprep import cli
if not sys.flags.optimize:
    sys.exit(3)
print(cli.main(["dump", "module", "--partition", "3,0", "--p", "2"]),
      cli.main(["oracle", "tableau_count", "--partition", "2,3"]))
"""


def test_cli_bad_input_exits_2_under_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_INPUT],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2"]
    assert proc.stderr.count("error: ") == 2 and "error: \n" not in proc.stderr


def test_cli_failed_check_exits_1(monkeypatch, capsys):
    from symprep import classical, cli

    monkeypatch.setattr(classical, "group_membership", lambda mat, spec: False)
    assert cli.main(["table", "rp"]) == 1
    assert capsys.readouterr().err.startswith("check failed: root element")


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
def test_cli_table_rp_formats(fmt, capsys):
    from symprep import cli

    assert cli.main(["table", "rp", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        rows = json.loads(out)
        assert len(rows) == 36 and all(r["match"] is True for r in rows)
        assert list(rows[0]) == ["closed_form", "computed", "family", "m", "match", "q"]
        return
    lines = out.strip().split("\n")
    head = {"csv": "family,m,q,computed,closed_form,match",
            "md": "| family | m | q | computed | closed_form | match |"}[fmt]
    assert lines[0] == head
    assert len(lines) == {"csv": 37, "md": 38}[fmt]  # header (+ rule) + 36 grid points
    assert all(line.rstrip(" |").endswith("True" if fmt == "md" else "true")
               for line in lines[-36:])


_LAYER_TRACE = """
import layers
from symprep.snmod import verify_appendix
trace = layers.Trace()
layers.install(trace)
reports = verify_appendix("char2", [8], 2)
_, calls = trace.totals()
print(len(reports), [r.status for r in reports], calls["linalg.quotient"] > 0)
"""


def test_layer_trace_installs_and_sees_the_quotient():
    """perfbench/layers.py still finds every name it wraps, and a traced
    quadratic sweep passes with its Loewy steps inside linalg.quotient."""
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    bench = os.path.join(os.path.dirname(src), "perfbench")
    proc = subprocess.run([sys.executable, "-c", _LAYER_TRACE],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, bench])),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "['pass']", "True"]
