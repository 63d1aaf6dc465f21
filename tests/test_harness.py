"""Report records, suite execution, output formats, determinism guarantees,
and the command line entry point."""

import json
import subprocess
import sys
import time

import pytest

from symprep.records import (STATUSES, SuiteConfig, VerificationReport,
                             exit_code, make_report, render, report_to_dict,
                             reports_to_csv, reports_to_json, summarize)
from symprep.suites import SUITE_NAMES, _run_jobs, run_suite


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
    with pytest.raises(AssertionError):
        make_report("x", "s", {}, 1, 1, status="unknown")


def test_plain_value_guard():
    with pytest.raises(TypeError):
        # floats are not reproducible; rejected when the report is serialized
        report_to_dict(make_report("x", "s", {"t": 0.5}, 1, 1))
    report_to_dict(make_report("x", "s", {"t": [1, "two", True, None]}, 1, 1))


def test_report_dict_timings_toggle():
    r = VerificationReport("a", "s", {}, 1, 1, "pass", runtime_ms=42)
    assert "runtime_ms" not in report_to_dict(r)
    assert report_to_dict(r, timings=True)["runtime_ms"] == 42


def test_run_jobs_keeps_a_zero_runtime():
    """Only reports whose runtime was never set get the job's total."""
    def job():
        time.sleep(0.02)
        return [make_report("a", "s", {}, 1, 1, runtime_ms=0),
                make_report("b", "s", {}, 1, 1)]

    def raising():
        raise RuntimeError("boom")

    timed, untimed, failed = _run_jobs([("j", job), ("r", raising)], SuiteConfig())
    assert timed.runtime_ms == 0
    assert untimed.runtime_ms >= 20
    assert failed.status == "fail" and failed.runtime_ms is not None


def test_summary_and_exit_codes():
    rs = [_sample(), _sample("recorded"), _sample("partial")]
    s = summarize(rs)
    assert s == {"pass": 1, "fail": 0, "recorded": 1, "partial": 1}
    assert exit_code(rs) == 0
    assert exit_code(rs + [_sample("auto", computed=9)]) == 1


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


def test_parallel_jobs_order_stable():
    base = SuiteConfig(max_n=6, grid=())
    par = SuiteConfig(max_n=6, grid=(), jobs=4)
    r1, _ = run_suite("appendix", base)
    r2, _ = run_suite("appendix", par)
    assert [r.claim_id for r in r1] == [r.claim_id for r in r2]
    assert [r.computed for r in r1] == [r.computed for r in r2]


def test_lietype_restricted_grid():
    cfg = SuiteConfig(grid=(("SL", 3, 2), ("Sp", 2, 3)))
    reports, code = run_suite("lietype", cfg)
    assert code == 0
    assert [r.claim_id for r in reports] == ["lietype/SL/m3/q2", "lietype/Sp/m2/q3"]
    assert all(r.status == "pass" for r in reports)


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "symprep.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_verify_json():
    code, out, _ = _cli("verify", "lietype", "--max-n", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "lietype"
    assert doc["summary"]["fail"] == 0


def test_cli_verify_deterministic(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    cfg = ("verify", "dickson", "--max-n", "5", "--format", "json")
    code1, _, _ = _cli(*cfg, "--out", str(a))
    code2, _, _ = _cli(*cfg, "--out", str(b))
    code3, _, _ = _cli(*cfg, "--out", str(c), "--jobs", "2")
    assert code1 == code2 == code3 == 0
    # identical config: byte-identical files
    assert a.read_bytes() == b.read_bytes()
    # different worker count is echoed in the config block, but the claims
    # themselves must be byte-for-byte the same
    da, dc = json.loads(a.read_text()), json.loads(c.read_text())
    assert json.dumps(da["claims"]) == json.dumps(dc["claims"])
    assert da["summary"] == dc["summary"]


def test_cli_table_rp_csv():
    code, out, _ = _cli("table", "rp")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,m,q,computed,closed_form,match"
    assert len(lines) == 37  # header + 36 grid points
    assert all(line.endswith("true") for line in lines[1:])


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


def test_cli_bad_args_exit_2():
    code, _, err = _cli("verify", "bogus-suite")
    assert code == 2
    code, _, _ = _cli("table", "rp", "--format", "yaml")
    assert code == 2
    code, _, _ = _cli("oracle", "enum_parabolic", "--n", "99")
    assert code == 2


def test_cli_failed_check_exits_1(monkeypatch, capsys):
    from symprep import classical, cli

    monkeypatch.setattr(classical, "group_membership", lambda mat, spec: False)
    assert cli.main(["table", "rp"]) == 1
    assert capsys.readouterr().err.startswith("check failed: root element")


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
def test_cli_table_rp_and_dump_grid_same_bytes(fmt, capsys):
    from symprep import cli

    assert cli.main(["table", "rp", "--format", fmt]) == 0
    table = capsys.readouterr().out
    assert cli.main(["dump", "grid", "--format", fmt]) == 0
    assert capsys.readouterr().out == table
