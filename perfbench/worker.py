"""One run of one workload in a fresh interpreter, so every module cache
starts empty, as it does for a command-line user.

Prints one JSON line: the run's time from the first call into symprep to
the last rendered report, as wall seconds and as seconds at the reference
speed (speed.py), the process's peak resident memory, the claims that did not
match the golden report, and with --trace the per-layer values.

    python3 perfbench/worker.py --workload mixed-field --seed 7 [--trace]
    python3 perfbench/worker.py --workload mixed-field --write-golden
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def golden_path(name: str) -> Path:
    return HERE / "golden" / f"{name}.json"


def claim_table(rendered: str) -> tuple[dict, list]:
    """claim_id -> {status, computed} from a rendered JSON report, and the
    ids that occur more than once."""
    table, dupes = {}, []
    for claim in json.loads(rendered)["claims"]:
        cid = claim["claim_id"]
        if cid in table:
            dupes.append(cid)
        table[cid] = {"status": claim["status"], "computed": claim["computed"]}
    return table, dupes


def mismatches(table: dict, dupes: list, golden: dict) -> tuple[int, list]:
    """(claims attempted, ids that are missing, extra, repeated or differ)."""
    ids = set(table) | set(golden)
    bad = {cid for cid in ids if table.get(cid) != golden.get(cid)} | set(dupes)
    return len(ids), sorted(bad)


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "worker_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def run(name: str, seed: int, trace: layers.Trace | None) -> dict:
    import symprep
    from symprep import oracles, records, snmod

    if Path(symprep.__file__).resolve().parent != SRC / "symprep":
        raise SystemExit(f"symprep imported from {symprep.__file__}, not from {SRC}")
    # A fresh interpreter starts with these and make_field's cache empty
    # (make_field holds only what importing symprep put there).
    warm = [c.cache_info().currsize for c in (snmod._specht_core, snmod.specht_module,
                                              snmod.irreducible_D, oracles.tableau_count)]
    if any(warm):
        raise SystemExit(f"module caches are not cold at start: {warm}")
    module_caches = layers.install(trace) if trace else None
    jobs = workloads.calls(name, seed)
    config = workloads.suite_config(name)
    reports, raised = [], []
    with speed.SpeedProbe(trace.record_probe if trace else None) as probe:
        for label, job in jobs:
            try:
                reports.extend(job())
            except Exception:  # the claims it owed show up as missing
                raised.append([label, traceback.format_exc()])
        rendered = records.render(name, config, reports)

    out = {"wall_s": probe.wall_s, "run_s": probe.ref_s, "speed_samples": probe.samples,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "raised": raised, "rendered": rendered}
    if trace:
        out["layers"] = layers.layer_values(trace, module_caches, probe.wall_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, help="write the trace's spans here (JSON lines)")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's claims as the golden report")
    args = ap.parse_args(argv)

    trace = layers.Trace() if args.trace else None
    res = run(args.workload, args.seed, trace)
    table, dupes = claim_table(res.pop("rendered"))
    if args.write_golden:
        if dupes or res["raised"]:
            raise SystemExit(f"not writing a golden report: repeated {dupes}, raised {res['raised']}")
        golden_path(args.workload).write_text(
            json.dumps(table, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    golden = json.loads(golden_path(args.workload).read_text(encoding="utf-8"))
    res["attempted"], res["mismatched"] = mismatches(table, dupes, golden)
    res["machine"] = machine()
    if trace and args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in trace.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
