"""symprep benchmark: time to a verdict, set-up time and memory, per workload.

    python3 perfbench/run.py --workload quadratic-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; symprep is imported from its src/.
The launcher times `import symprep` in fresh interpreters, then runs the
workload in fresh single-threaded worker processes (perfbench/worker.py) for
about --seconds, checks every claim against the golden report, and prints
each metric by name and unit.  Times are in seconds at a fixed reference
speed of the host (speed.py), with the wall seconds printed beside them.
The last line of stdout is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  Full results, with the machine
record, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 12
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("claim_match_rate", "ratio"))


class RunFailed(Exception):
    pass


def child_env() -> dict:
    """One BLAS thread beside the Python thread, symprep from this checkout."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise RunFailed(f"run exceeded {DEADLINE_S:.0f} s")
    return left


# A fresh interpreter that imports symprep, with the reference loop timed
# just before and after the import in the same process.
SETUP_CODE = """
import sys
sys.path.insert(0, {here!r})
from speed import reference_loop
refs = [reference_loop() for _ in range(3)]
import symprep
refs += [reference_loop() for _ in range(3)]
print(refs)
"""


def setup_times(env: dict, start: float, warm_up: bool) -> list[tuple]:
    """(wall, reference-speed) seconds of a fresh interpreter that imports
    symprep, without the reference loop's own time; SETUP_PROBES // 2 of
    them, after an untimed warm-up that compiles bytecode and fills the file
    cache."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(here=str(HERE))]
    times = []
    for i in range(SETUP_PROBES // 2 + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining(start))
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RunFailed(f"import symprep failed:\n{proc.stderr}")
        refs = json.loads(proc.stdout)
        wall -= sum(refs)
        if i or not warm_up:
            times.append((wall, speed.scale(wall, refs)))
    return times


def worker(args: list, env: dict, start: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=remaining(start))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {args} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise RunFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(workload: str, seeds, budget: float, trace: bool, env: dict, start: float) -> list:
    """Fresh workers, one after another, until the next one would end more
    than half a run past the budget; at least one."""
    runs = []
    t0 = time.perf_counter()
    for seed in seeds:
        args = ["--workload", workload, "--seed", str(seed)]
        if trace:
            OUT.mkdir(exist_ok=True)
            args += ["--trace", "--spans", str(OUT / f"spans-{workload}-{len(runs)}.jsonl")]
        runs.append(worker(args, env, start))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(runs) / 2 >= budget:
            break
    return runs


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    env = child_env()
    seeds = iter(range(seed * 1000, seed * 1000 + 1000))  # one shuffle per worker
    # Set-up is probed before and after the workload, so that its median
    # spans more than one phase of the host's speed.
    setup = setup_times(env, start, warm_up=True)
    plain = repeat(workload, seeds, seconds / 2 if trace else seconds, False, env, start)
    traced = repeat(workload, seeds, seconds / 2, True, env, start) if trace else []
    setup += setup_times(env, start, warm_up=False)
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["mismatched"]) for r in runs)
    wall = {"run_s": median(plain, "wall_s"), "setup_s": statistics.median(w for w, _ in setup)}
    if trace:
        metrics = {m: median(traced, m, "layers") for m, _ in layers.PER_LAYER
                   if m in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = median(traced, "run_s") / median(plain, "run_s") - 1
        units = dict(layers.PER_LAYER)
    else:
        metrics = {"run_s": median(plain, "run_s"),
                   "setup_s": statistics.median(r for _, r in setup),
                   "peak_rss_mb": median(plain, "peak_rss_mb"),
                   "claim_match_rate": 1 - failed / attempted}
        units = dict(END_TO_END)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": runs[0]["machine"], "setup_s": setup, "runs": runs,
            "attempted": attempted, "failed": failed, "wall": wall,
            "raised": [x for r in runs for x in r["raised"]],
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def median(runs: list, key: str, group: str | None = None) -> float:
    return statistics.median((r[group] if group else r)[key] for r in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symprep" / "__init__.py").is_file():
        print(f"no symprep sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    m = res["machine"]
    print(f"{args.workload}  seed {args.seed}  {len(res['runs'])} worker runs  "
          f"nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
          f"{m['blas']}  worker threads {m['worker_threads']}")
    for name, metric in res["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    print("  wall seconds, unscaled: " + ", ".join(f"{k} {v:.6f}" for k, v in res["wall"].items()))
    verdict = "match" if res["failed"] == 0 else "DO NOT match"
    print(f"  claims: {res['attempted']} checked, {res['failed']} mismatched "
          f"(claim_error_rate {res['failed'] / res['attempted']:.6f}); "
          f"outputs {verdict} the golden report")
    for label, text in res["raised"]:
        print(f"  {label} raised {text.splitlines()[-1]}")
    print(json.dumps({"correct": res["failed"] == 0 and not res["raised"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
