"""Run every workload over several seeds and record the baseline.

Usage, from the root of a vz checkout:

    python3 perfbench/baseline.py

For each workload it runs `run.py` once per seed in SEEDS with tracing
off (one process at a time), then TRACE_RUNS times with tracing on for
the first seed, all with BENCHMARK.json's run_seconds. It prints every
end-to-end metric as the median over seeds with its quartile spread
((q3 - q1) / median) next to its bound, the raw times the same way
(unbounded), every per-layer metric with its unit, and whether the
per-layer counts repeated exactly between the two traced runs. The
results, with the Python version, nproc, load average, sizes, seeds,
longest run and commit, go to perfbench/baseline.json.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEEDS = list(range(1, 11))
TRACE_RUNS = 2
OUT = os.path.join(HERE, "baseline.json")
# Raw times printed by run.py; recorded here without a bound.
RAW = ("wall_s", "cpu_s", "setup_wall_s", "reference_wall_s")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    raw = {}
    for line in proc.stdout.splitlines():
        if line.startswith("# raw "):
            raw = json.loads(line[len("# raw "):])
        elif line.startswith("#"):
            print(f"    {line}", flush=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw"] = raw
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    root = os.getcwd()
    result = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "loadavg_start": os.getloadavg(), "commit": run.git_commit(root)},
        "settings": {"seeds": SEEDS, "seconds": seconds},
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        print(f"== {workload}", flush=True)
        runs, attempted, failed, elapsed = [], 0, 0, []
        for seed in SEEDS:
            r = one_run(workload, seed, seconds, 0)
            attempted += r["attempted"]
            failed += r["failed"]
            elapsed.append(r["elapsed_s"])
            runs.append(dict(r["metrics"], **{
                k: {"value": r["raw"][k], "unit": "s"} for k in RAW}))
        traced = [one_run(workload, SEEDS[0], seconds, 1) for _ in range(TRACE_RUNS)]
        for r in traced:
            attempted += r["attempted"]
            failed += r["failed"]
            elapsed.append(r["elapsed_s"])

        entry = {"sizes": run.WORKLOADS[workload][2], "failed_frac": failed / attempted,
                 "attempted": attempted, "run_elapsed_s": max(elapsed),
                 "end_to_end": {}, "per_layer": {}}
        print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted}); "
              f"longest run {max(elapsed):.1f} s")
        for name, bound in list(bounds.items()) + [(k, None) for k in RAW]:
            stats = dict(summary([m[name]["value"] for m in runs]),
                         unit=runs[0][name]["unit"], bound=bound)
            entry["end_to_end"][name] = stats
            print(f"  {name:<12} {stats['median']:.4f} {stats['unit']:<3} "
                  f"spread {stats['spread']:.3f} (bound {bound})")
        counts_repeat = True
        for name, m in traced[0]["metrics"].items():
            other = traced[-1]["metrics"][name]["value"]
            if m["unit"] in ("count", "bytes") and other != m["value"]:
                counts_repeat = False
            entry["per_layer"][name] = {"value": m["value"], "unit": m["unit"],
                                        "second_trace": other}
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
        entry["per_layer_counts_repeat"] = counts_repeat
        print(f"  per-layer counts repeat between traced runs: {counts_repeat}", flush=True)
        result["workloads"][workload] = entry

    result["environment"]["loadavg_end"] = os.getloadavg()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
