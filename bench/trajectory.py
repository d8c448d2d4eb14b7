"""Write one trajectory entry: every workload untraced over five seeds, with
per-metric medians, plus one traced run per workload.

    python3 bench/trajectory.py --out bench/BENCH_2.json

Runs are sequential, one process at a time, each through bench/run.py for
BENCHMARK.json's ``run_seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = (1, 2, 3, 4, 5)


def one_run(workload, seed, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                           "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    entry = {"seeds": SEEDS, "seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [one_run(workload, seed, 0) for seed in SEEDS]
        units = {name: m["unit"] for name, m in runs[0]["result"]["metrics"].items()}
        entry["workloads"][workload] = {
            "median": {name: {"value": statistics.median(r["result"]["metrics"][name]["value"]
                                                         for r in runs),
                              "unit": unit, "runs": len(runs)}
                       for name, unit in units.items()},
            "untraced": runs,
            "traced": one_run(workload, SEEDS[0], 1),
        }
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")


if __name__ == "__main__":
    main()
