"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 [--out perfbench/baseline.json]

For each workload of BENCHMARK.json, at its ``run_seconds``, runs the
timed benchmark once per seed and one traced run (first seed), each in its
own process, and writes per end-to-end
metric the median, the quartiles and the spread (interquartile distance
over the median, as the acceptance rule uses it) beside the per-layer
values of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout[-2000:]}")
    return result["metrics"]


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = BENCHMARK["run_seconds"]

    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"Python {platform.python_version()}",
              "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        timed = {}
        for seed in args.seeds:
            for name, metric in run_once(workload, seed, seconds, 0).items():
                timed.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": {name: summarise(v) for name, v in timed.items()},
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
        for name, row in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload:12s} {name:24s} median {row['median']:.6g} "
                  f"spread {row['spread']:.4f}")
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
