"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workloads modules,towers,hecke --seeds 1-10 \
        --out spread.json

Runs ``bench/run.py`` untraced, for BENCHMARK.json's ``run_seconds``, once
per (workload, seed), one run at a time, and prints per metric the
quartiles of the values and the spread: the interquartile distance as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles.  Spreads are compared with the bounds in BENCHMARK.json; a
spread above a third of its bound is flagged.  The JSON written with ``--out`` also records the machine (CPU
count, CPU model, Python version) and every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from metrics import quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def machine() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarize(runs, bounds) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[name] = {"q1": q1, "median": med, "q3": q3, "spread": spread(values),
                     "bound": bounds.get(name), "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, seconds)
            runs.append({"seed": seed, **run})
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  f"digest={run['detail']['digest'][:12]}", flush=True)
        summaries = summarize(runs, bounds)
        report["workloads"][workload] = {"summary": summaries, "runs": runs}
        for name, s in summaries.items():
            flag = ""
            if s["bound"] is not None:
                flag = "  OVER BOUND" if s["spread"] > s["bound"] else (
                    "  over a third of bound" if s["spread"] > s["bound"] / 3 else "")
            print(f"  {name:>40} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}", flush=True)
        if not all(r["result"]["correct"] for r in runs):
            print(f"  {workload}: some runs were not correct", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
