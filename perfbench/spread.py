#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload crawl_polite --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed (sequentially, from the repository
root) and prints, per metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        out = json.loads(lines[-1])
        info = json.loads(lines[-2]) if len(lines) > 1 else {}
        print(
            f"seed {seed}: correct={out['correct']} failed={out['failed']}/"
            f"{out['attempted']} steal={info.get('hypervisor_steal_pct')}% "
            f"steal/busy={info.get('steal_of_busy_pct')}% run_s={info.get('run_s')} "
            + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
            flush=True,
        )
        for k, v in out["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} bound")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{k:<44} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.3f} "
              f"{bounds.get(k, '')}")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("PYTHONUNBUFFERED", "1")
    sys.exit(main())
