#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark (about two minutes).

    python3 perfbench/selftest.py

Checks, on tiny inputs:

- every workload prints every end-to-end metric of BENCHMARK.json and
  ``failed_ratio`` by name with its unit in the table, and every end-to-end
  metric in the last-line JSON, all checks passing;
- the traced run prints every per-layer metric with its unit, writes its
  spans and times an untraced pass of the same inputs;
- a tampered expected digest (``--tamper``) is reported as a failure, for
  a crawl digest and for a query hash;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result;
- no Ray process started by these runs is left running after them.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run(args: list[str], cwd: str = ".") -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seconds", "1"] + args,
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def ray_processes(since: float) -> list[str]:
    """Ray's processes (GCS, raylet, workers, agents) started after *since*."""
    import ray  # noqa: F401 — puts Ray's bundled psutil on the path
    import psutil

    out = []
    for p in psutil.process_iter(["cmdline", "create_time", "status"]):
        cmd = " ".join(p.info["cmdline"] or [])
        if (p.info["create_time"] >= since and p.info["status"] != psutil.STATUS_ZOMBIE
                and ("ray::" in cmd or "/ray/" in cmd)):
            out.append(f"{p.pid} {cmd[:100]}")
    return out


def main() -> int:
    started = time.time()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    def metrics_ok(lines: list[str], specs: list[dict], label: str) -> None:
        out = json.loads(lines[-1])
        expect(sorted(out) == ["attempted", "correct", "failed", "metrics"],
               f"{label}: last line has exactly the four keys")
        expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
               f"{label}: all checks pass ({out['failed']}/{out['attempted']} failed)")
        got = out["metrics"]
        expect(sorted(got) == sorted(m["name"] for m in specs),
               f"{label}: every metric present, no others")
        for m in specs:
            v = got.get(m["name"], {})
            expect(v.get("unit") == m["unit"] and isinstance(v.get("value"), float)
                   and math.isfinite(v["value"]),
                   f"{label}: {m['name']} has a number and unit {m['unit']}")

    for w in bench["workloads"]:
        code, lines = run(["--workload", w["name"], "--seed", "7", "--trace", "0"])
        expect(code == 0 and bool(lines), f"{w['name']}: exit 0 with output")
        if code or not lines:
            continue
        metrics_ok(lines, bench["end_to_end"], w["name"])
        table = {ln.split()[0]: ln.split() for ln in lines if not ln.startswith(("{", "#"))}
        for m in bench["end_to_end"] + [{"name": "failed_ratio", "unit": "ratio"}]:
            row = table.get(m["name"], [])
            expect(len(row) >= 3 and row[2] == m["unit"],
                   f"{w['name']}: table prints {m['name']} with unit {m['unit']}")

    code, lines = run(["--workload", "crawl_polite", "--seed", "7", "--trace", "1"])
    expect(code == 0 and bool(lines), "traced crawl_polite: exit 0 with output")
    if lines:
        metrics_ok(lines, bench["per_layer"], "traced crawl_polite")
        info = json.loads(lines[-2])
        expect(os.path.exists(info.get("spans", "")), "traced run wrote its spans")
        expect(info.get("untraced_work_s", 0) > 0 and info.get("traced_work_s", 0) > 0,
               "traced run timed an untraced pass of the same inputs")

    for wl in ("crawl_polite", "curation_queries"):
        code, lines = run(["--workload", wl, "--seed", "7", "--trace", "0", "--tamper"])
        out = json.loads(lines[-1]) if lines else {}
        expect(code == 0 and out.get("failed", 0) >= 1 and out.get("correct") is False,
               f"{wl}: a tampered digest is reported as a failure")

    bare = os.path.abspath(os.path.join(".perfbench_work", "selftest-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run(
        bench["command"] + ["--workload", "crawl_polite", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the repository: non-zero exit and no result")
    left = ray_processes(started)
    expect(not left, f"no Ray process left running ({left})")

    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
