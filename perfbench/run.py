#!/usr/bin/env python3
"""Crawl + curation benchmark for scrupyst_ray.

Run from the repository root:

    python3 perfbench/run.py --workload crawl_polite --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    crawl_polite      tight per-host budget, stopped at half and resumed by a
                      fresh engine: the per-round floor dominates
    curation_queries  SQL-oracled query pipelines over a seeded document set
    crawl_wide        broad crawl, big rounds: parse and dedup dominate (not
                      in BENCHMARK.json: too noisy on a shared one-core host)

Each run makes its inputs from ``--seed``, starts its own Ray session,
repeats the workload for ``--seconds`` (at least once), checks every output
against the repo's oracles, stops every process it started, and prints a
table of metrics, an ``info`` line, and one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the traced
run: in one session it runs the workload untraced and then traced, half of
``--seconds`` each, records spans around every timed call and the rounds
read back from the engine, writes them to
``.perfbench_work/spans-<workload>-s<seed>.json`` and reports the per-layer
metrics, including its overhead against the untraced half.

Other entry points: ``--write-benchmark-json`` rewrites BENCHMARK.json from
the definitions below; ``--smoke`` shrinks every input (used by
``perfbench/selftest.py``); ``--tamper`` corrupts one expected digest, which
must then be reported as a failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = {
    "crawl_polite": "tight per-host budget plus a stop and resume, so the "
    "per-round floor, checkpoint and restore dominate",
    "curation_queries": "query pipelines over a seeded document set; never "
    "touches the crawl engine",
}
# Runnable, but not in BENCHMARK.json: its parse-heavy rounds run Ray tasks
# in parallel, and on a shared one-core host its urls/s and round p50
# spread 9% and 17% between quartiles over five seeds, more than a third of
# the largest bound the benchmark allows.
OTHER_WORKLOADS = ("crawl_wide",)

# end-to-end metric -> (unit, better, bound).  Every workload reports each
# of them; the README maps them to the workload-specific figures.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "step_p50_s": ("s", "lower", 0.25),
    "step_tail_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}
RUN_SECONDS = 20

# The whole run must end within 180 s; a call still running at this point
# counts as failed and the run is stopped (stopping the processes under it
# takes at most another 10 s).
DEADLINE_S = 150.0


def per_layer() -> dict[str, tuple[str, str]]:
    """Per-layer metric -> (unit, better)."""
    import crawl_bench
    import query_bench

    return {
        **crawl_bench.LAYERS,
        **query_bench.layer_names(),
        "trace.overhead_ratio": ("ratio", "lower"),
    }


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in per_layer().items()
        ],
    }


class Ctx:
    """One run: its arguments, the operation counters and the tracer."""

    def __init__(self, args):
        from tracer import Tracer

        self.workload = args.workload
        self.seed = args.seed
        self.smoke = args.smoke
        self.tamper = args.tamper
        self.work = WORK
        self.trace = Tracer(False)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.current: tuple[str, float, float] | None = None

    @contextmanager
    def op(self, name: str, timeout: float):
        """An operation that counts as failed if it raises or outlasts
        *timeout* (the watchdog in :func:`main` enforces the latter)."""
        self.attempted += 1
        self.current = (name, time.monotonic(), timeout)
        try:
            yield
        except Exception as ex:
            self.fail(name, f"raised {type(ex).__name__}: {ex}")
            raise
        finally:
            self.current = None

    @staticmethod
    def ticks() -> tuple[int, int, int]:
        return cpu_ticks()

    @staticmethod
    def net_of_steal(wall: float, since: tuple[int, int, int]) -> float:
        """*wall* (seconds since the :meth:`ticks` reading *since*) less the
        share of it that hypervisor steal took (see :func:`steal_share`)."""
        return wall * (1.0 - steal_share(since))

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(name, detail)

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {why}")
        print(f"FAILED {name}: {why}", file=sys.stderr, flush=True)


# -- environment probes (recorded next to the metrics, not metrics) -----------


def cpu_ticks() -> tuple[int, int, int]:
    """(steal, busy, total) jiffies from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            vals = [int(v) for v in f.readline().split()[1:]]
        busy = vals[0] + vals[1] + vals[2] + vals[5] + vals[6]
        return (vals[7] if len(vals) > 7 else 0, busy, sum(vals))
    except (OSError, IndexError):
        return (0, 0, 0)


class SchemaWarnings(logging.Handler):
    """Counts Ray Data's "different schema" warnings (empty blocks)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "different schema" in record.getMessage():
            self.count += 1


class RssSampler(threading.Thread):
    """Peak summed RSS of the driver and every process under it (the Ray
    session's raylet, GCS, workers and actors)."""

    def __init__(self, period: float = 0.5):
        super().__init__(daemon=True)
        self.period = period
        self.peak = 0
        self._stop_evt = threading.Event()

    def sample(self) -> None:
        import psutil

        me = psutil.Process()
        total = me.memory_info().rss
        for p in me.children(recursive=True):
            try:
                total += p.memory_info().rss
            except psutil.Error:
                pass
        self.peak = max(self.peak, total)

    def run(self):
        while not self._stop_evt.wait(self.period):
            self.sample()

    def stop(self):
        self._stop_evt.set()
        self.join()
        self.sample()


# -- the Ray session ----------------------------------------------------------


def logical_cpus() -> int:
    """``nproc`` + 1.  The seen-shard actors (``StateShard``) reserve 0.01
    CPU each; at ``num_cpus == nproc == 1`` that leaves less than one whole
    CPU for Ray Data tasks and the engine stalls for good (``{'CPU': 1.0}``
    pending).  One extra logical CPU keeps a task slot free.  ``nproc``
    honours ``OMP_NUM_THREADS``, so this is the CPU count the environment
    grants, not the host's."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout.strip()) + 1
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0)) + 1


def start_ray() -> None:
    import ray

    kwargs = dict(
        address="local",
        num_cpus=logical_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024**2,
    )
    # keep the session's files in the checkout when the socket paths under
    # it stay within the Unix limit
    tmp = os.path.join(WORK, "ray")
    if len(tmp) <= 40:
        kwargs["_temp_dir"] = tmp
    ray.init(**kwargs)


def warm_workers() -> None:
    """Start the worker pool and import the package in every worker, so the
    first timed call does not pay it."""
    import ray

    def _imports(batch):
        import scrupyst_ray.pipelines.crawl  # noqa: F401
        import scrupyst_ray.pipelines.textstats  # noqa: F401
        import scrupyst_ray.stages.fetch  # noqa: F401

        return batch

    n = 2 * logical_cpus()
    ray.data.range(n, override_num_blocks=n).map_batches(
        _imports, batch_format="pyarrow"
    ).materialize()


def become_subreaper() -> None:
    """Have every orphaned descendant re-parented to this process rather
    than to init, so that :func:`stop_processes` sees and waits for all of
    them.  Ray's workers and agents are children of the raylet, and are
    orphaned when it exits before them."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def shutdown_ray() -> None:
    """Stop the Ray session.  Called from the thread that started it: Ray
    ties its GCS and raylet to the life of that thread (the parent-death
    signal is per thread), so they must be stopped before it ends."""
    try:
        import ray

        if ray.is_initialized():
            ray.shutdown()
    except Exception as ex:  # noqa: BLE001 — stop_processes still reaps them
        print(f"ray.shutdown failed: {ex}", file=sys.stderr)


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_processes(grace: float = 3.0, limit: float = 10.0) -> bool:
    """Stop every process under this one and wait until each has ended:
    SIGTERM, then SIGKILL after *grace* seconds, reaping as they exit.  As
    a subreaper this process inherits every orphaned descendant, so once it
    has no children left, nothing it started is running.  Gives up after
    *limit* seconds; returns whether none is left."""
    import psutil

    me = psutil.Process()
    t0 = time.monotonic()
    while True:
        _reap_zombies()
        live = []
        for p in me.children(recursive=True):
            try:
                if p.status() != psutil.STATUS_ZOMBIE:
                    live.append(p)
            except psutil.Error:
                pass
        if not live and not me.children():
            return True
        waited = time.monotonic() - t0
        if waited > limit:
            print(f"processes still running: {[p.pid for p in live]}", file=sys.stderr)
            return False
        for p in live:
            try:
                p.kill() if waited > grace else p.terminate()
            except psutil.Error:
                pass
        time.sleep(0.1)


def on_signal(signum, _frame) -> None:
    """Stopped from outside: stop every process under this one first."""
    stop_processes(grace=1.0, limit=5.0)
    os._exit(128 + signum)


# -- measuring ----------------------------------------------------------------


def steal_share(since: tuple[int, int, int]) -> float:
    """Hypervisor steal since *since* (a :func:`cpu_ticks` reading) as a
    share of the CPU time this machine's CPUs wanted to run (busy + steal).

    On a shared host this share swings from run to run (2% to 45% in runs
    on a shared 4-vCPU VM), and a CPU-bound call's wall grows with it; the
    benchmark's times are taken net of it so that runs stay comparable."""
    steal, busy, _ = cpu_ticks()
    stolen = steal - since[0]
    return stolen / max(1, busy - since[1] + stolen)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest of p90/p75/p50 with at least ten samples beyond it; with
    fewer than twenty samples, p90 (interpolated: the maximum would rest on
    one sample and swing with it).  With which percentile it is."""
    q = statistics.quantiles(samples, n=100, method="inclusive")
    for p in (90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return q[p - 1], f"p{p}"
    return q[89], "p90 (fewer than ten beyond)"


def measure(ctx, mod, st: dict, seconds: float, first: int) -> dict:
    """Workload iterations for *seconds*, pooled: work and step walls over
    all of them, and the share of the pass's CPU time lost to hypervisor
    steal.  One iteration at least; another only if, at the mean length of
    those before it, it ends within *seconds*, so that the number of
    iterations (and the run's length) does not flip with small changes in
    speed."""
    its: list[dict] = []
    t0, k0 = time.monotonic(), cpu_ticks()
    while not its or (time.monotonic() - t0) * (len(its) + 1) / len(its) <= seconds:
        its.append(mod.iteration(ctx, st, first + len(its)))
    out = mod.summarize(ctx, st, its)
    out.update(
        work_s=sum(r["work_s"] for r in its),
        raw_work_s=sum(r["raw_work_s"] for r in its),
        steps=[s for r in its for s in r["steps"]],
        steal=steal_share(k0),
        iterations=[round(r["work_s"], 3) for r in its],
    )
    return out


# -- reporting ----------------------------------------------------------------


def end_to_end(res: dict, session_s: float, peak_rss: int) -> tuple[dict, list]:
    """The end-to-end metrics and the table rows that explain them."""
    p50 = statistics.median(res["steps"])
    tail_s, which = tail(res["steps"])
    (step, steps), n = res["step"], len(res["steps"])
    reps = res["setup_reps"]
    e2e = {
        "setup_s": session_s + (statistics.median(reps) if reps else 0.0),
        "throughput_per_s": res["throughput_per_s"][0],
        "step_p50_s": p50,
        "step_tail_s": tail_s,
        "peak_rss_mb": peak_rss / 1e6,
    }
    notes = {
        "setup_s": "Ray start and warm-up"
        + (f" + median of {len(reps)} engine set-ups" if reps else " + the cold query"),
        "throughput_per_s": f"= {res['throughput_per_s'][1]}",
        "step_p50_s": f"= {step}_p50_s, median of {n} {steps}",
        "step_tail_s": f"= {step}_tail_s, {which} of {n} {steps}",
        "peak_rss_mb": "driver + Ray session processes",
    }
    rows = [(n_, v, END_TO_END[n_][0], notes[n_]) for n_, v in e2e.items()]
    rows += [(n_, v, u, "not bounded") for n_, (v, u) in res["extra"].items()]
    return e2e, rows


def print_table(title: str, rows: list) -> None:
    print(f"# {title}")
    for name, value, unit, note in rows:
        print(f"{name:<48} {value:>14.6g} {unit}" + (f"  ({note})" if note else ""))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + list(OTHER_WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "scrupyst_ray", "__init__.py")):
        print("run from the repository root (scrupyst_ray/ not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "tools")]
    # Ray workers import the package (and this directory's modules, for
    # pickled helpers) through PYTHONPATH
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if not args.workload:
        ap.error("--workload is required")

    os.makedirs(WORK, exist_ok=True)
    ctx = Ctx(args)
    schema_warn = SchemaWarnings()
    import ray.data  # noqa: F401 — configures Ray Data's loggers first (and
    # puts Ray's bundled psutil on the path)

    become_subreaper()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addHandler(schema_warn)
    rss = RssSampler()
    rss.start()
    st0, busy0, tot0 = cpu_ticks()
    t_start = time.monotonic()
    box: dict = {"passes": []}

    def body() -> None:
        import crawl_bench
        import query_bench

        mod = query_bench if args.workload == "curation_queries" else crawl_bench
        with ctx.op("prepare inputs and oracle", 120):
            st = mod.prepare(ctx)
        ctx.trace.enabled = args.trace == 1
        t0, k0 = time.monotonic(), cpu_ticks()
        with ctx.op("ray.init", 60), ctx.trace.span("ray.init"):
            start_ray()
        with ctx.op("warm-up", 120), ctx.trace.span("warm-up"):
            warm_workers()
            mod.warm(ctx, st)
        box["session_s"] = ctx.net_of_steal(time.monotonic() - t0, k0)
        # the traced run first repeats the untraced run in the same session,
        # on the same inputs, so that its overhead is measured against it
        passes = [False, True] if args.trace == 1 else [False]
        for traced in passes:
            ctx.trace.enabled = traced
            done = sum(len(p["iterations"]) for p in box["passes"])
            box["passes"].append(measure(ctx, mod, st, args.seconds / len(passes), done))

    def guarded() -> None:
        try:
            body()
        except Exception as ex:  # noqa: BLE001 — counted, then reported
            if ctx.current is None and not ctx.failures:
                ctx.fail("run", f"raised {type(ex).__name__}: {ex}")
            import traceback

            traceback.print_exc()
        finally:
            with ctx.op("ray.shutdown", 20):
                shutdown_ray()

    worker = threading.Thread(target=guarded, daemon=True)
    worker.start()
    timed_out = False
    while worker.is_alive():
        worker.join(0.5)
        cur = ctx.current
        now = time.monotonic()
        if (cur and now - cur[1] > cur[2]) or now - t_start > DEADLINE_S:
            ctx.fail(cur[0] if cur else "run", "timed out")
            timed_out = True
            break

    st1, busy1, tot1 = cpu_ticks()
    rss.stop()
    if not stop_processes():
        ctx.fail("stop processes", "some still running")
    shutil.rmtree(os.path.join(WORK, "run"), ignore_errors=True)

    passes = box["passes"]
    complete = len(passes) == (2 if args.trace == 1 else 1)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "logical_cpus": logical_cpus(),
        "hypervisor_steal_pct": round(100.0 * (st1 - st0) / max(1, tot1 - tot0), 2),
        # steal as a share of the time the CPUs wanted to run
        "steal_of_busy_pct": round(
            100.0 * (st1 - st0) / max(1, busy1 - busy0 + st1 - st0), 2
        ),
        "ray_data_schema_warnings": schema_warn.count,
        # per pass: every iteration's work wall, net of steal
        "iterations_net_s": [p["iterations"] for p in passes],
        "pass_steal_of_busy_pct": [round(100.0 * p["steal"], 2) for p in passes],
        "pass_wall_s": [round(p["raw_work_s"], 3) for p in passes],
        "pass_net_s": [round(p["work_s"], 3) for p in passes],
        "run_s": round(time.monotonic() - t_start, 2),
        "failures": ctx.failures,
    }
    metrics: dict[str, dict] = {}
    if complete:
        e2e, rows = end_to_end(passes[0], box["session_s"], rss.peak)
        rows.append(
            ("failed_ratio", ctx.failed / max(1, ctx.attempted), "ratio",
             f"{ctx.failed} of {ctx.attempted} operations")
        )
        print_table(args.workload, rows)
        if args.trace == 1:
            untraced, traced = passes[0]["work_s"], passes[1]["work_s"]
            layers = per_layer()
            values = {n: float(passes[1]["layers"].get(n, 0.0)) for n in layers}
            values["trace.overhead_ratio"] = traced / untraced - 1.0
            info.update(untraced_work_s=untraced, traced_work_s=traced)
            spans_path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.json")
            ctx.trace.write(spans_path, **info)
            info["spans"] = os.path.relpath(spans_path, ROOT)
            print_table(
                f"{args.workload} per layer (traced)",
                [(n, v, layers[n][0], "") for n, v in values.items()],
            )
            metrics = {n: {"value": v, "unit": layers[n][0]} for n, v in values.items()}
        else:
            metrics = {n: {"value": v, "unit": END_TO_END[n][0]} for n, v in e2e.items()}
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": complete and ctx.failed == 0,
                "attempted": max(1, ctx.attempted),
                "failed": ctx.failed if complete else max(1, ctx.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    if timed_out:
        # the stalled call's thread cannot be joined; leave without it
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
