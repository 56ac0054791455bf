"""The crawl workloads: ``crawl_wide`` and ``crawl_polite``.

One iteration = ``CrawlEngine.for_corpus`` into a fresh page store and
workdir, ``init_frontier`` from the seeded seed list, then ``run()`` until
the frontier drains.  On ``crawl_polite`` the first engine stops at half the
oracle's rounds, its actors are shut down, and a fresh ``CrawlEngine``
resumes the workdir.  Only those public calls are timed.

Everything else happens outside the timed calls: the crawl-order and
seen-set digests are compared with ``tests/crawl_sim.simulate_crawl`` on
the same seed list and config (cached per seed), and the per-layer figures
are read back from what the engine commits — each round's
``MANIFEST.json`` and the gate and fetch ``*.json`` sidecars.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs

FETCH_PHASES = ("read", "parse", "emit", "write")
GATE_PHASES = ("read", "dedup", "rpc", "draw")
GATE_COUNTS = (
    "frontier_rows", "admitted", "deferred", "dupefilter_filtered",
    "robots_forbidden",
)
KERNELS = (
    "functions.textextract.detect_and_decode",
    "functions.links.extract_links",
    "functions.fingerprint.fingerprint",
    "stages.frontier.edges_to_candidates",
    "state.seen.check_and_add",
    "state.seen.load_delta",
)

# per-layer metric -> (unit, better), in report order
LAYERS: dict[str, tuple[str, str]] = {
    **{f"stages.fetch.{p}_s": ("s", "lower") for p in FETCH_PHASES},
    "stages.fetch.fetched": ("count", "higher"),
    "stages.fetch.miss": ("count", "lower"),
    "stages.fetch.hit_ratio": ("ratio", "higher"),
    "stages.fetch.task_max_over_median": ("ratio", "lower"),
    **{f"pipelines.crawl.gate.{p}_s": ("s", "lower") for p in GATE_PHASES},
    "pipelines.crawl.gate.task_max_over_median": ("ratio", "lower"),
    "pipelines.crawl.gate.frontier_rows": ("count", "lower"),
    "pipelines.crawl.gate.admitted": ("count", "higher"),
    "pipelines.crawl.gate.deferred": ("count", "lower"),
    "pipelines.crawl.gate.dupefilter_filtered": ("count", "lower"),
    "pipelines.crawl.gate.robots_forbidden": ("count", "lower"),
    "pipelines.crawl.gate.admit_ratio": ("ratio", "higher"),
    "pipelines.crawl.expand_s": ("s", "lower"),
    "pipelines.crawl.bookkeeping_s": ("s", "lower"),
    "pipelines.crawl.unattributed_s": ("s", "lower"),
    "state.shard.checkpoint_s": ("s", "lower"),
    "state.shard.restore_s": ("s", "lower"),
    "stages.frontier.keep_ratio": ("ratio", "lower"),
    "stages.exchange.bytes": ("B", "lower"),
    **{f"{k}_s": ("s", "lower") for k in KERNELS},
    **{f"{k}_ops": ("count", "higher") for k in KERNELS},
}


def crawl_config(budget: int):
    from scrupyst_ray.config import CrawlConfig

    return CrawlConfig(
        seen_shards=4, fetch_buckets=16, concurrent_requests_per_domain=budget
    )


# -- digests ------------------------------------------------------------------


def order_digest(pairs) -> str:
    h = hashlib.sha256()
    for rnd, url in pairs:
        h.update(f"{rnd}\t{url}\n".encode())
    return h.hexdigest()[:16]


def seen_digest(fps) -> str:
    h = hashlib.sha256()
    for fp in sorted(fps):
        h.update(fp)
    return h.hexdigest()[:16]


def engine_digests(wd: str) -> dict:
    from scrupyst_ray.pipelines.crawl import CrawlResult

    t = CrawlResult(wd, [], "").crawl_order_table()
    fps = set()
    for path in _seen_files(wd):
        fps.update(pq.read_table(path, columns=["fp"])["fp"].to_pylist())
    return {
        "order": order_digest(zip(t["round"].to_pylist(), t["url"].to_pylist())),
        "seen": seen_digest(fps),
    }


def _seen_files(wd: str) -> list[str]:
    seen = os.path.join(wd, "seen")
    return sorted(
        os.path.join(seen, d, f)
        for d in os.listdir(seen)
        for f in os.listdir(os.path.join(seen, d))
        if f.startswith("round=") and f.endswith(".parquet")
    )


def oracle(ctx, sizes: dict, corpus: str, seeds: list[str], cfg) -> dict:
    """``crawl_sim`` digests for this seed list, computed once and cached."""
    key = hashlib.sha256(repr((seeds, sorted(vars(cfg).items()))).encode())
    path = os.path.join(
        ctx.work, "oracle",
        f"{ctx.workload}-H{sizes['H']}-P{sizes['P']}-{key.hexdigest()[:16]}.json",
    )
    if not os.path.exists(path):
        from tests.crawl_sim import load_pages_dict, simulate_crawl

        sim = simulate_crawl(load_pages_dict(corpus), seeds, cfg)
        doc = {
            "order": order_digest(sim.fetch_order),
            "seen": seen_digest(sim.seen_fps),
            "rounds": len(sim.per_round_admitted),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(doc, f)
        os.replace(path + ".tmp", path)
    with open(path) as f:
        return json.load(f)


# -- reading the engine's committed counters ------------------------------------


def _load_json_dir(d: str, suffix: str) -> list[dict]:
    if not os.path.isdir(d):
        return []
    out = []
    for name in sorted(os.listdir(d)):
        if name.endswith(suffix):
            with open(os.path.join(d, name)) as f:
                out.append(json.load(f))
    return out


def read_rounds(wd: str) -> list[dict]:
    """Per committed round: manifest stats, its end time (the manifest is
    written last, so its mtime is the commit), and the per-task sidecars."""
    rounds_dir = os.path.join(wd, "rounds")
    out = []
    for d in sorted(os.listdir(rounds_dir)):
        rdir = os.path.join(rounds_dir, d)
        mp = os.path.join(rdir, "MANIFEST.json")
        if not os.path.exists(mp):
            continue
        with open(mp) as f:
            stats = json.load(f)["stats"]
        out.append(
            {
                "stats": stats,
                "end_wall": os.stat(mp).st_mtime,
                "gate_tasks": _load_json_dir(os.path.join(rdir, "gate_stats"), ".json"),
                "fetch_tasks": _load_json_dir(os.path.join(rdir, "fetched"), ".stats.json"),
            }
        )
    return out


def _task_s(task: dict) -> float:
    return sum(task.get("phase_s", {}).values())


def _max_over_median(tasks: list[dict]) -> float:
    secs = [_task_s(t) for t in tasks]
    med = statistics.median(secs) if secs else 0.0
    return max(secs) / med if med > 0 else 0.0


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def layer_figures(rounds: list[dict], wd: str) -> dict[str, float]:
    """Per-layer figures of one crawl, from manifests and sidecars."""
    st = [r["stats"] for r in rounds]
    out: dict[str, float] = {}
    # phase task-seconds from the sidecars (the manifest rounds them to 0.01)
    for kind, prefix, phases in (
        ("fetch_tasks", "stages.fetch", FETCH_PHASES),
        ("gate_tasks", "pipelines.crawl.gate", GATE_PHASES),
    ):
        for p in phases:
            out[f"{prefix}.{p}_s"] = sum(
                t.get("phase_s", {}).get(p, 0.0) for r in rounds for t in r[kind]
            )
    fetched = sum(s["fetched"] for s in st)
    miss = sum(s["fetch_miss"] for s in st)
    out["stages.fetch.fetched"] = fetched
    out["stages.fetch.miss"] = miss
    out["stages.fetch.hit_ratio"] = fetched / max(1, fetched + miss)
    # skew in the round that did the most work
    big_fetch = max(rounds, key=lambda r: r["stats"]["fetched"])
    big_gate = max(rounds, key=lambda r: r["stats"]["frontier"])
    out["stages.fetch.task_max_over_median"] = _max_over_median(big_fetch["fetch_tasks"])
    out["pipelines.crawl.gate.task_max_over_median"] = _max_over_median(
        big_gate["gate_tasks"]
    )
    out["pipelines.crawl.gate.frontier_rows"] = sum(s["frontier"] for s in st)
    for c in GATE_COUNTS[1:]:
        out[f"pipelines.crawl.gate.{c}"] = sum(s[c] for s in st)
    out["pipelines.crawl.gate.admit_ratio"] = out[
        "pipelines.crawl.gate.admitted"
    ] / max(1, out["pipelines.crawl.gate.frontier_rows"])
    task_s = sum(_task_s(t) for r in rounds for t in r["gate_tasks"] + r["fetch_tasks"])
    wall = sum(s["wall_s"] for s in st)
    ckpt = sum(s["checkpoint_s"] for s in st)
    cap = sum(s["cap_s"] for s in st)
    out["pipelines.crawl.expand_s"] = sum(s["expand_s"] for s in st)
    out["pipelines.crawl.bookkeeping_s"] = wall - out["pipelines.crawl.expand_s"] - cap - ckpt
    out["pipelines.crawl.unattributed_s"] = wall - task_s - ckpt - cap
    out["state.shard.checkpoint_s"] = ckpt
    edges = sum(t.get("edges", 0) for r in rounds for t in r["fetch_tasks"])
    kept = sum(t.get("kept", 0) for r in rounds for t in r["fetch_tasks"])
    out["stages.frontier.keep_ratio"] = kept / max(1, edges)
    out["stages.exchange.bytes"] = sum(
        _dir_bytes(os.path.join(wd, "rounds", d, "frontier"))
        for d in os.listdir(os.path.join(wd, "rounds"))
    )
    return out


def rounds_to_spans(tracer, rounds: list[dict], parent: int | None) -> None:
    """Each committed round becomes a child span of the iteration; its
    sidecar phase task-seconds become children of the round, laid end to
    end from the round's start (so the round's self time is what no task
    accounts for)."""
    if not tracer.enabled:
        return
    offset = time.time() - time.monotonic()
    for r in rounds:
        s = r["stats"]
        end = r["end_wall"] - offset
        start = end - s["wall_s"]
        rid = tracer.add(f"round {s['round']}", start, end, parent, kind="round")
        t = start
        for key in [f"gate_{p}" for p in GATE_PHASES] + list(FETCH_PHASES):
            sec = s["fetch_phase_s"].get(key, 0.0)
            tracer.add(key, t, t + sec, rid, kind="task_s")
            t += sec
        for key in ("cap_s", "checkpoint_s"):
            tracer.add(key, t, t + s[key], rid, kind="driver")
            t += s[key]


# -- the workload ---------------------------------------------------------------


def prepare(ctx) -> dict:
    """Inputs and the oracle, before the Ray session starts."""
    sizes = (inputs.SMOKE_CRAWL_SIZES if ctx.smoke else inputs.CRAWL_SIZES)[ctx.workload]
    corpus = inputs.corpus_dir(ctx.work, sizes)
    seeds = inputs.seed_urls(sizes, ctx.seed)
    run_dir = os.path.join(ctx.work, "run", f"{ctx.workload}-s{ctx.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = crawl_config(sizes["budget"])
    want = oracle(ctx, sizes, corpus, seeds, cfg)
    if ctx.tamper:
        want["order"] = "0" * 16
    polite = ctx.workload == "crawl_polite"
    return {
        "corpus": corpus,
        "seeds_path": inputs.write_seeds(os.path.join(run_dir, "seeds.parquet"), seeds),
        "run_dir": run_dir,
        "cfg": cfg,
        "want": want,
        "polite": polite,
        # crawl_polite stops at half the rounds and resumes in a fresh engine
        "stop_at": max(1, want["rounds"] // 2) if polite else None,
        "setup_reps": [],
    }


def warm(ctx, st: dict) -> None:
    """Nothing beyond the worker warm-up: each iteration sets up its own
    engine, and those set-ups are timed into ``setup_reps``."""


def _setup(ctx, st: dict, it_dir: str):
    from scrupyst_ray.pipelines.crawl import CrawlEngine

    tr = ctx.trace
    t0, k0 = time.monotonic(), ctx.ticks()
    with ctx.op("CrawlEngine.for_corpus", 120), tr.span("CrawlEngine.for_corpus"):
        eng = CrawlEngine.for_corpus(
            os.path.join(st["corpus"], "pages"), os.path.join(it_dir, "wd"), st["cfg"],
            store_dir=os.path.join(it_dir, "store"),
        )
    with ctx.op("CrawlEngine.init_frontier", 60), tr.span("CrawlEngine.init_frontier"):
        eng.init_frontier(st["seeds_path"])
    st["setup_reps"].append(ctx.net_of_steal(time.monotonic() - t0, k0))
    return eng


def _timed_run(ctx, rec: dict, eng, max_rounds, label: str) -> float:
    """One ``run()`` call; its wall and its rounds' walls (``wall_s``) are
    added net of the steal share over the call, which is returned.  (Rounds
    take the call's share, not one of their own: over a single round the
    machine-wide share overstates what a steal burst cost the round.)"""
    t0, k0 = time.monotonic(), ctx.ticks()
    with ctx.op(label, 150), ctx.trace.span(label):
        res = eng.run(max_rounds=max_rounds)
    wall = time.monotonic() - t0
    net = ctx.net_of_steal(wall, k0)
    rec["raw_work_s"] += wall
    rec["work_s"] += net
    rec["fetched"] += res.total_fetched
    rec["steps"] += [r.wall_s * net / wall for r in res.rounds]
    return net


def iteration(ctx, st: dict, i: int) -> dict:
    """Set up a fresh engine, crawl until the frontier drains (on
    crawl_polite: stop at half, resume in a fresh engine), then check the
    digests and read back the rounds."""
    from scrupyst_ray.pipelines.crawl import CrawlEngine

    tr = ctx.trace
    it_dir = os.path.join(st["run_dir"], f"it{i}")
    wd = os.path.join(it_dir, "wd")
    rec = {"wd": wd, "work_s": 0.0, "raw_work_s": 0.0, "fetched": 0, "steps": []}
    with tr.span(f"iteration {i}", workload=ctx.workload) as it_span:
        eng = _setup(ctx, st, it_dir)
        _timed_run(ctx, rec, eng, st["stop_at"], "CrawlEngine.run")
        eng.shutdown_actors()
        if st["polite"]:
            fresh = CrawlEngine(eng.store_dir, wd, st["cfg"])
            n = len(rec["steps"])
            resumed_s = _timed_run(ctx, rec, fresh, None, "CrawlEngine.run (resumed)")
            fresh.shutdown_actors()
            rec["resume_s"] = resumed_s - sum(rec["steps"][n:])
    want = st["want"]
    with ctx.op("check.digests", 60):
        got = engine_digests(wd)
    ctx.check("crawl_order_digest", got["order"] == want["order"],
              f"{got['order']} != oracle {want['order']}")
    ctx.check("seen_set_digest", got["seen"] == want["seen"],
              f"{got['seen']} != oracle {want['seen']}")
    rec["disk_mb"] = _dir_bytes(wd) / 1e6
    if tr.enabled:
        rounds = read_rounds(wd)
        rec["layers"] = layer_figures(rounds, wd)
        rounds_to_spans(tr, rounds, it_span["id"])
    return rec


def summarize(ctx, st: dict, its: list[dict]) -> dict:
    """End-to-end figures over the iterations *its*; per-layer ones from
    the last of them when they were traced."""
    # set up at least three times, so setup_s takes a median
    while len(st["setup_reps"]) < 3:
        extra = os.path.join(st["run_dir"], f"setup{len(st['setup_reps'])}")
        _setup(ctx, st, extra)
        shutil.rmtree(extra, ignore_errors=True)
    fetched = sum(r["fetched"] for r in its)
    out = {
        "setup_reps": st["setup_reps"],
        "throughput_per_s": (fetched / sum(r["work_s"] for r in its), "urls_per_s"),
        "step": ("round", "rounds"),
        "extra": {"disk_mb": (its[-1]["disk_mb"], "MB")},
        "layers": {},
    }
    if st["polite"]:
        out["extra"]["resume_s"] = (statistics.median(r["resume_s"] for r in its), "s")
    if ctx.trace.enabled:
        last = its[-1]
        layers = dict(last["layers"])
        restore_round = (st["stop_at"] or st["want"]["rounds"]) - 1
        layers["state.shard.restore_s"] = time_restore(ctx, st["cfg"], last["wd"], restore_round)
        layers.update(kernel_baseline(ctx, st["cfg"], st["corpus"], last["wd"]))
        out["layers"] = layers
    return out


def time_restore(ctx, cfg, wd: str, upto_round: int) -> float:
    """Wall of restoring every shard's committed seen deltas into fresh
    ``StateShard`` actors (the resume path), actor start excluded."""
    import ray

    from scrupyst_ray.state.shard import StateShard

    actors = [StateShard.remote(k, user_agent=cfg.user_agent) for k in range(cfg.seen_shards)]
    try:
        with ctx.op("StateShard.warm", 60):
            ray.get([a.warm.remote() for a in actors])
        t0 = time.monotonic()
        with ctx.op("StateShard.restore", 60), ctx.trace.span("StateShard.restore"):
            ray.get([a.restore.remote(os.path.join(wd, "seen"), upto_round) for a in actors])
        return time.monotonic() - t0
    finally:
        for a in actors:
            ray.kill(a)


def kernel_baseline(ctx, cfg, corpus: str, wd: str) -> dict[str, float]:
    """Single-threaded, in-process timings of the kernels the fetch and gate
    tasks call, over the pages this crawl fetched and its own seen deltas."""
    import numpy as np

    from scrupyst_ray.functions.fingerprint import fingerprint
    from scrupyst_ray.functions.links import LinkExtractorConfig, extract_links
    from scrupyst_ray.functions.textextract import detect_and_decode
    from scrupyst_ray.stages.frontier import EDGE_META_SCHEMA, edges_to_candidates
    from scrupyst_ray.state.seen import SeenState

    fetched = pa.concat_tables(
        [
            pq.read_table(
                os.path.join(root, f), columns=["url", "depth", "order_key", "status"]
            )
            for root, _, files in os.walk(os.path.join(wd, "rounds"))
            if root.endswith("fetched")
            for f in files
            if f.endswith(".parquet")
        ]
    )
    fetched = fetched.filter(pc.equal(fetched["status"], 200))
    html_by_url = {}
    for f in sorted(os.listdir(os.path.join(corpus, "pages"))):
        t = pq.read_table(os.path.join(corpus, "pages", f), columns=["url", "html"])
        html_by_url.update(zip(t["url"].to_pylist(), t["html"].to_pylist()))
    urls = fetched["url"].to_pylist()
    htmls = [html_by_url[u] for u in urls]
    out: dict[str, float] = {}
    tr = ctx.trace

    def timed(kernel: str, ops: int, fn):
        with ctx.op(f"kernel {kernel}", 60), tr.span(kernel, ops=ops):
            t0 = time.monotonic()
            result = fn()
            out[f"{kernel}_s"] = time.monotonic() - t0
        out[f"{kernel}_ops"] = ops
        return result

    decoded = timed(
        "functions.textextract.detect_and_decode", len(htmls),
        lambda: [detect_and_decode(h) for h in htmls],
    )
    extractor = LinkExtractorConfig()
    links = timed(
        "functions.links.extract_links", len(urls),
        lambda: [
            extract_links(text, u, enc, extractor, collect_text=False)
            for (enc, text), u in zip(decoded, urls)
        ],
    )
    depths = fetched["depth"].to_pylist()
    okeys = fetched["order_key"].to_pylist()
    edges = pa.table(
        {
            "dst": [lk.url for ls in links for lk in ls],
            "nofollow": [lk.nofollow for ls in links for lk in ls],
            "link_idx": [i for ls in links for i in range(len(ls))],
            "parent_depth": [d for ls, d in zip(links, depths) for _ in ls],
            "parent_order_key": [k for ls, k in zip(links, okeys) for _ in ls],
        },
        schema=EDGE_META_SCHEMA,
    )
    dsts = sorted(set(edges["dst"].to_pylist()))
    timed(
        "functions.fingerprint.fingerprint", len(dsts),
        lambda: [fingerprint(u, url_is_safe=True) for u in dsts],
    )
    timed(
        "stages.frontier.edges_to_candidates", edges.num_rows,
        lambda: edges_to_candidates(edges, cfg),
    )
    deltas = []
    for path in _seen_files(wd):
        rnd = int(os.path.basename(path)[len("round="):-len(".parquet")])
        t = pq.read_table(path)
        deltas.append((path, rnd, t["fp"].to_pylist(), t["fp64"].to_numpy()))
    n_fps = sum(len(d[2]) for d in deltas)
    state = SeenState(0)
    timed(
        "state.seen.check_and_add", n_fps,
        lambda: [
            state.check_and_add(rnd, fps, np.asarray(fp64, dtype=np.uint64))
            for _, rnd, fps, fp64 in sorted(deltas, key=lambda d: d[1])
        ],
    )
    fresh = SeenState(0)
    timed(
        "state.seen.load_delta", n_fps,
        lambda: [fresh.load_delta(path, rnd) for path, rnd, _, _ in deltas],
    )
    return out
