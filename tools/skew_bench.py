"""Hot-host skew stress bench (VERDICT r3 'next round' #3).

Builds two corpora of comparable volume and crawls each with the production
broad-crawl config, then reports PER-TASK fetch/gate wall times from the
engine's own sidecar stats (``rounds/round-N/fetched/part-*.stats.json`` and
``rounds/round-N/gate_stats/shard=*.json``):

- ``uniform``: H hosts × P pages (standard ``write_corpus``, show=20).
- ``skew``: one hot host holding ~50% of all pages, and every cold page
  carrying ``HOTLINKS`` extra anchors into the hot host — so the hot host's
  candidate volume concentrates on ONE gate shard, the worst case the
  map-side salted top-k (``CrawlConfig.map_side_host_cap``) exists for.

The skew leg runs twice: with the cap off (only the global
``max_round_candidates`` top-k bounds the shard) and with
``map_side_host_cap=2048`` (phase-1 of the two-phase top-k, SURVEY §7.4).
The claim under test: per-task max/median stays within ~2× of the uniform
leg when the bounds are on.

    python tools/skew_bench.py            # full run (~5-10 min), one JSON line
    python tools/skew_bench.py --small    # smoke sizing (~1 min)

Writes nothing outside the cache root (``scrupyst_ray.cache.ROOT``); the
caller records the JSON (SKEW_r4.json).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from scrupyst_ray import cache


def _steal_ticks() -> tuple[int, int]:
    try:
        with open("/proc/stat") as f:
            vals = [int(v) for v in f.readline().split()[1:]]
        return (vals[7] if len(vals) > 7 else 0, sum(vals))
    except Exception:
        return (0, 0)


def build_skew_corpus(
    out_dir: str,
    H: int,
    P: int,
    P_hot: int,
    show: int = 20,
    hotlinks: int = 10,
    hosts_per_file: int = 8,
) -> str:
    """Host 0 gets P_hot pages; hosts 1..H-1 get P pages each PLUS
    ``hotlinks`` extra anchors into host 0 (deterministic spread).  Pure
    function of indices, resumable part files like ``write_corpus``."""
    from scrupyst_ray.sources.corpus import (
        PAGES_SCHEMA,
        SEEDS_SCHEMA,
        host_name,
        page_rows,
        page_url,
    )

    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_COMPLETE")
    if os.path.exists(marker):
        return out_dir

    hot = host_name(0)

    def hot_anchor_block(h: int, n: int) -> bytes:
        tgts = [1 + (h * 9176 + n * 131 + i * 7919) % P_hot for i in range(hotlinks)]
        return "\n".join(
            f'<a href="http://{hot}/follow?n={t}">hot {t}</a>' for t in tgts
        ).encode("ascii")

    def build_part(lo: int, hi: int) -> pa.Table:
        cols: dict[str, list] = {
            k: [] for k in ("url", "warc_ts", "html", "text", "lang")
        }
        for h in range(lo, hi):
            p_h = P_hot if h == 0 else P
            rows = page_rows(h, H, p_h, show, xlink=1)
            if h != 0:
                # splice the hot links in before </body> (ASCII-safe in
                # every encoding mode of the fixture matrix)
                for i, b in enumerate(rows["html"]):
                    if b"</body>" in b:
                        # row 0 may be the robots row (no </body> marker)
                        n = i  # page index ≈ row order; exact n not needed
                        rows["html"][i] = b.replace(
                            b"</body>", hot_anchor_block(h, n) + b"</body>", 1
                        )
            for k in cols:
                cols[k].extend(rows[k])
        return pa.table(cols, schema=PAGES_SCHEMA)

    ranges = [(lo, min(lo + hosts_per_file, H)) for lo in range(0, H, hosts_per_file)]
    pending = [
        (lo, hi)
        for lo, hi in ranges
        if not os.path.exists(
            os.path.join(pages_dir, f"part-{lo:06d}-{hi:06d}.parquet")
        )
    ]
    import ray

    @ray.remote
    def _write(lo: int, hi: int) -> None:
        path = os.path.join(pages_dir, f"part-{lo:06d}-{hi:06d}.parquet")
        pq.write_table(build_part(lo, hi), path + ".tmp")
        os.replace(path + ".tmp", path)

    ray.get([_write.remote(lo, hi) for lo, hi in pending])

    seeds = pa.table(
        {
            "url": [page_url(h, P_hot if h == 0 else P) for h in range(H)],
            "seq": list(range(H)),
        },
        schema=SEEDS_SCHEMA,
    )
    pq.write_table(seeds, os.path.join(out_dir, "seeds.parquet"))
    with open(marker, "w") as f:
        f.write(f"H={H} P={P} P_hot={P_hot} show={show} hotlinks={hotlinks}\n")
    return out_dir


def _task_seconds(pattern: str) -> list[float]:
    out = []
    for path in glob.glob(pattern):
        try:
            with open(path) as f:
                st = json.load(f)
            out.append(round(sum((st.get("phase_s") or {}).values()), 4))
        except Exception:
            pass
    return out


def _summary(vals: list[float]) -> dict:
    if not vals:
        return {"n": 0}
    a = np.asarray(vals)
    return {
        "n": len(vals),
        "median": round(float(np.median(a)), 3),
        "p95": round(float(np.percentile(a, 95)), 3),
        "max": round(float(a.max()), 3),
        "max_over_median": round(float(a.max() / max(np.median(a), 1e-9)), 2),
    }


def run_leg(
    tag: str, corpus: str, host_cap: int | None, rounds: int, budget: int
) -> dict:
    from scrupyst_ray.config import CrawlConfig
    from scrupyst_ray.pipelines.crawl import CrawlEngine

    cfg = CrawlConfig(
        seen_shards=32,
        fetch_buckets=64,
        concurrent_requests_per_domain=budget,
        max_round_candidates=4_000_000,
        map_side_host_cap=host_cap,
    )
    wd = cache.path(f"scrupyst_skew_wd_{tag}")
    shutil.rmtree(wd, ignore_errors=True)
    store = cache.path("skew_store_" + os.path.basename(corpus))
    eng = CrawlEngine.for_corpus(
        os.path.join(corpus, "pages"), wd, cfg, store_dir=store
    )
    eng.init_frontier(os.path.join(corpus, "seeds.parquet"))
    s0, t0j = _steal_ticks()
    t0 = time.monotonic()
    res = eng.run(max_rounds=rounds)
    wall = time.monotonic() - t0
    s1, t1j = _steal_ticks()
    eng.shutdown_actors()

    fetch_s = _task_seconds(os.path.join(wd, "rounds", "*", "fetched", "*.stats.json"))
    gate_s = _task_seconds(os.path.join(wd, "rounds", "*", "gate_stats", "*.json"))
    # gate shard ingest volume: concentration of candidates per shard
    gate_rows = []
    for path in glob.glob(os.path.join(wd, "rounds", "*", "gate_stats", "*.json")):
        try:
            with open(path) as f:
                gate_rows.append(json.load(f).get("total", 0))
        except Exception:
            pass
    shutil.rmtree(wd, ignore_errors=True)
    return {
        "fetched": res.total_fetched,
        "rounds": len(res.rounds),
        "wall_s": round(wall, 2),
        "urls_per_sec": round(res.total_fetched / wall, 1),
        "candidates": sum(r.candidates_kept for r in res.rounds),
        "map_side_host_cap": host_cap,
        "fetch_task_s": _summary(fetch_s),
        "gate_task_s": _summary(gate_s),
        "gate_shard_rows": _summary([float(v) for v in gate_rows]),
        "hypervisor_steal_pct": round(
            100.0 * (s1 - s0) / max(1, t1j - t0j), 2
        ),
    }


def main() -> None:
    import ray

    small = "--small" in sys.argv
    if small:
        H, P, P_hot, rounds, budget = 20, 50, 1000, 4, 64
    else:
        H, P, P_hot, rounds, budget = 200, 250, 50_000, 6, 128

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from scrupyst_ray.sources.corpus import corpus_cache_dir, write_corpus

    uni = corpus_cache_dir(H, P, show=20)
    write_corpus(uni, H=H, P=P, show=20, hosts_per_file=max(1, H // 32))
    skew = cache.path(f"scrupyst_skew_corpus_H{H}_P{P}_hot{P_hot}")
    build_skew_corpus(skew, H=H, P=P, P_hot=P_hot)

    out = {
        "metric": "hot_host_skew_stress",
        "corpus": {
            "H": H,
            "P": P,
            "P_hot": P_hot,
            "hot_page_fraction": round(P_hot / (P_hot + (H - 1) * P), 3),
            "hotlinks_per_cold_page": 10,
        },
        "legs": {
            "uniform": run_leg("uniform", uni, None, rounds, budget),
            "skew_uncapped": run_leg("skew_nc", skew, None, rounds, budget),
            "skew_capped": run_leg("skew_cap", skew, 2048, rounds, budget),
        },
    }
    u = out["legs"]["uniform"]["gate_task_s"]
    c = out["legs"]["skew_capped"]["gate_task_s"]
    if u.get("n") and c.get("n"):
        out["gate_max_ratio_capped_vs_uniform"] = round(
            c["max"] / max(u["max"], 1e-9), 2
        )
    ray.shutdown()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
