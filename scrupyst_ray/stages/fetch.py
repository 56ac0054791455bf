"""Fetch = lookup in a url-hash-bucketed page store, fused with parse.

The reference's HTTP download handler (S1,
``scrapy/core/downloader/handlers/http11_aiohttp.py:42-339``) becomes a table
lookup: the corpus *is* the network.  To make that lookup scale to a 100 TB
page table WITHOUT re-scanning or re-shuffling the corpus every round, the
pages are partitioned ONCE by ``bucket = bucket_of(url, B)`` (the function
that routes every frontier row, ``functions/hashing.py``).  Per round, one
fetch task per ``fetch_key`` range:

    FetchParse(...)(exchange.read_range(admitted_files, "fetch_key", lo, hi))

The ranges are fixed, even cuts of the ``fetch_key`` space
(``exchange.key_ranges``), and each task reads its range out of the gates'
admitted files, which are sorted by ``fetch_key``: no sort, no sampling
pass (see ``stages/exchange.py``).  ``fetch_key`` is the bucket times
FETCH_SPLIT plus a sub-split, so each range holds a contiguous run
of buckets, and its task reads ONLY those buckets' parquet fragments (one
probe per bucket) with an ``url ∈ frontier`` scan filter — per-round I/O
is proportional to the frontier, not the corpus.  At 10^10-URL design
scale B is sized so one bucket ≈ a few GB (e.g. B=65536 for 100 TB) and
fragments stay prunable.

The task is fused fetch→parse: html bytes are decoded
(:mod:`~scrupyst_ray.functions.textextract` — the byte-identical invariant)
and links extracted (:mod:`~scrupyst_ray.functions.links`) INSIDE the task,
so html never crosses a task boundary or enters a shuffle (SURVEY.md §7.4
"drop html immediately after parse").  The task's side output — the fetched
artifact (url, order, status, text) — is written straight to the round's
checkpoint directory (tmp+rename per block file, so Ray task retries are
idempotent), and the kept link candidates go to next round's frontier
through ``exchange.write_candidates``; nothing flows back into the dataset.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.functions.hashing import bucket_of
from scrupyst_ray.functions.links import LinkExtractorConfig, extract_links
from scrupyst_ray.functions.textextract import detect_and_decode
from scrupyst_ray.sources.corpus import PAGES_SCHEMA
from scrupyst_ray.stages.exchange import (
    EXCHANGE_EXT,
    built_for,
    cluster_cpus,
    key_ranges,
    map_ranges,
    read_range,
    write_candidates,
    write_exchange,
    write_marker,
)
from scrupyst_ray.stages.frontier import EDGE_META_SCHEMA
from scrupyst_ray.stages.middleware import MiddlewareContext, MiddlewarePipeline

# the edge rows a fetch task builds: the filter chain's columns plus each
# edge's parent fetch_key, which the map-side host cap ranks within
_EDGE_SCHEMA = EDGE_META_SCHEMA.append(pa.field("parent_fetch_key", pa.int32()))

# the rows of the page store's runs: the corpus columns a fetch reads, plus
# the url's bucket
_STORE_ROWS = pa.schema(
    [PAGES_SCHEMA.field(c) for c in ("url", "warc_ts", "html")]
).append(pa.field("bucket", pa.int32()))

FETCHED_SCHEMA = pa.schema(
    [
        ("round", pa.int32()),
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int64()),
        ("order_key", pa.binary()),
        ("fp", pa.binary()),
        ("status", pa.int16()),  # 200 = hit, 404 = not in corpus
        ("warc_ts", pa.timestamp("us")),
        ("text_len", pa.int64()),
        ("n_links", pa.int32()),
    ]
)


def build_page_store(
    pages_path: str | list[str], store_dir: str, num_buckets: int
) -> str:
    """One-time corpus partitioning by url-hash bucket (idempotent).

    Reads only the columns the crawl needs (url, warc_ts, html — column
    pruning at the read, never the oracle ``text`` column) and writes
    ``store_dir/bucket=K/part-0.parquet`` in two map-only executions, the
    crawl's one exchange pattern (``stages/exchange.py``):

    1. one task per corpus row group (listed on the driver from the file
       footers) writes its rows, sorted by (bucket, url), as one run file
       under ``store_dir/_runs/``;
    2. one task per fixed ``bucket`` range (``exchange.key_ranges``, one
       range per CPU, at most one per bucket) reads its slice of every run
       and writes each of its buckets that holds pages as one file.

    The runs are deleted before ``_STORE_COMPLETE`` is written.  The pass
    moves the whole corpus once (this IS the design-scale partitioning
    step); the payoff is one compact fragment per bucket instead of one
    per (row group × bucket), which makes the per-round bucket probes O(1)
    file opens.

    ``_STORE_COMPLETE`` records ``num_buckets``; reusing a store built
    with another bucket count raises ``ValueError`` (here and in
    ``CrawlEngine.run``).
    """
    done = os.path.join(store_dir, "_STORE_COMPLETE")
    routing = f"num_buckets={num_buckets}"
    if built_for(done, routing):
        return store_dir
    groups = [
        (f.path, i)
        for f in pads.dataset(pages_path, format="parquet").get_fragments()
        for i in range(f.metadata.num_row_groups)
    ]
    runs_dir = os.path.join(store_dir, "_runs")
    shutil.rmtree(runs_dir, ignore_errors=True)
    os.makedirs(runs_dir)
    runs = [
        os.path.join(runs_dir, f"{g:06d}{EXCHANGE_EXT}") for g in range(len(groups))
    ]

    def write_run(g: int, _: int) -> int:
        path, i = groups[g]
        columns = ["url", "warc_ts", "html"]
        with pq.ParquetFile(path) as f:
            batch = f.read_row_group(i, columns=columns)
        rows = {c: batch[c] for c in columns}
        rows["bucket"] = bucket_of(batch["url"], num_buckets)
        rows = pa.table(rows, schema=_STORE_ROWS)
        order = [("bucket", "ascending"), ("url", "ascending")]
        write_exchange(rows.sort_by(order), runs[g])
        return rows.num_rows

    def write_buckets(lo: int, hi: int) -> int:
        rows = read_range(runs, "bucket", lo, hi)
        if rows is None:
            return 0
        buckets = rows["bucket"].to_numpy()
        for b in np.unique(buckets):
            bdir = os.path.join(store_dir, f"bucket={b}")
            os.makedirs(bdir, exist_ok=True)
            path = os.path.join(bdir, "part-0.parquet")
            # url-sorted + small row groups: per-round probes filter by
            # ``url ∈ frontier``, and parquet row-group min/max statistics
            # can only prune when urls are clustered — unsorted
            # single-row-group buckets forced every probe to decode the
            # WHOLE bucket (measured as a 1.4× per-task time inflation at
            # 32-way parallelism from memory-bandwidth contention alone)
            pages = rows.filter(pa.array(buckets == b)).drop_columns(["bucket"])
            pq.write_table(pages.sort_by("url"), path + ".tmp", row_group_size=1024)
            os.replace(path + ".tmp", path)
        return rows.num_rows

    total = map_ranges([(g, g + 1) for g in range(len(groups))], write_run)
    parts = min(num_buckets, cluster_cpus())
    stored = map_ranges(key_ranges(parts, num_buckets), write_buckets)
    if stored != total:
        raise RuntimeError(
            f"{store_dir}: the buckets hold {stored} pages, the corpus {total}"
        )
    shutil.rmtree(runs_dir)
    write_marker(done, routing)
    return store_dir


_ARROW_POOL_CAPPED = False


def _cap_arrow_threads() -> None:
    """Pin this worker's Arrow pools to 1 compute / 2 IO threads.

    Each Ray task worker gets 1 CPU, but pyarrow's global pool defaults to
    os.cpu_count() threads PER PROCESS — 32 concurrent fetch tasks × 32
    parquet-decode threads oversubscribes the node ~32× and shows up as a
    2.3s..15.9s wall-time spread between identical tasks."""
    global _ARROW_POOL_CAPPED
    if not _ARROW_POOL_CAPPED:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        _ARROW_POOL_CAPPED = True


# Per-worker-process cache of opened bucket datasets: Ray reuses worker
# processes across tasks and rounds, so the fragment discovery + parquet
# footer parse for a bucket happens once per (worker, bucket) instead of
# once per probe (measured ~15 cpu-s/round of repeated footer work at the
# bench scale).  Keyed by (store_dir, bucket) — stores are immutable once
# _STORE_COMPLETE exists.
_BUCKET_DS_CACHE: dict[tuple[str, int], "pads.Dataset | None"] = {}


def _bucket_dataset(store_dir: str, bucket: int):
    key = (store_dir, bucket)
    ds = _BUCKET_DS_CACHE.get(key, False)
    if ds is False:
        bucket_dir = os.path.join(store_dir, f"bucket={bucket}")
        ds = (
            pads.dataset(bucket_dir, format="parquet")
            if os.path.isdir(bucket_dir)
            else None
        )
        # Cache ONLY when the store's completeness marker exists: a probe
        # that races a store (re)build would otherwise pin None / a stale
        # fragment list for the worker's lifetime (ADVICE r1).
        if os.path.exists(os.path.join(store_dir, "_STORE_COMPLETE")):
            _BUCKET_DS_CACHE[key] = ds
    return ds


def _read_bucket_pages(store_dir: str, bucket: int, urls: list[str]) -> pa.Table:
    """Scan one bucket's fragments with an ``url ∈ urls`` pushdown filter."""
    dataset = _bucket_dataset(store_dir, bucket)
    if dataset is None:
        return _STORE_ROWS.empty_table().drop_columns(["bucket"])
    return dataset.to_table(
        columns=["url", "warc_ts", "html"],
        filter=pc.field("url").isin(urls),
    )


def read_pages(store_dir: str, num_buckets: int, urls: list[str]) -> dict[str, bytes]:
    """``{url: html}`` for those of *urls* the page store holds: one scan
    over the buckets they fall in, each probed once."""
    buckets = np.unique(bucket_of(urls, num_buckets))
    parts = [_bucket_dataset(store_dir, int(b)) for b in buckets]
    parts = [d for d in parts if d is not None]
    if not parts:
        return {}
    pages = pads.dataset(parts).to_table(
        columns=["url", "html"], filter=pc.field("url").isin(urls)
    )
    return dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))


class FetchParse:
    """Fused fetch→parse→candidate stage for one block of admitted rows:
    the rows of one ``fetch_key`` range.

    One task per ``fetch_key`` range per round: the block may span
    several store buckets, and the task works through them one bucket at a
    time — probes the bucket's page bytes once, decodes text, extracts
    links — then builds + filters the block's next-round candidate rows
    (``stages.frontier.edges_to_candidates``) in one pass, and side-writes
    two artifacts keyed by the block id (idempotent tmp+rename,
    retry-safe):

    - ``fetched/part-K.parquet`` — the crawl-order artifact rows,
    - ``fetched/part-K.stats.json`` — counters (fetched/miss/edges/drops),
      so per-round stats cost zero extra Ray Data executions.
      K is the block's lowest ``fetch_key`` (a FETCH_SPLIT-way sub-split of
      the store bucket, see pipelines/crawl.py).  Blocks cover
      disjoint key ranges, so K is unique within a round.  The ranges are
      fixed cuts of the key space, a pure function of ``fetch_parts``;
      that follows the round's admitted count and the cluster's CPU count,
      so a round re-run on another cluster may cut differently, which is why a re-run round first
      clears its ``fetched/`` directory.

    The kept candidates go to *candidates_dir* through
    ``exchange.write_candidates``, tagged with the block id: one file per
    destination shard per block.  With ``map_side_host_cap`` on, the cap
    ranks within each parent ``fetch_key`` and the rows are tagged with it
    instead (one file per shard and parent fetch_key), so the cap does not
    depend on the block cuts.  Html and dropped candidates never leave the
    task; the call returns nothing.
    """

    def __init__(
        self,
        store_dir: str,
        round_id: int,
        fetched_dir: str,
        cfg: CrawlConfig,
        candidates_dir: str,
    ):
        self.store_dir = store_dir
        self.round_id = round_id
        self.fetched_dir = fetched_dir
        self.cfg = cfg
        self.candidates_dir = candidates_dir
        self.extractor = LinkExtractorConfig()
        # user middleware chains (SURVEY §2.10) — built once per block
        self.mw = MiddlewarePipeline(self.cfg.middlewares)
        os.makedirs(fetched_dir, exist_ok=True)
        _cap_arrow_threads()

    def _write_stats(
        self, part_key: int, stats: dict, mw_ctx: MiddlewareContext
    ) -> None:
        stats["phase_s"] = {k: round(v, 3) for k, v in stats["phase_s"].items()}
        if mw_ctx.stats:
            stats["mw"] = mw_ctx.stats
        path = os.path.join(self.fetched_dir, f"part-{part_key:06d}.stats.json")
        with open(path + ".tmp", "w") as f:
            json.dump(stats, f)
        os.replace(path + ".tmp", path)

    def __call__(self, block: pa.Table) -> None:
        from scrupyst_ray.stages.frontier import (
            DROP_REASON_NAMES,
            edges_to_candidates,
        )

        t0 = time.monotonic()
        part_key = pc.min(block["fetch_key"]).as_py()
        mw_ctx = MiddlewareContext(round_id=self.round_id)
        stats = {
            "fetched": 0,
            "miss": 0,
            "edges": 0,
            "kept": 0,
            "drops": {},
            # per-phase wall (s): store probe / decode+parse+links / artifact
            # write + candidate build / sharded candidate write — lets the
            # driver see where fetch-task time goes without extra executions
            "phase_s": dict.fromkeys(("read", "parse", "emit", "write"), 0.0),
        }
        if self.cfg.autothrottle_enabled:
            stats["host_obs"] = {}
        if self.mw.has("process_candidates"):
            # downloader-mw process_request analogue: last chance to drop or
            # rewrite admitted rows before the (fetch) store probe
            block = self.mw.run("process_candidates", block, mw_ctx)
            if block.num_rows == 0:
                # whole block dropped pre-fetch: still emit a sidecar so the
                # middleware counters reach the round stats
                self._write_stats(part_key, stats, mw_ctx)
                return
        stats["phase_s"]["read"] = time.monotonic() - t0
        # one bucket at a time, so the task holds one bucket's pages and
        # html, never the whole block's; every bucket's artifact rows go to
        # the block's one artifact file
        out_path = os.path.join(self.fetched_dir, f"part-{part_key:06d}.parquet")
        writer = None
        edge_parts = []
        buckets = block["bucket"].to_numpy(zero_copy_only=False)
        for b in np.unique(buckets):
            fetched, edges = self._fetch_bucket(
                int(b), block.filter(pa.array(buckets == b)), mw_ctx, stats
            )
            t_emit = time.monotonic()
            if writer is None:
                writer = pq.ParquetWriter(out_path + ".tmp", fetched.schema)
            writer.write_table(fetched)
            edge_parts.append(edges)
            stats["phase_s"]["emit"] += time.monotonic() - t_emit
        t_emit = time.monotonic()
        writer.close()
        os.replace(out_path + ".tmp", out_path)  # idempotent on task retry

        # edges are url metadata, not pages: the block's candidate filter
        # chain runs once over all of them
        edges = pa.concat_tables(edge_parts)
        if self.mw.has("process_edges"):
            # spider-mw process_spider_output analogue: extracted edges
            # before the candidate filter chain
            edges = self.mw.run("process_edges", edges, mw_ctx)
        kept, drop_counts = edges_to_candidates(
            edges, self.cfg, carry=("parent_fetch_key",)
        )
        stats["edges"] = int(edges.num_rows)
        stats["drops"] = {DROP_REASON_NAMES[r]: c for r, c in drop_counts.items()}
        t_write = time.monotonic()
        stats["phase_s"]["emit"] += t_write - t_emit
        cap = self.cfg.map_side_host_cap
        if cap and kept.num_rows:
            # phase-1 of the salted two-phase top-k (SURVEY §7.4): local
            # per-host rank bound under the SAME order the budget draw
            # sorts by, so every globally-admittable row survives.  Ranked
            # within each parent fetch_key, not within the block: fetch_key
            # is a function of the parent row, so which rows survive does
            # not depend on where the fetch ranges were cut.
            ok_dir = "descending" if self.cfg.order_mode == "dfo" else "ascending"
            order = pc.sort_indices(
                kept,
                sort_keys=[
                    ("parent_fetch_key", "ascending"),
                    ("host", "ascending"),
                    ("priority", "descending"),
                    ("order_key", ok_dir),
                ],
            )
            kept = kept.take(order)
            keys_np = kept["parent_fetch_key"].to_numpy(zero_copy_only=False)
            hosts_np = kept["host"].to_numpy(zero_copy_only=False)
            m = kept.num_rows
            change = np.empty(m, dtype=bool)
            change[0] = True
            change[1:] = (hosts_np[1:] != hosts_np[:-1]) | (
                keys_np[1:] != keys_np[:-1]
            )
            start = np.maximum.accumulate(np.where(change, np.arange(m), 0))
            kept = kept.filter(pa.array(np.arange(m) - start < cap))
        src_keys = kept["parent_fetch_key"].to_numpy(zero_copy_only=False)
        kept = kept.drop_columns(["parent_fetch_key"])
        # Map-side partitioned exchange: write the kept candidates ALREADY
        # split by their owning seen/politeness shard, so next round's gate
        # task reads its shard's files directly and the frontier NEVER rides
        # an all-to-all shuffle (the per-round sort of millions of candidate
        # rows was the dominant non-parallel cost — only the small admitted
        # set is ever exchanged through Ray Data).  Tagged with part_key: a
        # retried task gets the same block, so it is idempotent, and the
        # files ARE the resume checkpoint.  With the host cap on, each row
        # is tagged with its parent fetch_key, so each file is one unit of
        # the cap.
        write_candidates(kept, self.candidates_dir, src_keys if cap else part_key)
        stats["kept"] = int(kept.num_rows)
        stats["phase_s"]["write"] = time.monotonic() - t_write
        self._write_stats(part_key, stats, mw_ctx)

    def _fetch_bucket(
        self, bucket: int, rows: pa.Table, mw_ctx: MiddlewareContext, stats: dict
    ) -> tuple[pa.Table, pa.Table]:
        """Probe *bucket* once for *rows* and parse the pages.  Returns
        (artifact rows, link edges with their parent's ``parent_fetch_key``);
        counters and phase seconds are added into the block's *stats*."""
        t0 = time.monotonic()
        pages = _read_bucket_pages(self.store_dir, bucket, rows["url"].to_pylist())
        t_read = time.monotonic()
        joined = rows.join(pages, keys="url", join_type="left outer")
        # deterministic artifact order within the bucket's run of the file
        joined = joined.sort_by([("priority", "descending"), ("order_key", "ascending")])
        if self.mw.has("process_fetched"):
            # downloader-mw process_response analogue, pre-parse: a dropped
            # row is never parsed, so it contributes no edges (mirrors the
            # reference where IgnoreRequest skips the spider callback)
            joined = self.mw.run("process_fetched", joined, mw_ctx)

        j_urls = joined["url"].to_pylist()
        htmls = joined["html"].to_pylist()
        hosts = joined["host"].to_pylist()
        depths = joined["depth"].to_pylist()
        order_keys = joined["order_key"].to_pylist()
        fetch_keys = joined["fetch_key"].to_pylist()

        n = len(j_urls)
        statuses = np.full(n, 200, dtype=np.int16)
        text_lens = np.zeros(n, dtype=np.int64)
        n_links = np.zeros(n, dtype=np.int32)

        e_dst: list[str] = []
        e_nofollow: list[bool] = []
        e_link_idx: list[int] = []
        e_pdepth: list[int] = []
        e_pkey: list[bytes] = []
        e_fkey: list[int] = []

        for i in range(n):
            html = htmls[i]
            if html is None:
                statuses[i] = 404  # fetch-miss (URL not in corpus), SURVEY.md S1
                continue
            encoding, text = detect_and_decode(html)
            text_lens[i] = len(text)
            links = extract_links(
                text, j_urls[i], encoding, self.extractor, collect_text=False
            )
            n_links[i] = len(links)
            for li, link in enumerate(links):
                e_dst.append(link.url)
                e_nofollow.append(link.nofollow)
                e_link_idx.append(li)
                e_pdepth.append(depths[i])
                e_pkey.append(order_keys[i])
                e_fkey.append(fetch_keys[i])
        t_parse = time.monotonic()

        fetched = pa.table(
            {
                "round": pa.array(np.full(n, self.round_id, np.int32), pa.int32()),
                "url": joined["url"],
                "host": pa.array(hosts, pa.string()),
                "depth": pa.array(depths, pa.int32()),
                "priority": joined["priority"],
                "order_key": pa.array(order_keys, pa.binary()),
                "fp": joined["fp"],
                "status": pa.array(statuses, pa.int16()),
                "warc_ts": joined["warc_ts"],
                "text_len": pa.array(text_lens, pa.int64()),
                "n_links": pa.array(n_links, pa.int32()),
            },
            schema=FETCHED_SCHEMA,
        )
        if self.mw.has("process_items"):
            # item-pipeline analogue: transform/drop artifact rows before the
            # sink write (DropItem = filtered-out row)
            fetched = self.mw.run("process_items", fetched, mw_ctx)

        edges = pa.table(
            {
                "dst": pa.array(e_dst, pa.string()),
                "nofollow": pa.array(e_nofollow, pa.bool_()),
                "link_idx": pa.array(e_link_idx, pa.int32()),
                "parent_depth": pa.array(e_pdepth, pa.int32()),
                "parent_order_key": pa.array(e_pkey, pa.binary()),
                "parent_fetch_key": pa.array(e_fkey, pa.int32()),
            },
            schema=_EDGE_SCHEMA,
        )
        t_emit = time.monotonic()

        stats["fetched"] += int((statuses == 200).sum())
        stats["miss"] += int((statuses != 200).sum())
        phase = stats["phase_s"]
        phase["read"] += t_read - t0
        phase["parse"] += t_parse - t_read
        phase["emit"] += t_emit - t_parse
        if "host_obs" in stats:
            # per-host observations for the AutoThrottle feedback loop (ST5):
            # host -> [sum_html_bytes, n_fetches, n_ok]; the engine converts
            # bytes to a deterministic proxy latency (config
            # autothrottle_sim_bandwidth) and feeds the owning state shard
            host_obs = stats["host_obs"]
            for i in range(n):
                ob = host_obs.setdefault(hosts[i], [0, 0, 0])
                ob[1] += 1
                if htmls[i] is not None:
                    ob[0] += len(htmls[i])
                    ob[2] += 1
        return fetched, edges
