"""Frontier-row construction and the per-candidate filter chain.

The frontier table is the columnar form of the reference's Request stream
(SURVEY.md §1.1).  Schema:

    url:string (safe form) · host:string · depth:int32 · priority:int64 ·
    order_key:binary · dont_filter:bool · already_enqueued:bool ·
    is_start:bool · fp:binary(20) · fp64:uint64 · shard:int32 · bucket:int32

``order_key`` is the deterministic total-order tie-breaker replacing the
reference's FIFO enqueue sequence (BFO config, SURVEY.md §2.6 O2): a seed
gets its 8-byte big-endian seed index; a child appends its 2-byte big-endian
link index (document order) to the parent's key.  Lexicographic binary order
over (round, -priority, order_key) IS the crawl order — a pure function of
seed list + link graph, with no global counter to coordinate across workers.

Filter chain per candidate (reference middleware order, with stats reasons):
  scheme/extension filters already ran inside link extraction (M14);
  nofollow (LinkExtractor flag — following is spider policy) →
  urllength (M5, ``spidermiddlewares/urllength.py:26-53``) →
  offsite (M4, ``downloadermiddlewares/offsite.py:67-99``) →
  depth limit (M6, ``spidermiddlewares/depth.py:87-97``).
Dropped rows keep a ``drop_reason`` column so per-round stats are one small
groupby instead of per-stage counters.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.functions.fingerprint import fingerprint_batch
from scrupyst_ray.functions.hashing import bucket_of, shard_of
from scrupyst_ray.functions.urlnorm import (
    parse_host,
    safe_url_string,
    host_is_from_any_domain,
)

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int64()),
        ("order_key", pa.binary()),
        ("dont_filter", pa.bool_()),
        ("already_enqueued", pa.bool_()),
        ("is_start", pa.bool_()),
        ("fp", pa.binary()),
        ("fp64", pa.uint64()),
        ("shard", pa.int32()),
        ("bucket", pa.int32()),
    ]
)

# drop_reason codes (0 = kept)
KEEP = 0
DROP_NOFOLLOW = 1
DROP_URLLENGTH = 2
DROP_OFFSITE = 3
DROP_DEPTH = 4
DROP_BADURL = 5

DROP_REASON_NAMES = {
    KEEP: "kept",
    DROP_NOFOLLOW: "nofollow",
    DROP_URLLENGTH: "urllength/filtered",
    DROP_OFFSITE: "offsite/filtered",
    DROP_DEPTH: "depth/filtered",
    DROP_BADURL: "badurl",
}


def frontier_rows(
    cfg: CrawlConfig,
    url,
    host,
    depth,
    priority,
    order_key,
    dont_filter,
    *,
    is_start: bool = False,
    fingerprints: bool = True,
) -> pa.Table:
    """``FRONTIER_SCHEMA`` rows: the one place they are assembled.

    Each column argument holds one value per row (a list, numpy array or
    Arrow array); *dont_filter* may also be one bool for all rows.  *url*
    must already be safe (``safe_url_string``).  ``already_enqueued``
    starts False (the gate sets it on the rows it defers), and ``shard`` /
    ``bucket`` come from :func:`shard_of` / :func:`bucket_of`.  With
    *fingerprints* (seeds, follow-ups) ``fp`` / ``fp64`` are computed here;
    without (link candidates) they stay ``b""`` / 0 and the gate computes
    them after its within-round URL dedup, once per unique URL instead of
    once per edge."""
    url = pa.array(url, pa.string())
    host = pa.array(host, pa.string())
    n = len(url)
    if fingerprints:
        fps = fingerprint_batch(pa.table({"url": url}))
        fp, fp64 = fps["fp"], fps["fp64"]
    else:
        fp = pa.nulls(n, pa.binary()).fill_null(b"")
        fp64 = np.zeros(n, np.uint64)
    return pa.table(
        {
            "url": url,
            "host": host,
            "depth": pa.array(depth, pa.int32()),
            "priority": pa.array(priority, pa.int64()),
            "order_key": pa.array(order_key, pa.binary()),
            "dont_filter": pa.array(np.broadcast_to(dont_filter, n), pa.bool_()),
            "already_enqueued": pa.array(np.zeros(n, bool), pa.bool_()),
            "is_start": pa.array(np.full(n, is_start), pa.bool_()),
            "fp": fp,
            "fp64": pa.array(fp64, pa.uint64()),
            "shard": pa.array(shard_of(host, cfg.seen_shards), pa.int32()),
            "bucket": pa.array(bucket_of(url, cfg.fetch_buckets), pa.int32()),
        },
        schema=FRONTIER_SCHEMA,
    )


def seeds_to_frontier(batch: pa.Table, cfg: CrawlConfig) -> pa.Table:
    """Seed rows ``(url, seq)`` → round-0 frontier (depth 0, priority 0,
    ``dont_filter=True`` — reference start requests,
    ``scrapy/spiders/__init__.py:136-154``)."""
    urls = [safe_url_string(u) for u in batch["url"].to_pylist()]
    n = len(urls)
    return frontier_rows(
        cfg,
        urls,
        [parse_host(u) for u in urls],
        depth=np.zeros(n, np.int32),
        priority=np.zeros(n, np.int64),
        order_key=[int(s).to_bytes(8, "big") for s in batch["seq"].to_pylist()],
        dont_filter=True,
        is_start=True,
    )


EDGE_META_SCHEMA = pa.schema(
    [
        ("dst", pa.string()),
        ("nofollow", pa.bool_()),
        ("link_idx", pa.int32()),
        ("parent_depth", pa.int32()),
        ("parent_order_key", pa.binary()),
    ]
)


def candidate_filter_reasons(
    batch: pa.Table, cfg: CrawlConfig
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """The per-candidate M4/M5/M6 filter chain in reference precedence order
    (nofollow → urllength → badurl → offsite → depth) — shared by
    ``edges_to_candidates`` (the engine hot path) and the driver-visible
    ``frontier_filter_decisions`` gate so both run the SAME kernels.

    *batch* carries ``EDGE_META_SCHEMA`` columns (``dst``, ``nofollow``,
    ``parent_depth``).  Returns ``(reason int8 per row — KEEP/DROP_* codes,
    hosts as a pa.Array, child depths int32)``."""
    n = batch.num_rows
    dst = batch["dst"]
    if isinstance(dst, pa.ChunkedArray):
        dst = dst.combine_chunks()
    reason = np.zeros(n, dtype=np.int8)

    if not cfg.follow_nofollow:
        nofollow = (
            batch["nofollow"].to_numpy(zero_copy_only=False).astype(bool)
        )
        reason[nofollow] = DROP_NOFOLLOW

    # Python len() counts code points, as does utf8_length
    ulen = pc.utf8_length(dst).to_numpy(zero_copy_only=False)
    reason[(reason == KEEP) & (ulen > cfg.urllength_limit)] = DROP_URLLENGTH

    # hosts: one RE2 pass with the same charset/anchors as
    # urlnorm._HOST_FAST_RE (RE2 has no lookahead, so the terminator is a
    # consumed non-capturing group — same accepted language); rows the fast
    # pattern rejects fall back to parse_host one by one (rare: non-lowercase
    # or userinfo/port hosts)
    ex = pc.extract_regex(
        dst, pattern=r"^[a-zA-Z][a-zA-Z0-9+.\-]*://(?P<h>[a-z0-9.\-]+)(?:[/?#]|$)"
    )
    # pc.struct_field, NOT StructArray.field: the raw child accessor skips
    # the parent struct's validity bitmap, so non-matching rows surface as
    # '' instead of null and the parse_host fallback below never fired —
    # scheme-relative/uppercase/userinfo hosts were misdropped as badurl
    # (round-5 hypothesis find)
    hosts_arr = pc.struct_field(ex, "h")
    null_mask = pc.is_null(hosts_arr).to_numpy(zero_copy_only=False)
    if null_mask.any():
        hosts_list = hosts_arr.to_pylist()
        need = np.flatnonzero(null_mask & (reason == KEEP))
        if need.size:
            miss_urls = dst.take(pa.array(need)).to_pylist()
            for i, u in zip(need, miss_urls):
                hosts_list[i] = parse_host(u)
        hosts_arr = pa.array(
            [h if h is not None else "" for h in hosts_list], pa.string()
        )
    bad = pc.equal(hosts_arr, "").to_numpy(zero_copy_only=False)
    reason[(reason == KEEP) & bad] = DROP_BADURL

    if cfg.allowed_domains:
        live = np.flatnonzero(reason == KEEP)
        if live.size:
            live_urls = dst.take(pa.array(live)).to_pylist()
            off = [
                int(i)
                for i, u in zip(live, live_urls)
                if not host_is_from_any_domain(u, cfg.allowed_domains)
            ]
            reason[off] = DROP_OFFSITE

    depths = (
        batch["parent_depth"].to_numpy(zero_copy_only=False).astype(np.int32)
        + 1
    )
    if cfg.depth_limit:
        reason[(reason == KEEP) & (depths > cfg.depth_limit)] = DROP_DEPTH
    return reason, hosts_arr, depths


def edges_to_candidates(
    batch: pa.Table, cfg: CrawlConfig, carry: tuple[str, ...] = ()
) -> tuple[pa.Table, dict[int, int]]:
    """Edge rows (``EDGE_META_SCHEMA``) → (kept frontier rows, drop counts).
    Each extra edge column named in *carry* is copied onto the kept rows,
    after the ``FRONTIER_SCHEMA`` columns.

    Child depth/priority per the reference depth middleware
    (``spidermiddlewares/depth.py:87-90``): ``depth = parent + 1``,
    ``priority = -depth * DEPTH_PRIORITY`` (new Requests start at 0).

    Fully vectorized (this runs once per edge — millions of rows per round):
    filters are Arrow/numpy masks applied in the reference's precedence
    order (nofollow → urllength → badurl → offsite → depth), the order key
    is an element-wise binary join, hosts come from one RE2 extraction with
    a per-row ``parse_host`` fallback only for the rows the fast pattern
    rejects, and the rows are assembled by :func:`frontier_rows`, whose
    routing hashes run once per distinct host / url (hosts repeat heavily
    across edges).
    """
    n = batch.num_rows
    dst = batch["dst"]
    if isinstance(dst, pa.ChunkedArray):
        dst = dst.combine_chunks()
    reason, hosts_arr, depths = candidate_filter_reasons(batch, cfg)

    # order_key = parent_order_key + big-endian uint16 link index (crawl-order
    # tie-break, identical bytes to the per-row .to_bytes concat)
    li = np.minimum(
        batch["link_idx"].to_numpy(zero_copy_only=False), 0xFFFF
    ).astype(">u2")
    sfx = pa.Array.from_buffers(
        pa.binary(2), n, [None, pa.py_buffer(li.tobytes())]
    ).cast(pa.binary())
    pok = batch["parent_order_key"]
    if isinstance(pok, pa.ChunkedArray):
        pok = pok.combine_chunks()
    order_key = pc.binary_join_element_wise(pok, sfx, pa.scalar(b"", pa.binary()))

    keep = reason == KEEP
    keep_pa = pa.array(keep)
    kept_depths = depths[keep]
    kept = frontier_rows(
        cfg,
        dst.filter(keep_pa),
        hosts_arr.filter(keep_pa),
        depth=kept_depths,
        priority=-kept_depths.astype(np.int64) * cfg.depth_priority,
        order_key=order_key.filter(keep_pa),
        dont_filter=False,
        fingerprints=False,
    )
    for name in carry:
        kept = kept.append_column(name, batch[name].filter(keep_pa))
    dropped = reason[~keep]
    counts = {
        int(r): int(c) for r, c in zip(*np.unique(dropped, return_counts=True))
    }
    return kept, counts
