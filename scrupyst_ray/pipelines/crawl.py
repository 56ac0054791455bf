"""The crawl engine: an iterative superstep driver over Ray Data pipelines.

Replaces the reference's single-process asyncio event loop
(``scrapy/core/engine.py:269-427``) with frontier-expansion rounds
(SURVEY.md §7.0).  One round =

    frontier_N ──groupby(shard)──▶ gate: within-round dedup → lazy
               │                   fingerprint → StateShard RPC (seen +
               │                   robots + per-host budget)
               │                     └─ side-write: deferred → frontier_{N+1}
               └─ admitted ──groupby(bucket)──▶ fetch+parse (bucketed page
                                store; html never shuffled)
                      ├─ side-write: fetched artifact → checkpoint
                      └─ edges → candidate filters → frontier_{N+1}

One Ray Data execution per round; the two shuffles move only frontier
METADATA (~100 B/row): one groupby by host-shard, one by url-bucket.  The
page corpus itself is never shuffled or re-scanned (see ``stages/fetch.py``).

Checkpoint layout (resume = reference JOBDIR contract,
``scrapy/core/scheduler.py:441-496`` + ``dupefilters.py:76-82``):

    workdir/
      robots/shard=K.parquet          robots side-table, built once
      seen/shard=K/round=N.parquet    per-round fingerprint deltas
      rounds/round-N/frontier/candidates/  new-candidate rows (shuffled)
      rounds/round-N/frontier/deferred/    per-shard deferred rows (read
                                           directly by the owning shard's
                                           gate task — never re-shuffled)
      rounds/round-N/fetched/         crawl artifact (bucket=K.parquet)
      rounds/round-N/MANIFEST.json    commit record — written LAST (atomic
                                      rename); a round without a manifest is
                                      re-run from its frontier on resume.
                                      NOTE: "round-N", not "round=N" — an "="
                                      in a parent dir would trigger
                                      hive-partition inference on read-back
                                      and inject a stray column.

Every file write is tmp+rename and every actor method is idempotent per
round, so a kill at ANY point resumes bit-identically (FIXTURES.md §5).

Skew story (SURVEY §7.4 "hot-domain skew"):
- The FETCH stage keys on url-hash sub-splits — perfectly balanced even for
  a single-host crawl.
- The GATE stage keys on host-shard, so one pathological host concentrates
  its candidate volume in one task.  Three bounds keep that task finite:
  per-page link dedup (M14) caps fan-out at unique links; the vectorized
  two-pass dedup costs ~10 µs/row even on the hot shard; and
  ``max_round_candidates`` caps the GLOBAL per-round candidate volume with
  a priority top-k, so no shard can exceed the cap.
- Finer per-host bounds: ``CrawlConfig.map_side_host_cap`` enables phase-1
  of the salted two-phase top-k IN the candidate writer
  (``stages/fetch.py``): each producer task keeps only its local per-host
  top-N under the budget draw's exact sort order, so a hot domain's
  candidate volume reaching the gate is bounded by N × producers instead
  of its full fan-out.  The local rank counts rows the gate later discards
  (seen/dup/robots), so identity requires N to also cover that inflation
  (see ``CrawlConfig.map_side_host_cap``); identity-on-the-smoke-corpus
  and the bound itself are pytest-gated (``tests/test_crawl_e2e.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.functions.fingerprint import fingerprint
from scrupyst_ray.functions.hashing import hash_mod_batch, stable_hash64
from scrupyst_ray.stages.exchange import (
    EXCHANGE_EXT,
    exchange_files,
    exchange_rows,
    read_exchange_dir,
    read_exchange_file,
    write_exchange,
)
from scrupyst_ray.stages.fetch import FetchParse, build_page_store
from scrupyst_ray.stages.frontier import seeds_to_frontier
from scrupyst_ray.state.politeness import budget_draw, draw_order
from scrupyst_ray.state.shard import (
    ADMITTED,
    ROBOTS_FORBIDDEN,
    SEEN_DUP,
    StateShard,
)

# sub-splits per store bucket for the fetch-stage routing key (see
# _shard_gate_fn: balances the low-cardinality bucket groupby)
FETCH_SPLIT = 8



def _shard_gate_fn(
    actors: list,
    round_id: int,
    stats_dir: str | None = None,
    deferred_dir: str | None = None,
    deferred_in_dir: str | None = None,
    candidates_in_dir: str | None = None,
    order_mode: str = "bfo",
):
    """Build the per-shard-group gate function: within-round dedup (global
    winner by (priority desc, order_key) — deterministic), lazy fingerprint
    of the deduped survivors, then ONE StateShard RPC carrying only the small
    columns.  Returns ADMITTED rows; DEFERRED rows are side-written straight
    into next round's frontier directory (tmp+rename per stable shard id, so
    both the sidecar stats and the deferred file are idempotent on task
    retry) — the whole round is a single Ray Data execution.

    Deferred rows NEVER re-enter a shuffle: they were written per shard, and
    the owning shard's gate task reads its file straight from
    *deferred_in_dir* (task-side read, no exchange).  Only freshly-discovered
    candidates — an order of magnitude fewer rows on a deep frontier — flow
    through the groupby.  Rows with ``url == ""`` are ticklers the driver
    unions in to guarantee a shard with deferred work gets a gate call even
    when it has no new candidates; they are dropped here.

    Dedup runs in two passes: by URL string first (cheap, catches the bulk),
    then by fingerprint over the survivors (catches canonically-equivalent
    spellings).  The combined winner equals pure-fingerprint dedup because
    URL-groups are subsets of fingerprint-groups.  Candidate rows arrive with
    fp=b"" (stages/frontier.py computes it lazily); the gate fingerprints
    only pass-1 survivors — once per unique URL instead of once per edge.
    """

    # LIFO tie-break in DFO mode: every within-round ordering flips the
    # order_key direction (matches the oracle simulator's composed sorts)
    SORT_KEYS = draw_order(order_mode)

    def gate(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group
        t_start = time.monotonic()
        shard_id = group["shard"][0].as_py()
        mask = pc.not_equal(group["url"], "")
        if not pc.all(mask).as_py():
            group = group.filter(mask)  # drop driver ticklers
        # this shard's NEW candidate files (map-side partitioned by the
        # previous round's fetch tasks — no shuffle brought them here)
        if candidates_in_dir is not None:
            cdir = os.path.join(candidates_in_dir, f"shard-{shard_id:05d}")
            if os.path.isdir(cdir):
                cands = read_exchange_dir(cdir)
                if cands is not None and cands.num_rows:
                    group = pa.concat_tables(
                        [group, cands], promote_options="default"
                    ).combine_chunks()
        deferred_in = None
        if deferred_in_dir is not None:
            dpath = os.path.join(
                deferred_in_dir, f"deferred-shard-{shard_id:05d}{EXCHANGE_EXT}"
            )
            if os.path.exists(dpath):
                deferred_in = read_exchange_file(dpath)
        n = group.num_rows
        n_def = deferred_in.num_rows if deferred_in is not None else 0
        t_read = time.monotonic()
        if n == 0 and n_def == 0:
            return group

        # -- NEW candidates only: dedup, lazy fingerprint, one gate RPC.
        # Deferred rows were seen-recorded and robots-checked when first
        # gated (forbidden rows are dropped, never deferred; robots rules
        # are static), so the backlog never crosses the RPC — per-round
        # actor payload and Python-loop work are O(new rows), not
        # O(frontier backlog).  A deferred-only shard (n == 0) still makes
        # the call, with empty columns, to fetch its hosts' budgets.
        budget_hosts = set()
        live = np.zeros(0, dtype=np.int64)
        fp64 = np.zeros(0, dtype=np.uint64)
        skip_seen = np.zeros(0, dtype=bool)
        fps_live, hosts_live, urls_live = [], [], []
        if n_def:
            budget_hosts.update(pc.unique(deferred_in["host"]).to_pylist())
        if n:
            group = group.take(pc.sort_indices(group, sort_keys=SORT_KEYS))
            fp64 = group["fp64"].to_numpy(zero_copy_only=False).copy()
            skip_seen = (
                pc.or_(group["dont_filter"], group["already_enqueued"])
                .to_numpy(zero_copy_only=False)
                .astype(bool)
            )
            order_rank = pc.sort_indices(
                group, sort_keys=SORT_KEYS[1:]  # (priority, order_key)
            ).to_numpy(zero_copy_only=False)
            rank_of_row = np.empty(n, dtype=np.int64)
            rank_of_row[order_rank] = np.arange(n)
            local_dup = np.zeros(n, dtype=bool)

            def mark_dups(codes: np.ndarray) -> None:
                """Among active rows (not skip_seen, not already dup), keep
                the lowest-rank row per key code; vectorized first-occurrence
                over the rank-sorted active set (no Python row loop)."""
                active = np.flatnonzero(~(skip_seen | local_dup))
                if active.size == 0:
                    return
                order = active[np.argsort(rank_of_row[active], kind="stable")]
                c = codes[order]
                _, first = np.unique(c, return_index=True)
                dupm = np.ones(c.size, dtype=bool)
                dupm[first] = False
                local_dup[order[dupm]] = True

            # -- pass 1: exact-URL dedup via dictionary codes
            enc = pc.dictionary_encode(group["url"])
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            mark_dups(enc.indices.to_numpy(zero_copy_only=False).astype(np.int64))

            # -- lazy fingerprints: only pass-1 survivors missing fp (new
            # candidate rows arrive with fp=b""), once per unique URL
            fp_empty = (
                pc.equal(group["fp"], b"")
                .to_numpy(zero_copy_only=False)
                .astype(bool)
            )
            computed: dict[int, bytes] = {}
            miss_idx = np.flatnonzero(~local_dup & fp_empty)
            if miss_idx.size:
                miss_urls = group["url"].take(pa.array(miss_idx)).to_pylist()
                for i, u in zip(miss_idx, miss_urls):
                    fpb = fingerprint(u, url_is_safe=True)
                    computed[int(i)] = fpb
                    fp64[i] = int.from_bytes(fpb[:8], "big")

            # -- pass 2: fingerprint dedup (canonically-equivalent spellings).
            # fp64 (first 8 fp bytes) is the vectorized key; rows that share
            # an fp64 are confirmed against full fp bytes, so 64-bit
            # collisions can never merge distinct fingerprints.
            active = np.flatnonzero(~(skip_seen | local_dup))
            if active.size:
                order = active[np.argsort(rank_of_row[active], kind="stable")]
                c64 = fp64[order]
                uniq, first, counts = np.unique(
                    c64, return_index=True, return_counts=True
                )
                if (counts > 1).any():
                    rows = order[np.isin(c64, uniq[counts > 1])]  # rank order
                    fps_exact = group["fp"].take(pa.array(rows)).to_pylist()
                    winner: dict[bytes, int] = {}
                    for pos, i in enumerate(rows):
                        k = computed.get(int(i)) or fps_exact[pos]
                        if k in winner:
                            local_dup[int(i)] = True
                        else:
                            winner[k] = int(i)

            live = np.flatnonzero(~local_dup)
            live_pa = pa.array(live)
            fps_live = group["fp"].take(live_pa).to_pylist()
            if computed:
                for j, i in enumerate(live):
                    fpb = computed.get(int(i))
                    if fpb is not None:
                        fps_live[j] = fpb
            hosts_live = group["host"].take(live_pa).to_pylist()
            urls_live = group["url"].take(live_pa).to_pylist()
            # hosts(live) == hosts(all candidates): a local dup always shares
            # its host with the surviving winner (same url / same canonical)
            budget_hosts.update(hosts_live)
        budget_hosts = sorted(budget_hosts)
        t_dedup = time.monotonic()
        res = ray.get(
            actors[shard_id].gate_check.remote(
                round_id,
                fps_live,
                fp64[live],
                skip_seen[live],
                hosts_live,
                urls_live,
                budget_hosts,
            )
        )
        t_rpc = time.monotonic()
        status = np.full(n, SEEN_DUP, dtype=np.int8)  # dups = filtered
        fresh, robots = res["fresh"], res["robots_ok"]
        status[live[fresh & ~robots]] = ROBOTS_FORBIDDEN
        status[live[fresh & robots]] = ADMITTED  # passed gate → budget draw
        keep_pos = np.flatnonzero(fresh & robots)
        sel = live[keep_pos]
        new_surv = group.take(pa.array(sel))
        i_fp = new_surv.column_names.index("fp")
        new_surv = new_surv.set_column(
            i_fp,
            "fp",
            pa.array([fps_live[j] for j in keep_pos], pa.binary()),
        )
        i64 = new_surv.column_names.index("fp64")
        new_surv = new_surv.set_column(
            i64, "fp64", pa.array(fp64[sel], pa.uint64())
        )

        # -- budget draw over deferred ∪ surviving new rows: pure and
        # deterministic, so task retries replay to identical decisions.
        parts = [
            t for t in (deferred_in, new_surv) if t is not None and t.num_rows
        ]
        n_admit = n_defer_out = 0
        admitted = None
        if parts:
            combined = (
                pa.concat_tables(parts, promote_options="default")
                if len(parts) > 1
                else parts[0]
            )
            order, admit_mask = budget_draw(
                combined, budget_hosts, res["budgets"], order_mode
            )
            combined = combined.take(order)
            admitted = combined.filter(pa.array(admit_mask))
            n_admit = admitted.num_rows
            n_defer_out = combined.num_rows - n_admit
            if n_defer_out:
                deferred = combined.filter(pa.array(~admit_mask))
                i_enq = deferred.column_names.index("already_enqueued")
                deferred = deferred.set_column(
                    i_enq,
                    "already_enqueued",
                    pa.array(np.ones(deferred.num_rows, bool), pa.bool_()),
                )
                os.makedirs(deferred_dir, exist_ok=True)
                write_exchange(
                    deferred,
                    os.path.join(
                        deferred_dir,
                        f"deferred-shard-{shard_id:05d}{EXCHANGE_EXT}",
                    ),
                )

        if stats_dir is not None:
            os.makedirs(stats_dir, exist_ok=True)
            counts = {
                "shard": int(shard_id),
                "total": int(n + n_def),
                "admitted": int(n_admit),
                "deferred": int(n_defer_out),
                "robots_forbidden": int((status == ROBOTS_FORBIDDEN).sum()),
                "dupefilter_filtered": int((status == SEEN_DUP).sum()),
                # per-phase wall (s): candidate/deferred file read / local
                # dedup+fingerprint / StateShard RPC / budget draw+defer write
                "phase_s": {
                    "read": round(t_read - t_start, 3),
                    "dedup": round(t_dedup - t_read, 3),
                    "rpc": round(t_rpc - t_dedup, 3),
                    "draw": round(time.monotonic() - t_rpc, 3),
                },
            }
            path = os.path.join(stats_dir, f"shard={shard_id:05d}.json")
            with open(path + ".tmp", "w") as f:
                json.dump(counts, f)
            os.replace(path + ".tmp", path)
        if admitted is None:
            return group.slice(0, 0)
        # fetch routing key: sub-split each store bucket FETCH_SPLIT ways
        # (bucket is only 64-ary; range-partitioning so few distinct values
        # across ~32 blocks is lumpy — measured 3.3s..10.9s fetch-task skew.
        # 512 groups hash-balance across tasks; key // FETCH_SPLIT is still
        # the store bucket, so probe locality is unchanged.)
        fetch_key = pc.add(
            pc.multiply(admitted["bucket"], FETCH_SPLIT),
            pc.cast(
                pc.bit_wise_and(
                    admitted["fp64"], pa.scalar(FETCH_SPLIT - 1, pa.uint64())
                ),
                pa.int32(),
            ),
        )
        return admitted.append_column("fetch_key", pc.cast(fetch_key, pa.int32()))

    def gate_blocks(batch: pa.Table) -> pa.Table:
        """map_batches adapter: the tickler table is built one BLOCK per
        shard, so with ``batch_size=None`` each call is one shard's group
        and the groupby("shard") AllToAll exchange (a sort over 32 one-row
        blocks — pure barrier cost, measured ~0.3-0.5 s/round of the
        headline bench) is unnecessary.  Robustness: if the executor ever
        hands a batch spanning shards, split and process each."""
        if batch.num_rows <= 1:
            return gate(batch)
        shards = batch["shard"].to_pylist()
        if len(set(shards)) == 1:
            return gate(batch)
        outs = []
        for sid in sorted(set(shards)):
            outs.append(gate(batch.filter(pc.equal(batch["shard"], sid))))
        return pa.concat_tables(
            [t for t in outs if t.num_rows] or outs[:1],
            promote_options="default",
        )

    return gate_blocks


def _write_sharded_candidates(ds, out_dir: str, num_shards: int, tag: str) -> None:
    """Write a frontier dataset as per-shard candidate files
    (``out_dir/shard-K/from-<tag>.feather``) — the same map-side-partitioned
    layout the fetch stage emits, so the gate can always read its shard's
    rows without a shuffle."""

    def write_shard(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.int32())})
        shard_id = group["shard"][0].as_py()
        sdir = os.path.join(out_dir, f"shard-{shard_id:05d}")
        os.makedirs(sdir, exist_ok=True)
        write_exchange(group, os.path.join(sdir, f"from-{tag}{EXCHANGE_EXT}"))
        return pa.table({"shard": pa.array([shard_id], pa.int32())})

    os.makedirs(out_dir, exist_ok=True)
    # repartition first: the groupby's output partition count (= writer
    # parallelism) is capped by the input block count, and a single-file
    # seed list arrives as one block
    ds.repartition(num_shards).groupby(
        "shard", num_partitions=num_shards
    ).map_groups(write_shard, batch_format="pyarrow").materialize()


@dataclass
class RoundStats:
    round: int
    frontier: int = 0
    admitted: int = 0
    deferred: int = 0
    robots_forbidden: int = 0
    dupefilter_filtered: int = 0
    fetched: int = 0
    fetch_miss: int = 0
    edges: int = 0
    candidates_kept: int = 0
    candidate_drops: dict = field(default_factory=dict)
    fetch_phase_s: dict = field(default_factory=dict)  # cumulative task-sec
    mw_counts: dict = field(default_factory=dict)  # user-middleware counters
    wall_s: float = 0.0
    expand_s: float = 0.0
    cap_s: float = 0.0
    checkpoint_s: float = 0.0


@dataclass
class CrawlResult:
    workdir: str
    rounds: list[RoundStats]
    stopped_reason: str
    order_mode: str = "bfo"  # artifact tie-break direction (CrawlConfig)

    @property
    def total_fetched(self) -> int:
        return sum(r.fetched for r in self.rounds)

    def fetched_dataset(self) -> "ray.data.Dataset":
        """The crawl artifact over all rounds (unordered blocks; sort by
        (round, -priority, order_key) for the crawl-order artifact)."""
        rounds_dir = os.path.join(self.workdir, "rounds")
        paths = []
        for d in sorted(os.listdir(rounds_dir)):
            fdir = os.path.join(rounds_dir, d, "fetched")
            if os.path.isdir(fdir):
                paths.extend(
                    os.path.join(fdir, f)
                    for f in sorted(os.listdir(fdir))
                    if f.endswith(".parquet")
                )
        return ray.data.read_parquet(paths)

    def crawl_order_dataset(self) -> "ray.data.Dataset":
        """The crawl-order artifact as a DISTRIBUTED sorted dataset
        ((round, -priority, order_key) — the engine's total order).  The
        sort is Ray Data's sample-partitioned shuffle; nothing lands on the
        driver.  Consume with ``write_parquet`` / ``limit`` / ``to_pandas``
        on the (small) final result."""
        return self.fetched_dataset().sort(
            ["round", "priority", "order_key"],
            descending=[False, True, self.order_mode == "dfo"],
        )

    def write_crawl_order(self, out_dir: str | None = None) -> str:
        """Persist the sorted crawl-order artifact as partitioned parquet
        (the 100 TB-scale consume path — the driver never holds the rows)."""
        out_dir = out_dir or os.path.join(self.workdir, "crawl_order")
        self.crawl_order_dataset().write_parquet(out_dir)
        return out_dir

    def crawl_order_table(self, limit: int | None = None) -> pa.Table:
        """Small-result helper: the first *limit* rows (default: all — only
        for smoke/test scale) of the distributed crawl order.  The sort runs
        distributed (``crawl_order_dataset``); only the requested rows reach
        the driver."""
        ds = self.crawl_order_dataset()
        if limit is not None:
            ds = ds.limit(limit)
        tables = ds.to_arrow_refs()
        return pa.concat_tables(
            [t for t in (ray.get(r) for r in tables) if t.num_rows]
        )


class CrawlEngine:
    """Drives the superstep loop.  Construct via :meth:`for_corpus`."""

    def __init__(self, store_dir: str, workdir: str, cfg: CrawlConfig | None = None):
        self.cfg = cfg or CrawlConfig()
        self.store_dir = store_dir
        self.workdir = workdir
        self.rounds_dir = os.path.join(workdir, "rounds")
        self.seen_dir = os.path.join(workdir, "seen")
        self.robots_dir = os.path.join(workdir, "robots")
        os.makedirs(self.rounds_dir, exist_ok=True)
        # ST7: user kv state persisted across run/resume (reference
        # extensions/spiderstate.py) — loaded here, saved after each run()
        from scrupyst_ray.state.spiderstate import SpiderState

        self.spider_state = SpiderState(workdir)
        self._actors: list | None = None
        # (cand_rows, def_rows) per round, carried forward from each round's
        # sidecar sums — the fallback footer walk over the many small
        # candidate files costs seconds of serial driver time per round
        self._frontier_rows_cache: dict[int, tuple[int, int]] = {}

    # -- setup ---------------------------------------------------------------

    @classmethod
    def for_corpus(
        cls,
        pages_path: str,
        workdir: str,
        cfg: CrawlConfig | None = None,
        store_dir: str | None = None,
    ) -> "CrawlEngine":
        """Build (idempotently) the bucketed page store + robots side-table
        for a raw page corpus, then return an engine over them."""
        cfg = cfg or CrawlConfig()
        store_dir = store_dir or os.path.join(workdir, "store")
        build_page_store(pages_path, store_dir, cfg.fetch_buckets)
        eng = cls(store_dir, workdir, cfg)
        eng._build_robots_side_table(pages_path)
        return eng

    def _build_robots_side_table(self, pages_path: str) -> None:
        """robots side-table: pages where path == /robots.txt, partitioned by
        state shard so each StateShard lazily loads only its hosts
        (broadcast-small-side pattern, SURVEY.md §2.4)."""
        done = os.path.join(self.robots_dir, "_COMPLETE")
        if os.path.exists(done):
            return
        os.makedirs(self.robots_dir, exist_ok=True)
        num_shards = self.cfg.seen_shards
        ds = ray.data.read_parquet(pages_path, columns=["url", "html"])

        def to_robots(batch: pa.Table) -> pa.Table:
            mask = pc.ends_with(batch["url"], pattern="/robots.txt")
            sub = batch.filter(mask)
            urls = sub["url"].to_pylist()
            hosts = [u.split("://", 1)[-1].split("/", 1)[0].lower() for u in urls]
            return pa.table(
                {
                    "host": pa.array(hosts, pa.string()),
                    "body": sub["html"],
                    "shard": pa.array(hash_mod_batch(hosts, num_shards), pa.int32()),
                }
            )

        robots = ds.map_batches(to_robots, batch_format="pyarrow")

        robots_dir = self.robots_dir

        def write_shard(group: pa.Table) -> pa.Table:
            shard_id = group["shard"][0].as_py()
            path = os.path.join(robots_dir, f"shard={shard_id:05d}.parquet")
            pq.write_table(group.drop_columns(["shard"]), path + ".tmp")
            os.replace(path + ".tmp", path)
            return pa.table({"shard": [shard_id], "n": [group.num_rows]})

        counts = robots.groupby("shard", num_partitions=num_shards).map_groups(
            write_shard, batch_format="pyarrow"
        )
        counts.materialize()
        with open(done + ".tmp", "w") as f:
            f.write("ok\n")
        os.replace(done + ".tmp", done)

    def _start_actors(self) -> list:
        if self._actors is None:
            cfg = self.cfg
            self._actors = [
                StateShard.remote(
                    k,
                    user_agent=cfg.user_agent,
                    per_domain_budget=cfg.concurrent_requests_per_domain,
                    download_delay=cfg.download_delay,
                    round_seconds=cfg.round_seconds,
                    robotstxt_obey=cfg.robotstxt_obey,
                    seen_sketch=cfg.seen_sketch,
                    robots_path=os.path.join(
                        self.robots_dir, f"shard={k:05d}.parquet"
                    ),
                    download_slots=cfg.download_slots or None,
                    throttle_config=(
                        {
                            "start_delay": cfg.autothrottle_start_delay,
                            "max_delay": cfg.autothrottle_max_delay,
                            "target_concurrency": cfg.autothrottle_target_concurrency,
                        }
                        if cfg.autothrottle_enabled
                        else None
                    ),
                )
                for k in range(cfg.seen_shards)
            ]
            # warm the pool in parallel: actor PROCESS start is ~0.3-0.5 s
            # and first-parquet-read init another ~0.3 s per actor; the
            # first gate task would otherwise pay them serially (one
            # blocking RPC per shard group)
            ray.get([a.warm.remote() for a in self._actors])
        return self._actors

    def shutdown_actors(self) -> None:
        if self._actors:
            for a in self._actors:
                ray.kill(a)
            self._actors = None

    # -- round bookkeeping -----------------------------------------------------

    def _round_dir(self, n: int) -> str:
        return os.path.join(self.rounds_dir, f"round-{n:06d}")

    def _frontier_dir(self, n: int) -> str:
        return os.path.join(self._round_dir(n), "frontier")

    def _candidates_dir(self, n: int) -> str:
        """New-candidate rows — flow through the shard shuffle each round."""
        return os.path.join(self._frontier_dir(n), "candidates")

    def _deferred_dir(self, n: int) -> str:
        """Per-shard deferred rows (over budget in round n-1) — read directly
        by the owning shard's gate task, never shuffled again."""
        return os.path.join(self._frontier_dir(n), "deferred")

    def _frontier_rows(self, n: int) -> tuple[int, int]:
        cached = self._frontier_rows_cache.get(n)
        if cached is not None:
            return cached
        cand = self._candidates_dir(n)
        deferred = self._deferred_dir(n)
        rows = (
            exchange_rows(cand) if os.path.isdir(cand) else 0,
            exchange_rows(deferred) if os.path.isdir(deferred) else 0,
        )
        self._frontier_rows_cache[n] = rows
        return rows

    def _manifest_path(self, n: int) -> str:
        return os.path.join(self._round_dir(n), "MANIFEST.json")

    def last_complete_round(self) -> int:
        """Highest round with a committed manifest, or -1."""
        last = -1
        if os.path.isdir(self.rounds_dir):
            for d in os.listdir(self.rounds_dir):
                mp = os.path.join(self.rounds_dir, d, "MANIFEST.json")
                if d.startswith("round-") and os.path.exists(mp):
                    last = max(last, int(d.split("-")[1]))
        return last

    def init_frontier(self, seeds_path: str) -> None:
        """Round-0 frontier from the seed list (idempotent: skipped if round
        0's frontier already exists)."""
        fdir = self._candidates_dir(0)
        if os.path.isdir(fdir) and os.listdir(fdir):
            return
        cfg = self.cfg
        seeds = ray.data.read_parquet(seeds_path)
        frontier = seeds.map_batches(
            lambda b: seeds_to_frontier(b, cfg), batch_format="pyarrow"
        )
        _write_sharded_candidates(frontier, fdir, cfg.seen_shards, "seeds")

    # -- the superstep ---------------------------------------------------------

    def run(self, max_rounds: int | None = None) -> CrawlResult:
        """Run rounds until the frontier drains or a stop condition fires.
        Safe to call on a fresh OR previously-killed workdir (resume)."""
        cfg = self.cfg
        actors = self._start_actors()
        start_round = self.last_complete_round() + 1
        if start_round > 0:
            # resume: replay committed seen deltas into fresh actors
            ray.get(
                [
                    a.restore.remote(self.seen_dir, start_round - 1)
                    for a in actors
                ]
            )
        all_stats: list[RoundStats] = []
        total_fetched = self._committed_fetch_count(start_round)
        stopped = "frontier_empty"
        n = start_round
        hard_max = max_rounds if max_rounds is not None else cfg.max_rounds or 10**9
        while n < start_round + 10**9:
            if (n - 0) >= hard_max and hard_max > 0:
                stopped = "max_rounds"
                break
            if cfg.closespider_pagecount and total_fetched >= cfg.closespider_pagecount:
                stopped = "closespider_pagecount"
                break
            if sum(self._frontier_rows(n)) == 0:
                stopped = "frontier_empty"
                break
            stats = self._run_round(n, actors)
            all_stats.append(stats)
            total_fetched += stats.fetched
            n += 1
        self.spider_state.save()
        return CrawlResult(self.workdir, all_stats, stopped, self.cfg.order_mode)

    def _committed_fetch_count(self, upto_round: int) -> int:
        total = 0
        for r in range(upto_round):
            mp = self._manifest_path(r)
            if os.path.exists(mp):
                with open(mp) as f:
                    total += json.load(f)["stats"].get("fetched", 0)
        return total

    def _run_round(self, n: int, actors: list) -> RoundStats:
        """One superstep in ONE Ray Data execution:

            shard ticklers → groupby(shard) → gate (reads its shard's
            candidate + deferred files; dedup + lazy fingerprint + StateShard
            RPC + vectorized budget draw; side-writes DEFERRED rows) →
            groupby(fetch_key) → fused fetch+parse → per-shard candidate
            files for round n+1.

        The frontier itself NEVER rides an all-to-all exchange: candidates
        are hash-partitioned by seen-shard at the map side (fetch tasks
        write ``candidates/shard=K/from-<group>.feather``) and each gate
        task reads only its own shard's files — per-round shuffle volume is
        the ADMITTED set (politeness-bounded), not the candidate flood.
        All counters come from idempotent per-shard / per-group sidecar
        files and parquet footers — zero bookkeeping executions.
        """
        t0 = time.monotonic()
        cfg = self.cfg
        stats = RoundStats(round=n)
        rdir = self._round_dir(n)
        gate_stats_dir = os.path.join(rdir, "gate_stats")
        fetched_dir = os.path.join(rdir, "fetched")
        nf_dir = self._frontier_dir(n + 1)
        if os.path.isdir(nf_dir):  # partial files from a killed attempt
            shutil.rmtree(nf_dir)
        cand_rows, def_rows = self._frontier_rows(n)
        cand_dir = self._candidates_dir(n)
        def_dir = self._deferred_dir(n)
        # One tickler row per shard with work (candidate files and/or a
        # deferred file) drives the gate stage; the actual rows are read
        # task-side by the owning gate task.
        work_shards: set[int] = set()
        if os.path.isdir(cand_dir):
            for d in os.listdir(cand_dir):
                if d.startswith("shard-"):
                    work_shards.add(int(d[len("shard-") :]))
        if os.path.isdir(def_dir):
            for fname in os.listdir(def_dir):
                stem, ext = os.path.splitext(fname)
                if stem.startswith("deferred-shard-") and ext == EXCHANGE_EXT:
                    work_shards.add(int(stem[len("deferred-shard-") :]))
        tickler_shards = sorted(work_shards)
        from scrupyst_ray.stages.frontier import FRONTIER_SCHEMA

        k = len(tickler_shards)
        ticklers = pa.table(
            {
                "url": [""] * k,
                "host": [""] * k,
                "depth": pa.array([0] * k, pa.int32()),
                "priority": pa.array([0] * k, pa.int64()),
                "order_key": pa.array([b""] * k, pa.binary()),
                "dont_filter": [False] * k,
                "already_enqueued": [False] * k,
                "is_start": [False] * k,
                "fp": pa.array([b""] * k, pa.binary()),
                "fp64": pa.array([0] * k, pa.uint64()),
                "shard": pa.array(tickler_shards, pa.int32()),
                "bucket": pa.array([0] * k, pa.int32()),
            },
            schema=FRONTIER_SCHEMA,
        )
        # ONE BLOCK PER TICKLER ROW: a groupby's output partition count is
        # silently capped by its input block count, so a single-block tickler
        # table would collapse the gate stage (and everything downstream of
        # it) to ONE serial task — measured 4× on the whole bench.
        frontier = ray.data.from_arrow(
            [ticklers.slice(i, 1) for i in range(k)] if k else ticklers
        )

        total_rows = cand_rows + def_rows
        # fetch partitions: up to half the fetch_key space (buckets ×
        # FETCH_SPLIT sub-keys), NOT capped at the bucket count — coarse
        # partitions (~8 keys each) gave a 2-4× task-duration spread and a
        # straggler tail that idled most of a 32-core node for the last
        # third of every parse phase; ~2 keys per partition amortizes the
        # tail across waves at every cluster size
        # ...but cap at ~2 waves of the CLUSTER's cpu slots: more tasks than
        # that only adds wave-quantization loss (each extra wave pays the
        # slowest task) and multiplies the per-(shard, task) candidate-file
        # count the next gate must read back
        n_cpus = int(ray.cluster_resources().get("CPU", 32))
        fetch_parts = max(
            4,
            min(
                cfg.fetch_buckets * FETCH_SPLIT // 2,
                total_rows // 64,
                4 * n_cpus,
            ),
        )
        store_dir = self.store_dir
        next_cand_dir = os.path.join(nf_dir, "candidates")
        t_exec = time.monotonic()
        (
            # gate stage: NO shuffle — the tickler table arrives one block
            # per shard (see the tickler note above), so map_batches with
            # batch_size=None already delivers exactly one shard's group to
            # each gate task; the old groupby("shard") sort was a pure
            # AllToAll barrier over 32 one-row blocks
            frontier.map_batches(
                _shard_gate_fn(
                    actors,
                    n,
                    gate_stats_dir,
                    deferred_dir=os.path.join(nf_dir, "deferred"),
                    deferred_in_dir=def_dir if def_rows else None,
                    candidates_in_dir=cand_dir if cand_rows else None,
                    order_mode=cfg.order_mode,
                ),
                batch_size=None,
                batch_format="pyarrow",
            )
            # split the admitted set to ≥fetch_parts blocks first: the gate
            # emits one block per shard, and the fetch groupby's partition
            # count is capped by its input block count (see tickler note) —
            # without this the fetch stage is bounded at seen_shards tasks.
            # Split-only repartition (no shuffle) of politeness-bounded
            # metadata rows; the groupby right after is the real exchange.
            .repartition(fetch_parts)
            .groupby("fetch_key", num_partitions=fetch_parts)
            .map_groups(
                lambda g: FetchParse(
                    store_dir, n, fetched_dir, cfg, candidates_dir=next_cand_dir
                )(g),
                batch_format="pyarrow",
            )
            .materialize()
        )
        stats.expand_s = round(time.monotonic() - t_exec, 2)
        for fname in os.listdir(gate_stats_dir) if os.path.isdir(gate_stats_dir) else []:
            if fname.endswith(".json"):
                with open(os.path.join(gate_stats_dir, fname)) as f:
                    c = json.load(f)
                stats.frontier += c["total"]
                stats.admitted += c["admitted"]
                stats.deferred += c["deferred"]
                stats.robots_forbidden += c["robots_forbidden"]
                stats.dupefilter_filtered += c["dupefilter_filtered"]
                for ph, sec in c.get("phase_s", {}).items():
                    key = f"gate_{ph}"
                    stats.fetch_phase_s[key] = round(
                        stats.fetch_phase_s.get(key, 0.0) + sec, 2
                    )

        # fetch / candidate counters from the bucket sidecars; the summed
        # "kept" count IS next round's candidate row count (the fetch tasks
        # wrote exactly those rows into the sharded candidate files), so no
        # driver-side footer walk over thousands of small files is needed
        kept_rows = 0
        host_obs: dict[str, list[int]] = {}
        if os.path.isdir(fetched_dir):
            for fname in os.listdir(fetched_dir):
                if fname.endswith(".stats.json"):
                    with open(os.path.join(fetched_dir, fname)) as f:
                        c = json.load(f)
                    stats.fetched += c["fetched"]
                    stats.fetch_miss += c["miss"]
                    stats.edges += c["edges"]
                    kept_rows += c["kept"]
                    for reason, cnt in c["drops"].items():
                        stats.candidate_drops[reason] = (
                            stats.candidate_drops.get(reason, 0) + cnt
                        )
                    for ph, sec in c.get("phase_s", {}).items():
                        stats.fetch_phase_s[ph] = round(
                            stats.fetch_phase_s.get(ph, 0.0) + sec, 2
                        )
                    for host, ob in c.get("host_obs", {}).items():
                        tot = host_obs.setdefault(host, [0, 0, 0])
                        tot[0] += ob[0]
                        tot[1] += ob[1]
                        tot[2] += ob[2]
                    for key, cnt in c.get("mw", {}).items():
                        stats.mw_counts[key] = stats.mw_counts.get(key, 0) + cnt

        next_cand, next_def = kept_rows, stats.deferred
        if cfg.max_round_candidates and next_cand > cfg.max_round_candidates:
            t_cap = time.monotonic()
            # bound the next shuffle: global top-k of the NEW candidates by
            # crawl order; the tail is dropped (re-discoverable via links) —
            # SURVEY.md §4.2.  Deferred rows are never capped: their
            # fingerprints are already recorded in the seen set, so dropping
            # one would lose the URL forever.
            nc_dir = self._candidates_dir(n + 1)
            files = exchange_files(nc_dir)

            def _load(batch: pa.Table) -> pa.Table:
                return pa.concat_tables(
                    [read_exchange_file(p) for p in batch["path"].to_pylist()],
                    promote_options="default",
                )

            capped = (
                ray.data.from_arrow(pa.table({"path": files}))
                .repartition(max(1, min(len(files), 64)))
                .map_batches(_load, batch_format="pyarrow")
                .sort(
                    ["priority", "order_key"],
                    descending=[True, cfg.order_mode == "dfo"],
                )
                .limit(cfg.max_round_candidates)
            )
            tmp_dir = nc_dir + ".capped"
            shutil.rmtree(tmp_dir, ignore_errors=True)
            _write_sharded_candidates(capped, tmp_dir, cfg.seen_shards, "cap")
            shutil.rmtree(nc_dir)
            os.replace(tmp_dir, nc_dir)
            next_cand = cfg.max_round_candidates
            stats.cap_s = round(time.monotonic() - t_cap, 2)
        next_count = next_cand + next_def
        self._frontier_rows_cache[n + 1] = (next_cand, next_def)
        if next_count == 0 and os.path.isdir(nf_dir):
            shutil.rmtree(nf_dir)  # empty write ⇒ crawl drains
        stats.candidates_kept = next_count

        if cfg.autothrottle_enabled and host_obs:
            # AutoThrottle feedback (ST5): convert the round's per-host byte
            # counts to the deterministic proxy latency and push one
            # observation batch to each host's owning shard BEFORE the
            # checkpoint, so the adjusted delays are part of round n's
            # committed state (kill-resume identity)
            bw = cfg.autothrottle_sim_bandwidth
            per_shard: dict[int, list] = {}
            for host in sorted(host_obs):
                sum_bytes, n_fetch, n_ok = host_obs[host]
                k = stable_hash64(host) % cfg.seen_shards
                dest = per_shard.setdefault(k, [[], [], []])
                dest[0].append(host)
                dest[1].append(sum_bytes / (n_fetch * bw))
                dest[2].append(n_ok == n_fetch)
            ray.get(
                [
                    actors[k].observe_round.remote(n, h, lat, ok)
                    for k, (h, lat, ok) in per_shard.items()
                ]
            )

        # checkpoint seen deltas, then commit the manifest (atomic, LAST)
        t_ckpt = time.monotonic()
        ray.get([a.checkpoint.remote(self.seen_dir, n) for a in actors])
        stats.checkpoint_s = round(time.monotonic() - t_ckpt, 2)
        stats.wall_s = time.monotonic() - t0
        cfg_doc = asdict(self.cfg)
        # middleware components are arbitrary objects; record a readable
        # {class-name: priority} summary in the manifest instead
        if cfg_doc.get("middlewares"):
            cfg_doc["middlewares"] = {
                type(c).__name__: p for c, p in self.cfg.middlewares.items()
            }
        manifest = {
            "round": n,
            "stats": asdict(stats),
            "config": cfg_doc,
            "next_frontier": next_count,
        }
        mp = self._manifest_path(n)
        with open(mp + ".tmp", "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(mp + ".tmp", mp)
        return stats
