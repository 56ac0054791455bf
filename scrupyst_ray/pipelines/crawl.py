"""The crawl engine: an iterative superstep driver over Ray Data pipelines.

Replaces the reference's single-process asyncio event loop
(``scrapy/core/engine.py:269-427``) with frontier-expansion rounds
(SURVEY.md §7.0).  One round =

    frontier_N ──per shard──▶ StateShard.gate, in the actor hosting it:
               │              within-round dedup → lazy fingerprint →
               │              seen + robots lookup → per-host budget draw
               │                └─ side-write: deferred → frontier_{N+1}
               │                └─ side-write: admitted, sorted by
               │                   fetch_key → admitted/shard-K
               └─ fetch_key ranges ──▶ fetch+parse, one task per range:
                                its slice of every admitted file (bucketed
                                page store; each bucket probed once; html
                                never shuffled)
                      ├─ side-write: fetched artifact → checkpoint
                      └─ edges → candidate filters → frontier_{N+1}

One Ray Data execution per round, sized by the rows it carries.  The gate
is not one: the driver makes one ``StateShard.gate`` call per shard with
work, to the actor that hosts the shard's seen set, robots rules and
budgets; the shard reads its frontier files itself, writes its admitted
rows sorted by ``fetch_key`` to one file and returns their count.  Shards
share actors: there are ``min(seen_shards, cluster CPUs)`` of them
(``_start_actors``), since no more gates can run at once, and each actor
process costs ~0.5 s to start.  The driver sums the counts and sizes the
fetch fan-out from them (``_fetch_parts``: one task per 64 admitted rows,
so a small round fetches in one task).  The fetch execution is map-only:
one task per fixed, even ``fetch_key`` range, which reads its slice of
every admitting shard's sorted file.  No sort, no sampling pass, no
repartition, and block ids are a pure function of (fetch_key,
fetch_parts).  How the ranges are cut, and how the admitted and frontier
files are named, is ``stages/exchange.py``'s alone.  A round that admits
nothing runs no fetch execution.  The page corpus itself is never shuffled
or re-scanned (see ``stages/fetch.py``).

Set-up exchanges the same way (``build_page_store``, ``init_frontier``):
no step of a crawl runs a keyed Ray Data sort.  The one sort left is the
candidate cap's global top-k by crawl order.

Checkpoint layout (resume = reference JOBDIR contract,
``scrapy/core/scheduler.py:441-496`` + ``dupefilters.py:76-82``):

    workdir/
      seen/shard=K/round=N.parquet    per-round fingerprint deltas
      rounds/round-N/frontier/        round N's input rows per seen shard,
                                      read by the shard's gate (layout:
                                      ``stages/exchange.py``); round 0's
                                      _COMPLETE follows the last seed file
      rounds/round-N/fetched/         crawl artifact (part-K.parquet, one
                                      per fetch block, + part-K.stats.json)
      rounds/round-N/MANIFEST.json    commit record — written LAST (atomic
                                      rename); a round without a manifest is
                                      re-run from its frontier on resume.
                                      NOTE: "round-N", not "round=N" — an "="
                                      in a parent dir would trigger
                                      hive-partition inference on read-back
                                      and inject a stray column.

Every file write is tmp+rename, every actor method is idempotent per
round, and a re-run round first clears the outputs of its killed attempt,
so a kill at ANY point resumes bit-identically (FIXTURES.md §5).  A round
that loses a StateShard actor (and with it every shard it hosts) heals the
same way: every actor restarts, restores the committed rounds of its shards
and the round re-runs (``run``).

Skew story (SURVEY §7.4 "hot-domain skew"):
- The FETCH stage ranges over url-hash sub-splits — balanced ranges even
  for a single-host crawl.
- The GATE keys on host-shard, so one pathological host concentrates its
  candidate volume in one actor call.  Three bounds keep that task finite:
  per-page link dedup (M14) caps fan-out at unique links; the vectorized
  two-pass dedup costs ~10 µs/row even on the hot shard; and
  ``max_round_candidates`` caps the GLOBAL per-round candidate volume with
  a priority top-k, so no shard can exceed the cap.
- Finer per-host bounds: ``CrawlConfig.map_side_host_cap`` enables phase-1
  of the salted two-phase top-k IN the candidate writer
  (``stages/fetch.py``): each producer (the fetched pages of one
  ``fetch_key``, a pure function of the url, so the cap does not depend on
  how the fetch ranges were cut) keeps only its local per-host top-N
  under the budget draw's exact sort order, so a hot domain's candidate
  volume reaching the gate is bounded by N × producers instead of its full
  fan-out.  The local rank counts rows the gate later discards
  (seen/dup/robots), so identity requires N to also cover that inflation
  (see ``CrawlConfig.map_side_host_cap``); identity-on-the-smoke-corpus
  and the bound itself are pytest-gated (``tests/test_crawl_e2e.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.functions.hashing import shard_of
from scrupyst_ray.stages.exchange import (
    admitted_dir,
    admitted_path,
    built_for,
    candidates_dir,
    cluster_cpus,
    exchange_files,
    frontier_row_counts,
    frontier_shards,
    key_ranges,
    map_ranges,
    read_exchange_file,
    read_range,
    write_candidates,
    write_marker,
)
from scrupyst_ray.stages.fetch import FetchParse, build_page_store
from scrupyst_ray.stages.frontier import seeds_to_frontier
from scrupyst_ray.state.shard import FETCH_SPLIT, StateShard

# seeds per read block of init_frontier (see there)
SEED_ROWS = 2048

# attempts at a round that loses a StateShard actor (see run)
ROUND_ATTEMPTS = 2


def _fetch_parts(cfg: CrawlConfig, total_rows: int, n_cpus: int) -> int:
    """Fetch task count for a round that admitted *total_rows* rows: the
    ``fetch_key`` space is cut into this many ranges, one task each.  The
    count is exact (the sum of the gate calls' admitted counts); the
    frontier row count would overstate a polite crawl's fetch work by the
    inverse of its admit ratio (~20× when most rows are deferred).

    One task per 64 rows, and a round under 128 rows fetches in ONE task:
    a task costs a launch and a store open whatever it holds, so cutting
    ~100 rows four ways only adds tasks to wait for.

    Up to half the fetch_key space (buckets × FETCH_SPLIT sub-keys), NOT
    capped at the bucket count — coarse partitions (~8 keys each) gave a
    2-4× task-duration spread and a straggler tail that idled most of a
    32-core node for the last third of every parse phase; ~2 keys per
    partition amortizes the tail across waves at every cluster size.  But
    capped at ~2 waves of the cluster's cpu slots: more tasks than that
    only adds wave-quantization loss (each extra wave pays the slowest
    task) and multiplies the per-(shard, task) candidate-file count the
    next gate must read back.

    The cuts are even ranges of the key space (``key_ranges``), not sampled:
    ``fetch_key`` is a uniform hash, so they balance as well.  A block's
    keys are consecutive, so it probes each of its buckets once; with
    more parts than buckets one bucket is probed by several blocks."""
    return max(
        1,
        min(cfg.fetch_buckets * FETCH_SPLIT // 2, total_rows // 64, 4 * n_cpus),
    )


def _write_sharded_candidates(ds, cand_dir: str, produce) -> None:
    """Write the frontier rows of each block of *ds*, ``(rows, tag) =
    produce(block)``, as per-shard candidate files, as a fetch task does;
    the tag must be unique per block and the same on a task retry."""

    def write(block: pa.Table) -> pa.Table:
        rows, tag = produce(block)
        write_candidates(rows, cand_dir, tag)
        return pa.table({"rows": [rows.num_rows]})

    ds.map_batches(write, batch_size=None, batch_format="pyarrow").take_all()


def _first_key_digest(block: pa.Table) -> str:
    """A digest of the first (priority, order_key) of *block*: unique."""
    key = block["priority"][0].as_py().to_bytes(8, "big", signed=True)
    key += block["order_key"][0].as_py()
    return hashlib.blake2b(key, digest_size=8).hexdigest()


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
    fetch_parts: int = 0  # fetch tasks; 0 = the round ran no fetch execution
    fetch_phase_s: dict = field(default_factory=dict)  # cumulative task-sec
    mw_counts: dict = field(default_factory=dict)  # user-middleware counters
    wall_s: float = 0.0
    expand_s: float = 0.0  # gate calls + fetch execution
    gate_s: float = 0.0  # wall: gate calls dispatched → last count back
    fetch_exec_s: float = 0.0  # wall of the fetch execution
    cap_s: float = 0.0
    checkpoint_s: float = 0.0


@dataclass
class CrawlResult:
    workdir: str
    rounds: list[RoundStats]
    stopped_reason: str
    order_mode: str = "bfo"  # artifact tie-break direction (CrawlConfig)
    start_s: float = 0.0  # wall of this run()'s actor starts, warms, restores

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
        """Build (idempotently) the bucketed page store for a raw page
        corpus, then return an engine over it.  The store is the crawl's
        only copy of the pages: a StateShard reads a host's robots.txt
        from it the first time the host reaches the shard's gate."""
        cfg = cfg or CrawlConfig()
        store_dir = store_dir or os.path.join(workdir, "store")
        build_page_store(pages_path, store_dir, cfg.fetch_buckets)
        return cls(store_dir, workdir, cfg)

    def _start_actors(self, restore_upto: int) -> list:
        """The StateShard actors, started if there are none, holding the
        committed state of rounds ``0..restore_upto`` (seen deltas and
        throttle snapshots; nothing for -1).

        ``A = min(seen_shards, cluster CPUs)`` actors, and actor ``j`` hosts
        shards ``j, j + A, j + 2A, …`` (shard ``k``'s actor is
        ``actors[k % A]``).  An actor runs its shards' gates one after
        another, and no more than A gates could run at once anyway; every
        actor process started costs ~0.5 s of start and imports."""
        if self._actors is None:
            cfg = self.cfg
            n_actors = max(1, min(cfg.seen_shards, cluster_cpus()))
            self._actors = [
                StateShard.remote(
                    list(range(j, cfg.seen_shards, n_actors)),
                    store_dir=self.store_dir,
                    fetch_buckets=cfg.fetch_buckets,
                    user_agent=cfg.user_agent,
                    per_domain_budget=cfg.concurrent_requests_per_domain,
                    download_delay=cfg.download_delay,
                    round_seconds=cfg.round_seconds,
                    robotstxt_obey=cfg.robotstxt_obey,
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
                for j in range(n_actors)
            ]
            # warm the pool in parallel: actor PROCESS start is ~0.3-0.5 s
            # and first-parquet-read init another ~0.3 s per actor; round
            # 0's gate calls would pay them
            ray.get([a.warm.remote() for a in self._actors])
        if restore_upto >= 0:
            ray.get(
                [a.restore.remote(self.seen_dir, restore_upto) for a in self._actors]
            )
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

    def _frontier_rows(self, n: int) -> tuple[int, int]:
        if n not in self._frontier_rows_cache:
            self._frontier_rows_cache[n] = frontier_row_counts(self._frontier_dir(n))
        return self._frontier_rows_cache[n]

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
        """Round-0 frontier from the seed list, in one map-only execution:
        each seed read block writes its rows per shard as candidate files
        tagged with its lowest ``seq``, like a fetch task.  Idempotent:
        skipped once round 0 is committed or its frontier is complete
        (``_COMPLETE``, which records ``seen_shards``; another shard count
        raises ``ValueError``).  A frontier without either may have been cut
        short between two block writes, so it is removed and written again."""
        cfg = self.cfg
        fdir = self._frontier_dir(0)
        marker = os.path.join(fdir, "_COMPLETE")
        routing = f"seen_shards={cfg.seen_shards}"
        if self.last_complete_round() >= 0 or built_for(marker, routing):
            return
        shutil.rmtree(fdir, ignore_errors=True)
        # Ray cuts each seed file evenly into read blocks, and an empty cut
        # is a schema-less block: size the read from the footers' row counts
        # (at most the smallest file's rows, ~SEED_ROWS seeds per block)
        rows = [
            f.metadata.num_rows
            for f in pads.dataset(seeds_path, format="parquet").get_fragments()
        ]
        blocks = min(min(rows, default=1), -(-sum(rows) // SEED_ROWS))
        seeds = ray.data.read_parquet(seeds_path, override_num_blocks=max(1, blocks))
        _write_sharded_candidates(
            seeds,
            candidates_dir(fdir),
            lambda b: (seeds_to_frontier(b, cfg), pc.min(b["seq"]).as_py()),
        )
        os.makedirs(fdir, exist_ok=True)
        write_marker(marker, routing)

    # -- the superstep ---------------------------------------------------------

    def run(self, max_rounds: int | None = None) -> CrawlResult:
        """Run rounds until the frontier drains or a stop condition fires.
        Safe to call on a fresh OR previously-killed workdir (resume).

        A round that loses a StateShard actor (``RayActorError``) is re-run,
        up to ``ROUND_ATTEMPTS`` attempts in all, in fresh actors restored
        to the round before, as on resume.  Every actor restarts, not just
        the lost one: the live shards already recorded this round's
        fingerprints.  The re-run clears what the failed attempt wrote
        (``_run_round``).  The result's ``start_s`` is the wall of every
        actor start (with its warm and restore) in this call."""
        cfg = self.cfg
        # the page store and a resumed workdir's files are laid out by the
        # routing they were written with; reading them under another would
        # miss every page / hand every shard other shards' rows
        store_marker = os.path.join(self.store_dir, "_STORE_COMPLETE")
        built_for(store_marker, f"num_buckets={cfg.fetch_buckets}")  # raises
        start_round = self.last_complete_round() + 1
        if start_round > 0:
            with open(self._manifest_path(start_round - 1)) as f:
                recorded = json.load(f)["config"]
            for key in ("seen_shards", "fetch_buckets"):
                if recorded[key] != getattr(cfg, key):
                    raise ValueError(
                        f"{self.workdir} was crawled with {key}="
                        f"{recorded[key]}, not {getattr(cfg, key)}"
                    )
        t_start = time.monotonic()
        actors = self._start_actors(start_round - 1)
        start_s = time.monotonic() - t_start
        all_stats: list[RoundStats] = []
        total_fetched = self._committed_fetch_count(start_round)
        n = start_round
        # rounds run while n < last, an absolute round index; 0 = no bound
        last = max_rounds or cfg.max_rounds
        stopped = "max_rounds"
        while not last or n < last:
            if cfg.closespider_pagecount and total_fetched >= cfg.closespider_pagecount:
                stopped = "closespider_pagecount"
                break
            if sum(self._frontier_rows(n)) == 0:
                stopped = "frontier_empty"
                break
            for attempt in range(1, ROUND_ATTEMPTS + 1):
                try:
                    stats = self._run_round(n, actors)
                    break
                except ray.exceptions.RayActorError:
                    if attempt == ROUND_ATTEMPTS:
                        raise
                    self.shutdown_actors()
                    t_start = time.monotonic()
                    actors = self._start_actors(n - 1)
                    start_s += time.monotonic() - t_start
            all_stats.append(stats)
            total_fetched += stats.fetched
            n += 1
        self.spider_state.save()
        return CrawlResult(
            self.workdir, all_stats, stopped, self.cfg.order_mode, round(start_s, 3)
        )

    def _committed_fetch_count(self, upto_round: int) -> int:
        total = 0
        for r in range(upto_round):
            mp = self._manifest_path(r)
            if os.path.exists(mp):
                with open(mp) as f:
                    total += json.load(f)["stats"].get("fetched", 0)
        return total

    def _run_round(self, n: int, actors: list) -> RoundStats:
        """One superstep; ONE Ray Data execution, sized by the rows it
        carries:

            1. one ``StateShard.gate`` call per shard with work
               (``exchange.frontier_shards``), to the actor hosting the
               shard (``actors[k % len(actors)]``; an actor runs its
               shards' calls in turn, actors run in parallel): the shard
               reads its candidate + deferred files, dedups, fingerprints,
               looks up seen + robots + budgets, runs the vectorized
               budget draw, side-writes DEFERRED rows and its ADMITTED
               rows (sorted by ``fetch_key``) and returns their count.
               ``gate_s`` is the wall from the first call to the last
               count.
            2. (only if anything was admitted) a map-only execution over
               as many fixed ``fetch_key`` ranges as the summed count calls
               for (``exchange.key_ranges``), one task each
               (``exchange.map_ranges``): the task reads
               its range of the admitted files of the shards whose call
               returned rows (``exchange.read_range``) → fused
               fetch+parse, if the range holds rows → per-shard candidate
               files for round n+1.  The ranges' row counts must add up to
               the gates'.  ``fetch_exec_s`` is its wall.

        The frontier itself NEVER rides an all-to-all exchange: candidates
        are hash-partitioned by seen-shard at the map side (fetch tasks
        write them through ``exchange.write_candidates``) and each shard's
        gate reads only its own files — per-round shuffle volume is the
        ADMITTED set (politeness-bounded, through files), not the candidate
        flood.  All
        counters come from idempotent per-shard / per-block sidecar files
        and parquet footers — zero bookkeeping executions.
        """
        t0 = time.monotonic()
        cfg = self.cfg
        stats = RoundStats(round=n)
        rdir = self._round_dir(n)
        gate_stats_dir = os.path.join(rdir, "gate_stats")
        fetched_dir = os.path.join(rdir, "fetched")
        nf_dir = self._frontier_dir(n + 1)
        # files from a killed or failed attempt at this round: fetch block
        # ids follow the fetch_parts cuts, and fetch_parts follows the
        # admitted count and the CPU count, so a re-run need not overwrite
        # them.  Round n's own frontier/ is this round's input and stays.
        for d in (gate_stats_dir, admitted_dir(rdir), fetched_dir, nf_dir):
            if os.path.isdir(d):
                shutil.rmtree(d)

        store_dir = self.store_dir
        next_cand_dir = candidates_dir(nf_dir)
        t_exec = time.monotonic()
        fdir = self._frontier_dir(n)
        shards = frontier_shards(fdir)
        count_refs = [
            actors[k % len(actors)].gate.remote(
                k, n, fdir, nf_dir, gate_stats_dir, rdir, cfg.order_mode
            )
            for k in shards
        ]
        # every call ends before a lost actor's error is raised, so no gate
        # of this attempt still writes when the round re-runs
        ray.wait(count_refs, num_returns=len(count_refs))
        counts = ray.get(count_refs)
        stats.gate_s = round(time.monotonic() - t_exec, 3)
        admitted = sum(counts)
        if admitted:
            stats.fetch_parts = _fetch_parts(cfg, admitted, cluster_cpus())
            # the files this attempt's gates wrote, never a listing of
            # admitted/: a killed attempt may have left a file for a shard
            # that admits nothing now
            paths = [admitted_path(rdir, k) for k, c in zip(shards, counts) if c]

            # the round's one execution, map-only: one FetchParse call per
            # range of consecutive fetch_keys, so each task probes each of
            # its buckets once (a groupby's map_groups would call it once
            # per fetch_key)
            def fetch(lo: int, hi: int) -> int:
                rows = read_range(paths, "fetch_key", lo, hi)
                if rows is None:
                    return 0
                FetchParse(store_dir, n, fetched_dir, cfg, next_cand_dir)(rows)
                return rows.num_rows

            ranges = key_ranges(stats.fetch_parts, cfg.fetch_buckets * FETCH_SPLIT)
            t_fetch = time.monotonic()
            range_rows = map_ranges(ranges, fetch)
            if range_rows != admitted:
                raise RuntimeError(
                    f"round {n}: the fetch ranges hold {range_rows} rows, "
                    f"the gates admitted {admitted}"
                )
            stats.fetch_exec_s = round(time.monotonic() - t_fetch, 3)
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

        # fetch / candidate counters from the block sidecars; the summed
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
            # bound the next round's gates: global top-k of the NEW
            # candidates by crawl order, each block of which writes its rows
            # per shard; the tail is dropped (re-discoverable via links) —
            # SURVEY.md §4.2.  Deferred rows are never capped: their
            # fingerprints are already recorded in the seen set, so dropping
            # one would lose the URL forever.
            files = exchange_files(next_cand_dir)

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
            tmp_dir = next_cand_dir + ".capped"
            shutil.rmtree(tmp_dir, ignore_errors=True)
            _write_sharded_candidates(
                capped, tmp_dir, lambda b: (b, _first_key_digest(b))
            )
            shutil.rmtree(next_cand_dir)
            os.replace(tmp_dir, next_cand_dir)
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
            hosts = sorted(host_obs)
            for host, k in zip(hosts, shard_of(hosts, cfg.seen_shards).tolist()):
                sum_bytes, n_fetch, n_ok = host_obs[host]
                dest = per_shard.setdefault(k, [[], [], []])
                dest[0].append(host)
                dest[1].append(sum_bytes / (n_fetch * bw))
                dest[2].append(n_ok == n_fetch)
            ray.get(
                [
                    actors[k % len(actors)].observe_round.remote(k, n, h, lat, ok)
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
