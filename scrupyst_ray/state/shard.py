"""StateShard — the host-sharded stateful actor of the crawl engine.

Shard ``k = shard_of(host, num_shards)`` is one :class:`_StateShard`, which
holds BOTH per-shard states (they share the same routing key, so one call
per round serves the dupefilter AND the politeness gate):

- :class:`~scrupyst_ray.state.seen.SeenState` — URL-seen fingerprints
  (bloom negative path + exact sorted numpy lanes; reference
  ``scrapy/dupefilters.py``),
- :class:`~scrupyst_ray.state.politeness.PolitenessState` — robots.txt cache
  + per-host per-round budgets (reference downloader slots + robots
  middleware).

Shards share actor processes: a ``StateShard`` actor hosts a
:class:`_ShardGroup` of shards, each its own ``_StateShard`` with its own
state and files.  The engine starts ``min(num_shards, cluster CPUs)``
actors and actor ``j`` of ``A`` hosts shards ``j, j + A, j + 2A, …``: a
gate cannot run on more CPUs than there are, and each actor process costs
its start and its imports.  No method returns an Arrow table (a process's
first Arrow return imports ``ray.air``, ~0.2-0.7 s).

Data flow per round (see ``pipelines/crawl.py``): the driver makes ONE
:meth:`_ShardGroup.gate` call per shard with work, to the shard's actor.
The shard reads its frontier files itself, deduplicates the new rows, looks
them up in its own seen set, robots rules and budgets (``gate_check``,
in-process), runs :func:`~scrupyst_ray.state.politeness.budget_draw`,
writes the deferred rows, writes the admitted rows sorted by ``fetch_key``
(``exchange.write_admitted``), from which each fetch task reads its key
range, and returns their count.  Of the page store,
only robots.txt bodies reach these actors: a shard reads a host's robots.txt
the first time the host reaches its gate (:meth:`_StateShard.gate_check`).

Status codes extend ``state.politeness``: ADMITTED / DEFERRED /
ROBOTS_FORBIDDEN plus SEEN_DUP (filtered by the dupefilter).

Actor state is not lineage-protected (SURVEY.md §4.2), so every method is
idempotent per round and the seen set checkpoints per-round Parquet deltas
(tmp+rename) that ``restore()`` replays on resume; the engine heals a lost
actor the same way (restart every actor, restore, re-run the round).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from scrupyst_ray.functions.fingerprint import fingerprint_batch
from scrupyst_ray.stages.exchange import read_shard, write_admitted, write_deferred
from scrupyst_ray.stages.fetch import read_pages
from scrupyst_ray.stages.frontier import FRONTIER_SCHEMA
from scrupyst_ray.state.politeness import (
    ADMITTED,
    DEFERRED,
    ROBOTS_FORBIDDEN,
    PolitenessState,
    budget_draw,
    draw_order,
)
from scrupyst_ray.state.seen import SeenState, fp_array
from scrupyst_ray.state.throttle import AutoThrottleState

SEEN_DUP = 3  # status code for dupefilter-filtered rows

# sub-splits per store bucket of the fetch stage's sort key (see _fetch_key)
FETCH_SPLIT = 8

# what the gate admits: the frontier row plus its fetch key
ADMITTED_SCHEMA = FRONTIER_SCHEMA.append(pa.field("fetch_key", pa.int32()))


def _dedup(group: pa.Table, sort_keys) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Within-round dedup of a shard's new candidates: returns (*group*
    sorted by *sort_keys* with every surviving row fingerprinted, the
    indices of the surviving rows, the skip-seen flag of every row).

    The winner of each group of duplicates is the row first by the
    (priority, order_key) keys of *sort_keys* — deterministic.  Two passes: by URL string first
    (cheap, catches the bulk), then by fingerprint over the survivors
    (catches canonically-equivalent spellings).  The combined winner equals
    pure-fingerprint dedup because URL-groups are subsets of
    fingerprint-groups.  Candidate rows arrive with fp=b""
    (stages/frontier.py computes it lazily); only pass-1 survivors are
    fingerprinted — once per unique URL instead of once per edge.  Rows
    that skip the seen check (``dont_filter``, ``already_enqueued``) are
    never deduplicated."""
    n = group.num_rows
    group = group.take(pc.sort_indices(group, sort_keys=sort_keys))
    fp64 = group["fp64"].to_numpy(zero_copy_only=False).copy()
    skip_seen = (
        pc.or_(group["dont_filter"], group["already_enqueued"])
        .to_numpy(zero_copy_only=False)
        .astype(bool)
    )
    order_rank = pc.sort_indices(
        group, sort_keys=sort_keys[1:]  # (priority, order_key)
    ).to_numpy(zero_copy_only=False)
    rank_of_row = np.empty(n, dtype=np.int64)
    rank_of_row[order_rank] = np.arange(n)
    local_dup = np.zeros(n, dtype=bool)

    def mark_dups(codes: np.ndarray) -> None:
        """Among active rows (not skip_seen, not already dup), keep the
        lowest-rank row per key code; vectorized first-occurrence over the
        rank-sorted active set (no Python row loop)."""
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

    # -- lazy fingerprints: only pass-1 survivors missing fp (new candidate
    # rows arrive with fp=b""), once per unique URL, written into the
    # group's fp / fp64 columns
    miss = ~local_dup & pc.equal(group["fp"], b"").to_numpy(zero_copy_only=False)
    if miss.any():
        miss_pa = pa.array(miss)
        fps = fingerprint_batch(group.select(["url"]).filter(miss_pa))
        fp64[miss] = fps["fp64"].to_numpy()
        fp = pc.replace_with_mask(
            group["fp"].combine_chunks(), miss_pa, fps["fp"].combine_chunks()
        )
        i_fp = group.schema.get_field_index("fp")
        group = group.set_column(i_fp, "fp", fp).set_column(
            group.schema.get_field_index("fp64"),
            "fp64",
            pa.array(fp64, pa.uint64()),
        )

    # -- pass 2: fingerprint dedup (canonically-equivalent spellings).
    # fp64 (first 8 fp bytes) is the vectorized key; rows that share an
    # fp64 are confirmed against full fp bytes, so 64-bit collisions can
    # never merge distinct fingerprints.
    active = np.flatnonzero(~(skip_seen | local_dup))
    if active.size:
        order = active[np.argsort(rank_of_row[active], kind="stable")]
        c64 = fp64[order]
        uniq, first, counts = np.unique(c64, return_index=True, return_counts=True)
        if (counts > 1).any():
            rows = order[np.isin(c64, uniq[counts > 1])]  # rank order
            fps_exact = group["fp"].take(pa.array(rows)).to_pylist()
            winner: dict[bytes, int] = {}
            for k, i in zip(fps_exact, rows):
                if k in winner:
                    local_dup[int(i)] = True
                else:
                    winner[k] = int(i)
    return group, np.flatnonzero(~local_dup), skip_seen


def _fetch_key(admitted: pa.Table) -> pa.Array:
    """The fetch stage's sort key: each store bucket sub-split FETCH_SPLIT
    ways by fp64.  The bucket alone is only 64-ary, and range-partitioning
    so few distinct values across ~32 blocks is lumpy (measured 3.3 s ..
    10.9 s fetch-task skew); 512 keys balance the fetch ranges.
    ``key // FETCH_SPLIT`` is still the store bucket, so a range holds a
    contiguous run of buckets and probes each of them once."""
    sub = pc.bit_wise_and(admitted["fp64"], pa.scalar(FETCH_SPLIT - 1, pa.uint64()))
    key = pc.add(
        pc.multiply(admitted["bucket"], FETCH_SPLIT), pc.cast(sub, pa.int32())
    )
    return pc.cast(key, pa.int32())


class _StateShard:
    """Plain implementation (unit-testable without Ray).  Its robots.txt
    bodies come from the page store at *store_dir* (built with
    *fetch_buckets* buckets); without one, every host is allow-all."""

    def __init__(
        self,
        shard_id: int,
        *,
        user_agent: str,
        per_domain_budget: int = 8,
        download_delay: float = 0.0,
        round_seconds: float = 8.0,
        robotstxt_obey: bool = True,
        store_dir: str | None = None,
        fetch_buckets: int = 0,
        download_slots: dict | None = None,
        throttle_config: dict | None = None,
    ):
        self.shard_id = shard_id
        self.seen = SeenState(shard_id)
        # AutoThrottle (ST5): enabled by passing {"start_delay", "max_delay",
        # "target_concurrency"}; min delay is the static download_delay
        # (reference extensions/throttle.py:50-56)
        self.throttle = None
        if throttle_config is not None:
            self.throttle = AutoThrottleState(
                min_delay=download_delay, **throttle_config
            )
        self.politeness = PolitenessState(
            shard_id,
            user_agent=user_agent,
            per_domain_budget=per_domain_budget,
            download_delay=download_delay,
            round_seconds=round_seconds,
            robotstxt_obey=robotstxt_obey,
            download_slots=download_slots,
            throttle=self.throttle,
        )
        self.store_dir = store_dir
        self.fetch_buckets = fetch_buckets

    def _load_robots(self, hosts) -> None:
        """Install the robots.txt body of each of *hosts* not probed yet:
        the page at ``http://{host}/robots.txt``, else
        ``https://{host}/robots.txt``, else None (allow-all), all read in
        one page-store lookup.  Nothing is read with ``robotstxt_obey`` off,
        when no rule is ever asked for."""
        pol = self.politeness
        if self.store_dir is None or not pol.robotstxt_obey:
            return
        new = pol.unprobed_hosts(hosts)
        if not new:
            return
        urls = [(f"http://{h}/robots.txt", f"https://{h}/robots.txt") for h in new]
        pages = read_pages(
            self.store_dir, self.fetch_buckets, [u for pair in urls for u in pair]
        )
        pol.load_robots_bodies(
            new, [pages.get(http, pages.get(https)) for http, https in urls]
        )

    def gate(
        self,
        round_id: int,
        frontier_dir: str,
        next_frontier_dir: str,
        stats_dir: str,
        round_dir: str,
        order_mode: str,
    ) -> int:
        """The shard's gate for round *round_id*: returns the count of
        rows it admitted, which it writes (``ADMITTED_SCHEMA``, stably
        sorted by ``fetch_key``, so ties keep their budget-draw order) to
        ``exchange.admitted_path(round_dir, shard)``; a shard admitting
        nothing writes no such file.

        Reads the shard's rows from *frontier_dir* (``exchange.read_shard``:
        the new candidates the previous round's fetch tasks wrote for this
        shard, and its deferred rows, which never re-enter a shuffle),
        deduplicates and fingerprints the new rows (:func:`_dedup`), looks
        the survivors up (:meth:`gate_check`) and spends each host's round
        budget over deferred ∪ surviving rows
        (``politeness.budget_draw``).  DEFERRED rows are written straight
        into *next_frontier_dir* (``exchange.write_deferred``) and the
        counters into ``stats_dir/shard=K.json``; every file is
        tmp+rename under a stable name, and a same-round repeat (after a
        restore to the round before) returns the same count and writes
        equal files.

        The sidecar's ``phase_s`` is the wall of each phase: file read /
        dedup + fingerprint / the seen, robots and budget lookup
        (``rpc``: since the gate runs in this actor, an in-process call,
        which also reads the robots.txt of hosts new to the shard) /
        budget draw + deferred and admitted writes.  A shard without rows
        returns 0 and writes nothing."""
        t_start = time.monotonic()
        cands, deferred_in = read_shard(frontier_dir, self.shard_id)
        group = (
            FRONTIER_SCHEMA.empty_table() if cands is None else cands.combine_chunks()
        )
        n = group.num_rows
        n_def = deferred_in.num_rows if deferred_in is not None else 0
        t_read = time.monotonic()
        if n == 0 and n_def == 0:
            return 0

        # -- NEW candidates only are deduplicated and looked up.  Deferred
        # rows were seen-recorded and robots-checked when first gated
        # (forbidden rows are dropped, never deferred; robots rules are
        # static), so per-round lookup work is O(new rows), not O(frontier
        # backlog).  A deferred-only shard (n == 0) still looks up its
        # hosts' budgets.
        group, live, skip_seen = _dedup(group, draw_order(order_mode))
        live_rows = group.take(pa.array(live))
        hosts_live = live_rows["host"].to_pylist()
        # hosts(live) == hosts(all candidates): a local dup always shares
        # its host with the surviving winner (same url / same canonical)
        budget_hosts = set(hosts_live)
        if n_def:
            budget_hosts.update(pc.unique(deferred_in["host"]).to_pylist())
        budget_hosts = sorted(budget_hosts)
        t_dedup = time.monotonic()
        res = self.gate_check(
            round_id,
            fp_array(live_rows["fp"]),
            live_rows["fp64"].to_numpy(zero_copy_only=False),
            skip_seen[live],
            hosts_live,
            live_rows["url"].to_pylist(),
            budget_hosts,
        )
        t_rpc = time.monotonic()
        fresh, robots = res["fresh"], res["robots_ok"]
        new_surv = live_rows.filter(pa.array(fresh & robots))

        # -- budget draw over deferred ∪ surviving new rows: pure and
        # deterministic, so a repeated round replays identical decisions.
        parts = [t for t in (deferred_in, new_surv) if t is not None and t.num_rows]
        n_admitted = n_defer_out = 0
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
            admitted = admitted.append_column("fetch_key", _fetch_key(admitted))
            n_admitted = admitted.num_rows
            if n_admitted:
                by_key = np.argsort(admitted["fetch_key"].to_numpy(), kind="stable")
                write_admitted(admitted.take(by_key), round_dir, self.shard_id)
            n_defer_out = combined.num_rows - n_admitted
            if n_defer_out:
                deferred = combined.filter(pa.array(~admit_mask))
                i_enq = deferred.column_names.index("already_enqueued")
                deferred = deferred.set_column(
                    i_enq,
                    "already_enqueued",
                    pa.array(np.ones(deferred.num_rows, bool), pa.bool_()),
                )
                write_deferred(deferred, next_frontier_dir, self.shard_id)

        os.makedirs(stats_dir, exist_ok=True)
        counts = {
            "shard": int(self.shard_id),
            "total": int(n + n_def),
            "admitted": int(n_admitted),
            "deferred": int(n_defer_out),
            "robots_forbidden": int((fresh & ~robots).sum()),
            # local dups and seen-set hits
            "dupefilter_filtered": int(n - fresh.sum()),
            "phase_s": {
                "read": round(t_read - t_start, 3),
                "dedup": round(t_dedup - t_read, 3),
                "rpc": round(t_rpc - t_dedup, 3),
                "draw": round(time.monotonic() - t_rpc, 3),
            },
        }
        path = os.path.join(stats_dir, f"shard={self.shard_id:05d}.json")
        with open(path + ".tmp", "w") as f:
            json.dump(counts, f)
        os.replace(path + ".tmp", path)
        return n_admitted

    def gate_check(
        self,
        round_id: int,
        fps: list[bytes],
        fp64: np.ndarray,
        skip_seen: np.ndarray,
        hosts: list[str],
        urls: list[str],
        budget_hosts: list[str],
    ) -> dict:
        """The gate's lookup: seen-check + robots verdicts for the round's
        NEW rows only, plus per-host budgets for *budget_hosts* (the union
        of new and deferred hosts); :meth:`gate` then runs the budget draw
        (``politeness.budget_draw``: pure).  Idempotent per round:
        ``check_and_add`` replays round-*r* re-deliveries, robots verdicts
        and budgets are pure per round.  A host's robots.txt is read from
        the page store the first time the host is looked up
        (:meth:`_load_robots`).

        Rows must be pre-deduplicated by fp.  ``skip_seen`` marks rows that
        bypass the dupefilter: ``dont_filter`` requests (reference
        ``core/scheduler.py:343``) and deferred rows re-entering the frontier.
        """
        self._load_robots(budget_hosts)
        n = len(urls)
        skip_seen = np.asarray(skip_seen, dtype=bool)
        fresh = np.ones(n, dtype=bool)
        check_idx = np.flatnonzero(~skip_seen)
        if len(check_idx):
            fresh[check_idx] = self.seen.check_and_add(
                round_id,
                np.asarray(fps)[check_idx],
                np.asarray(fp64, dtype=np.uint64)[check_idx],
            )
        return {
            "fresh": fresh,
            "robots_ok": self.politeness.robots_ok(hosts, urls),
            "budgets": self.politeness.budgets(budget_hosts),
        }

    def observe_round(
        self,
        round_id: int,
        hosts: list[str],
        mean_latencies: list[float],
        oks: list[bool],
    ) -> None:
        """Feed the round's per-host latency observations to the throttle
        (no-op when AutoThrottle is disabled; idempotent per round)."""
        if self.throttle is not None:
            self.throttle.observe_round(round_id, hosts, mean_latencies, oks)

    def checkpoint(self, seen_dir: str, round_id: int) -> int:
        """Flush this round's seen delta → ``seen_dir/shard=K/round=N.parquet``
        (plus a full throttle-delay snapshot when AutoThrottle is on)."""
        shard_dir = os.path.join(seen_dir, f"shard={self.shard_id:05d}")
        if self.throttle is not None:
            self.throttle.snapshot(
                os.path.join(shard_dir, f"throttle={round_id:06d}.parquet")
            )
        return self.seen.flush_delta(
            os.path.join(shard_dir, f"round={round_id:06d}.parquet")
        )

    def restore(self, seen_dir: str, upto_round: int) -> int:
        """Reload all committed deltas for this shard (resume path)."""
        shard_dir = os.path.join(seen_dir, f"shard={self.shard_id:05d}")
        loaded = 0
        throttle_snap = None
        if os.path.isdir(shard_dir):
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".parquet"):
                    continue
                if name.startswith("throttle="):
                    rnd = int(name[len("throttle=") : -len(".parquet")])
                    if rnd <= upto_round:
                        throttle_snap = os.path.join(shard_dir, name)
                    continue
                rnd = int(name[len("round=") : -len(".parquet")])
                if rnd <= upto_round:
                    loaded += self.seen.load_delta(
                        os.path.join(shard_dir, name), rnd
                    )
        if self.throttle is not None and throttle_snap is not None:
            self.throttle.restore(throttle_snap)  # snapshots are cumulative
        return loaded


class _ShardGroup:
    """The shards one actor process hosts (*shard_ids*, or one shard id),
    each its own :class:`_StateShard` built with *shard_kwargs*.

    ``gate`` and ``observe_round`` name their shard; ``warm``,
    ``checkpoint`` and ``restore`` serve every hosted shard in one call.
    A group's shards run one call at a time, so the engine hosts no more
    groups than the cluster has CPUs to run their gates on."""

    def __init__(self, shard_ids: int | list[int], **shard_kwargs):
        ids = [shard_ids] if isinstance(shard_ids, int) else list(shard_ids)
        self.shards = {k: _StateShard(k, **shard_kwargs) for k in ids}

    def warm(self) -> None:
        """Force one-time per-process setup NOW (the engine warms its
        actors in parallel at startup); paying it lazily instead would land
        on round 0's gate calls: pyarrow's parquet scan set-up, paid here
        by one page-store lookup of a url no page has."""
        shard = next(iter(self.shards.values()))
        if shard.store_dir is not None:
            read_pages(shard.store_dir, shard.fetch_buckets, [""])

    def gate(self, shard_id: int, *args) -> int:
        """:meth:`_StateShard.gate` of shard *shard_id*."""
        return self.shards[shard_id].gate(*args)

    def observe_round(self, shard_id: int, *args) -> None:
        """:meth:`_StateShard.observe_round` of shard *shard_id*."""
        self.shards[shard_id].observe_round(*args)

    def checkpoint(self, seen_dir: str, round_id: int) -> int:
        """Every hosted shard's :meth:`_StateShard.checkpoint`."""
        return sum(s.checkpoint(seen_dir, round_id) for s in self.shards.values())

    def restore(self, seen_dir: str, upto_round: int) -> int:
        """Every hosted shard's :meth:`_StateShard.restore`."""
        return sum(s.restore(seen_dir, upto_round) for s in self.shards.values())


# Ray actor: near-zero CPU reservation — these are index servers, not compute
# stages (per-round work is array lookups over frontier-sized metadata).  A
# real reservation would eat the task-pool CPU budget: the engine starts up
# to one actor per cluster CPU, so actors × anything ≥ 0.1 CPU would take
# whole task slots from the Ray Data tasks that feed them (a full stall was
# observed at num_cpus=4 with 16 one-shard actors at 0.25).
StateShard = ray.remote(num_cpus=0.01)(_ShardGroup)

__all__ = [
    "ADMITTED",
    "ADMITTED_SCHEMA",
    "DEFERRED",
    "FETCH_SPLIT",
    "ROBOTS_FORBIDDEN",
    "SEEN_DUP",
    "StateShard",
    "_ShardGroup",
    "_StateShard",
]
