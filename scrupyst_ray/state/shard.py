"""StateShard — the host-sharded stateful actor of the crawl engine.

One actor owns shard ``k = shard_of(host, num_shards)`` and holds BOTH
per-shard states (they share the same routing key, so one shuffle + one RPC
per round serves the dupefilter AND the politeness gate):

- :class:`~scrupyst_ray.state.seen.SeenState` — URL-seen fingerprints
  (bloom negative path + exact sorted numpy lanes; reference
  ``scrapy/dupefilters.py``),
- :class:`~scrupyst_ray.state.politeness.PolitenessState` — robots.txt cache
  + per-host per-round budgets (reference downloader slots + robots
  middleware).

Data flow per round (see ``pipelines/crawl.py``): each shard's gate task
deduplicates its new rows and makes ONE ``gate_check()`` call carrying only
the small columns (fp, host, url) — html never reaches these actors.  The
call answers seen-checks, robots verdicts and per-host budgets; the gate
task then runs :func:`~scrupyst_ray.state.politeness.budget_draw` itself.

Status codes extend ``state.politeness``: ADMITTED / DEFERRED /
ROBOTS_FORBIDDEN plus SEEN_DUP (filtered by the dupefilter).

Actor state is not lineage-protected (SURVEY.md §4.2), so every method is
idempotent per round and the seen set checkpoints per-round Parquet deltas
(tmp+rename) that ``restore()`` replays on resume.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import ray

from scrupyst_ray.state.politeness import (
    ADMITTED,
    DEFERRED,
    ROBOTS_FORBIDDEN,
    PolitenessState,
)
from scrupyst_ray.state.seen import SeenState
from scrupyst_ray.state.throttle import AutoThrottleState

SEEN_DUP = 3  # status code for dupefilter-filtered rows


class _StateShard:
    """Plain implementation (unit-testable without Ray)."""

    def __init__(
        self,
        shard_id: int,
        *,
        user_agent: str,
        per_domain_budget: int = 8,
        download_delay: float = 0.0,
        round_seconds: float = 8.0,
        robotstxt_obey: bool = True,
        robots_path: str | None = None,
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
        self._robots_path = robots_path
        self._robots_loaded = False

    def warm(self) -> int:
        """Force one-time per-process setup (pyarrow parquet reader init +
        robots side-table load, ~0.3 s) NOW.  The engine calls this in
        parallel across the pool at startup; paying it lazily instead would
        serialize it behind the first round's one-RPC-per-shard gate chain
        (measured 0.35 s × shards = 11.5 s of round-0 wall)."""
        self._ensure_robots()
        return self.shard_id

    def _ensure_robots(self) -> None:
        if self._robots_loaded:
            return
        self._robots_loaded = True
        path = self._robots_path
        if path and os.path.exists(path):
            table = pq.read_table(path, columns=["host", "body"])
            self.politeness.load_robots_bodies(
                table["host"].to_pylist(), table["body"].to_pylist()
            )

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
        """Gate RPC: seen-check + robots verdicts for the round's NEW rows
        only, plus per-host budgets for *budget_hosts* (the union of new and
        deferred hosts).  The budget draw itself happens in the gate task
        (``politeness.budget_draw``: pure, retry-safe) — the deferred backlog
        never crosses this RPC, so per-round actor payload is O(new rows), not
        O(frontier).  Idempotent per round: ``check_and_add`` replays round-
        *r* re-deliveries, robots verdicts and budgets are pure per round.

        Rows must be pre-deduplicated by fp.  ``skip_seen`` marks rows that
        bypass the dupefilter: ``dont_filter`` requests (reference
        ``core/scheduler.py:343``) and deferred rows re-entering the frontier.
        """
        self._ensure_robots()
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
        robots = self.politeness.robots_ok(hosts, urls)
        self.politeness.stats["robots_forbidden"] += int(
            (fresh & ~robots).sum()
        )
        return {
            "fresh": fresh,
            "robots_ok": robots,
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

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "seen_size": len(self.seen),
            **{f"seen/{k}": v for k, v in self.seen.stats.items()},
            **{f"politeness/{k}": v for k, v in self.politeness.stats.items()},
        }


# Ray actor: near-zero CPU reservation — these are index servers, not compute
# stages (per-round work is array lookups over frontier-sized metadata).  A
# real reservation would eat the task-pool CPU budget: num_shards ≥ cores is
# the normal config, so shards × anything ≥ 0.1 CPU would starve the Ray Data
# tasks that feed them (observed as a full stall at num_cpus=4 with 16
# shards at 0.25).
StateShard = ray.remote(num_cpus=0.01)(_StateShard)

__all__ = [
    "ADMITTED",
    "DEFERRED",
    "ROBOTS_FORBIDDEN",
    "SEEN_DUP",
    "StateShard",
    "_StateShard",
]
