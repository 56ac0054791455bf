"""Per-host politeness for one host-hash shard: robots.txt cache + per-round
token budgets (plain class, Ray-free), and the budget draw that spends them.

Reference semantics being reproduced:
- robots: per-netloc parser cache; missing/unfetchable robots.txt ⇒ allow-all
  (``scrapy/downloadermiddlewares/robotstxt.py:41,82-136``); UA matched is the
  crawler's configured agent (``robotstxt.py:68-71``).
- slots: each host admits at most ``CONCURRENT_REQUESTS_PER_DOMAIN`` (8)
  in-flight requests, and ``DOWNLOAD_DELAY`` seconds between requests
  (``scrapy/core/downloader/__init__.py:199-225``).  The superstep engine is
  time-free: one round models one politeness window, so the per-host budget
  per round is

      budget = concurrent_requests_per_domain                 (delay == 0)
      budget = max(1, floor(round_seconds / effective_delay)) (delay > 0)

  where ``effective_delay = max(download_delay, robots crawl-delay)``.
  Unused budget does NOT carry over (matches the reference: an idle slot
  gains nothing).  Deterministic ⇒ the crawl order is reproducible, which is
  the parity artifact (BASELINE.json).
- host-fairness: each host draws from its own budget, so no hot host can
  starve others — the batch analog of ``DownloaderAwarePriorityQueue`` pop
  (``scrapy/pqueues.py:324-335``); fairness oracle shape:
  reference ``tests/test_scheduler.py:276-290``.

Retry idempotence: robots verdicts and budgets are pure per round, and
:func:`budget_draw` is a pure function of the gate's rows and those budgets,
so a retried gate task replays to identical decisions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from scrupyst_ray.functions.robots import RobotsRules, parse_robots

# gate status codes (int8, per frontier row)
ADMITTED = 0
DEFERRED = 1  # over budget this round — stays in the frontier
ROBOTS_FORBIDDEN = 2  # dropped permanently


class PolitenessState:
    def __init__(
        self,
        shard_id: int,
        user_agent: str,
        per_domain_budget: int = 8,
        download_delay: float = 0.0,
        round_seconds: float = 8.0,
        robotstxt_obey: bool = True,
        download_slots: dict | None = None,
        throttle=None,
    ):
        self.shard_id = shard_id
        self.user_agent = user_agent
        self.per_domain_budget = per_domain_budget
        self.download_delay = download_delay
        self.round_seconds = round_seconds
        self.robotstxt_obey = robotstxt_obey
        # per-slot overrides {host: {"delay", "concurrency"}} — reference
        # DOWNLOAD_SLOTS (core/downloader/__init__.py:131-133,148-167)
        self.download_slots = download_slots or {}
        # optional AutoThrottleState (ST5): when set, its adaptive per-host
        # delay REPLACES the static delay, exactly as the reference throttle
        # mutates slot.delay in place (extensions/throttle.py:104-129)
        self.throttle = throttle
        self._robots_bodies: dict[str, bytes | None] = {}  # host -> raw body
        self._robots_cache: dict[str, RobotsRules] = {}  # host -> parsed (lazy)
        self.stats = {"robots_forbidden": 0}

    # -- robots -------------------------------------------------------------

    def load_robots_bodies(self, hosts: list[str], bodies: list[bytes | None]) -> None:
        """Install raw robots.txt bodies for this shard's hosts (from the
        robots side-table derived from the page corpus).  Parsing is lazy —
        only hosts that actually appear in the frontier pay for it."""
        self._robots_bodies.update(zip(hosts, bodies))

    def _rules_for(self, host: str) -> RobotsRules:
        rules = self._robots_cache.get(host)
        if rules is None:
            body = self._robots_bodies.get(host)  # missing ⇒ None ⇒ allow-all
            rules = parse_robots(body)
            self._robots_cache[host] = rules
        return rules

    def _budget_for(self, host: str) -> int:
        slot = self.download_slots.get(host, {})
        delay = slot.get("delay", self.download_delay)
        concurrency = slot.get("concurrency", self.per_domain_budget)
        if self.throttle is not None:
            delay = self.throttle.delay_for(host)
        if self.robotstxt_obey:
            cd = self._rules_for(host).crawl_delay(self.user_agent)
            if cd is not None:
                delay = max(delay, cd)
        if delay > 0:
            return max(1, int(self.round_seconds / delay))
        return concurrency

    # -- gate helpers ---------------------------------------------------------
    # The superstep gate keeps the deferred backlog OUT of the actor RPC:
    # deferred rows were robots-checked and seen-recorded when first gated, so
    # per round the actor only answers (a) robots verdicts for NEW rows and
    # (b) per-host budgets; the draw itself (budget_draw below) is pure
    # deterministic compute run inside the gate task (pipelines/crawl.py).

    def robots_ok(self, hosts: list[str], urls: list[str]) -> np.ndarray:
        """Per-row robots verdict (all-True when ROBOTSTXT_OBEY is off)."""
        n = len(urls)
        out = np.ones(n, dtype=bool)
        if not self.robotstxt_obey:
            return out
        ua = self.user_agent
        for i in range(n):
            out[i] = self._rules_for(hosts[i]).allowed(urls[i], ua)
        return out

    def budgets(self, hosts: list[str]) -> np.ndarray:
        """Per-host round budget for a list of (unique) hosts."""
        return np.fromiter(
            (self._budget_for(h) for h in hosts), dtype=np.int64, count=len(hosts)
        )


def draw_order(order_mode: str) -> list[tuple[str, str]]:
    """Sort keys of the budget draw: (host, -priority, order_key).  DFO mode
    flips the order_key tie-break to LIFO (matches the oracle simulator's
    composed sorts)."""
    ok_dir = "descending" if order_mode == "dfo" else "ascending"
    return [
        ("host", "ascending"),
        ("priority", "descending"),
        ("order_key", ok_dir),
    ]


def budget_draw(
    rows: pa.Table,
    budget_hosts: list[str],
    budgets: np.ndarray,
    order_mode: str = "bfo",
) -> tuple[np.ndarray, np.ndarray]:
    """Spend each host's round budget over *rows* (columns host, priority,
    order_key) in :func:`draw_order`: the admitted set is the per-host top-k
    by priority with FIFO tie-break (LIFO under DFO) — the reference dequeue
    order, ``scrapy/pqueues.py:143-198`` + BFO config, SURVEY.md §2.6.

    *budgets* is :meth:`PolitenessState.budgets` over *budget_hosts*, which
    must cover every host in *rows*.  Returns ``(order, admit)``: the row
    indices in draw order and, aligned with them, the admit mask.
    """
    order = pc.sort_indices(rows, sort_keys=draw_order(order_mode)).to_numpy()
    m = len(order)
    if m == 0:
        return order, np.zeros(0, dtype=bool)
    dict_col = pc.dictionary_encode(rows["host"].take(order))
    if isinstance(dict_col, pa.ChunkedArray):
        dict_col = dict_col.combine_chunks()
    codes = dict_col.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    bmap = dict(zip(budget_hosts, budgets))
    bud = np.fromiter(
        (bmap[h] for h in dict_col.dictionary.to_pylist()),
        dtype=np.int64,
        count=len(dict_col.dictionary),
    )
    change = np.empty(m, dtype=bool)
    change[0] = True
    change[1:] = codes[1:] != codes[:-1]
    host_start = np.maximum.accumulate(np.where(change, np.arange(m), 0))
    rank_in_host = np.arange(m) - host_start
    return order, rank_in_host < bud[codes]
