"""Single-threaded reference simulator of the crawl semantics (test oracle).

Implements the SAME semantics as the distributed engine — dupefilter at
enqueue, robots + per-host per-round budget at admission, BFO ordering by
(round, -priority, order_key) — using plain dicts and lists.  It shares the
*kernels* (text extraction, link extraction, robots, fingerprints), which
have their own golden tests, so what this oracle validates in e2e tests is
the DISTRIBUTED machinery: shuffles, shard actors, idempotence, checkpoint
and resume (FIXTURES.md §5, §7).
"""

from __future__ import annotations

from dataclasses import dataclass

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.functions.fingerprint import fingerprint
from scrupyst_ray.functions.links import LinkExtractorConfig, extract_links
from scrupyst_ray.functions.robots import parse_robots
from scrupyst_ray.functions.textextract import detect_and_decode
from scrupyst_ray.functions.urlnorm import parse_host, safe_url_string


@dataclass
class SimRow:
    url: str
    host: str
    depth: int
    priority: int
    order_key: bytes
    dont_filter: bool = False
    already_enqueued: bool = False


@dataclass
class SimResult:
    fetch_order: list[tuple[int, str]]  # (round, url) in crawl order
    seen_fps: set[bytes]
    per_round_admitted: list[int]
    per_round_deferred: list[int]
    robots_forbidden: int


def simulate_crawl(
    pages: dict[str, bytes],
    seed_urls: list[str],
    cfg: CrawlConfig | None = None,
    max_rounds: int = 10**9,
) -> SimResult:
    cfg = cfg or CrawlConfig()
    extractor = LinkExtractorConfig()
    robots_cache: dict[str, object] = {}

    def rules_for(host: str):
        r = robots_cache.get(host)
        if r is None:
            # the host's root robots.txt; https only when http has none
            url = f"http://{host}/robots.txt"
            if url not in pages:
                url = f"https://{host}/robots.txt"
            r = parse_robots(pages.get(url))
            robots_cache[host] = r
        return r

    def budget_for(host: str) -> int:
        delay = cfg.download_delay
        cd = rules_for(host).crawl_delay(cfg.user_agent) if cfg.robotstxt_obey else None
        if cd is not None:
            delay = max(delay, cd)
        if delay > 0:
            return max(1, int(cfg.round_seconds / delay))
        return cfg.concurrent_requests_per_domain

    seen: dict[bytes, int] = {}
    frontier: list[SimRow] = [
        SimRow(
            url=safe_url_string(u),
            host=parse_host(safe_url_string(u)),
            depth=0,
            priority=0,
            order_key=i.to_bytes(8, "big"),
            dont_filter=True,
        )
        for i, u in enumerate(seed_urls)
    ]
    fetch_order: list[tuple[int, str]] = []
    per_round_admitted: list[int] = []
    per_round_deferred: list[int] = []
    robots_forbidden = 0

    # LIFO tie-break for DFO mode (reference LifoMemoryQueue pop order,
    # squeues.py:176): compose stable sorts — order_key pass first
    # (reversed for dfo), outer keys after — exact per-key direction mix.
    dfo = cfg.order_mode == "dfo"

    def by_order(rows, *outer):
        rows = sorted(rows, key=lambda r: r.order_key, reverse=dfo)
        if outer:
            rows.sort(key=lambda r: tuple(k(r) for k in outer))
        return rows

    rnd = 0
    while frontier and rnd < max_rounds:
        # dedup among non-bypass rows: winner = (priority desc, order_key)
        ordered = by_order(frontier, lambda r: -r.priority)
        winners: dict[bytes, SimRow] = {}
        fps: dict[int, bytes] = {}
        live: list[SimRow] = []
        for row in ordered:
            if row.dont_filter or row.already_enqueued:
                live.append(row)
                continue
            fp = fingerprint(row.url, url_is_safe=True)
            fps[id(row)] = fp
            if fp in winners:
                continue  # within-round dup → dupefilter/filtered
            winners[fp] = row
            live.append(row)

        admitted: list[SimRow] = []
        deferred: list[SimRow] = []
        budget_left: dict[str, int] = {}
        # politeness order: host, -priority, order_key (matches shard gate)
        for row in by_order(live, lambda r: r.host, lambda r: -r.priority):
            if not (row.dont_filter or row.already_enqueued):
                fp = fps[id(row)]
                first = seen.get(fp)
                if first is not None and first != rnd:
                    continue  # dupefilter/filtered
                seen[fp] = rnd
            if cfg.robotstxt_obey and not rules_for(row.host).allowed(
                row.url, cfg.user_agent
            ):
                robots_forbidden += 1
                continue
            left = budget_left.get(row.host)
            if left is None:
                left = budget_for(row.host)
            if left > 0:
                budget_left[row.host] = left - 1
                admitted.append(row)
            else:
                row.already_enqueued = True
                deferred.append(row)

        per_round_admitted.append(len(admitted))
        per_round_deferred.append(len(deferred))

        # fetch order within the round: (-priority, order_key)
        admitted = by_order(admitted, lambda r: -r.priority)
        candidates: list[SimRow] = []
        for row in admitted:
            fetch_order.append((rnd, row.url))
            html = pages.get(row.url)
            if html is None:
                continue  # fetch-miss
            encoding, text = detect_and_decode(html)
            for li, link in enumerate(extract_links(text, row.url, encoding, extractor)):
                if link.nofollow and not cfg.follow_nofollow:
                    continue
                if len(link.url) > cfg.urllength_limit:
                    continue
                host = parse_host(link.url)
                if not host:
                    continue
                depth = row.depth + 1
                if cfg.depth_limit and depth > cfg.depth_limit:
                    continue
                candidates.append(
                    SimRow(
                        url=link.url,
                        host=host,
                        depth=depth,
                        priority=-depth * cfg.depth_priority,
                        order_key=row.order_key + min(li, 0xFFFF).to_bytes(2, "big"),
                    )
                )
        frontier = candidates + deferred
        rnd += 1

    return SimResult(
        fetch_order, set(seen.keys()), per_round_admitted, per_round_deferred,
        robots_forbidden,
    )


def load_pages_dict(corpus_dir: str) -> dict[str, bytes]:
    import os

    import pyarrow.parquet as pq

    pages_dir = os.path.join(corpus_dir, "pages")
    out: dict[str, bytes] = {}
    for f in sorted(os.listdir(pages_dir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(pages_dir, f), columns=["url", "html"])
            out.update(zip(t["url"].to_pylist(), t["html"].to_pylist()))
    return out
