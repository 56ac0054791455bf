"""DFO (depth-first order) crawl parity vs the oracle simulator (O2 in
SURVEY.md §2 — the reference's LIFO queue order, ``scrapy/squeues.py:
149-176``: with the default LifoMemoryQueue, requests pop newest-first
within a priority level; BFO is FIFO + DEPTH_PRIORITY=1,
``docs/topics/broad-crawls.rst``).

In the superstep engine the per-round barrier stays breadth-wise (a round
IS the clock), but every within-round ordering decision — dedup winner,
politeness draw, fetch order, candidate-cap top-k — flips its order_key
tie-break to LIFO (descending), matching the reference's pop order at
equal priority.  The parity oracle flips the same sorts.
"""

from __future__ import annotations

import os
import sys

import pyarrow.parquet as pq
import pytest

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.pipelines.crawl import CrawlEngine

from tests.crawl_sim import load_pages_dict, simulate_crawl

# the checkout these tests run in, so __ray_entry__ imports from it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _seed_urls(corpus: str) -> list[str]:
    t = pq.read_table(os.path.join(corpus, "seeds.parquet"))
    return t.sort_by("seq")["url"].to_pylist()


def _engine_order(result) -> list[tuple[int, str]]:
    t = result.crawl_order_table()
    return list(zip(t["round"].to_pylist(), t["url"].to_pylist()))


@pytest.mark.usefixtures("ray_session")
class TestCrawlDFO:
    def test_dfo_matches_oracle(self, smoke_corpus, tmp_path):
        cfg = CrawlConfig(
            seen_shards=4,
            fetch_buckets=4,
            concurrent_requests_per_domain=4,
            closespider_pagecount=0,
            order_mode="dfo",
        )
        seeds = _seed_urls(smoke_corpus)
        sim = simulate_crawl(load_pages_dict(smoke_corpus), seeds, cfg, max_rounds=5)

        eng = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "wd"), cfg
        )
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=5)
        eng.shutdown_actors()

        assert res.total_fetched > 0
        assert _engine_order(res) == sim.fetch_order
        assert [r.admitted for r in res.rounds] == sim.per_round_admitted
        assert [r.deferred for r in res.rounds] == sim.per_round_deferred

    def test_dfo_order_differs_from_bfo(self, smoke_corpus):
        """Sanity: the two modes really produce different orders on the
        smoke graph (otherwise the parity test proves nothing)."""
        seeds = _seed_urls(smoke_corpus)
        pages = load_pages_dict(smoke_corpus)
        bfo = simulate_crawl(pages, seeds, CrawlConfig(order_mode="bfo"))
        dfo = simulate_crawl(pages, seeds, CrawlConfig(order_mode="dfo"))
        assert bfo.fetch_order != dfo.fetch_order
        # run to exhaustion: same reachable set, different order
        assert sorted(u for _, u in bfo.fetch_order) == sorted(
            u for _, u in dfo.fetch_order
        )


def test_dfo_query_entry_differs_from_bfo(ray_session):
    """crawl_dfo_order runs the LIFO-tie-break crawl and its fetched set
    diverges from BFO's (full value parity is the SQL-oracle gate)."""
    import __ray_entry__ as e

    bfo = e.queries()["crawl_bfo_order"]("/root/testdata/sf0.001").to_pandas()
    dfo = e.queries()["crawl_dfo_order"]("/root/testdata/sf0.001").to_pandas()
    key = ["round", "url"]
    assert set(map(tuple, bfo[key].itertuples(index=False, name=None))) != set(
        map(tuple, dfo[key].itertuples(index=False, name=None))
    )


def test_pagecount_query_stops_early(ray_session):
    """O3: the pagecount variant stops before the first round whose prior
    cumulative fetch count reaches 40 (SQL parity is the oracle gate)."""
    import __ray_entry__ as e

    df = e.queries()["crawl_pagecount_limit"]("/root/testdata/sf0.001").to_pandas()
    per = df.groupby("round").size().sort_index()
    cum_before = per.cumsum().shift(fill_value=0)
    assert (cum_before < 40).all()          # every run round was allowed
    assert per.sum() >= 40                  # and the stop actually fired


def test_depth_and_offsite_variants(ray_session):
    """M6/M4 inside the engine: depth_limit caps every fetched depth;
    allowed_domains confines non-seed fetches to the allowed hosts."""
    import __ray_entry__ as e

    dl = e.queries()["crawl_depth_limited"]("/root/testdata/sf0.001").to_pandas()
    assert dl.depth.max() <= 2

    off = e.queries()["crawl_offsite_filtered"]("/root/testdata/sf0.001").to_pandas()
    hosts = off.url.str.extract(r"http://([^/]+)/")[0]
    allowed = {"host000.test", "host002.test", "host003.test", "host004.test"}
    non_seed = off[off.depth > 0]
    ns_hosts = non_seed.url.str.extract(r"http://([^/]+)/")[0]
    assert set(ns_hosts) <= allowed
    assert not set(hosts) <= allowed  # seeds bypass the filter
