"""The crawl's two routing keys follow one rule (SURVEY.md §7.3): the
seen/politeness shard is ``stable_hash64(host) % seen_shards`` and the page
store bucket is ``stable_hash64(url) % fetch_buckets``.  Every writer and
reader agrees on both, and a store or workdir laid out for another modulus
is refused instead of read under the wrong keys."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.functions.hashing import bucket_of, shard_of, stable_hash64
from scrupyst_ray.functions.urlnorm import parse_host, safe_url_string
from scrupyst_ray.stages.followup import followups_batch
from scrupyst_ray.stages.frontier import (
    EDGE_META_SCHEMA,
    edges_to_candidates,
    seeds_to_frontier,
)

CFG = CrawlConfig(seen_shards=7, fetch_buckets=16)

URLS = [
    "http://host000.test/a?n=1",
    "http://host000.test/a?n=2",
    "https://Host001.test:8443/b",
    "http://user:pw@host002.test/c d",
    "http://bücher.test/ü",
    "http://host000.test/a?n=1",  # repeated
]


def _rule_shard(host: str) -> int:
    return stable_hash64(host) % CFG.seen_shards


def _rule_bucket(url: str) -> int:
    return stable_hash64(url) % CFG.fetch_buckets


def test_shard_and_bucket_follow_the_rule():
    values = URLS + ["", "host000.test"]
    want = [stable_hash64(v) % 5 for v in values]
    for arg in (values, pa.array(values), pa.chunked_array([values[:3], values[3:]])):
        assert shard_of(arg, 5).tolist() == want
        assert bucket_of(arg, 5).tolist() == want
    assert shard_of([], 5).dtype == np.int32 and len(bucket_of([], 5)) == 0


def test_seeds_candidates_and_followups_route_alike():
    """The same URL gets the same shard and bucket whichever builder made
    its frontier row."""
    safe = [safe_url_string(u) for u in URLS]
    n = len(safe)
    seeds = seeds_to_frontier(pa.table({"url": URLS, "seq": list(range(n))}), CFG)
    kept, drops = edges_to_candidates(
        pa.table(
            {
                "dst": safe,
                "nofollow": [False] * n,
                "link_idx": pa.array(range(n), pa.int32()),
                "parent_depth": pa.array([0] * n, pa.int32()),
                "parent_order_key": [b"\x00"] * n,
            },
            schema=EDGE_META_SCHEMA,
        ),
        CFG,
    )
    assert kept.num_rows == n and drops == {}
    retries = followups_batch(
        pa.table({"url": safe, "status": [503] * n}), CFG
    )  # a retry re-emits the same url
    for rows in (seeds, kept, retries):
        assert rows["url"].to_pylist() == safe
        assert rows["shard"].to_pylist() == [_rule_shard(parse_host(u)) for u in safe]
        assert rows["bucket"].to_pylist() == [_rule_bucket(u) for u in safe]
    assert seeds["fp"].equals(retries["fp"])


@pytest.mark.usefixtures("ray_session")
class TestRoutedStores:
    def test_page_store_buckets_by_url(self, smoke_corpus, tmp_path):
        from scrupyst_ray.stages.fetch import build_page_store

        pages = os.path.join(smoke_corpus, "pages")
        store = build_page_store(pages, str(tmp_path / "store"), CFG.fetch_buckets)
        n = 0
        for d in os.listdir(store):
            if d.startswith("bucket="):
                bucket = int(d[len("bucket=") :])
                for f in os.listdir(os.path.join(store, d)):
                    urls = pq.read_table(os.path.join(store, d, f))["url"]
                    assert {_rule_bucket(u) for u in urls.to_pylist()} == {bucket}
                    n += len(urls)
        assert n == pq.ParquetDataset(pages).read(columns=["url"]).num_rows
        # reused with another bucket count: refused, not mis-read
        with pytest.raises(ValueError, match="num_buckets=16"):
            build_page_store(pages, store, 2 * CFG.fetch_buckets)
        assert build_page_store(pages, store, CFG.fetch_buckets) == store
        from scrupyst_ray.pipelines.crawl import CrawlEngine

        other = CrawlConfig(seen_shards=CFG.seen_shards, fetch_buckets=32)
        with pytest.raises(ValueError, match="num_buckets=16"):
            CrawlEngine(store, str(tmp_path / "wd"), other).run(max_rounds=1)

    @pytest.mark.parametrize("buckets", [16, 64])
    def test_page_store_equals_reference(self, smoke_corpus, tmp_path, buckets):
        """Each bucket's file holds, in row order, the corpus rows of that
        bucket sorted by url (an in-process reference), in 1,024-row
        groups; the build leaves no run files behind.  The corpus is
        written in 64-row groups, so each bucket merges several runs."""
        import pyarrow.compute as pc

        from scrupyst_ray.stages.fetch import build_page_store

        corpus = pq.ParquetDataset(os.path.join(smoke_corpus, "pages")).read(
            columns=["url", "warc_ts", "html"]
        )
        pages = str(tmp_path / "pages.parquet")
        pq.write_table(corpus, pages, row_group_size=64)
        store = build_page_store(pages, str(tmp_path / "store"), buckets)
        keys = bucket_of(corpus["url"], buckets)
        want = set(pc.unique(keys).to_pylist())
        assert 1 < len(want) and sorted(os.listdir(store)) == sorted(
            ["_STORE_COMPLETE", *(f"bucket={b}" for b in want)]
        )
        for b in want:
            ref = corpus.filter(pc.equal(keys, b)).sort_by("url")
            part = pq.ParquetFile(os.path.join(store, f"bucket={b}", "part-0.parquet"))
            assert part.read().equals(ref)
            assert part.metadata.num_row_groups == -(-ref.num_rows // 1024)

    def test_resume_refuses_other_routing(self, smoke_corpus, tmp_path):
        from scrupyst_ray.pipelines.crawl import CrawlEngine
        from scrupyst_ray.stages.fetch import build_page_store

        pages = os.path.join(smoke_corpus, "pages")
        cfg = CrawlConfig(seen_shards=4, fetch_buckets=4)
        wd = str(tmp_path / "wd")
        eng = CrawlEngine.for_corpus(pages, wd, cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        eng.run(max_rounds=1)
        eng.shutdown_actors()
        # a matching 8-bucket store, so the workdir's own record refuses
        store8 = build_page_store(pages, str(tmp_path / "store8"), 8)
        for key, store in (("seen_shards", eng.store_dir), ("fetch_buckets", store8)):
            other = CrawlConfig(seen_shards=4, fetch_buckets=4)
            setattr(other, key, 8)
            resumed = CrawlEngine(store, wd, other)
            with pytest.raises(ValueError, match=f"{key}=4, not 8"):
                resumed.run(max_rounds=2)
            resumed.shutdown_actors()
        resumed = CrawlEngine(eng.store_dir, wd, cfg)
        assert resumed.run(max_rounds=2).rounds
        resumed.shutdown_actors()
