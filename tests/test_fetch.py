"""FetchParse over one block that spans several store buckets: the
block-level call must equal the union of smaller calls, probe each bucket
exactly once, and rank the map-side host cap within each parent fetch_key."""

from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.pipelines.crawl import FETCH_SPLIT
from scrupyst_ray.sources.corpus import page_url
from scrupyst_ray.stages import fetch
from scrupyst_ray.stages.exchange import read_exchange_dir, read_exchange_file
from scrupyst_ray.stages.frontier import seeds_to_frontier

CFG = CrawlConfig(seen_shards=4, fetch_buckets=4)


@pytest.fixture
def store_dir(smoke_corpus, ray_session, tmp_path, monkeypatch):
    # keep the test process's Arrow thread pools as they are
    monkeypatch.setattr(fetch, "_cap_arrow_threads", lambda: None)
    return fetch.build_page_store(
        os.path.join(smoke_corpus, "pages"),
        str(tmp_path / "store"),
        CFG.fetch_buckets,
    )


def _admitted_block() -> pa.Table:
    """Admitted rows as the gate emits them (with ``fetch_key``), sorted by
    fetch_key like one block of the fetch stage's sort; one URL is not in
    the corpus (a 404 miss)."""
    urls = [page_url(h, n) for h in range(5) for n in (40, 21, 7, 3)]
    urls.append("http://host002.test/not-in-corpus.html")
    rows = seeds_to_frontier(
        pa.table({"url": urls, "seq": list(range(len(urls)))}), CFG
    )
    sub = rows["fp64"].to_numpy() % FETCH_SPLIT
    fetch_key = rows["bucket"].to_numpy() * FETCH_SPLIT + sub.astype(np.int32)
    rows = rows.append_column("fetch_key", pa.array(fetch_key, pa.int32()))
    return rows.sort_by("fetch_key")


def _outputs(out_dir: str) -> tuple[list[dict], dict, dict[str, list[dict]]]:
    """(artifact rows, summed sidecar counters, candidate rows per shard),
    rows sorted by url so calls that split the work differently compare."""
    fdir = os.path.join(out_dir, "fetched")
    arts, totals = [], Counter()
    for f in sorted(os.listdir(fdir)):
        path = os.path.join(fdir, f)
        if f.endswith(".parquet"):
            arts.extend(pq.read_table(path).to_pylist())
        elif f.endswith(".stats.json"):
            with open(path) as fh:
                c = json.load(fh)
            totals.update({k: c[k] for k in ("fetched", "miss", "edges", "kept")})
            totals.update({f"drop:{k}": v for k, v in c["drops"].items()})
    cdir = os.path.join(out_dir, "cands")
    cands = {
        shard: sorted(
            read_exchange_dir(os.path.join(cdir, shard)).to_pylist(),
            key=lambda r: (r["url"], r["order_key"]),
        )
        for shard in sorted(os.listdir(cdir))
    }
    return sorted(arts, key=lambda r: r["url"]), dict(totals), cands


def _fetch(store_dir: str, out_dir: str, block: pa.Table, cfg=CFG) -> None:
    fetch.FetchParse(
        store_dir,
        1,
        os.path.join(out_dir, "fetched"),
        cfg,
        candidates_dir=os.path.join(out_dir, "cands"),
    )(block)


def _split_calls(store_dir, out_dir, block, column, cfg=CFG) -> None:
    """One FetchParse call per distinct value of *column* in *block*."""
    for v in sorted(set(block[column].to_pylist())):
        _fetch(store_dir, out_dir, block.filter(pc.equal(block[column], v)), cfg)


def test_multi_bucket_block_equals_per_bucket_calls(store_dir, tmp_path, monkeypatch):
    block = _admitted_block()
    buckets = sorted(set(block["bucket"].to_pylist()))
    assert len(buckets) >= 2

    probes: Counter = Counter()
    read = fetch._read_bucket_pages

    def counting_read(store, bucket, urls):
        probes[bucket] += 1
        return read(store, bucket, urls)

    monkeypatch.setattr(fetch, "_read_bucket_pages", counting_read)
    _fetch(store_dir, str(tmp_path / "block"), block)
    assert probes == Counter({b: 1 for b in buckets})

    _split_calls(store_dir, str(tmp_path / "per_bucket"), block, "bucket")

    arts, totals, cands = _outputs(str(tmp_path / "block"))
    assert (arts, totals, cands) == _outputs(str(tmp_path / "per_bucket"))
    assert totals["miss"] == 1
    assert [r["status"] for r in arts].count(404) == 1
    assert totals["fetched"] == block.num_rows - 1
    assert totals["kept"] > 0
    # one artifact, one sidecar and one candidate file per shard, each named
    # after the block's lowest fetch_key
    low = pc.min(block["fetch_key"]).as_py()
    assert sorted(os.listdir(tmp_path / "block" / "fetched")) == [
        f"part-{low:06d}.parquet",
        f"part-{low:06d}.stats.json",
    ]
    cdir = tmp_path / "block" / "cands"
    for shard in os.listdir(cdir):
        assert os.listdir(cdir / shard) == [f"from-{low:06d}.feather"]


def test_host_cap_ranks_within_fetch_key(store_dir, tmp_path):
    """A binding map-side host cap keeps the same rows however the sort
    cut the blocks: one call on the whole block equals one call per
    fetch_key, and each candidate file (one per shard and parent
    fetch_key) holds at most cap rows per host."""
    cap = 1
    cfg = dataclasses.replace(CFG, map_side_host_cap=cap)
    block = _admitted_block()
    assert len(set(block["fetch_key"].to_pylist())) >= 2

    _fetch(store_dir, str(tmp_path / "block"), block, cfg)
    _split_calls(store_dir, str(tmp_path / "per_key"), block, "fetch_key", cfg)
    _fetch(store_dir, str(tmp_path / "nocap"), block)

    arts, totals, cands = _outputs(str(tmp_path / "block"))
    assert (arts, totals, cands) == _outputs(str(tmp_path / "per_key"))
    # the cap binds: it drops rows an uncapped call keeps
    assert 0 < totals["kept"] < _outputs(str(tmp_path / "nocap"))[1]["kept"]

    keys = set(block["fetch_key"].to_pylist())
    cdir = tmp_path / "block" / "cands"
    for shard in os.listdir(cdir):
        for f in os.listdir(cdir / shard):
            assert int(f[len("from-") : -len(".feather")]) in keys, f
            hosts = read_exchange_file(str(cdir / shard / f))["host"].to_pylist()
            assert max(Counter(hosts).values()) <= cap, (shard, f)
