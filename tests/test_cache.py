"""The derived-store cache (``scrupyst_ray/cache.py``): the staged publish
protocol, the single cache root, and the stores built on it."""

from __future__ import annotations

import glob
import os
import re
import shutil
import stat
import sys

import pytest

from scrupyst_ray import cache

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def root(tmp_path, monkeypatch):
    monkeypatch.setattr(cache, "ROOT", str(tmp_path))
    return tmp_path


def _write(text: str):
    def build(staging: str) -> None:
        with open(os.path.join(staging, "data"), "w") as f:
            f.write(text)

    return build


class TestStore:
    def test_publish_store_atomicity(self, root):
        """Winner publishes; a race loser discards its copy and leaves the
        winner's marker alone; a published root without ``_COMPLETE`` is
        stale and gets rebuilt (it used to make every later build raise)."""
        # fresh build: published with its marker, no staging dir left
        out = cache.store("s", _write("first"))
        assert out == cache.path("s") == str(root / "s")
        assert (root / "s" / "_COMPLETE").exists()
        assert (root / "s" / "data").read_text() == "first"
        assert os.listdir(root) == ["s"]

        # race loser: another builder publishes while this one builds
        def loser(staging: str) -> None:
            _write("loser")(staging)
            os.makedirs(root / "r")
            (root / "r" / "_COMPLETE").write_text("winner")
            (root / "r" / "data").write_text("winner")

        assert cache.store("r", loser) == str(root / "r")
        assert (root / "r" / "_COMPLETE").read_text() == "winner"
        assert (root / "r" / "data").read_text() == "winner"
        assert sorted(os.listdir(root)) == ["r", "s"]

        # stale root (no marker, leftover files): removed and rebuilt
        (root / "bad").mkdir()
        (root / "bad" / "junk").write_text("z")
        cache.store("bad", _write("rebuilt"))
        assert sorted(os.listdir(root / "bad")) == ["_COMPLETE", "data"]
        assert (root / "bad" / "data").read_text() == "rebuilt"
        assert sorted(os.listdir(root)) == ["bad", "r", "s"]

    def test_hit_does_not_build(self, root):
        cache.store("s", _write("first"))

        def fail(staging: str) -> None:
            raise AssertionError("a complete store must not be rebuilt")

        assert cache.store("s", fail) == str(root / "s")
        assert (root / "s" / "data").read_text() == "first"

    def test_failed_build_leaves_nothing(self, root):
        def boom(staging: str) -> None:
            _write("partial")(staging)
            raise RuntimeError("killed")

        with pytest.raises(RuntimeError, match="killed"):
            cache.store("s", boom)
        assert os.listdir(root) == []

    def test_published_mode_matches_makedirs(self, root):
        """The store is readable like any dir the user makes (mkdtemp's
        0700 would hide a shared cache from other users)."""
        cache.store("s", _write("x"))
        os.makedirs(root / "plain")
        mode = lambda p: stat.S_IMODE(os.stat(p).st_mode)  # noqa: E731
        assert mode(root / "s") == mode(root / "plain")

    def test_source_key_tracks_rewrites(self, tmp_path):
        """A rewritten table with the same row count gets a new key (a
        row-count key used to reuse the stale store)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        f = tmp_path / "t.parquet"
        keys = lambda: (cache.source_key(str(f)), cache.source_key(str(tmp_path)))  # noqa: E731
        pq.write_table(pa.table({"x": [1, 2]}), f)
        before = keys()
        assert keys() == before
        pq.write_table(pa.table({"x": [3, 4]}), f)
        os.utime(f, ns=(0, os.stat(f).st_mtime_ns + 1))
        after = keys()
        assert before[0] != after[0] and before[1] != after[1]


def test_single_cache_root():
    """No module spells the cache root out except ``cache.py``."""
    files = [os.path.join(REPO_ROOT, f) for f in ("__ray_entry__.py", "bench.py")]
    for d in ("scrupyst_ray", "tools"):
        files += glob.glob(os.path.join(REPO_ROOT, d, "**", "*.py"), recursive=True)
    literal = re.compile(r"""["']/tmp["'/]""")  # file:///tmp/ urls do not match
    hits = []
    for f in files:
        if os.path.abspath(f) == os.path.abspath(cache.__file__):
            continue
        with open(f, encoding="utf-8") as fh:
            hits += [f"{f}:{n}" for n, line in enumerate(fh, 1) if literal.search(line)]
    assert len(files) > 50 and hits == []


@pytest.mark.usefixtures("ray_session")
class TestStoresOnCache:
    def test_killed_warc_build_is_not_read_back(self):
        """A killed build with other block cuts leaves shards under other
        ``part-*`` names in an unmarked store dir; the next build must
        replace them, not add to them."""
        import duckdb

        sys.path.insert(0, REPO_ROOT)
        sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
        import __ray_entry__ as e
        from validate_entry import value_hash

        from scrupyst_ray.pipelines.webops import warc_roundtrip, warc_store

        sf = e._SMOKE_SF
        out_dir = warc_store(sf)
        shard = sorted(glob.glob(os.path.join(out_dir, "part-*")))[0]
        with open(shard, "rb") as f:
            blob = f.read()
        shutil.rmtree(out_dir)
        os.makedirs(out_dir)
        killed = os.path.join(out_dir, "part-000000000000-killed.warc.gz")
        with open(killed, "wb") as f:
            f.write(blob)

        ours = warc_roundtrip(sf).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        theirs = con.execute(e.oracle_sql()["warc_roundtrip"]).fetchdf()
        assert len(ours) == len(theirs) == ours["url"].nunique()
        assert value_hash(ours) == value_hash(theirs)
        assert os.path.exists(os.path.join(out_dir, "_COMPLETE"))

    def test_oracles_read_the_store_paths(self):
        """The DuckDB oracles glob exactly the dirs the Ray side writes."""
        sys.path.insert(0, REPO_ROOT)
        import __ray_entry__ as e

        from scrupyst_ray.pipelines.graph import edges_store
        from scrupyst_ray.sources.corpus import corpus_cache_dir

        oracles = e.oracle_sql()
        edges = edges_store()
        pages = os.path.join(corpus_cache_dir(8, 50), "pages")
        for name, d in (
            ("pagerank", edges),
            ("hits_scores", edges),
            ("degree_distribution", edges),
            ("decompress_roundtrip", pages),
        ):
            globs = set(re.findall(r"read_parquet\('([^']+)'\)", oracles[name]))
            assert globs == {os.path.join(d, "*.parquet")}, name
            assert glob.glob(os.path.join(d, "*.parquet")), name
