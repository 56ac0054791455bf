"""The crawl exchange module (stages/exchange.py): exchange-file IPC
round-trip, legacy lz4 feather compatibility, row counting, atomicity; the
fixed key ranges and their task runner; the key-range reader over sorted
files; the frontier layout; and the rule that no other module cuts a keyed
sort or spells a frontier file name."""

from __future__ import annotations

import ast
import glob
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.feather as feather
import pytest

import scrupyst_ray
from scrupyst_ray.stages import exchange
from scrupyst_ray.stages.exchange import (
    EXCHANGE_EXT,
    admitted_path,
    exchange_files,
    exchange_rows,
    frontier_row_counts,
    frontier_shards,
    key_ranges,
    map_ranges,
    read_exchange_dir,
    read_exchange_file,
    read_range,
    read_shard,
    write_admitted,
    write_candidates,
    write_deferred,
    write_exchange,
)


def _t(n, base=0):
    return pa.table(
        {
            "url": pa.array([f"http://h.test/p{base + i}" for i in range(n)]),
            "fp": pa.array([b""] * n, pa.binary()),
            "priority": pa.array(range(n), pa.int64()),
        }
    )


class TestExchange:
    def test_roundtrip_single_file(self, tmp_path):
        p = str(tmp_path / f"a{EXCHANGE_EXT}")
        t = _t(100)
        write_exchange(t, p)
        assert read_exchange_file(p).equals(t)
        assert not os.path.exists(p + ".tmp")  # atomic rename

    def test_dir_read_merges_and_sorts_files(self, tmp_path):
        d = str(tmp_path / "shard-00001")
        os.makedirs(d)
        write_exchange(_t(3, 0), os.path.join(d, f"from-000002{EXCHANGE_EXT}"))
        write_exchange(_t(2, 100), os.path.join(d, f"from-000001{EXCHANGE_EXT}"))
        out = read_exchange_dir(d)
        # deterministic file order (sorted paths): from-000001 first
        assert out.num_rows == 5
        assert out["url"][0].as_py() == "http://h.test/p100"

    def test_legacy_lz4_feather_still_loads(self, tmp_path):
        # files written by the earlier lz4 build must keep loading
        p = str(tmp_path / f"old{EXCHANGE_EXT}")
        feather.write_feather(_t(7), p, compression="lz4")
        assert read_exchange_file(p).num_rows == 7

    def test_empty_dir_and_rows(self, tmp_path):
        d = str(tmp_path / "empty")
        os.makedirs(d)
        assert read_exchange_dir(d) is None
        assert exchange_rows(d) == 0
        assert exchange_files(d) == []

    def test_tmp_files_ignored(self, tmp_path):
        d = str(tmp_path / "tmpy")
        os.makedirs(d)
        write_exchange(_t(2), os.path.join(d, f"ok{EXCHANGE_EXT}"))
        # a crashed writer leaves a .tmp — readers must skip it
        with open(os.path.join(d, f"crash{EXCHANGE_EXT}.tmp"), "wb") as f:
            f.write(b"garbage")
        assert read_exchange_dir(d).num_rows == 2
        assert exchange_rows(d) == 2


class TestKeyRanges:
    def test_old_cut_formula(self):
        """The ranges are those of the fixed-cut sort the exchanges used to
        run, ``n_keys * i // parts``, so ``part-K`` ids and candidate tags
        (a range's lowest key) stay as they were."""
        for n_keys in (1, 8, 16, 512):
            for parts in range(1, n_keys + 1):
                cuts = [n_keys * i // parts for i in range(1, parts)]
                bounds = [0, *cuts, n_keys]
                assert key_ranges(parts, n_keys) == list(zip(bounds, bounds[1:]))

    def test_every_key_own_range(self):
        assert key_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert key_ranges(1, 64) == [(0, 64)]


@pytest.mark.usefixtures("ray_session")
class TestMapRanges:
    def test_one_call_per_range(self, tmp_path):
        """``fn`` runs once per range, and the counts it returns are
        summed."""

        def record(lo: int, hi: int) -> int:
            (tmp_path / f"{lo}-{hi}").touch()
            return hi - lo

        ranges = key_ranges(5, 40)
        assert map_ranges(ranges, record) == 40
        assert sorted(os.listdir(tmp_path)) == sorted(f"{a}-{b}" for a, b in ranges)


class TestAdmittedRanges:
    """The fetch reads its ``[lo, hi)`` ranges straight out of the gates'
    sorted admitted files: every row lands in exactly one range, and each
    range's rows come file after file."""

    N_KEYS = 32
    # keys no row holds: the even ranges [12, 16) (8 parts) and [0, 1)
    # (32 parts) stay empty
    EMPTY = set(range(12, 16)) | {0}

    def _shards(self, tmp_path) -> tuple[list[str], list[pa.Table]]:
        """Four shard files of random keys, plus every cut of the tested
        part counts that is not in EMPTY; one shard holds one row."""
        rng = np.random.default_rng(7)
        keys = [k for k in range(self.N_KEYS) if k not in self.EMPTY]
        on_cuts = [lo for p in (3, 8) for lo, _ in key_ranges(p, self.N_KEYS)[1:]]
        shard_keys = [
            rng.choice(keys, 40).tolist() + [k for k in on_cuts if k in keys],
            rng.choice(keys, 25).tolist(),
            [int(rng.choice(keys))],
            rng.choice(keys, 60).tolist() + keys,
        ]
        paths, tables = [], []
        for shard, ks in zip((0, 2, 3, 5), shard_keys):
            rows = pa.table(
                {
                    "url": [f"http://s{shard}.test/{i}" for i in range(len(ks))],
                    "fetch_key": pa.array(ks, pa.int32()),
                    "v": pa.array(range(len(ks)), pa.int64()),
                }
            )
            rows = rows.take(np.argsort(ks, kind="stable"))
            write_admitted(rows, str(tmp_path), shard)
            paths.append(admitted_path(str(tmp_path), shard))
            tables.append(rows)
        return paths, tables

    @pytest.mark.parametrize("parts", [1, 3, 8, N_KEYS])
    def test_each_row_in_one_range(self, tmp_path, parts):
        paths, tables = self._shards(tmp_path)
        every = pa.concat_tables(tables)
        ranges = key_ranges(parts, self.N_KEYS)
        assert len(ranges) == parts
        assert ranges[0][0] == 0 and ranges[-1][1] == self.N_KEYS
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))

        before = pa.total_allocated_bytes()
        got = [read_range(paths, "fetch_key", lo, hi) for lo, hi in ranges]
        assert pa.total_allocated_bytes() == before  # slices of the maps
        assert all(read_range([], "fetch_key", lo, hi) is None for lo, hi in ranges)
        urls = []
        for (lo, hi), rows in zip(ranges, got):
            # the range's run of each file, file after file
            want = pa.concat_tables(
                [
                    t.filter(
                        pc.and_(
                            pc.greater_equal(t["fetch_key"], lo),
                            pc.less(t["fetch_key"], hi),
                        )
                    )
                    for t in tables
                ]
            )
            if rows is None:
                assert want.num_rows == 0
                continue
            assert rows.equals(want)
            urls += rows["url"].to_pylist()
        assert sorted(urls) == sorted(every["url"].to_pylist())  # once each
        if parts in (8, self.N_KEYS):
            assert any(rows is None for rows in got)  # an empty range



def _frontier_table(shards: list[int]) -> pa.Table:
    return pa.table(
        {
            "url": [f"http://h{s}.test/{i}" for i, s in enumerate(shards)],
            "shard": pa.array(shards, pa.int32()),
        }
    )


class TestFrontierLayout:
    """The layout functions round-trip rows under the names the fetch and
    crawl tests assert (``shard-SSSSS/from-TAG.feather``,
    ``deferred-shard-SSSSS.feather``)."""

    def _files(self, root) -> list[str]:
        return sorted(
            os.path.relpath(p, root)
            for p in glob.glob(os.path.join(root, "**", "*"), recursive=True)
            if os.path.isfile(p)
        )

    def test_one_tag_for_every_row(self, tmp_path):
        rows = _frontier_table([2, 0, 2, 2])
        write_candidates(rows, str(tmp_path / "seeds"), "seeds")
        write_candidates(rows, str(tmp_path / "block"), 17)
        assert self._files(tmp_path / "seeds") == [
            f"shard-00000/from-seeds{EXCHANGE_EXT}",
            f"shard-00002/from-seeds{EXCHANGE_EXT}",
        ]
        assert self._files(tmp_path / "block") == [
            f"shard-00000/from-000017{EXCHANGE_EXT}",
            f"shard-00002/from-000017{EXCHANGE_EXT}",
        ]
        back = read_exchange_dir(str(tmp_path / "seeds" / "shard-00002"))
        assert back.equals(rows.filter(pc.equal(rows["shard"], 2)))

    def test_a_tag_per_row(self, tmp_path):
        rows = _frontier_table([1, 1, 1, 3])
        write_candidates(rows, str(tmp_path), np.array([5, 3, 5, 5], np.int32))
        assert self._files(tmp_path) == [
            f"shard-00001/from-000003{EXCHANGE_EXT}",
            f"shard-00001/from-000005{EXCHANGE_EXT}",
            f"shard-00003/from-000005{EXCHANGE_EXT}",
        ]
        f = tmp_path / "shard-00001" / f"from-000005{EXCHANGE_EXT}"
        assert read_exchange_file(str(f))["url"].to_pylist() == [
            "http://h1.test/0",
            "http://h1.test/2",
        ]

    def test_no_rows_no_files(self, tmp_path):
        write_candidates(_frontier_table([]), str(tmp_path / "c"), "cap")
        assert not os.path.exists(tmp_path / "c")

    def test_shard_round_trip(self, tmp_path):
        fdir = str(tmp_path)
        cands, deferred = _frontier_table([4, 6, 4]), _frontier_table([4, 9])
        write_candidates(cands, exchange.candidates_dir(fdir), 2)
        write_deferred(deferred, fdir, 9)
        # a killed writer's leftovers name no shard
        leftover = f"deferred-shard-00007{EXCHANGE_EXT}.tmp"
        open(os.path.join(fdir, "deferred", leftover), "w").close()

        assert self._files(fdir) == [
            f"candidates/shard-00004/from-000002{EXCHANGE_EXT}",
            f"candidates/shard-00006/from-000002{EXCHANGE_EXT}",
            f"deferred/{leftover}",
            f"deferred/deferred-shard-00009{EXCHANGE_EXT}",
        ]
        assert frontier_shards(fdir) == [4, 6, 9]
        assert frontier_row_counts(fdir) == (3, 2)
        c4, d4 = read_shard(fdir, 4)
        assert c4.equals(cands.filter(pc.equal(cands["shard"], 4))) and d4 is None
        c9, d9 = read_shard(fdir, 9)
        assert c9 is None and d9.equals(deferred)
        assert read_shard(fdir, 5) == (None, None)
        assert frontier_shards(str(tmp_path / "missing")) == []
        assert frontier_row_counts(str(tmp_path / "missing")) == (0, 0)


# what only stages/exchange.py may spell: a frontier file or directory name
_EXCHANGE_NAME = re.compile(r"(?<![\w-])(deferred-shard-|shard-|from-)")


def _docstrings(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant):
                out.add(id(doc.value))
    return out


def test_one_exchange_module():
    """Outside ``stages/exchange.py`` no module of the package passes
    ``boundaries=`` to a sort or spells a frontier file name (docstrings
    may describe the layout)."""
    root = os.path.dirname(scrupyst_ray.__file__)
    files = glob.glob(os.path.join(root, "**", "*.py"), recursive=True)
    hits = []
    for path in files:
        if os.path.samefile(path, exchange.__file__):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            where = f"{os.path.relpath(path, root)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                if any(kw.arg == "boundaries" for kw in node.keywords):
                    hits.append(f"{where} passes boundaries=")
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docs
                and _EXCHANGE_NAME.search(node.value)
            ):
                hits.append(f"{where} spells {node.value!r}")
    assert len(files) > 30 and hits == []
