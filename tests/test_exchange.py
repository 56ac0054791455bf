"""Exchange-file layer (stages/exchange.py): IPC round-trip, legacy lz4
feather compatibility, row counting, atomicity."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.feather as feather

from scrupyst_ray.stages.exchange import (
    EXCHANGE_EXT,
    exchange_files,
    exchange_rows,
    key_cuts,
    read_exchange_dir,
    read_exchange_file,
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


class TestKeyCuts:
    def test_even_cuts_strictly_inside_key_space(self):
        for n_keys in (8, 32, 128, 512):
            for parts in range(2, n_keys + 1):
                cuts = key_cuts(parts, n_keys)
                assert len(cuts) == parts - 1
                assert all(isinstance(c, int) for c in cuts)
                assert all(0 < a < b < n_keys for a, b in zip(cuts, cuts[1:]))
                assert 0 < cuts[0] and cuts[-1] < n_keys

    def test_every_key_own_range(self):
        assert key_cuts(4, 4) == [1, 2, 3]

    def test_one_part_is_not_an_empty_list(self):
        # an empty boundaries list would make Ray's sort sample instead
        assert key_cuts(1, 1) == [1]
        assert key_cuts(1, 64) == [64]
