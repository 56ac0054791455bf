"""Intermediate-exchange file I/O: candidate / deferred / frontier shards.

The crawl's map-side-partitioned exchange writes ~(fetch groups × shards)
small files per round and reads them back exactly once next round.  Arrow
IPC (feather v2, lz4) instead of parquet here: measured ~2.5× cheaper on
both sides at the bench's file sizes (no column encode pass, no row-group
stat machinery), and these are engine-internal spill files, not user-facing
artifacts — the crawl artifact (``fetched/``), seen deltas, and robots
side-table stay parquet.

The exchange files double as the resume checkpoint.  All writes are
tmp+rename and keyed by a stable tag, so task retries are idempotent.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.feather as feather

EXCHANGE_EXT = ".feather"


def write_exchange(table: pa.Table, path: str) -> None:
    """Atomic single-file write (*path* should end in EXCHANGE_EXT).

    Uncompressed on purpose: exchange files live one round on local disk,
    the page cache absorbs them, and skipping the codec makes the
    many-small-file write ~3.4x and the mmap read ~10x cheaper than
    parquet (measured at the bench's ~100-row file sizes)."""
    feather.write_feather(table, path + ".tmp", compression="uncompressed")
    os.replace(path + ".tmp", path)


def exchange_files(dir_path: str) -> list[str]:
    """All exchange files under *dir_path* (recursive, sorted)."""
    out = []
    for root, _dirs, files in os.walk(dir_path):
        for f in files:
            if f.endswith(EXCHANGE_EXT):
                out.append(os.path.join(root, f))
    out.sort()
    return out


def read_exchange_file(path: str) -> pa.Table:
    # raw IPC over a memory map: ~0.06 ms/file vs ~0.7 ms for
    # feather.read_table's wrapper (the reader handles per-batch
    # compression transparently, so legacy lz4 files still load).  The map
    # is NOT explicitly closed — the returned table's buffers reference the
    # mapped memory and keep it alive; an early close would invalidate them.
    return pa.ipc.open_file(pa.memory_map(path)).read_all()


def read_exchange_dir(dir_path: str) -> pa.Table | None:
    """Read every exchange file under *dir_path* into one table; None if
    empty.  A plain per-file loop on purpose: the Arrow dataset scanner
    can deadlock under the 1-compute-thread pool our workers pin
    (_cap_arrow_threads), and IPC decode is cheap enough that the loop
    still beats a parquet directory read."""
    files = exchange_files(dir_path)
    if not files:
        return None
    parts = [read_exchange_file(f) for f in files]
    if len(parts) == 1:
        return parts[0]
    return pa.concat_tables(parts, promote_options="default")


def exchange_rows(dir_path: str) -> int:
    """Total row count under *dir_path* (memory-mapped, lz4-transparent
    decode) — this path only runs on resume, the live engine carries counts
    forward from task sidecars."""
    total = 0
    for f in exchange_files(dir_path):
        r = pa.ipc.open_file(pa.memory_map(f))
        total += sum(r.get_batch(i).num_rows for i in range(r.num_record_batches))
    return total
