"""The crawl's exchanges: how a keyed exchange is cut into ranges, and how
the frontier and the admitted rows are laid out on disk.  No other module
knows either.

Every keyed exchange of the crawl is one pattern, sorted runs read by key
range (Exoshuffle, SIGCOMM 2023): producers write their rows to files,
and consumers read what they need out of them, so no exchange is a keyed
Ray Data sort.  (The candidate cap's global top-k still sorts, by crawl
order; its output blocks are producers like any other.)

- Frontier candidates are written per (seen shard, producer) by
  :func:`write_candidates`; a producer is a fetch task, a seed read
  block or a block of the cap's top-k, and each shard's gate reads its
  own files (:func:`read_shard`).
- Admitted rows are written per shard sorted by ``fetch_key``
  (:func:`write_admitted`), and the page store's runs per corpus row group
  sorted by ``bucket``; one consumer task per fixed, even key range
  (:func:`key_ranges`) reads its ``[lo, hi)`` slice of every file
  (:func:`read_range`).  :func:`map_ranges` runs those tasks, one
  map-only Ray Data execution, and sums the row counts they return.

A round's frontier directory holds::

    candidates/shard-SSSSS/from-TAG.feather   new candidates, one file per
                                              (seen shard, producer tag)
    deferred/deferred-shard-SSSSS.feather     rows deferred last round

The tag is the fetch block's lowest ``fetch_key`` (under the map-side host
cap, each row's parent ``fetch_key``), a seed block's lowest ``seq``, or a
digest of a capped block's first key: unique per producer, and the same
when its task is retried.  Next to it, the round's directory holds::

    admitted/shard-SSSSS.feather              the rows a shard's gate
                                              admitted, sorted by fetch_key;
                                              none for a shard admitting none

The files are Arrow IPC (feather v2), measured ~2.5×
cheaper than parquet on both sides at the bench's file sizes; the crawl
artifact and seen deltas stay parquet.  They double as
the resume checkpoint: every write is tmp+rename under a stable name, so
task retries are idempotent.

The page-store and round-0 frontier markers record the modulus their rows
were routed by (:func:`write_marker`, :func:`built_for`).
"""

from __future__ import annotations

import os
import re
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.feather as feather
import ray

EXCHANGE_EXT = ".feather"


def key_ranges(parts: int, n_keys: int) -> list[tuple[int, int]]:
    """*parts* even ``[lo, hi)`` ranges of the int keys ``[0, n_keys)``, in
    key order, together covering every key once (``parts <= n_keys``;
    ``parts == n_keys`` gives every key its own range).  A pure function of
    (parts, n_keys), so the range a key falls in, and every id named after
    a range's lowest key, never depends on how the rows were produced."""
    bounds = [n_keys * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def map_ranges(
    ranges: list[tuple[int, int]], fn: Callable[[int, int], int]
) -> int:
    """Call ``fn(lo, hi)`` once per range of *ranges*, each call in its own
    task of one map-only Ray Data execution, and return the sum of what the
    calls return (their row counts).

    The output is read as a stream, not materialized: ``Dataset.materialize``
    plans a no-op execution after the run, which checks for free CPUs while
    the run's tasks still hold them and logs "The Ray cluster currently
    does not have any available CPUs"."""

    def call(bounds: pa.Table) -> pa.Table:
        rows = fn(bounds["lo"][0].as_py(), bounds["hi"][0].as_py())
        return pa.table({"rows": [rows]})

    return sum(
        out["rows"]
        for out in ray.data.from_arrow(
            [pa.table({"lo": [lo], "hi": [hi]}) for lo, hi in ranges]
        )
        .map_batches(call, batch_size=1, batch_format="pyarrow")
        .take_all()
    )


def read_range(paths: list[str], key: str, lo: int, hi: int) -> pa.Table | None:
    """The rows with ``lo <= key < hi`` of the exchange files *paths* (each
    sorted by its int column *key*), file after file; None when there are
    none.  Each file is memory-mapped and its run found by binary search,
    so the rows are zero-copy slices of the maps."""
    runs = []
    for path in paths:
        rows = read_exchange_file(path)
        keys = rows[key].to_numpy()
        start, end = np.searchsorted(keys, [lo, hi]).tolist()
        if end > start:
            runs.append(rows.slice(start, end - start))
    if not runs:
        return None
    return runs[0] if len(runs) == 1 else pa.concat_tables(runs)


def cluster_cpus() -> int:
    """The Ray cluster's CPU count (1 when it reports none)."""
    return int(ray.cluster_resources().get("CPU", 1))


def write_marker(marker: str, record: str) -> None:
    """Write a completion marker holding *record* (tmp+rename)."""
    with open(marker + ".tmp", "w") as f:
        f.write(record + "\n")
    os.replace(marker + ".tmp", marker)


def built_for(marker: str, record: str) -> bool:
    """Whether the store with completion marker *marker* is complete and
    routed by *record* (``"name=value"``); False when the marker is missing
    or older than routing records (build it).  ``ValueError`` when it
    records another value: every row of that store sits under another key."""
    if not os.path.exists(marker):
        return False
    with open(marker) as f:
        recorded = f.read().strip()
    if recorded == record:
        return True
    if recorded.startswith(record.split("=", 1)[0] + "="):
        raise ValueError(
            f"{os.path.dirname(marker)} was built for {recorded}, not {record}"
        )
    return False


# -- frontier layout ---------------------------------------------------------


def candidates_dir(frontier_dir: str) -> str:
    """Where a frontier's new candidates live (see :func:`write_candidates`)."""
    return os.path.join(frontier_dir, "candidates")


# the name of a shard's candidate directory or of its deferred file
_SHARD_NAME = re.compile(r"shard-(\d+)|deferred-shard-(\d+)\.feather")


def _deferred_dir(frontier_dir: str) -> str:
    return os.path.join(frontier_dir, "deferred")


def _deferred_path(frontier_dir: str, shard: int) -> str:
    return os.path.join(
        _deferred_dir(frontier_dir), f"deferred-shard-{shard:05d}{EXCHANGE_EXT}"
    )


def write_candidates(rows: pa.Table, cand_dir: str, tags) -> None:
    """Write frontier *rows* as ``cand_dir/shard-SSSSS/from-TAG.feather``,
    one file per (``shard``, tag).  *tags* is one tag for every row (a
    string, or an int written as six digits) or an int array with a tag per
    row."""
    shards = rows["shard"].to_numpy(zero_copy_only=False)
    tags = np.broadcast_to(np.asarray(tags), shards.shape)
    files = sorted(set(zip(shards.tolist(), tags.tolist())))
    for shard, tag in files:
        sub = rows
        if len(files) > 1:
            sub = rows.filter(pa.array((shards == shard) & (tags == tag)))
        sdir = os.path.join(cand_dir, f"shard-{shard:05d}")
        os.makedirs(sdir, exist_ok=True)
        name = tag if isinstance(tag, str) else f"{tag:06d}"
        write_exchange(sub, os.path.join(sdir, f"from-{name}{EXCHANGE_EXT}"))


def write_deferred(rows: pa.Table, frontier_dir: str, shard: int) -> None:
    """Write *shard*'s deferred rows into *frontier_dir*."""
    os.makedirs(_deferred_dir(frontier_dir), exist_ok=True)
    write_exchange(rows, _deferred_path(frontier_dir, shard))


def read_shard(
    frontier_dir: str, shard: int
) -> tuple[pa.Table | None, pa.Table | None]:
    """*shard*'s (new candidates, deferred rows) in *frontier_dir*; None
    for a part with no file."""
    cands = read_exchange_dir(
        os.path.join(candidates_dir(frontier_dir), f"shard-{shard:05d}")
    )
    dpath = _deferred_path(frontier_dir, shard)
    deferred = read_exchange_file(dpath) if os.path.exists(dpath) else None
    return cands, deferred


def frontier_shards(frontier_dir: str) -> list[int]:
    """The shards with work in *frontier_dir* (a candidate directory and/or
    a deferred file), sorted."""
    names = [
        name
        for d in (candidates_dir(frontier_dir), _deferred_dir(frontier_dir))
        if os.path.isdir(d)
        for name in os.listdir(d)
    ]
    return sorted({int(m[1] or m[2]) for m in map(_SHARD_NAME.fullmatch, names) if m})


def frontier_row_counts(frontier_dir: str) -> tuple[int, int]:
    """(new candidate rows, deferred rows) in *frontier_dir*."""
    return (
        exchange_rows(candidates_dir(frontier_dir)),
        exchange_rows(_deferred_dir(frontier_dir)),
    )


# -- admitted layout ---------------------------------------------------------


def admitted_dir(round_dir: str) -> str:
    """Where a round's gates write their admitted rows."""
    return os.path.join(round_dir, "admitted")


def admitted_path(round_dir: str, shard: int) -> str:
    """*shard*'s admitted-rows file in *round_dir*."""
    return os.path.join(admitted_dir(round_dir), f"shard-{shard:05d}{EXCHANGE_EXT}")


def write_admitted(rows: pa.Table, round_dir: str, shard: int) -> None:
    """Write *shard*'s admitted *rows*, sorted by ``fetch_key``, into
    *round_dir*; :func:`read_range` relies on the order."""
    os.makedirs(admitted_dir(round_dir), exist_ok=True)
    write_exchange(rows, admitted_path(round_dir, shard))


# -- exchange files ----------------------------------------------------------


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
