"""Shared distributed-join / broadcast-lookup helpers for the pipelines.

Two join strategies, chosen by side size (SURVEY.md §2.4 guidance):

- :func:`dist_join` — Ray Data hash join; both sides shuffle on the key, so
  per-task state is bounded by partition size.  Fan-out scales with cluster
  CPUs; aggregator actors use fractional CPUs so chained joins don't
  reserve the whole cluster up front (a full-CPU pool per join DEADLOCKS a
  cluster smaller than joins×partitions — observed at num_cpus=4).
- :func:`broadcast_lookup` / :func:`attach_from_lookup` — the SMALL-side
  pattern: ``ray.put`` the (key, value) arrays once, ``pc.index_in`` +
  ``take`` inside every batch (vectorized — no per-row dict.get loop).
"""

from __future__ import annotations

import math
from contextlib import closing

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray


def join_partitions() -> int:
    n = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2, min(64, n // 2))


JOIN_AGG_ARGS = {"num_cpus": 0.25}


def dist_join(left, right, how: str, on: tuple, right_on: tuple | None = None):
    return left.join(
        right,
        how,
        num_partitions=join_partitions(),
        on=on,
        right_on=right_on,
        aggregator_ray_remote_args=JOIN_AGG_ARGS,
    )


def rename(ds, names: list[str]):
    """Zero-copy column rename (metadata-only map_batches)."""
    return ds.map_batches(lambda t: t.rename_columns(names), batch_format="pyarrow")


def collect_table(ds) -> pa.Table:
    """Driver-side collect of a SMALL dataset as one Arrow table.

    Ray Data emits zero-row blocks with an EMPTY schema (map UDFs are
    skipped on them), so a plain ``pa.concat_tables`` over ``to_arrow_refs``
    dies with "Schema at index N was different" whenever the pipeline had
    more read/map tasks than rows.  Drop the column-less empties first; if
    everything was empty, fall back to the dataset's declared schema."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns > 0]
    if tables:
        return pa.concat_tables(tables, promote_options="default")
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        return pa.table({})
    return pa.table(
        {n: pa.array([], t) for n, t in zip(schema.names, schema.types)}
    )


def stream_blocks(ds):
    """Yield the non-empty blocks of *ds* as Arrow tables, one at a time,
    as they finish — for folding fixed-size per-block partials into driver
    state without a groupby or a list of all partials."""
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows:
            yield b


def mean_by_key(ds, key: str, value: str, mean_as: str) -> pa.Table:
    """(*key*, n_docs, *mean_as*) per distinct *key* of *ds*, keys sorted
    with None last: the row count and the mean of *value* as a ``%.4f``
    string.  Each block emits one (key, n, Σvalue) row per key and the
    driver folds them as the blocks finish: no groupby, whose few-key
    partitions would come out empty.  The sums are ``math.fsum``, so a
    mean does not depend on the order the blocks finish in."""

    def partials(b: pa.Table) -> pa.Table:
        keys = pc.dictionary_encode(b[key].combine_chunks(), null_encoding="encode")
        codes = keys.indices.to_numpy()
        v = b[value].to_numpy()
        present = np.unique(codes)
        return pa.table(
            {
                "key": keys.dictionary.take(present),
                "n": pa.array([int((codes == c).sum()) for c in present], pa.int64()),
                "sum": pa.array(
                    [math.fsum(v[codes == c]) for c in present], pa.float64()
                ),
            }
        )

    counts, sums = {}, {}
    for b in stream_blocks(ds.map_batches(partials, batch_format="pyarrow")):
        for k, n, s in zip(*(b[c].to_pylist() for c in ("key", "n", "sum"))):
            counts[k] = counts.get(k, 0) + n
            sums.setdefault(k, []).append(s)
    keys = sorted(counts, key=lambda k: (k is None, k or ""))
    return pa.table(
        {
            key: pa.array(keys, pa.string()),
            "n_docs": pa.array([counts[k] for k in keys], pa.int64()),
            mean_as: [f"{math.fsum(sums[k]) / counts[k]:.4f}" for k in keys],
        }
    )


# Broadcast-vs-shuffle selection threshold: a side at or below this many
# rows ships once via ray.put and is read zero-copy in every task (the
# brief's "broadcast small sides" pattern); above it, both sides shuffle
# (bounded per-task state).  200k rows of 128-perm signatures ≈ 210 MB —
# comfortably inside one executor's heap; a 100 TB corpus's 10^9-row side
# takes the join path.
BROADCAST_MAX_ROWS = 200_000
BROADCAST_MAX_BYTES = 256 << 20  # the ray.put'd table must fit one executor


def fold_by_key(parts, schema: pa.Schema, how: str = "sum") -> pa.Table | None:
    """The partial rows of *parts* combined per key on the driver as the
    blocks finish: the last column of *schema* is the value, summed
    (``how="sum"``) or its least kept (``how="min"``) per distinct tuple of
    the other columns.  Every block must carry *schema*.  None as soon as
    the distinct keys pass ``BROADCAST_MAX_ROWS`` or their table
    ``BROADCAST_MAX_BYTES``: the caller then takes its keyed plan."""
    *keys, value = schema.names

    def combine(tables: list[pa.Table]) -> pa.Table:
        t = pa.concat_tables(tables).group_by(keys, use_threads=False)
        out = t.aggregate([(value, how)])
        return out.select([*keys, f"{value}_{how}"]).rename_columns(schema.names)

    folded, pending, rows, size = schema.empty_table(), [], 0, 0
    with closing(stream_blocks(parts)) as blocks:
        for b in blocks:
            pending.append(b)
            rows, size = rows + b.num_rows, size + b.nbytes
            if rows > BROADCAST_MAX_ROWS or size > BROADCAST_MAX_BYTES:
                folded, pending = combine([folded, *pending]), []
                rows, size = folded.num_rows, folded.nbytes
                if rows > BROADCAST_MAX_ROWS or size > BROADCAST_MAX_BYTES:
                    return None
    return combine([folded, *pending])


def _small_enough(ds, rows) -> bool:
    if rows is None or rows > BROADCAST_MAX_ROWS:
        return False
    try:
        size = ds.size_bytes()  # parquet/materialized metadata — no execution
    except Exception:
        size = None
    return size is None or size <= BROADCAST_MAX_BYTES


def attach_by_key(pairs, side, key_col: str, payload_as: str, side_rows=None):
    """Attach ``side``'s second column onto rows of ``pairs`` matching on
    *key_col* (side must have exactly (key, payload) columns).

    Strategy is size-selected like a SQL engine's broadcast join: a small
    side avoids the hash-join's shuffle + aggregator-actor startup (which
    dominates wall time on small inputs); a large side takes the
    distributed hash join so nothing driver-side ever holds it.
    ``side_rows`` lets callers pass an already-known count; otherwise it is
    read from the side's metadata (cheap on materialized datasets)."""
    if side_rows is None:
        side_rows = side.count()
    if side_rows == 0:
        # inner-join semantics: nothing matches (and the broadcast path
        # can't even name the side's columns off an all-empty collect)
        return pairs.map_batches(
            lambda b: b.slice(0, 0).append_column(
                payload_as, pa.nulls(0)
            ),
            batch_format="pyarrow",
        )
    if _small_enough(side, side_rows):
        key_name, payload_name = side.columns()[:2]
        ref = broadcast_lookup(side, key_name, payload_name)

        def attach_inner(b: pa.Table) -> pa.Table:
            out = attach_from_lookup(b, key_col, payload_as, ref)
            # inner-join semantics: unmatched rows drop (same as the join path)
            return out.filter(pc.is_valid(out[payload_as]))

        return pairs.map_batches(attach_inner, batch_format="pyarrow")
    side2 = rename(side, [f"__k_{key_col}", payload_as])
    out = dist_join(pairs, side2, "inner", (key_col,), (f"__k_{key_col}",))
    k = f"__k_{key_col}"
    return out.map_batches(
        lambda t: t.drop_columns([k]) if k in t.column_names else t,
        batch_format="pyarrow",
    )


def anti_join_by_key(left, drop, key_col: str, drop_rows=None):
    """``left`` minus rows whose *key_col* appears in ``drop`` (a one-column
    dataset).  Same size-selected strategy as :func:`attach_by_key`: a small
    drop-set broadcasts as a value set checked with ``pc.is_in`` per batch;
    a large one takes the distributed LEFT ANTI hash join."""
    if drop_rows is None:
        drop_rows = drop.count()
    if drop_rows == 0:
        return left  # empty drop set: left passes through unchanged
    if _small_enough(drop, drop_rows):
        keys = collect_table(drop)
        ref = ray.put(keys[keys.column_names[0]].combine_chunks())

        def minus(b: pa.Table) -> pa.Table:
            # a parquet file written from pandas carries a ``pandas``
            # metadata dict; blocks keeping it make a later sort's schema
            # dedup fail to hash
            return b.filter(
                pc.invert(pc.is_in(b[key_col], value_set=ray.get(ref)))
            ).replace_schema_metadata()

        return left.map_batches(minus, batch_format="pyarrow")
    drop2 = rename(drop, [key_col])
    return dist_join(left, drop2, "left_anti", (key_col,))


def broadcast_lookup(ds_small, key_col: str, val_col: str):
    """Collect a SMALL dataset's (key, value) columns once and ``ray.put``
    them as plain Arrow arrays (zero-copy reads in every task)."""
    t = collect_table(ds_small.select_columns([key_col, val_col]))
    return ray.put((t[key_col].combine_chunks(), t[val_col].combine_chunks()))


def attach_from_lookup(batch: pa.Table, key_col: str, out_col: str, ref, fill=None):
    """Vectorized broadcast-join attach: ``pc.index_in`` + ``take`` (no
    per-row Python dict lookups)."""
    keys, vals = ray.get(ref)
    idx = pc.index_in(batch[key_col], value_set=keys)
    out = pc.take(vals, idx)
    if fill is not None:
        out = pc.fill_null(out, fill)
    return batch.append_column(out_col, out)
