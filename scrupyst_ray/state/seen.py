"""URL-seen state for one host-hash shard (plain class, Ray-free).

Reference semantics (``scrapy/dupefilters.py:53-126``):
- ``request_seen(fp)`` checks AND records the fingerprint (first caller wins),
- ``dont_filter`` requests bypass the check entirely (and are not recorded,
  ``scrapy/core/scheduler.py:343``),
- the seen set persists across restarts (``requests.seen`` under JOBDIR,
  ``dupefilters.py:76-82``) — here: per-round Parquet delta files.

Layout: a bloom over ``fp64`` answers the negative path.  The exact set is
four parallel numpy lanes sorted by the fingerprint's first 8 bytes:
``hi`` (those bytes as a big-endian uint64, i.e. ``fp64``), ``tail`` (the
other 12 bytes — nothing is truncated, so the set is exact), the ``uint32``
round each fingerprint was first recorded in, and a pending flag (recorded
since the last flush).  25 B per fingerprint and no Python object per row.
Bloom positives are confirmed by one ``searchsorted`` on ``hi``; each call
sorts its new fingerprints and merges them into the lanes once, in place.

Batch + retry semantics for the superstep engine (SURVEY.md §4.2 "actor
state is NOT lineage-protected"): each shard receives exactly one deduped
batch per round (the shard's whole frontier group).  ``check_and_add`` is
idempotent per round: a fingerprint first recorded in round *r* keeps
answering "fresh" for round-*r* re-deliveries (Ray task retry), but answers
"seen" for any later round.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from scrupyst_ray.state.bloom import Bloom

_FP_WIDTH = 20  # SHA-1 digest bytes (functions/fingerprint.py)
_FP = np.dtype(f"S{_FP_WIDTH}")
_TAIL = np.dtype(f"V{_FP_WIDTH - 8}")
_DELTA_SCHEMA = pa.schema([("fp", pa.binary()), ("fp64", pa.uint64())])
_BLOOM_CAPACITY = 1 << 20
# entries shifted per step of the in-place merge: bounds its temporary copy,
# so a merge allocates nothing the size of the lanes
_CHUNK = 1 << 16


def fp_array(fp) -> np.ndarray:
    """An Arrow column of 20-byte fingerprints as an ``S20`` array over its
    data buffer: no Python object per row."""
    if len(fp) == 0:
        return np.empty(0, _FP)
    fp = pc.cast(fp, pa.binary(_FP_WIDTH))
    if isinstance(fp, pa.ChunkedArray):
        fp = fp.combine_chunks()
    return np.frombuffer(fp.buffers()[1], _FP, len(fp), fp.offset * _FP_WIDTH)


def _sorted_keys(rows: np.ndarray):
    """(n, 20) fingerprint bytes -> (order, hi, tail) sorted by hi: the first
    8 bytes as a big-endian uint64 (``fingerprint.fp64``) and the other 12."""
    hi = np.ascontiguousarray(rows[:, :8]).view(">u8").ravel().astype(np.uint64)
    order = np.argsort(hi)
    tail = np.ascontiguousarray(rows[order, 8:]).view(_TAIL).ravel()
    return order, hi[order], tail


class SeenState:
    """Exact fingerprint lanes + bloom negative-path pre-filter for one shard."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self._bloom = Bloom(_BLOOM_CAPACITY)
        self._n = 0
        # lanes sorted by hi (ties in any order), with spare capacity past _n
        self._hi = np.empty(0, np.uint64)
        self._tail = np.empty(0, _TAIL)
        self._rounds = np.empty(0, np.uint32)
        self._pending = np.empty(0, bool)
        self.stats = {"checked": 0, "filtered": 0, "bloom_negatives": 0}

    def __len__(self) -> int:
        return self._n

    def _lookup(self, hi, tail, probe) -> tuple[np.ndarray, np.ndarray]:
        """(searchsorted position of every key, lane index of each key in
        *probe* or -1).  Walks the run of equal hi, which holds more than one
        entry only on a 64-bit prefix collision."""
        lane_hi, lane_tail = self._hi[: self._n], self._tail[: self._n]
        pos = np.searchsorted(lane_hi, hi)
        at = np.full(len(hi), -1, dtype=np.int64)
        p = pos[probe]
        while len(probe):
            live = p < self._n
            probe, p = probe[live], p[live]
            live = lane_hi[p] == hi[probe]
            probe, p = probe[live], p[live]
            eq = lane_tail[p] == tail[probe]
            at[probe[eq]] = p[eq]
            probe, p = probe[~eq], p[~eq] + 1
        return pos, at

    def _insert(self, pos, hi, tail, round_id: int, pending: bool) -> None:
        """Merge absent keys, sorted by hi, at their searchsorted *pos*.
        In place: old entries shift right one chunk at a time, last chunk
        first, so none is overwritten before it moves."""
        n, m = self._n, len(pos)
        lanes = [self._hi, self._tail, self._rounds, self._pending]
        if n + m > len(self._hi):
            cap = max(n + m, len(self._hi) * 5 // 4)
            grown = [np.empty(cap, lane.dtype) for lane in lanes]
            for new, lane in zip(grown, lanes):
                new[:n] = lane[:n]
            lanes = grown
        dst = pos + np.arange(m)
        keep = np.ones(n + m, dtype=bool)
        keep[dst] = False
        for a in range((n - 1) // _CHUNK * _CHUNK, -1, -_CHUNK):
            b = min(a + _CHUNK, n)
            w0 = a + int(np.searchsorted(pos, a, "right"))
            w1 = b + int(np.searchsorted(pos, b, "left"))
            if w1 == b:
                break  # nothing lands at or before this chunk
            for lane in lanes:
                lane[w0:w1][keep[w0:w1]] = lane[a:b].copy()
        for lane, new in zip(lanes, (hi, tail, round_id, pending)):
            lane[dst] = new
        self._hi, self._tail, self._rounds, self._pending = lanes
        self._n = n + m

    def check_and_add(self, round_id: int, fps, fp64: np.ndarray) -> np.ndarray:
        """Boolean mask: True = fresh (recorded now, or first recorded this
        round — retry-idempotent), False = seen in an earlier round.

        *fps* are 20-byte fingerprints, deduplicated by the caller (one
        occurrence per round); the caller keeps the deterministic winner
        (min order_key) so the recorded crawl is reproducible.
        """
        n = len(fps)
        self.stats["checked"] += n
        out = np.ones(n, dtype=bool)
        if n == 0:
            return out
        rows = np.asarray(fps)
        if rows.dtype != _FP:
            raise ValueError(f"fingerprints must be {_FP_WIDTH}-byte strings")
        order, hi, tail = _sorted_keys(rows.view(np.uint8).reshape(n, _FP_WIDTH))
        fp64 = np.asarray(fp64, dtype=np.uint64)[order]
        maybe = self._bloom.contains_many(fp64)
        self.stats["bloom_negatives"] += int(n - maybe.sum())
        pos, at = self._lookup(hi, tail, np.flatnonzero(maybe))
        hit = at >= 0
        earlier = np.zeros(n, dtype=bool)
        earlier[hit] = self._rounds[at[hit]] != round_id
        out[order[earlier]] = False
        self.stats["filtered"] += int(earlier.sum())
        if not hit.all():
            self._insert(pos[~hit], hi[~hit], tail[~hit], round_id, True)
            self._bloom.add_many(fp64[~hit])
        return out

    # -- checkpointing ------------------------------------------------------

    def delta_table(self) -> pa.Table:
        """Fingerprints recorded since the last flush, as an Arrow table.
        Built from the raw bytes: ``S20.tolist()`` would strip trailing NUL
        bytes."""
        sel = np.flatnonzero(self._pending[: self._n])
        rows = np.empty((len(sel), _FP_WIDTH), np.uint8)
        rows[:, :8] = self._hi[sel].astype(">u8").view(np.uint8).reshape(-1, 8)
        rows[:, 8:] = self._tail[sel].view(np.uint8).reshape(-1, _FP_WIDTH - 8)
        fp = pa.Array.from_buffers(
            pa.binary(_FP_WIDTH), len(sel), [None, pa.py_buffer(rows)]
        )
        return pa.table(
            {"fp": fp.cast(pa.binary()), "fp64": pa.array(self._hi[sel])},
            schema=_DELTA_SCHEMA,
        )

    def flush_delta(self, path: str) -> int:
        """Write the pending delta to *path* (tmp+rename, idempotent) and
        clear it.  Returns the number of fingerprints written."""
        table = self.delta_table()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, path)
        self._pending[: self._n] = False
        return table.num_rows

    def load_delta(self, path: str, round_id: int) -> int:
        """Restore one delta file (resume path).  A fingerprint already
        restored from another delta keeps the earlier round."""
        table = pq.read_table(path)
        rows = fp_array(table["fp"]).view(np.uint8).reshape(-1, _FP_WIDTH)
        _, hi, tail = _sorted_keys(rows)
        pos, at = self._lookup(hi, tail, np.arange(len(hi)))
        hit = at >= 0
        self._rounds[at[hit]] = np.minimum(self._rounds[at[hit]], round_id)
        self._insert(pos[~hit], hi[~hit], tail[~hit], round_id, False)
        self._bloom.add_many(table["fp64"].to_numpy(zero_copy_only=False))
        return table.num_rows
