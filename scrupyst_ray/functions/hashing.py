"""Stable 64-bit hashing for shard / bucket routing.

The engine needs a hash that is stable across processes, Python versions and
runs (Python's builtin ``hash`` is salted; polars' row hash is not guaranteed
stable across versions).  We use BLAKE2b with an 8-byte digest (stdlib,
C-speed): the same routing keys are reproduced when a checkpointed crawl is
resumed or when the page store is rebuilt.

Routing keys (SURVEY.md §7.3), each computed in exactly one place:
- :func:`shard_of` — ``hash64(host) % num_shards``, the seen/politeness
  state shard (driver mandate: URL-seen sharded by host-hash, co-locating
  politeness).  Frontier rows and the AutoThrottle feedback route through
  it.
- :func:`bucket_of` — ``hash64(url) % num_buckets``, the fetch-join
  bucket.  Frontier rows and the page store both route through it, so a
  frontier row's page bytes live in exactly one known bucket.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def stable_hash64(value: str | bytes) -> int:
    """Deterministic unsigned 64-bit hash of *value*."""
    if isinstance(value, str):
        value = value.encode("utf-8", "surrogatepass")
    return int.from_bytes(blake2b(value, digest_size=8).digest(), "big")


def hash_mod_batch(values: list[str], mod: int) -> np.ndarray:
    """Vectorized-ish ``stable_hash64(v) % mod`` → int32 array (one C hash
    call per value; ~2M values/s/core — routing-key assignment is never the
    hot stage, parsing is)."""
    out = np.empty(len(values), dtype=np.int32)
    _h = blake2b
    for i, v in enumerate(values):
        out[i] = (
            int.from_bytes(
                _h(v.encode("utf-8", "surrogatepass"), digest_size=8).digest(), "big"
            )
            % mod
        )
    return out


def _hash_mod_distinct(values, mod: int) -> np.ndarray:
    """``stable_hash64(v) % mod`` per row of *values* (a list or an Arrow
    string array) as int32, hashing each distinct value once."""
    enc = pc.dictionary_encode(pa.array(values, pa.string()))
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    per_value = hash_mod_batch(enc.dictionary.to_pylist(), mod)
    return per_value[enc.indices.to_numpy(zero_copy_only=False)]


def shard_of(hosts, num_shards: int) -> np.ndarray:
    """The seen/politeness shard of each host: ``hash64(host) % num_shards``."""
    return _hash_mod_distinct(hosts, num_shards)


def bucket_of(urls, num_buckets: int) -> np.ndarray:
    """The page-store bucket of each url: ``hash64(url) % num_buckets``."""
    return _hash_mod_distinct(urls, num_buckets)
