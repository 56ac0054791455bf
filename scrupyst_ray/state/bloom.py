"""Vectorized Bloom filter over uint64 keys (numpy bit array).

The URL-seen pre-filter mandated by BASELINE.json ("partitioned bloom/cuckoo
URL-seen filter ... canonicalized + 64-bit hashed URLs").  The bloom answers
the fast NEGATIVE path only — a positive is always confirmed against the
shard's exact fingerprint lanes (``state/seen.py``), so the seen set stays
exact / bit-for-bit reproducible (SURVEY.md §2.5: "the sketch is only a fast
negative path"; reference keeps an exact ``set`` —
``scrapy/dupefilters.py:71,94-101``).

Design scale: 10^10 URLs over S shards ⇒ ~10^10/S keys per shard.  The
exact lanes hold 25 B per fingerprint (20 fingerprint bytes, a 4-byte first
round, a 1-byte pending flag) plus up to 25% spare capacity, so they — not
this filter — size the shard: ~250 GB in all, ~61 MB per shard at S=4096.
The bloom is fixed at 2 MiB per shard (2^24 bits, sized for 2^20 keys); at
S=4096's 2.4M keys per shard its false-positive rate is ~4%, which costs
exact-lane lookups, never wrong answers.

k hash functions are derived from the single 64-bit key with odd-constant
multiply-xor mixing (Dietzfelbinger-style universal hashing over a
power-of-two table) — no per-key re-hashing of the URL bytes.
"""

from __future__ import annotations

import numpy as np

# odd 64-bit mixing constants (splitmix64 / Murmur3 finalizer constants —
# published, public-domain values)
_MIX = np.array(
    [
        0x9E3779B97F4A7C15,
        0xBF58476D1CE4E5B9,
        0x94D049BB133111EB,
        0xFF51AFD7ED558CCD,
        0xC4CEB9FE1A85EC53,
        0xD6E8FEB86659FD93,
        0xA5A5A5A5A5A5A5A5 | 1,
        0x2545F4914F6CDD1D,
    ],
    dtype=np.uint64,
)


BITS_PER_KEY = 12
NUM_HASHES = 7  # at most len(_MIX)


class Bloom:
    """Fixed-size bloom filter for uint64 keys; vectorized add/contains."""

    def __init__(self, capacity: int):
        capacity = max(1024, int(capacity))
        num_bits = 1 << int(np.ceil(np.log2(capacity * BITS_PER_KEY)))
        self._log2_bits = int(np.log2(num_bits))
        self._bits = np.zeros(num_bits >> 3, dtype=np.uint8)
        self._n = 0

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(k, n) bit positions for each key."""
        keys = keys.astype(np.uint64, copy=False)
        shift = np.uint64(64 - self._log2_bits)
        with np.errstate(over="ignore"):
            mixed = keys[None, :] * _MIX[:NUM_HASHES, None]
            mixed ^= mixed >> np.uint64(33)
            mixed = mixed * np.uint64(0xFF51AFD7ED558CCD)
        return (mixed >> shift).astype(np.int64)

    def add_many(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        pos = self._positions(np.asarray(keys)).ravel()
        byte, bit = pos >> 3, (1 << (pos & 7)).astype(np.uint8)
        # a fancy |= keeps one write per repeated byte: redo the lost bits
        # (about twice as fast as np.bitwise_or.at)
        while len(byte):
            self._bits[byte] |= bit
            lost = (self._bits[byte] & bit) == 0
            byte, bit = byte[lost], bit[lost]
        self._n += len(keys)

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask: True = *possibly* present, False = definitely new."""
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        hit = (self._bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return hit.all(axis=0)

    def __len__(self) -> int:
        return self._n

    @property
    def num_bits(self) -> int:
        return len(self._bits) << 3
