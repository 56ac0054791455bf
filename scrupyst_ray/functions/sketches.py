"""Mergeable quantile sketch — the scale path for per-group quantiles.

Exact per-group quantiles (``pipelines/textstats.py::doc_length_quantiles``)
hold one histogram row per distinct (group, value) in one place.  This
HDR-histogram-style sketch gives
bounded-relative-error quantiles for positive-int values with a fixed-size,
ADDITIVE state — per-batch partial histograms combine by summation, so it
composes with ``groupby().sum()`` at any group size and any partitioning
(merge order is irrelevant: integer addition commutes).

Bucket layout (HdrHistogram / DDSketch-style, pure integer semantics so
every worker bins identically): for v ≥ 1 with ``e = floor(log2(v))``, the
bucket is ``e`` (exponent) plus the top ``SUB_BITS`` mantissa bits —
relative bucket width ≤ 2^-SUB_BITS (≈3.1% at the default 5 bits).  The
quantile estimate is the LOWER BOUND of the bucket holding the q-th value
(rank = ceil(q·n), matching ``quantile_disc``), so estimates are
deterministic and underestimate by at most one bucket width.
"""

from __future__ import annotations

import math

import numpy as np

SUB_BITS = 5
_SUB = 1 << SUB_BITS


def bucket_of(values: np.ndarray) -> np.ndarray:
    """Vectorized bucket index for positive int64 values (v ≥ 1)."""
    v = values.astype(np.uint64)
    if (v < 1).any():
        raise ValueError("sketch values must be ≥ 1")
    # exponent = bit_length - 1, via float64 frexp (exact for v < 2^53)
    e = (np.frexp(v.astype(np.float64))[1] - 1).astype(np.int64)
    shift = np.maximum(e - SUB_BITS, 0)
    sub = ((v >> shift.astype(np.uint64)) & np.uint64(_SUB - 1)).astype(np.int64)
    # exponents below SUB_BITS don't fill all mantissa bits; their raw value
    # IS the bucket (buckets 1..2^SUB_BITS map 1:1 — exact for small values)
    return np.where(e < SUB_BITS, v.astype(np.int64), e * _SUB + sub)


def bucket_lower_bound(idx: np.ndarray) -> np.ndarray:
    """Smallest value that maps to bucket *idx* (the quantile estimate)."""
    idx = np.asarray(idx, dtype=np.int64)
    e = idx // _SUB
    sub = idx % _SUB
    big = (np.int64(1) << e.clip(min=0)) + (sub << np.maximum(e - SUB_BITS, 0))
    # exact region: values < 2^SUB_BITS map to bucket == value, and their
    # indices (< SUB_BITS·2^SUB_BITS) never collide with the e·2^SUB_BITS+sub
    # layout (whose smallest index is exactly SUB_BITS·2^SUB_BITS)
    return np.where(idx < SUB_BITS * _SUB, idx, big)


def quantiles_from_hist(
    buckets: np.ndarray, counts: np.ndarray, qs: list[float]
) -> list[int]:
    """Quantile estimates from a (bucket, count) histogram: the lower bound
    of the bucket containing rank ceil(q·n) (``quantile_disc`` rank rule)."""
    order = np.argsort(buckets)
    b = np.asarray(buckets)[order]
    c = np.asarray(counts)[order]
    cum = np.cumsum(c)
    n = int(cum[-1])
    out = []
    for q in qs:
        rank = max(1, int(np.ceil(q * n)))
        i = int(np.searchsorted(cum, rank))
        out.append(int(bucket_lower_bound(np.array([b[i]]))[0]))
    return out


# -- HyperLogLog distinct-count sketch ----------------------------------------
#
# Same additive-state philosophy as the histogram above, for COUNT(DISTINCT):
# per-batch partial registers combine by elementwise MAX (commutative,
# idempotent — merge order and duplicate partials are both irrelevant), so
# the sketch composes with groupby().max() at any group size.  Standard
# HLL with the small-range linear-counting correction; p=12 → 4096 registers
# ≈ 1.6% standard error and 4 KB of state per group.

HLL_P = 12
HLL_M = 1 << HLL_P
_ALPHA = 0.7213 / (1 + 1.079 / HLL_M)  # bias constant for m ≥ 128


def hll_partial(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse HLL registers for a batch of uint64 hashes:
    (register_idx, rho) with rho = 1 + leading-zeros of the remaining bits
    (only the max rho per register is returned — the mergeable partial)."""
    h = hashes.astype(np.uint64)
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (h << np.uint64(HLL_P)) | np.uint64((1 << HLL_P) - 1)
    # leading zeros of rest via float64 log2 is unsafe; use bit_length trick
    # on the complemented shift: rho = 64 - p - bit_length(rest >> p ... )
    # numpy has no clz — frexp gives the exponent (exact, rest ≥ 2^p > 2^53
    # concern avoided by masking to the top 53 bits first)
    top = (rest >> np.uint64(11)).astype(np.float64)  # 53 significant bits
    exp = np.frexp(top)[1].astype(np.int64)  # bit_length of (rest >> 11)
    rho = (64 - 11) - exp + 1
    order = np.lexsort((-rho, idx))
    idx_s, rho_s = idx[order], rho[order]
    first = np.concatenate(([True], idx_s[1:] != idx_s[:-1]))
    return idx_s[first], rho_s[first]


def hll_estimate(idx: np.ndarray, rho: np.ndarray) -> int:
    """Cardinality estimate from merged sparse registers (absent = 0).

    The harmonic-mean denominator is accumulated as an EXACT integer
    (``sum 2^-reg = S / 2^53`` with S a Python int — every register term is
    a power of two, so S is exact and ORDER-FREE), then one float divide.
    This makes the estimate bit-reproducible across summation orders and
    recomputable by the DuckDB oracle (HUGEINT sum of the same powers of
    two → identical IEEE division);  ``np.sum(np.exp2(...))`` would round
    differently depending on pairwise-summation order."""
    reg = np.zeros(HLL_M, dtype=np.int64)
    reg[np.asarray(idx, dtype=np.int64)] = np.asarray(rho, dtype=np.int64)
    s = sum(1 << (53 - int(r)) for r in reg)  # exact: rho ∈ [0, 53]
    est = _ALPHA * HLL_M * HLL_M * 9007199254740992.0 / float(s)
    zeros = int((reg == 0).sum())
    if est <= 2.5 * HLL_M and zeros:
        est = HLL_M * math.log(HLL_M / zeros)  # linear counting
    return int(round(est))


# -- Count-Min frequency sketch ------------------------------------------------
#
# The heavy-hitters scale path: exact per-key counts need a key-wide shuffle
# (fine for bounded vocabularies, the default top_terms path); a Count-Min
# sketch bounds the state at one dense d×w counter grid per group, whatever
# the corpus size.  Grids of disjoint streams merge by plain addition, so
# per-block grids are summed as they stream to the driver (no shuffle), and
# each candidate's count is estimated as the min over its d cells (always
# an OVERestimate — ε ≈ e/w of the group's total mass, δ ≈ e^-d).

CMS_W = 2048
CMS_D = 4


def cms_cells(token_hashes: np.ndarray) -> np.ndarray:
    """(n, CMS_D) cell columns for pre-hashed uint64 keys: row r uses a
    cheap salt-mix of the base hash (independent enough at w=2048, and —
    critically — identical on every worker)."""
    h = token_hashes.astype(np.uint64)
    cols = np.empty((len(h), CMS_D), dtype=np.int64)
    mask = (1 << 64) - 1
    with np.errstate(over="ignore"):
        for r in range(CMS_D):
            salt = np.uint64((0x9E3779B97F4A7C15 * (r + 1)) & mask)
            mixed = (h ^ salt) * np.uint64(0xBF58476D1CE4E5B9)
            cols[:, r] = ((mixed >> np.uint64(17)) % np.uint64(CMS_W)).astype(
                np.int64
            )
    return cols


def cms_grid(token_hashes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Dense (CMS_D, CMS_W) int64 sketch of weighted pre-hashed keys."""
    grid = np.zeros((CMS_D, CMS_W), np.int64)
    cols = cms_cells(token_hashes)
    for r in range(CMS_D):
        np.add.at(grid[r], cols[:, r], counts)
    return grid


def cms_estimate(grid: np.ndarray, token_hash: int) -> int:
    """Min-over-rows count estimate for one key from a merged dense
    (CMS_D, CMS_W) grid."""
    cols = cms_cells(np.array([token_hash], dtype=np.uint64))[0]
    return int(grid[np.arange(CMS_D), cols].min())
