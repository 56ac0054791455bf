"""DSIR importance weights — Data Selection via Importance Resampling
(Xie et al., NeurIPS '23, arXiv:2302.03169).

DSIR scores every raw document by how target-like it is: fit two bag-of-
hashed-n-gram distributions — p̂ over a TARGET corpus and q̂ over the RAW
corpus — and weight each raw document by ``log w(x) = Σ_b c_b(x) ·
(log p̂_b − log q̂_b)`` where ``c_b(x)`` counts the document's unigrams +
bigrams hashed into bucket ``b``.  High-weight documents are the ones to
keep when building pretraining data that matches the target domain.

Instantiation here (everything deterministic and DuckDB-recomputable):

- features = whitespace unigrams AND space-joined bigrams, hashed with
  ``int(md5(gram)[:8], 16) % N_BUCKETS`` — md5 so the SQL oracle can
  reproduce the bucket ids exactly (DuckDB ``md5()`` matches hashlib).
- target = documents with ``lang == target_lang`` ('en' by default);
  raw = every other document.  (The paper's target is a quality domain
  like Wikipedia; the synthetic corpus's stable stand-in is a language.)
- add-one (Laplace) smoothing on both sides:
  ``λ_b = ln((t_b + 1)/(T + B)) − ln((r_b + 1)/(R + B))`` with ``t_b``/
  ``r_b`` the per-bucket gram counts, ``T``/``R`` the side totals and
  ``B = N_BUCKETS`` — same convention as the bigram LM (`lm.py`).

Scale shape (100 TB story): two streaming passes, no shuffle.  Each pass
tokenizes a batch once (``ws_token_ids``: one Arrow split,
dictionary-encoded) and md5-hashes each DISTINCT uni/bigram of the batch
once, gathering the buckets back to every occurrence — web text repeats
its grams, so a batch hashes far fewer grams than it holds.  Pass 1
reduces each block's gram stream to two ``np.bincount`` vectors (target and
raw, ``N_BUCKETS`` = 10k counts each, whatever the block or corpus size);
the driver sums them as the blocks finish and computes λ, which ships to
workers once via ``ray.put``.  Pass 2 re-tokenizes and scores every
document inside the batch that holds it — a document's grams never leave
its batch, so nothing is re-keyed.  Nothing per-document reaches the
driver; the only key exchange left shapes the outputs (the ``sort``);
``dsir_by_lang`` folds per-block language sums on the driver.
"""

from __future__ import annotations

from hashlib import md5

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from scrupyst_ray.functions.textstats import gram_texts, ngram_ids, ws_token_ids
from scrupyst_ray.pipelines.joins import mean_by_key, stream_blocks
from scrupyst_ray.pipelines.textstats import _docs

N_BUCKETS = 10_000  # the paper's hashed-feature dimensionality


def _bucket(gram: str) -> int:
    """md5-based feature hash — first 8 hex chars as int, mod N_BUCKETS.
    DuckDB equivalent: CAST(('0x' || substr(md5(g),1,8)) AS BIGINT) % B."""
    return int.from_bytes(md5(gram.encode()).digest()[:4], "big") % N_BUCKETS


def _grams(texts: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(buckets, n_feats): every document's unigram then bigram bucket ids,
    concatenated in document order, and each document's gram count
    (2·len − 1; 0 for a featureless document).  Each distinct gram of the
    batch is hashed once; its bucket is gathered back to every
    occurrence."""
    vocab, tok, row, n_tok = ws_token_ids(texts)
    pos, big, pairs = ngram_ids(tok, row, 2)
    uni_b = np.array([_bucket(w) for w in vocab], np.int64)
    big_b = np.array([_bucket(g) for g in gram_texts(vocab, pairs)], np.int64)
    n_feats = np.where(n_tok > 0, 2 * n_tok - 1, 0)
    # a document's unigram k sits at its feature offset + k, its bigram k
    # at that offset + len + k
    start = np.cumsum(n_feats) - n_feats - (np.cumsum(n_tok) - n_tok)
    buckets = np.empty(int(n_feats.sum()), np.int64)
    buckets[start[row] + np.arange(len(tok))] = uni_b[tok]
    r = row[pos]
    buckets[start[r] + n_tok[r] + pos] = big_b[big]
    return buckets, n_feats


def doc_logweights(sf_dir: str, target_lang: str = "en"):
    """Dataset (doc_id, lang, n_feats:int64, logw_f:float64) — per-document
    DSIR log importance weight.  n_feats = total gram occurrences
    (2·len − 1); featureless documents are absent (the oracle mirrors)."""
    docs = _docs(sf_dir, ["doc_id", "text", "lang"])

    def bucket_counts(b: pa.Table) -> pa.Table:
        buckets, n_feats = _grams(b["text"])
        is_t = np.repeat(
            [lang == target_lang for lang in b["lang"].to_pylist()], n_feats
        )
        return pa.table(
            {
                "t": [np.bincount(buckets[is_t], minlength=N_BUCKETS)],
                "r": [np.bincount(buckets[~is_t], minlength=N_BUCKETS)],
            }
        )

    t = np.zeros(N_BUCKETS, np.int64)
    r = np.zeros(N_BUCKETS, np.int64)
    parts = docs.map_batches(bucket_counts, batch_format="pyarrow")
    for b in stream_blocks(parts):
        t += pc.list_flatten(b["t"]).to_numpy().reshape(-1, N_BUCKETS).sum(0)
        r += pc.list_flatten(b["r"]).to_numpy().reshape(-1, N_BUCKETS).sum(0)
    lam_ref = ray.put(
        np.log((t + 1.0) / (t.sum() + N_BUCKETS))
        - np.log((r + 1.0) / (r.sum() + N_BUCKETS))
    )

    def score(b: pa.Table) -> pa.Table:
        lam = ray.get(lam_ref)
        buckets, n_feats = _grams(b["text"])
        logw = np.bincount(
            np.repeat(np.arange(b.num_rows), n_feats),
            weights=lam[buckets],
            minlength=b.num_rows,
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "n_feats": n_feats,
                "logw_f": logw,
            }
        ).filter(pa.array(n_feats > 0))

    return docs.map_batches(score, batch_format="pyarrow")


def dsir_logweights(sf_dir: str, target_lang: str = "en"):
    """(doc_id, n_feats, logw) — DSIR log importance weight per document,
    ``%.4f`` strings for hash-stable oracle comparison, sorted by doc_id."""

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_feats": b["n_feats"],
                "logw": pa.array(
                    [f"{v:.4f}" for v in b["logw_f"].to_pylist()], pa.string()
                ),
            }
        )

    return (
        doc_logweights(sf_dir, target_lang)
        .map_batches(fmt, batch_format="pyarrow")
        .sort("doc_id")
    )


def dsir_by_lang(sf_dir: str, target_lang: str = "en") -> pa.Table:
    """(lang, n_docs, avg_logw) — mean DSIR weight per language.  The
    target language should dominate: its docs ARE the target distribution.

    The per-language sums are folded on the driver
    (:func:`~scrupyst_ray.pipelines.joins.mean_by_key`): no groupby."""
    docs = doc_logweights(sf_dir, target_lang)
    return mean_by_key(docs, "lang", "logw_f", "avg_logw")


def dsir_top_docs(sf_dir: str, k: int = 50, target_lang: str = "en"):
    """(doc_id, logw) — the k most target-like documents: DSIR's selection
    step made deterministic (the paper resamples ∝ w; a fixed-seed rank
    selection keeps the oracle exact).  Order: rounded weight desc, doc_id
    asc — ties broken on the SAME %.4f value both engines hash."""

    def keyed(b: pa.Table) -> pa.Table:
        w = np.round(b["logw_f"].to_numpy(zero_copy_only=False), 4)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "logw_r": pa.array(w, pa.float64()),
            }
        )

    top = (
        doc_logweights(sf_dir, target_lang)
        .map_batches(keyed, batch_format="pyarrow")
        .sort(["logw_r", "doc_id"], descending=[True, False])
        .limit(k)
    )

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "logw": pa.array(
                    [f"{v:.4f}" for v in b["logw_r"].to_pylist()], pa.string()
                ),
            }
        )

    return top.map_batches(fmt, batch_format="pyarrow")
