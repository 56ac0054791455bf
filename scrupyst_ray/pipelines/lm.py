"""Bigram-LM perplexity scoring — the CCNet-style corpus quality signal.

A large-scale training-data pipeline buckets documents by language-model
perplexity (CCNet trains a KenLM per language and splits the corpus into
head/middle/tail).  No model binaries exist in this sandbox, so the LM is
trained FROM the corpus itself, in the same job, in two scans of the
documents:

1. **count** — one ``map_batches`` turns each block into its unigram and
   bigram counts, one ``(g, n)`` row per distinct gram per block, where
   ``g`` is a token or a space-joined bigram;
2. **score** — each document is tokenized again and scored inside the
   batch that holds it:
   ``ppl = exp(-1/n · Σ ln P(w2|w1))`` with add-one (Laplace)
   ``P(w2|w1) = (c(w1 w2) + 1) / (c(w1) + V)``, V the distinct unigrams.

How the counts reach the scoring scan is size-selected, like
:func:`~scrupyst_ray.pipelines.joins.attach_by_key`:

- **fold** (a bounded vocabulary): the driver sums the partials as the
  blocks finish (:func:`~scrupyst_ray.pipelines.joins.fold_by_key`) and
  ships the counts to every scoring task once via ``ray.put``.  No
  groupby, no join, no eager execution; the only shuffle is the output
  ``sort``.  The ``curation_queries`` benchmark (~1k distinct grams) only
  ever takes this branch.
- **keyed** (a web-scale vocabulary): the fold gives up as soon as its
  distinct grams pass ``joins.BROADCAST_MAX_ROWS`` or their table
  ``joins.BROADCAST_MAX_BYTES``.  The count scan then runs again, its
  partials summed by a ``g``-keyed groupby, attached onto each document's
  exploded bigram rows by ``attach_by_key`` (a hash join at that size) and
  reduced by a doc_id-keyed groupby — nothing driver-side holds the counts.

Scale shape: both scans tokenize a batch once
(:func:`~scrupyst_ray.functions.textstats.ws_token_ids`: one Arrow
split, dictionary-encoded) and work on integer token and bigram ids; each
distinct gram of the batch is counted by ``np.bincount`` / ``np.unique``,
spelled as a string and looked up in the counts once, whatever its
occurrences.

Tokens are ``\\S+`` runs via the RE2-exact shared tokenizer
(:func:`~scrupyst_ray.functions.textstats.ws_tokens` — Python's unicode
``\\S`` diverges from the DuckDB oracle's RE2 on \\xa0/\\x85/\\v); a
bigram is the two tokens space-joined (unambiguous — tokens contain no
ASCII whitespace, so unigram and bigram keys share one table).  Documents
with fewer than two tokens have no bigrams and are absent from the output
(inner-join semantics, mirrored by the SQL oracle).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Sum

from scrupyst_ray.functions.textstats import gram_texts, ngram_ids, ws_token_ids
from scrupyst_ray.pipelines import joins
from scrupyst_ray.pipelines.textstats import _docs


_GRAM_COUNTS = pa.schema([("g", pa.string()), ("n", pa.int64())])


def _gram_counts(b: pa.Table) -> pa.Table:
    """(g, n) — the block's unigram and bigram counts, one row per gram."""
    vocab, tok, row, _ = ws_token_ids(b["text"])
    _, big, pairs = ngram_ids(tok, row, 2)
    n = [np.bincount(tok, minlength=len(vocab)), np.bincount(big, minlength=len(pairs))]
    return pa.table(
        {"g": vocab + gram_texts(vocab, pairs), "n": np.concatenate(n)},
        schema=_GRAM_COUNTS,
    )


def _bigrams(texts: pa.ChunkedArray) -> tuple:
    """(vocab, bigrams, row, w1, bg, count): the batch's distinct tokens
    and distinct space-joined bigrams, then one entry per distinct bigram
    of each text, in first-occurrence order — its row, the ids of its first
    token in *vocab* and of itself in *bigrams*, and its count there."""
    vocab, tok, row, _ = ws_token_ids(texts)
    pos, big, pairs = ngram_ids(tok, row, 2)
    _, first, n = np.unique(
        row[pos] * len(pairs) + big, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    first, n = first[order], n[order]
    w1 = tok[pos[first]]
    return vocab, gram_texts(vocab, pairs), row[pos[first]], w1, big[first], n


def _ppl_table(b: pa.Table, carry: tuple, n: np.ndarray, lp: np.ndarray) -> pa.Table:
    """(doc_id, *carry, n_bigrams, ppl_f) for the rows of *b* with bigrams."""
    return pa.table(
        {
            "doc_id": b["doc_id"],
            **{c: b[c] for c in carry},
            "n_bigrams": pa.array(n, pa.int64()),
            "ppl_f": pa.array(np.exp(-lp / np.maximum(n, 1)), pa.float64()),
        }
    ).filter(pa.array(n > 0))


def _scored_in_batch(docs, counts: Counter, carry: tuple):
    """Fold branch: every document scored inside its batch against one
    ``ray.put`` of the counts."""
    vocab = sum(1 for g in counts if " " not in g)
    ref = ray.put(counts)

    def score(b: pa.Table) -> pa.Table:
        c = ray.get(ref)
        words, bigrams, rows, w1, bg, ns = _bigrams(b["text"])
        k = ns.astype(np.float64)
        c2 = np.array([c[g] for g in bigrams], np.float64)[bg]
        c1 = np.array([c[w] for w in words], np.float64)[w1]
        lp = np.bincount(
            rows, weights=k * np.log((c2 + 1.0) / (c1 + vocab)), minlength=b.num_rows
        )
        n = np.bincount(rows, weights=k, minlength=b.num_rows).astype(np.int64)
        return _ppl_table(b, carry, n, lp)

    return docs.map_batches(score, batch_format="pyarrow")


def _scored_by_key(docs, parts, carry: tuple):
    """Keyed branch: counts by a groupby, attached onto each document's
    bigram rows by hash join, reduced per document by a groupby."""
    counts = joins.rename(parts.groupby("g").sum("n"), ["g", "c"]).materialize()
    n_counts = counts.count()
    vocab = counts.map_batches(
        lambda b: b.filter(pc.invert(pc.match_substring(b["g"], " "))),
        batch_format="pyarrow",
    ).count()

    def bigram_rows(b: pa.Table) -> pa.Table:
        words, bigrams, rows, w1, bg, ns = _bigrams(b["text"])
        out = b.select(["doc_id", *carry]).take(pa.array(rows, pa.int64()))
        return (
            out.append_column("bg", pa.array(bigrams, pa.string()).take(bg))
            .append_column("w1", pa.array(words, pa.string()).take(w1))
            .append_column("n", pa.array(ns, pa.int64()))
        )

    rows = docs.map_batches(bigram_rows, batch_format="pyarrow")
    scored = joins.attach_by_key(rows, counts, "bg", "c2", n_counts)
    scored = joins.attach_by_key(scored, counts, "w1", "c1", n_counts)

    def contrib(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        cc2 = b["c2"].to_numpy(zero_copy_only=False).astype(np.float64)
        cc1 = b["c1"].to_numpy(zero_copy_only=False).astype(np.float64)
        lp = n * np.log((cc2 + 1.0) / (cc1 + float(vocab)))
        return b.select(["doc_id", *carry, "n"]).append_column(
            "lp", pa.array(lp, pa.float64())
        )

    per_doc = (
        scored.map_batches(contrib, batch_format="pyarrow")
        .groupby(["doc_id", *carry])
        .aggregate(Sum("n"), Sum("lp"))
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
        lp = b["sum(lp)"].to_numpy(zero_copy_only=False)
        return _ppl_table(b, carry, n, lp)

    return per_doc.map_batches(finish, batch_format="pyarrow")


def doc_ppl(sf_dir: str, carry: tuple = ()):
    """Dataset (doc_id, *carry, n_bigrams, ppl_f: float64) — add-one
    bigram-LM perplexity per document, trained on the corpus itself.
    *carry* names document columns passed through to the output."""
    parts = _docs(sf_dir, ["text"]).map_batches(_gram_counts, batch_format="pyarrow")
    docs = _docs(sf_dir, ["doc_id", *carry, "text"])
    counts = joins.fold_by_key(parts, _GRAM_COUNTS)
    if counts is None:
        return _scored_by_key(docs, parts, carry)
    return _scored_in_batch(
        docs, Counter(dict(zip(counts["g"].to_pylist(), counts["n"].to_pylist()))), carry
    )


def bigram_lm_ppl(sf_dir: str):
    """(doc_id, n_bigrams, ppl) — per-document perplexity, ``%.4f`` strings
    for hash-stable oracle comparison, sorted by doc_id."""

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_bigrams": b["n_bigrams"],
                "ppl": pa.array(
                    [f"{v:.4f}" for v in b["ppl_f"].to_pylist()], pa.string()
                ),
            }
        )

    return doc_ppl(sf_dir).map_batches(fmt, batch_format="pyarrow").sort("doc_id")


def lm_ppl_by_source(sf_dir: str) -> pa.Table:
    """(source, n_docs, avg_ppl) — mean per-document perplexity per corpus
    source (the head/middle/tail split signal, aggregated), folded on the
    driver from per-block (source, n, Σppl) rows
    (:func:`~scrupyst_ray.pipelines.joins.mean_by_key`): no groupby."""
    return joins.mean_by_key(doc_ppl(sf_dir, ("source",)), "source", "ppl_f", "avg_ppl")
