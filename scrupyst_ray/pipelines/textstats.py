"""Text-analysis pipelines over the ``documents`` table (training-data ops):
token counting, quality gating, language ID, document fingerprinting.

DuckDB-matchable ones (token counts, md5 digests, quality filter) use ONLY
operations both sides can express identically; the heuristic ones (lang-id,
rolling-hash fingerprints, quality scores) are rows-only checks.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from scrupyst_ray.functions.textstats import (
    bpe_token_count,
    detect_language,
    doc_fingerprint,
    quality_score,
)


def _docs(sf_dir: str, columns: list[str] | None = None):
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def token_counts(sf_dir: str):
    """(doc_id, n_tokens) — whitespace tokens via a pure Arrow regex kernel
    (zero-copy; no Python loop)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def count(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(b["text"], pattern=r"\S+")
        return pa.table(
            {"doc_id": b["doc_id"], "n_tokens": pc.cast(n, pa.int64())}
        )

    return ds.map_batches(count, batch_format="pyarrow").sort("doc_id")


def doc_token_totals(sf_dir: str, key: str) -> tuple[list, list, list]:
    """(keys, n_docs, n_tokens) per value of the documents column *key*,
    keys sorted with None last: each block's per-key partials (tokens from
    the pure-Arrow regex count) summed on the driver as the blocks finish.
    For a small key set (languages, sources): no groupby, so no empty
    partitions."""
    from scrupyst_ray.pipelines.joins import stream_blocks

    ds = _docs(sf_dir, [key, "text"])

    def partials(b: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(b["text"], pattern=r"\S+"), pa.int64())
        return (
            pa.table({key: b[key], "n_tokens": n})
            .group_by(key)
            .aggregate(
                [
                    (key, "count", pc.CountOptions(mode="all")),
                    ("n_tokens", "sum"),
                ]
            )
        )

    totals: dict = {}
    for b in stream_blocks(ds.map_batches(partials, batch_format="pyarrow")):
        for k, d, t in zip(
            b[key].to_pylist(),
            b[f"{key}_count"].to_pylist(),
            b["n_tokens_sum"].to_pylist(),
        ):
            n_docs, n_tokens = totals.get(k, (0, 0))
            totals[k] = (n_docs + d, n_tokens + (t or 0))
    keys = sorted(totals, key=lambda k: (k is None, k or ""))
    return keys, [totals[k][0] for k in keys], [totals[k][1] for k in keys]


def token_stats_by_lang(sf_dir: str) -> pa.Table:
    """(lang, n_docs, sum_tokens) — per-language doc/token totals
    (:func:`doc_token_totals`)."""
    langs, n_docs, n_tokens = doc_token_totals(sf_dir, "lang")
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "n_docs": pa.array(n_docs, pa.int64()),
            "sum_tokens": pa.array(n_tokens, pa.int64()),
        }
    )


def doc_digests(sf_dir: str):
    """(doc_id, digest) — md5 hex content fingerprint (exact-dedup key that
    DuckDB can reproduce bit-for-bit)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def digest(b: pa.Table) -> pa.Table:
        d = [hashlib.md5(t.encode()).hexdigest() for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"], "digest": pa.array(d, pa.string())})

    return ds.map_batches(digest, batch_format="pyarrow").sort("doc_id")


def quality_filter_by_source(sf_dir: str, min_chars: int = 100, min_alpha: float = 0.5):
    """C4-style cheap quality gate, aggregated per source.  The predicate is
    deliberately SQL-expressible: n_chars ≥ min_chars AND ascii-alpha ratio >
    min_alpha."""
    ds = _docs(sf_dir, ["source", "text", "n_chars"])

    def gate(b: pa.Table) -> pa.Table:
        alpha = pc.cast(
            pc.count_substring_regex(b["text"], pattern="[A-Za-z]"), pa.float64()
        )
        total = pc.cast(pc.utf8_length(b["text"]), pa.float64())
        ratio = pc.divide(alpha, total)
        keep = pc.and_(
            pc.greater_equal(b["n_chars"], pa.scalar(min_chars)),
            pc.greater(ratio, pa.scalar(min_alpha)),
        )
        return b.filter(keep).select(["source"])

    out = ds.map_batches(gate, batch_format="pyarrow").groupby("source").aggregate(Count())
    return out.map_batches(
        lambda b: b.rename_columns(["source", "n_kept"]), batch_format="pyarrow"
    ).sort("source")


def doc_quality_metrics(sf_dir: str):
    """(doc_id, n_tokens, mean_token_len, alpha_ratio, punct_ratio,
    stopword_ratio) — the C4/Gopher-style cheap quality features, each
    defined in terms BOTH sides can express identically (DuckDB oracle in
    ``__ray_entry__.oracle_sql``): tokens are ``\\S+`` matches, character
    classes are explicit ASCII/Latin ranges, ratios are int/int divisions
    formatted ``%.4f``."""
    from scrupyst_ray.functions.textstats import _EN_STOPWORDS, ws_tokens

    ds = _docs(sf_dir, ["doc_id", "text"])

    def metrics(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        n_tok = pc.count_substring_regex(b["text"], pattern=r"\S+")
        nonws = pc.utf8_length(
            pc.replace_substring_regex(b["text"], pattern=r"\s", replacement="")
        )
        alpha = pc.count_substring_regex(b["text"], pattern=r"[A-Za-zÀ-ɏ]")
        punct = pc.count_substring_regex(b["text"], pattern=r"[!-/:-@\[-`{-~]")
        n_chars = pc.utf8_length(b["text"])
        # stopword hits need exact token-set membership (no Arrow kernel);
        # compiled regex + frozenset per row, inside the batch
        sw_hits = [
            sum(1 for t in ws_tokens(txt.lower()) if t in _EN_STOPWORDS)
            for txt in texts
        ]
        nt = n_tok.to_numpy(zero_copy_only=False).astype(np.int64)
        nw = nonws.to_numpy(zero_copy_only=False).astype(np.int64)
        al = alpha.to_numpy(zero_copy_only=False).astype(np.int64)
        pu = punct.to_numpy(zero_copy_only=False).astype(np.int64)
        nc = n_chars.to_numpy(zero_copy_only=False).astype(np.int64)

        def ratio(num, den, digits=4):
            return [
                (None if d == 0 else f"{n / d:.{digits}f}")
                for n, d in zip(num, den)
            ]

        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": pa.array(nt, pa.int64()),
                "mean_token_len": pa.array(ratio(nw, nt), pa.string()),
                "alpha_ratio": pa.array(ratio(al, nc), pa.string()),
                "punct_ratio": pa.array(ratio(pu, nc), pa.string()),
                "stopword_ratio": pa.array(
                    ratio(np.asarray(sw_hits, np.int64), nt), pa.string()
                ),
            }
        )

    return ds.map_batches(metrics, batch_format="pyarrow").sort("doc_id")


def doc_analysis(sf_dir: str):
    """Rows-only per-doc analysis: BPE-ish token count, quality score,
    language-ID prediction, rolling-hash fingerprint — the heuristic kernels
    a data-curation pipeline runs per document."""
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])

    def analyze(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "bpe_tokens": pa.array(
                    [bpe_token_count(t) for t in texts], pa.int64()
                ),
                "quality": pa.array([quality_score(t) for t in texts], pa.float64()),
                "lang_pred": pa.array([detect_language(t) for t in texts], pa.string()),
                "fingerprint": pa.array(
                    np.array([doc_fingerprint(t) for t in texts], np.uint64),
                    pa.uint64(),
                ),
            }
        )

    return ds.map_batches(analyze, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# Gopher-style repetition signals + gate, corpus-level term statistics
# ---------------------------------------------------------------------------

from scrupyst_ray.functions.textstats import ngram_ids, ws_token_ids  # noqa: E402


def _repetition(
    tok: np.ndarray, row: np.ndarray, n_rows: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(dup_frac, top_frac) per row of :func:`ws_token_ids` output, over
    its word n-grams: dup_frac = fraction of n-gram occurrences whose gram
    occurs more than once in the row; top_frac = occurrences of the row's
    most frequent gram / total.  Both 0.0 for a row with fewer than n
    tokens (no grams)."""
    pos, gid, grams = ngram_ids(tok, row, n)
    key, c = np.unique(row[pos] * len(grams) + gid, return_counts=True)
    r = key // max(len(grams), 1)
    total = np.bincount(r, weights=c, minlength=n_rows)
    dup = np.bincount(r, weights=np.where(c > 1, c, 0), minlength=n_rows)
    top = np.zeros(n_rows)
    np.maximum.at(top, r, c)
    has = total > 0
    return (
        np.divide(dup, total, out=np.zeros(n_rows), where=has),
        np.divide(top, total, out=np.zeros(n_rows), where=has),
    )


def gopher_repetition(sf_dir: str):
    """(doc_id, n_tokens, dup_2gram_frac, top_2gram_frac, dup_3gram_frac,
    top_3gram_frac) — the Gopher (Rae et al. '21, table A1) repeated-n-gram
    quality signals, per document.  Fractions are %.4f strings so the DuckDB
    oracle hashes identically (same convention as ``doc_quality_metrics``)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def rep(b: pa.Table) -> pa.Table:
        _, tok, row, n_tok = ws_token_ids(b["text"])
        cols = {"doc_id": b["doc_id"], "n_tokens": pa.array(n_tok, pa.int64())}
        for n in (2, 3):
            for name, v in zip(("dup", "top"), _repetition(tok, row, b.num_rows, n)):
                cols[f"{name}_{n}gram_frac"] = pa.array(
                    [f"{x:.4f}" for x in v.tolist()], pa.string()
                )
        return pa.table(cols)

    return ds.map_batches(rep, batch_format="pyarrow").sort("doc_id")


def gopher_keep(
    texts: pa.ChunkedArray,
    min_tokens: int,
    max_dup_2gram: float,
    max_top_2gram: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(long, keep) row masks of a text column: *long* rows have at least
    *min_tokens* tokens, *keep* rows are long and pass the Gopher 2-gram
    thresholds (compared on the RAW fractions, not formatted strings)."""
    _, tok, row, n_tok = ws_token_ids(texts)
    d2, t2 = _repetition(tok, row, len(n_tok), 2)
    long = n_tok >= min_tokens
    return long, long & (d2 <= max_dup_2gram) & (t2 <= max_top_2gram)


def c4_keep(b: pa.Table, min_chars: int, min_alpha: float) -> np.ndarray:
    """Row mask of the C4-style character gate over a (text, n_chars)
    table: n_chars ≥ *min_chars* and ascii-alpha ratio > *min_alpha*."""
    alpha = pc.count_substring_regex(b["text"], pattern="[A-Za-z]")
    alpha = alpha.to_numpy(zero_copy_only=False).astype(np.float64)
    total = pc.utf8_length(b["text"]).to_numpy(zero_copy_only=False).astype(np.float64)
    ratio = np.divide(alpha, total, out=np.zeros(b.num_rows), where=total > 0)
    n_chars = b["n_chars"].to_numpy(zero_copy_only=False)
    return (n_chars >= min_chars) & (total > 0) & (ratio > min_alpha)


def gopher_quality_gate(
    sf_dir: str,
    min_tokens: int = 15,
    max_dup_2gram: float = 0.15,
    max_top_2gram: float = 0.10,
):
    """doc_ids passing the Gopher repetition thresholds — the filter a
    curation pipeline applies before training.  Thresholds compare the RAW
    fractions (not the formatted strings)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def gate(b: pa.Table) -> pa.Table:
        _, keep = gopher_keep(b["text"], min_tokens, max_dup_2gram, max_top_2gram)
        return pa.table({"doc_id": b["doc_id"]}).filter(pa.array(keep))

    return ds.map_batches(gate, batch_format="pyarrow").sort("doc_id")


def _codes(col: pa.ChunkedArray) -> pa.DictionaryArray:
    """*col* dictionary-encoded, None as a value of its own."""
    return pc.dictionary_encode(col.combine_chunks(), null_encoding="encode")


def _lang_token_counts(b: pa.Table) -> tuple:
    """(vocab, langs, code, tok, n, first): each distinct (lang, token)
    pair of a (lang, text) batch once, ordered by language then token id —
    its language's index *code* in *langs* (None a value of its own), its
    token's id *tok* in the batch's distinct tokens *vocab*, its count *n*
    and the position *first* of its first occurrence in the batch's token
    stream (:func:`~scrupyst_ray.functions.textstats.ws_token_ids`)."""
    vocab, tok, row, _ = ws_token_ids(b["text"])
    lang, v = _codes(b["lang"]), max(len(vocab), 1)
    key, first, n = np.unique(
        lang.indices.to_numpy().astype(np.int64)[row] * v + tok,
        return_index=True,
        return_counts=True,
    )
    return vocab, lang.dictionary, key // v, key % v, n, first


_TOP_TERMS = pa.schema(
    [("lang", pa.string()), ("token", pa.string()), ("n", pa.int64())]
)


def _top_per_lang(t: pa.Table, k: int) -> pa.Table:
    """The first *k* rows of each language of a (lang, token, n) table,
    ordered by lang, n descending, token."""
    keys = [("lang", "ascending"), ("n", "descending"), ("token", "ascending")]
    t = t.take(pc.sort_indices(t, sort_keys=keys))
    code = _codes(t["lang"]).indices.to_numpy()
    i = np.arange(t.num_rows)
    first = np.maximum.accumulate(np.where(np.diff(code, prepend=-1) != 0, i, 0))
    return t.filter(pa.array(i - first < k))


def top_terms_by_lang(sf_dir: str, k: int = 10) -> pa.Table:
    """(lang, token, n) — the *k* most frequent whitespace tokens per
    language (ties broken by token ascending).

    Scale shape: term counts PRE-AGGREGATE inside each map_batches task
    (one (lang, token) partial row per batch, not one row per token
    occurrence); the driver sums them as the blocks finish
    (:func:`~scrupyst_ray.pipelines.joins.fold_by_key`) and ranks once.
    Past the broadcast bounds a (lang, token) groupby sums them instead;
    each total then sits whole in one block, so each block's own
    per-language top *k* holds every global top-*k* row it has, and the
    driver merges those few rows."""
    from scrupyst_ray.pipelines.joins import fold_by_key, stream_blocks

    ds = _docs(sf_dir, ["lang", "text"])

    def partial_counts(b: pa.Table) -> pa.Table:
        vocab, langs, code, tok, n, _ = _lang_token_counts(b)
        return pa.table(
            {
                "lang": langs.take(code),
                "token": pa.array(vocab, pa.string()).take(tok),
                "n": n,
            },
            schema=_TOP_TERMS,
        )

    parts = ds.map_batches(partial_counts, batch_format="pyarrow")
    totals = fold_by_key(parts, _TOP_TERMS)
    if totals is None:

        def block_top(b: pa.Table) -> pa.Table:
            return _top_per_lang(b.rename_columns(_TOP_TERMS.names), k)

        tops = (
            parts.groupby(["lang", "token"])
            .aggregate(Sum("n"))
            .map_batches(block_top, batch_format="pyarrow")
        )
        totals = pa.concat_tables([_TOP_TERMS.empty_table(), *stream_blocks(tops)])
    return _top_per_lang(totals, k)


def tfidf_top_terms(sf_dir: str, k: int = 5):
    """(doc_id, token, score) — the *k* highest tf-idf tokens per document
    (score = tf × ln(N/df), ties broken by token ascending; %.4f strings for
    hash-stable comparison).

    Scale shape: the document-frequency table is built with per-batch
    Counter partials (one row per distinct token per batch) + a token-keyed
    groupby, then attached to the per-doc term rows via the size-selected
    ``attach_by_key`` (small vocab broadcasts once; a web-scale vocab takes
    the distributed hash join); the per-doc top-k is a doc_id-keyed
    map_groups."""
    from collections import Counter

    from scrupyst_ray.pipelines.joins import attach_by_key, rename

    docs = _docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()

    def term_rows(b: pa.Table) -> pa.Table:
        vocab, tok, row, _ = ws_token_ids(b["text"])
        v = max(len(vocab), 1)
        key, tf = np.unique(row * v + tok, return_counts=True)
        return pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()).take(key // v),
                "token": pa.array(vocab, pa.string()).take(key % v),
                "tf": pa.array(tf, pa.int64()),
            }
        )

    terms = docs.map_batches(term_rows, batch_format="pyarrow").materialize()

    def df_partials(b: pa.Table) -> pa.Table:
        # each (doc_id, token) row is already distinct per doc → counting
        # rows per token counts documents
        c = Counter(b["token"].to_pylist())
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "df_part": pa.array(list(c.values()), pa.int64()),
            }
        )

    df_tbl = rename(
        terms.map_batches(df_partials, batch_format="pyarrow")
        .groupby("token")
        .sum("df_part"),
        ["token", "df"],
    ).materialize()

    scored = attach_by_key(terms, df_tbl, "token", "df")

    def topk(g: pa.Table) -> pa.Table:
        tf = g["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        df = g["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = tf * np.log(n_docs / df)
        t = g.append_column("score_f", pa.array(score, pa.float64()))
        order = pc.sort_indices(
            t, sort_keys=[("score_f", "descending"), ("token", "ascending")]
        )
        t = t.take(order.slice(0, k))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "token": t["token"],
                "score": pa.array(
                    [f"{s:.4f}" for s in t["score_f"].to_pylist()], pa.string()
                ),
            }
        )

    return (
        scored.groupby("doc_id")
        .map_groups(topk, batch_format="pyarrow")
        .sort(["doc_id", "token"])
    )


_LENGTHS = pa.schema(
    [("source", pa.string()), ("n_tokens", pa.int64()), ("n", pa.int64())]
)
_QUANTILES = (0.5, 0.9, 0.99)


def _quantile_rows(hist: pa.Table) -> pa.Table:
    """(source, p50, p90, p99) from (source, n_tokens, n) histogram rows,
    sorted by source: numpy's ``inverted_cdf`` quantiles (DuckDB's
    ``quantile_disc``) of each source's lengths, each repeated n times —
    the sorted value at 0-based rank ``ceil(N·q − 1)``, as numpy computes
    it."""
    per_source = hist.group_by("source", use_threads=False).aggregate(
        [("n_tokens", "list"), ("n", "list")]
    )
    ps = []
    for lengths, counts in zip(
        per_source["n_tokens_list"].to_pylist(), per_source["n_list"].to_pylist()
    ):
        order = np.argsort(lengths)
        cum = np.cumsum(np.asarray(counts)[order])
        rank = np.maximum(np.ceil(cum[-1] * np.asarray(_QUANTILES) - 1), 0)
        ps.append(np.asarray(lengths)[order][np.searchsorted(cum, rank, side="right")])
    ps = np.asarray(ps, np.int64).reshape(-1, len(_QUANTILES))
    return pa.table(
        {
            "source": per_source["source"],
            **{f"p{round(q * 100)}": ps[:, i] for i, q in enumerate(_QUANTILES)},
        }
    ).sort_by("source")


def doc_length_quantiles(sf_dir: str) -> pa.Table:
    """(source, p50, p90, p99) — discrete token-length quantiles per source
    (the length-filter calibration signal in curation pipelines).

    Token counts come from the pure-Arrow regex kernel; each batch emits a
    (source, n_tokens, count) histogram and the driver sums them as the
    blocks finish (:func:`~scrupyst_ray.pipelines.joins.fold_by_key`).
    The quantiles are EXACT (numpy ``inverted_cdf`` over the summed
    histogram — bit-identical to DuckDB's ``quantile_disc``) and the state
    is one row per distinct (source, length), not per document.  Past the
    broadcast bounds a source-keyed ``map_groups`` over the histogram rows
    takes them instead."""
    from scrupyst_ray.pipelines.joins import collect_table, fold_by_key

    ds = _docs(sf_dir, ["source", "text"])

    def histogram(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(b["text"], pattern=r"\S+")
        t = pa.table({"source": b["source"], "n_tokens": pc.cast(n, pa.int64())})
        return (
            t.group_by(["source", "n_tokens"], use_threads=False)
            .aggregate([([], "count_all")])
            .select(_LENGTHS.names[:2] + ["count_all"])
            .rename_columns(_LENGTHS.names)
        )

    parts = ds.map_batches(histogram, batch_format="pyarrow")
    hist = fold_by_key(parts, _LENGTHS)
    if hist is not None:
        return _quantile_rows(hist)
    per_source = parts.groupby("source").map_groups(
        _quantile_rows, batch_format="pyarrow"
    )
    return collect_table(per_source).sort_by("source")


def doc_length_quantiles_sketch(sf_dir: str):
    """(source, p50, p90, p99) — the SKETCH variant of
    :func:`doc_length_quantiles` for groups too large to sort on one worker:
    per-batch partial histograms (HDR-style log buckets,
    ``functions/sketches.py``) combine by an additive
    ``groupby(source, bucket).sum`` — state per source is ≤ a few hundred
    bucket rows regardless of document count, merge order irrelevant.
    Estimates are bucket lower bounds: ≤3.2% below the exact
    ``quantile_disc`` value (pinned by tests), deterministic."""
    from collections import Counter

    from scrupyst_ray.functions.sketches import bucket_of, quantiles_from_hist

    ds = _docs(sf_dir, ["source", "text"])

    def hist_partials(b: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(b["text"], pattern=r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        srcs = b["source"].to_pylist()
        keep = n >= 1  # zero-token docs carry no length signal
        c = Counter(zip(np.asarray(srcs)[keep], bucket_of(n[keep])))
        return pa.table(
            {
                "source": pa.array([k[0] for k in c], pa.string()),
                "bucket": pa.array([int(k[1]) for k in c], pa.int64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    hist = (
        ds.map_batches(hist_partials, batch_format="pyarrow")
        .groupby(["source", "bucket"])
        .sum("n")
    )

    def finish(g: pa.Table) -> pa.Table:
        est = quantiles_from_hist(
            g["bucket"].to_numpy(zero_copy_only=False),
            g["sum(n)"].to_numpy(zero_copy_only=False),
            [0.5, 0.9, 0.99],
        )
        return pa.table(
            {
                "source": pa.array([g["source"][0].as_py()], pa.string()),
                "p50": pa.array([est[0]], pa.int64()),
                "p90": pa.array([est[1]], pa.int64()),
                "p99": pa.array([est[2]], pa.int64()),
            }
        )

    return hist.groupby("source").map_groups(finish, batch_format="pyarrow").sort(
        "source"
    )


def vocab_by_lang(sf_dir: str):
    """(lang, vocab) — EXACT distinct-token count per language.

    Combiner discipline: each batch emits one row per distinct
    (lang, token) it contains (a set, not the token stream), the keyed
    groupby dedups across batches, and a second tiny groupby counts rows
    per lang.  The shuffle is bounded by the vocabulary, not the corpus."""
    ds = _docs(sf_dir, ["lang", "text"])

    def distinct_rows(b: pa.Table) -> pa.Table:
        vocab, langs, code, tok, _, _ = _lang_token_counts(b)
        return pa.table(
            {"lang": langs.take(code), "token": pa.array(vocab, pa.string()).take(tok)}
        )

    distinct = (
        ds.map_batches(distinct_rows, batch_format="pyarrow")
        .groupby(["lang", "token"])
        .count()
    )
    from scrupyst_ray.pipelines.joins import rename

    return rename(
        distinct.map_batches(
            lambda t: t.select(["lang"]), batch_format="pyarrow"
        )
        .groupby("lang")
        .count(),
        ["lang", "vocab"],
    ).sort("lang")


def vocab_by_lang_hll(sf_dir: str) -> pa.Table:
    """(lang, vocab_est) — the SKETCH variant of :func:`vocab_by_lang`:
    HyperLogLog registers (``functions/sketches.py``, 4 KB per lang); each
    block emits its sparse (lang, register, rho) partials and the driver
    keeps each lang's register maxima as the blocks finish — no groupby,
    state is constant per lang at ANY corpus size, duplicate partials are
    harmless (max is idempotent), estimate ≈1.6% standard error (bounded
    vs the exact query in tests, and the ESTIMATE itself is hash-gated by
    a full DuckDB twin since round 5).

    Token hash: md5 first-8-bytes big-endian (NOT ``stable_hash64``'s
    blake2b, which DuckDB cannot compute) — equally uniform, and it lets
    the SQL oracle re-derive every register (``('0x'||substr(md5(tok),
    1,16))::UBIGINT``), the rho math (bin-length bit twiddling in
    HUGEINT), the exact harmonic denominator, and the linear-counting
    branch, so the estimate is verified end to end rather than merely
    floor-gated."""
    from scrupyst_ray.functions.sketches import HLL_M, hll_estimate, hll_partial
    from scrupyst_ray.pipelines.joins import stream_blocks

    ds = _docs(sf_dir, ["lang", "text"])

    registers = pa.schema(
        [("lang", pa.string()), ("register", pa.int64()), ("rho", pa.int64())]
    )

    def register_rows(b: pa.Table) -> pa.Table:
        vocab, langs, code, tok, _, _ = _lang_token_counts(b)
        h = np.fromiter(
            (
                int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "big")
                for t in vocab
            ),
            dtype=np.uint64,
            count=len(vocab),
        )
        tables = [registers.empty_table()]
        for c in np.unique(code):
            idx, rho = hll_partial(h[tok[code == c]])
            lang = langs.take(np.full(len(idx), c))
            tables.append(pa.table([lang, idx, rho], schema=registers))
        return pa.concat_tables(tables)

    regs: dict = {}
    for b in stream_blocks(ds.map_batches(register_rows, batch_format="pyarrow")):
        langs = _codes(b["lang"])
        codes = langs.indices.to_numpy()
        idx, rho = b["register"].to_numpy(), b["rho"].to_numpy()
        for c, lang in enumerate(langs.dictionary.to_pylist()):
            reg = regs.setdefault(lang, np.zeros(HLL_M, np.int64))
            np.maximum.at(reg, idx[codes == c], rho[codes == c])
    langs = sorted(regs, key=lambda k: (k is None, k or ""))
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "vocab_est": pa.array(
                [hll_estimate(np.arange(HLL_M), regs[k]) for k in langs], pa.int64()
            ),
        }
    )


def vocab_hll_gate(sf_dir: str, tol: float = 0.05):
    """(lang, vocab_exact, hll_ok) — the sketch-accuracy gate for
    :func:`vocab_by_lang_hll`: ``vocab_exact`` is recomputed INDEPENDENTLY
    by the SQL oracle (COUNT(DISTINCT token) per lang — data-dependent, so
    a broken exact pipeline hash-mismatches) and ``hll_ok`` is EARNED by
    running BOTH pipelines and requiring the HLL estimate within *tol* of
    exact (HLL at 2^9 registers ≈ 4.6% standard error bound; measured
    ≤2% on the gate corpora).  Both sides are bounded driver reads: one row
    per lang."""
    exact = {r["lang"]: r["vocab"] for r in vocab_by_lang(sf_dir).take_all()}
    est = {r["lang"]: r["vocab_est"] for r in vocab_by_lang_hll(sf_dir).to_pylist()}
    langs = sorted(exact)
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "vocab_exact": pa.array([exact[l] for l in langs], pa.int64()),
            "hll_ok": pa.array(
                [
                    abs(est.get(l, 0) / exact[l] - 1.0) <= tol
                    if exact[l]
                    else est.get(l, 0) == 0
                    for l in langs
                ],
                pa.bool_(),
            ),
        }
    )


def quantile_sketch_gate(sf_dir: str, rel: float = 0.032):
    """(source, p50, p90, p99, sketch_ok) — the sketch-accuracy gate for
    :func:`doc_length_quantiles_sketch`: the EXACT per-source quantiles are
    recomputed independently by the SQL oracle (``quantile_disc`` —
    data-dependent), and ``sketch_ok`` is EARNED by requiring every
    log-bucket estimate within its documented band: a bucket LOWER bound,
    so ``exact·(1−rel) − 1 ≤ est ≤ exact`` per quantile (the ≤3.2%
    underestimate pinned in tests, now driver-visible)."""
    exact_rows = {
        r["source"]: (r["p50"], r["p90"], r["p99"])
        for r in doc_length_quantiles(sf_dir).to_pylist()
    }
    est_rows = {
        r["source"]: (r["p50"], r["p90"], r["p99"])
        for r in doc_length_quantiles_sketch(sf_dir).take_all()
    }
    srcs = sorted(exact_rows)
    ok = []
    for s in srcs:
        ex, es = exact_rows[s], est_rows.get(s, (0, 0, 0))
        ok.append(
            all(e * (1.0 - rel) - 1 <= v <= e for e, v in zip(ex, es))
        )
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "p50": pa.array([exact_rows[s][0] for s in srcs], pa.int64()),
            "p90": pa.array([exact_rows[s][1] for s in srcs], pa.int64()),
            "p99": pa.array([exact_rows[s][2] for s in srcs], pa.int64()),
            "sketch_ok": pa.array(ok, pa.bool_()),
        }
    )


def _cms_partials(b: pa.Table, n_cand: int) -> pa.Table:
    """(lang, token, grid) of a (lang, text) batch: per language with
    tokens, one row holding its dense Count-Min grid (token "") and one
    row per candidate — its *n_cand* most frequent tokens, ties in
    first-occurrence order (``Counter.most_common``'s choice)."""
    from scrupyst_ray.functions.hashing import stable_hash64
    from scrupyst_ray.functions.sketches import cms_grid

    vocab, langs, code, tok, n, first = _lang_token_counts(b)
    hs = np.fromiter((stable_hash64(t) for t in vocab), np.uint64, len(vocab))
    lang_ix, toks, grids = [], [], []
    for c in np.unique(code):
        m = code == c
        top = tok[m][np.lexsort((first[m], -n[m]))[:n_cand]]
        lang_ix += [c] * (1 + len(top))
        toks += [""] + [vocab[t] for t in top.tolist()]
        grids += [cms_grid(hs[tok[m]], n[m]).ravel()] + [None] * len(top)
    return pa.table(
        {
            "lang": langs.take(pa.array(lang_ix, pa.int64())),
            "token": pa.array(toks, pa.string()),
            "grid": pa.array(grids, pa.list_(pa.int64())),
        }
    )


def top_terms_by_lang_cms(
    sf_dir: str, k: int = 10, candidates_per_batch: int = 64
) -> pa.Table:
    """(lang, token, n_est) — the SKETCH variant of :func:`top_terms_by_lang`
    for vocabularies too large to shuffle exactly: each batch contributes
    (a) one dense Count-Min grid per lang (``functions/sketches.py``, d·w
    counters — constant state) and (b) its LOCAL top candidates (bounded
    per batch).  In one streaming pass the driver sums the grids and
    unions each language's candidates as the blocks finish (no groupby),
    then ranks the candidates by their min-over-rows estimate.  CMS never
    underestimates, so any true top-k token that any batch surfaced
    locally ranks correctly."""
    from scrupyst_ray.functions.hashing import stable_hash64
    from scrupyst_ray.functions.sketches import CMS_D, CMS_W, cms_estimate
    from scrupyst_ray.pipelines.joins import stream_blocks

    ds = _docs(sf_dir, ["lang", "text"])
    parts = ds.map_batches(
        _cms_partials, fn_args=(candidates_per_batch,), batch_format="pyarrow"
    )
    grids: dict[str, np.ndarray] = {}
    cands: dict[str, set[str]] = {}
    for b in stream_blocks(parts):
        is_grid = pc.equal(b["token"], "")
        g = b.filter(is_grid)
        flat = pc.list_flatten(g["grid"]).to_numpy().reshape(-1, CMS_D, CMS_W)
        for lang, x in zip(g["lang"].to_pylist(), flat):
            grids[lang] = grids.get(lang, 0) + x
        c = b.filter(pc.invert(is_grid))
        for lang, tok in zip(c["lang"].to_pylist(), c["token"].to_pylist()):
            cands.setdefault(lang, set()).add(tok)

    out_lang, out_tok, out_n = [], [], []
    for lang in sorted(cands):
        ests = [(cms_estimate(grids[lang], stable_hash64(t)), t) for t in cands[lang]]
        ests.sort(key=lambda x: (-x[0], x[1]))
        for n, t in ests[:k]:
            out_lang.append(lang)
            out_tok.append(t)
            out_n.append(n)
    return pa.table(
        {
            "lang": pa.array(out_lang, pa.string()),
            "token": pa.array(out_tok, pa.string()),
            "n_est": pa.array(out_n, pa.int64()),
        }
    )
