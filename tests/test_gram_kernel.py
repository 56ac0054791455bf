"""The batch gram kernel (`functions/textstats.ws_token_ids` + `ngram_ids`)
against the per-occurrence string loops it replaced in the DSIR, bigram-LM
and Gopher scans, kept here as references.  Pure numpy/Arrow: no Ray."""

from __future__ import annotations

from collections import Counter
from hashlib import md5

import numpy as np
import pyarrow as pa

from scrupyst_ray.functions.textstats import ngram_ids, ws_token_ids, ws_tokens

TEXTS = [
    "the cat sat on the mat the cat",  # a gram repeated within the row
    None,
    "",
    " \t\n ",
    "solo",  # one token: one unigram, no bigrams
    "the cat ran",  # grams repeated across rows
    "a\xa0b c\vd a\xa0b c\vd",  # RE2 keeps \xa0 and \v inside tokens
    "x\x85y\x1cz w x\x85y\x1cz",
    "\r\n",
    "猫 が 猫 が 猫",  # CJK tokens
    "solo",
    "p q\fp q\rp q p",
]


def ref_dsir_grams(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """The per-occurrence DSIR loop: per document, unigram then bigram
    buckets; each document's gram count."""
    buckets: list[int] = []
    n_feats = np.zeros(len(texts), np.int64)
    for i, t in enumerate(texts):
        toks = ws_tokens(t)
        grams = toks + [a + " " + b for a, b in zip(toks, toks[1:])]
        buckets.extend(
            int.from_bytes(md5(g.encode()).digest()[:4], "big") % 10_000 for g in grams
        )
        n_feats[i] = len(grams)
    return np.array(buckets, np.int64), n_feats


def ref_lm_bigrams(texts: list) -> list[tuple]:
    """The per-occurrence LM loop: (row, w1, bigram, count) per distinct
    bigram of each text, in first-occurrence order."""
    out = []
    for i, t in enumerate(texts):
        toks = ws_tokens(t)
        for (a, z), m in Counter(zip(toks, toks[1:])).items():
            out.append((i, a, a + " " + z, m))
    return out


def ref_lm_gram_counts(texts: list) -> Counter:
    c: Counter = Counter()
    for t in texts:
        toks = ws_tokens(t)
        c.update(toks)
        c.update(a + " " + z for a, z in zip(toks, toks[1:]))
    return c


def ref_repetition(toks: list[str], n: int) -> tuple[float, float]:
    """The per-document Gopher loop: (dup_frac, top_frac) of the word
    n-grams, both 0.0 with fewer than n tokens."""
    total = len(toks) - n + 1
    if total <= 0:
        return 0.0, 0.0
    counts = Counter(" ".join(toks[i : i + n]) for i in range(total))
    dup_occ = sum(c for c in counts.values() if c > 1)
    return dup_occ / total, max(counts.values()) / total


def _col(texts: list) -> pa.ChunkedArray:
    """*texts* as a two-chunk column, as Ray hands batches over."""
    h = len(texts) // 2
    return pa.chunked_array([texts[:h], texts[h:]], pa.string())


def test_tokens_are_ws_tokens():
    vocab, tok, row, n_tok = ws_token_ids(_col(TEXTS))
    want = [ws_tokens(t) for t in TEXTS]
    assert n_tok.tolist() == [len(w) for w in want]
    assert [vocab[i] for i in tok] == [w for ws in want for w in ws]
    assert row.tolist() == [i for i, ws in enumerate(want) for _ in ws]
    assert len(vocab) == len(set(vocab))


def test_ngram_ids_rank_distinct_grams():
    vocab, tok, row, _ = ws_token_ids(_col(TEXTS))
    for n in (2, 3):
        pos, gid, grams = ngram_ids(tok, row, n)
        text = [" ".join(vocab[i] for i in g) for g in grams.tolist()]
        assert len(set(text)) == len(text)
        got = [text[g] for g in gid]
        want = [
            " ".join(ws[i : i + n])
            for ws in (ws_tokens(t) for t in TEXTS)
            for i in range(len(ws) - n + 1)
        ]
        assert got == want
        assert (row[pos] == row[pos + n - 1]).all()


def test_no_tokens_at_all():
    vocab, tok, row, n_tok = ws_token_ids(pa.array([None, "", " "], pa.string()))
    assert vocab == [] and len(tok) == len(row) == 0
    assert n_tok.tolist() == [0, 0, 0]
    pos, gid, grams = ngram_ids(tok, row, 2)
    assert len(pos) == len(gid) == 0 and grams.shape == (0, 2)


def test_dsir_buckets_match_the_loop():
    from scrupyst_ray.pipelines.dsir import _grams

    buckets, n_feats = _grams(_col(TEXTS))
    want_b, want_n = ref_dsir_grams(TEXTS)
    assert n_feats.tolist() == want_n.tolist()
    assert buckets.tolist() == want_b.tolist()


def test_lm_bigrams_match_the_loop_in_order():
    from scrupyst_ray.pipelines.lm import _bigrams

    words, bigrams, rows, w1, bg, ns = _bigrams(_col(TEXTS))
    got = [
        (r, words[a], bigrams[b], m)
        for r, a, b, m in zip(rows.tolist(), w1.tolist(), bg.tolist(), ns.tolist())
    ]
    assert got == ref_lm_bigrams(TEXTS)


def test_lm_gram_counts_match_the_loop():
    from scrupyst_ray.pipelines.lm import _gram_counts

    t = _gram_counts(pa.table({"text": _col(TEXTS)}))
    got = dict(zip(t["g"].to_pylist(), t["n"].to_pylist()))
    assert len(got) == t.num_rows
    assert got == dict(ref_lm_gram_counts(TEXTS))


def test_gopher_fractions_match_the_loop():
    from scrupyst_ray.pipelines.textstats import _repetition

    _, tok, row, n_tok = ws_token_ids(_col(TEXTS))
    for n in (2, 3):
        dup, top = _repetition(tok, row, len(TEXTS), n)
        want = [ref_repetition(ws_tokens(t), n) for t in TEXTS]
        assert list(zip(dup.tolist(), top.tolist())) == want
