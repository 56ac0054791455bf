"""Batched model-inference over the documents table: a fastText-style
hashed linear quality classifier.

This surfaces the MODEL-SCORING pipeline shape (reference analog: the item
pipelines that gate items on computed quality, `scrapy/pipelines/__init__.py`
— but the pattern here is the LLM-data one: run a classifier over every
document of a 100 TB corpus and keep/drop on its score):

- the "model" is an **actor-pool** ``map_batches`` stage — weights/state are
  set up once per actor in ``__init__`` (here: the compiled tokenizer and a
  token→weight memo standing in for a loaded weight file; a real fastText /
  ONNX model would be loaded in exactly this spot), inference runs per batch;
- featurization is the **hashing trick** (fastText's wordNgrams=2): unigram +
  adjacent-bigram features hashed straight to a weight — no vocabulary table
  ships anywhere, which is what makes the stage embarrassingly parallel at
  corpus scale;
- the weight function is a pure function of md5 so the whole model is
  DETERMINISTIC and the end-to-end inference is SQL-expressible — the DuckDB
  oracle recomputes every feature weight and hash-exact-matches the scores
  (``__ray_entry__.oracle_sql()['quality_classifier_scores']``).

weight(f) = (int(md5(f)[:8], 16) % 2001) - 1000        ∈ [-1000, 1000]
score(doc) = Σ weight(f) / (1000 · n_feats)            ∈ [-1, 1]
label      = keep iff Σ weight(f) > 0   (integer compare — no float edge)
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
from ray.data.aggregate import Count

from scrupyst_ray.pipelines.textstats import _docs


def _weight(feat: str) -> int:
    h = int.from_bytes(hashlib.md5(feat.encode()).digest()[:4], "big")
    return (h % 2001) - 1000


class HashedLinearClassifier:
    """Actor-pool inference stage.  ``__init__`` = model load (once per
    actor): tokenizer compile + weight memo.  ``__call__`` = batched
    inference: tokenize, hash features, integer-sum weights."""

    def __init__(self) -> None:
        self._tok = re.compile(r"\S+")
        self._memo: dict[str, int] = {}

    def _w(self, feat: str) -> int:
        w = self._memo.get(feat)
        if w is None:
            w = self._memo[feat] = _weight(feat)
            if len(self._memo) > 2_000_000:  # bound actor heap
                self._memo.clear()
        return w

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_feats = np.empty(len(texts), np.int64)
        raw = np.empty(len(texts), np.int64)
        w = self._w
        for i, text in enumerate(texts):
            toks = self._tok.findall(text.lower())
            s = 0
            for t in toks:
                s += w(t)
            for a, b in zip(toks, toks[1:]):
                s += w(a + " " + b)
            n_feats[i] = 2 * len(toks) - 1 if toks else 0
            raw[i] = s
        keep = pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "n_feats": pa.array(n_feats, pa.int64()),
                "raw": pa.array(raw, pa.int64()),
            }
        )
        # docs with no tokens have no features — excluded (oracle parity)
        import pyarrow.compute as pc

        return keep.filter(pc.greater(keep["n_feats"], pa.scalar(0, pa.int64())))


def _scored(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text", "source"]).map_batches(
        HashedLinearClassifier,
        batch_format="pyarrow",
        concurrency=(1, 8),
        batch_size=256,
    )


def quality_classifier_scores(sf_dir: str):
    """(doc_id, n_feats, score, label) per document — the full inference
    output, hash-matched by the SQL oracle that recomputes the model."""
    import pyarrow.compute as pc

    def finish(b: pa.Table) -> pa.Table:
        score = pc.divide(
            pc.cast(b["raw"], pa.float64()),
            pc.multiply(pc.cast(b["n_feats"], pa.float64()), pa.scalar(1000.0)),
        )
        fmt = np.char.mod("%.6f", score.to_numpy(zero_copy_only=False))
        label = pc.if_else(
            pc.greater(b["raw"], pa.scalar(0, pa.int64())),
            pa.scalar("keep"),
            pa.scalar("drop"),
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_feats": b["n_feats"],
                "score": pa.array(fmt, pa.string()),
                "label": label,
            }
        )

    return _scored(sf_dir).map_batches(finish, batch_format="pyarrow").sort("doc_id")


def classifier_label_dist(sf_dir: str):
    """(source, label, n_docs) — the downstream keep/drop funnel per source:
    inference feeds a tiny per-(source,label) groupby, the shape a corpus
    curation run uses to audit a classifier gate before applying it."""
    import pyarrow.compute as pc

    def lab(b: pa.Table) -> pa.Table:
        label = pc.if_else(
            pc.greater(b["raw"], pa.scalar(0, pa.int64())),
            pa.scalar("keep"),
            pa.scalar("drop"),
        )
        return pa.table({"source": b["source"], "label": label})

    out = (
        _scored(sf_dir)
        .map_batches(lab, batch_format="pyarrow")
        .groupby(["source", "label"])
        .aggregate(Count())
    )
    return out.map_batches(
        lambda t: t.rename_columns(["source", "label", "n_docs"]),
        batch_format="pyarrow",
    ).sort(["source", "label"])
