"""Queries that reduce per-block partials give the same rows whatever the
block layout: ``documents.parquet`` written as one file and as a directory
of several unevenly sized files must agree row for row."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

N_DOCS = 400
# uneven file cuts, so the many-files blocks never line up with the blocks
# Ray splits the one file into
CUTS = (0, 37, 188, 400)


def _documents() -> pa.Table:
    """Seeded Zipf-vocabulary documents over three languages, with exact
    duplicates and featureless ("" and whitespace-only) documents spread
    through every file."""
    rng = np.random.default_rng(11)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = ["".join(rng.choice(letters, rng.integers(3, 8))) for _ in range(300)]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts = []
    for i in range(N_DOCS):
        if i % 37 == 5:
            texts.append("" if i % 2 else " \t ")
        elif i % 19 == 3:
            texts.append(texts[i // 2])
        else:
            words = rng.choice(len(vocab), rng.integers(5, 60), p=p)
            texts.append(" ".join(vocab[w] for w in words))
    langs = rng.choice(["en", "de", "fr"], N_DOCS, p=[0.5, 0.3, 0.2])
    return pa.table(
        {
            "doc_id": pa.array(range(N_DOCS), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs.tolist(), pa.string()),
            "source": pa.array([f"src{i % 5}" for i in range(N_DOCS)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """(one-file sf dir, many-files sf dir) over the same documents."""
    t = _documents()
    one = str(tmp_path_factory.mktemp("one_file"))
    pq.write_table(t, os.path.join(one, "documents.parquet"))
    many = str(tmp_path_factory.mktemp("many_files"))
    parts = os.path.join(many, "documents.parquet")
    os.makedirs(parts)
    for i, (a, b) in enumerate(zip(CUTS, CUTS[1:])):
        pq.write_table(
            t.slice(a, b - a), os.path.join(parts, f"part-{i}.parquet")
        )
    return one, many


def _rows(result) -> list[dict]:
    if isinstance(result, pa.Table):
        return result.to_pylist()
    return result.take_all()


@pytest.mark.parametrize(
    "module, query",
    [
        ("dsir", "dsir_logweights"),
        ("dsir", "dsir_by_lang"),
        ("dsir", "dsir_top_docs"),
        ("textstats", "top_terms_by_lang_cms"),
        ("report", "curation_funnel"),
    ],
)
def test_same_rows_one_file_and_many(ray_session, layouts, module, query):
    import importlib

    fn = getattr(
        importlib.import_module(f"scrupyst_ray.pipelines.{module}"), query
    )
    one, many = layouts
    got = _rows(fn(many))
    assert got  # a non-trivial answer
    assert got == _rows(fn(one))


def test_funnel_counts_every_block(ray_session, layouts):
    """Stage 0 is the document count: a dropped block partial shows."""
    from scrupyst_ray.pipelines.report import curation_funnel

    for sf in layouts:
        rows = curation_funnel(sf).to_pylist()
        assert rows[0] == {"stage": "0_total", "n_docs": N_DOCS}
        ns = [r["n_docs"] for r in rows]
        assert ns == sorted(ns, reverse=True) and ns[-1] > 0
