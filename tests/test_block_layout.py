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


def _query(module: str, query: str):
    import importlib

    return getattr(importlib.import_module(f"scrupyst_ray.pipelines.{module}"), query)


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
        ("dedup", "exact_dedup_keep"),
        ("textstats", "doc_length_quantiles"),
        ("textstats", "top_terms_by_lang"),
    ],
)
def test_same_rows_one_file_and_many(ray_session, layouts, module, query):
    fn = _query(module, query)
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


# the queries whose per-block partials fold on the driver
FOLDED = [
    ("report", "curation_funnel"),
    ("dedup", "exact_dedup_keep"),
    ("textstats", "top_terms_by_lang"),
    ("textstats", "doc_length_quantiles"),
]


@pytest.mark.parametrize(
    "module, query", FOLDED + [("textstats", "top_terms_by_lang_cms")]
)
def test_one_streaming_execution(ray_session, layouts, monkeypatch, module, query):
    """Each query is one Ray Data execution, and its answer is built on
    the driver as a ``pa.Table``."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(executor, *args, **kwargs):
        calls.append(1)
        return execute(executor, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    out = _query(module, query)(layouts[1])
    assert isinstance(out, pa.Table) and out.num_rows
    assert len(calls) == 1


@pytest.mark.parametrize("module, query", FOLDED)
def test_keyed_fallback_same_rows(ray_session, layouts, monkeypatch, module, query):
    """Under the broadcast bounds the partials fold on the driver with no
    groupby; past ``joins.BROADCAST_MAX_ROWS`` the query takes its keyed
    plan, which gives the same rows."""
    import ray.data

    from scrupyst_ray.pipelines import joins

    fn = _query(module, query)
    calls = []
    groupby = ray.data.Dataset.groupby

    def counted(self, *args, **kwargs):
        calls.append(1)
        return groupby(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "groupby", counted)
    for sf in layouts:
        folded = _rows(fn(sf))
        assert folded and calls == []
        with monkeypatch.context() as m:
            m.setattr(joins, "BROADCAST_MAX_ROWS", 2)
            assert _rows(fn(sf)) == folded
        assert len(calls) == 1
        calls.clear()


def test_fold_by_key_sums_mins_and_gives_up(ray_session, monkeypatch):
    """Partials over several blocks combine per key; past either bound the
    fold returns None."""
    import ray.data

    from scrupyst_ray.pipelines import joins

    schema = pa.schema([("k", pa.string()), ("v", pa.int64())])
    blocks = [
        pa.table({"k": ["a", "b"], "v": [3, 1]}, schema=schema),
        pa.table({"k": ["b", "c"], "v": [5, 2]}, schema=schema),
        pa.table({"k": ["a"], "v": [1]}, schema=schema),
    ]
    parts = ray.data.from_arrow(blocks)

    def fold(how):
        t = joins.fold_by_key(parts, schema, how)
        return None if t is None else dict(zip(*(t[c].to_pylist() for c in "kv")))

    assert fold("sum") == {"a": 4, "b": 6, "c": 2}
    assert fold("min") == {"a": 1, "b": 1, "c": 2}
    empty = joins.fold_by_key(ray.data.from_arrow(schema.empty_table()), schema)
    assert empty.schema == schema and empty.num_rows == 0
    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", 3)
    assert fold("sum") == {"a": 4, "b": 6, "c": 2}  # 5 partial rows, 3 keys
    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", 2)
    assert fold("sum") is None
    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", 200_000)
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 8)
    assert fold("sum") is None
