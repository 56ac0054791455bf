"""Bigram-LM perplexity scoring (`pipelines/lm.py`) vs a pure-Python
reference implementation on a hand-built documents table."""

from __future__ import annotations

import math
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scrupyst_ray.functions.textstats import ws_tokens

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = [
    (1, "the cat sat on the mat", "web"),
    (2, "the cat ran", "web"),
    (3, "a dog sat on a log and a dog ran", "books"),
    (4, "single", "books"),  # <2 tokens: no bigrams, absent from output
    (5, "", "books"),  # empty text
    (6, "the the the the", "web"),  # repeated bigram within one doc
    # \xa0 and \v stay inside RE2 tokens (str.split would split on them)
    (7, "a\xa0dog sat\von a\xa0dog", "forum"),
]


def ref_ppl() -> dict[int, tuple[int, float]]:
    """doc_id -> (n_bigrams, ppl) with add-one smoothing, per the docstring
    contract in pipelines/lm.py."""
    toks = {d: ws_tokens(t) for d, t, _ in DOCS}
    uni: Counter = Counter()
    big: Counter = Counter()
    for ts in toks.values():
        uni.update(ts)
        big.update(zip(ts, ts[1:]))
    v = len(uni)
    out = {}
    for d, ts in toks.items():
        pairs = list(zip(ts, ts[1:]))
        if not pairs:
            continue
        lp = sum(math.log((big[p] + 1) / (uni[p[0]] + v)) for p in pairs)
        out[d] = (len(pairs), math.exp(-lp / len(pairs)))
    return out


@pytest.fixture(scope="module")
def lm_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("lmdocs")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([x[0] for x in DOCS], pa.int64()),
                "text": pa.array([x[1] for x in DOCS], pa.string()),
                "source": pa.array([x[2] for x in DOCS], pa.string()),
            }
        ),
        os.path.join(str(d), "documents.parquet"),
    )
    return str(d)


def test_bigram_ppl_matches_reference(ray_session, lm_dir):
    from scrupyst_ray.pipelines.lm import bigram_lm_ppl

    got = {
        r["doc_id"]: (r["n_bigrams"], r["ppl"])
        for r in bigram_lm_ppl(lm_dir).take_all()
    }
    want = ref_ppl()
    assert set(got) == set(want)  # docs 4 and 5 absent
    for d, (n, ppl) in want.items():
        assert got[d][0] == n
        assert got[d][1] == f"{ppl:.4f}"


def test_ppl_by_source_aggregates(ray_session, lm_dir):
    from scrupyst_ray.pipelines.lm import lm_ppl_by_source

    rows = {r["source"]: r for r in lm_ppl_by_source(lm_dir).to_pylist()}
    want = ref_ppl()
    # doc 4 (books, no bigrams) and doc 5 drop out of the per-source count
    assert rows["web"]["n_docs"] == 3
    assert rows["books"]["n_docs"] == 1
    web = [p for d, (_, p) in want.items() if d in (1, 2, 6)]
    assert rows["web"]["avg_ppl"] == f"{sum(web) / len(web):.4f}"


def test_repeated_bigram_low_ppl(ray_session, lm_dir):
    """'the the the the' repeats one high-count bigram — its perplexity must
    be the corpus minimum (the LM has seen that transition 3 times)."""
    from scrupyst_ray.pipelines.lm import bigram_lm_ppl

    rows = bigram_lm_ppl(lm_dir).take_all()
    best = min(rows, key=lambda r: float(r["ppl"]))
    assert best["doc_id"] == 6


UNICODE_TEXTS = [
    "a\xa0b c d a\xa0b c",  # nbsp inside a token
    "x\x85y z x\x85y w",  # NEL inside a token
    "p q p q p",
]


def _write_docs(d, texts) -> str:
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "source": pa.array(["s"] * len(texts)),
            }
        ),
        os.path.join(str(d), "documents.parquet"),
    )
    return str(d)


def _oracle(d: str, query: str) -> list:
    """The DuckDB oracle's rows for *query* over the documents in *d*."""
    import importlib.util

    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM read_parquet("
        f"'{d}/documents.parquet')"
    )
    spec = importlib.util.spec_from_file_location(
        "entry_for_lm_test", os.path.join(REPO_ROOT, "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return con.execute(mod.oracle_sql()[query]).fetchdf().values.tolist()


def test_unicode_whitespace_matches_duckdb_oracle(ray_session, tmp_path):
    """\xa0 (non-breaking space) is token-INTERNAL for RE2's \\S (the DuckDB
    oracle) but token-splitting for Python's unicode \\S — the shared
    ws_tokens class must keep both sides byte-identical."""
    from scrupyst_ray.pipelines.lm import bigram_lm_ppl

    d = _write_docs(tmp_path, UNICODE_TEXTS)
    got = bigram_lm_ppl(d).to_pandas()
    assert got.values.tolist() == _oracle(d, "bigram_lm_ppl")


def _rows(ds) -> dict:
    return {r["doc_id"]: (r["n_bigrams"], r["ppl"]) for r in ds.take_all()}


def _ref_rows() -> dict:
    return {d: (n, f"{p:.4f}") for d, (n, p) in ref_ppl().items()}


def test_keyed_branch_matches_reference_and_oracle(
    ray_session, lm_dir, tmp_path, monkeypatch
):
    """Past ``joins.BROADCAST_MAX_ROWS`` distinct grams the counts are not
    folded on the driver: a groupby sums them and hash joins attach them.
    That plan gives the same rows as the fold."""
    from scrupyst_ray.pipelines import joins
    from scrupyst_ray.pipelines.lm import bigram_lm_ppl, lm_ppl_by_source

    calls = []
    attach = joins.attach_by_key

    def counted(*args, **kwargs):
        calls.append(args[2])
        return attach(*args, **kwargs)

    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", 2)
    monkeypatch.setattr(joins, "attach_by_key", counted)

    assert _rows(bigram_lm_ppl(lm_dir)) == _ref_rows()
    assert calls == ["bg", "w1"]

    by_source = lm_ppl_by_source(lm_dir).to_pandas().values.tolist()
    assert by_source == _oracle(lm_dir, "lm_ppl_by_source")

    d = _write_docs(tmp_path, UNICODE_TEXTS)
    got_u = bigram_lm_ppl(d).to_pandas()
    assert got_u.values.tolist() == _oracle(d, "bigram_lm_ppl")
    assert len(calls) == 6


def test_fold_branch_runs_no_groupby_join_or_eager_execution(
    ray_session, lm_dir, monkeypatch
):
    """A vocabulary under the broadcast bounds is counted and scored inside
    the batches: the only exchange left is the output sort."""
    import ray.data

    from scrupyst_ray.pipelines import joins
    from scrupyst_ray.pipelines.lm import bigram_lm_ppl

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"the fold branch called {name}")

        return fail

    for name in ("groupby", "materialize", "count"):
        monkeypatch.setattr(ray.data.Dataset, name, forbidden(name))
    monkeypatch.setattr(joins, "attach_by_key", forbidden("attach_by_key"))

    assert _rows(bigram_lm_ppl(lm_dir)) == _ref_rows()
