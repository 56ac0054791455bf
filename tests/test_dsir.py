"""DSIR importance weights (`pipelines/dsir.py`) vs a pure-Python
reference implementation on a hand-built documents table."""

from __future__ import annotations

import math
import os
from collections import Counter
from hashlib import md5

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scrupyst_ray.functions.textstats import ws_tokens

B = 10_000

DOCS = [
    (1, "the cat sat on the mat", "en"),
    (2, "the cat ran fast today", "en"),
    (3, "der hund lief schnell heute", "de"),
    (4, "le chat noir dort ici", "fr"),
    (5, "the dog sat on the log", "en"),
    (6, "single", "de"),  # one token: one unigram, no bigrams
    (7, "", "en"),  # empty: featureless, absent from output
    # \xa0 and \v stay inside RE2 tokens (str.split would split on them)
    (8, "the\xa0cat sat on\vthe mat", "en"),
]

# featureless documents in the MIDDLE of a block, between scored ones.  Ray
# splits a small file into several read blocks, so the pattern repeats
# through the file and every block holds featureless documents.
_GAPPY = [
    ("the cat sat on the mat", "en"),
    ("", "en"),
    ("der hund lief", "de"),
    ("  \t ", "fr"),
    ("", "de"),
    ("le chat noir dort", "fr"),
    (" ", "en"),
    ("the dog ran fast", "en"),
]
GAPPY_DOCS = [
    (10 * k + i, t, lang)
    for k in range(8)
    for i, (t, lang) in enumerate(_GAPPY)
]


def _bucket(g: str) -> int:
    return int(md5(g.encode()).hexdigest()[:8], 16) % B


def ref_weights(
    target: str = "en", docs: list = DOCS
) -> dict[int, tuple[int, float]]:
    """doc_id -> (n_feats, logw) per the docstring contract in dsir.py."""
    feats: dict[int, Counter] = {}
    for d, t, _ in docs:
        toks = ws_tokens(t)
        if not toks:
            continue
        c: Counter = Counter(_bucket(w) for w in toks)
        c.update(_bucket(a + " " + b) for a, b in zip(toks, toks[1:]))
        feats[d] = c
    tcnt: Counter = Counter()
    rcnt: Counter = Counter()
    for d, _, lang in docs:
        if d not in feats:
            continue
        (tcnt if lang == target else rcnt).update(feats[d])
    tt, rr = sum(tcnt.values()), sum(rcnt.values())
    out = {}
    for d, c in feats.items():
        lw = sum(
            n
            * (
                math.log((tcnt[bk] + 1) / (tt + B))
                - math.log((rcnt[bk] + 1) / (rr + B))
            )
            for bk, n in c.items()
        )
        out[d] = (sum(c.values()), lw)
    return out


def _write(d, docs: list) -> str:
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([x[0] for x in docs], pa.int64()),
                "text": pa.array([x[1] for x in docs], pa.string()),
                "lang": pa.array([x[2] for x in docs], pa.string()),
            }
        ),
        os.path.join(str(d), "documents.parquet"),
    )
    return str(d)


@pytest.fixture(scope="module")
def dsir_dir(tmp_path_factory):
    return _write(tmp_path_factory.mktemp("dsirdocs"), DOCS)


@pytest.fixture(scope="module")
def gappy_dir(tmp_path_factory):
    return _write(tmp_path_factory.mktemp("gappydocs"), GAPPY_DOCS)


def test_logweights_match_reference(ray_session, dsir_dir):
    from scrupyst_ray.pipelines.dsir import dsir_logweights

    got = {
        r["doc_id"]: (r["n_feats"], r["logw"])
        for r in dsir_logweights(dsir_dir).take_all()
    }
    want = ref_weights()
    assert set(got) == set(want)  # doc 7 (empty) absent
    for d, (n, lw) in want.items():
        assert got[d][0] == n
        assert got[d][1] == f"{lw:.4f}"


def test_target_lang_scores_higher(ray_session, dsir_dir):
    """English docs ARE the target distribution — their mean weight must
    exceed every other language's (the selection signal DSIR exists for)."""
    from scrupyst_ray.pipelines.dsir import dsir_by_lang

    rows = {r["lang"]: float(r["avg_logw"]) for r in dsir_by_lang(dsir_dir).to_pylist()}
    assert rows["en"] > rows["de"]
    assert rows["en"] > rows["fr"]


def test_top_docs_order_and_determinism(ray_session, dsir_dir):
    from scrupyst_ray.pipelines.dsir import dsir_top_docs

    rows = dsir_top_docs(dsir_dir, k=3).take_all()
    want = ref_weights()
    order = sorted(want, key=lambda d: (-round(want[d][1], 4), d))[:3]
    assert [r["doc_id"] for r in rows] == order
    # deterministic across runs
    again = dsir_top_docs(dsir_dir, k=3).take_all()
    assert rows == again


def test_single_token_doc_has_one_feature(ray_session, dsir_dir):
    from scrupyst_ray.pipelines.dsir import dsir_logweights

    got = {r["doc_id"]: r["n_feats"] for r in dsir_logweights(dsir_dir).take_all()}
    assert got[6] == 1  # one unigram, zero bigrams


def test_featureless_docs_inside_a_block(ray_session, gappy_dir):
    """Empty and whitespace-only documents between scored ones are absent,
    and every scored document after them keeps its own grams."""
    from scrupyst_ray.pipelines.dsir import dsir_logweights

    got = {
        r["doc_id"]: (r["n_feats"], r["logw"])
        for r in dsir_logweights(gappy_dir).take_all()
    }
    want = ref_weights(docs=GAPPY_DOCS)
    assert set(got) == {d for d, t, _ in GAPPY_DOCS if t.strip()} == set(want)
    for d, (n, lw) in want.items():
        assert got[d] == (n, f"{lw:.4f}")
