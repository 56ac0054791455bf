"""Hashed-linear quality classifier (pipelines/classify.py): model
determinism, feature accounting, and oracle parity at sf0.001."""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestModel:
    def test_weight_deterministic_and_bounded(self):
        from scrupyst_ray.pipelines.classify import _weight

        assert _weight("hello") == _weight("hello")
        for f in ["a", "b c", "Zürich", ""]:
            assert -1000 <= _weight(f) <= 1000

    def test_call_counts_features(self):
        from scrupyst_ray.pipelines.classify import HashedLinearClassifier, _weight

        clf = HashedLinearClassifier()
        batch = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["One two three", "solo", "   "], pa.string()),
                "source": pa.array(["s", "s", "s"], pa.string()),
            }
        )
        out = clf(batch)
        # 3 tokens -> 3 unigrams + 2 bigrams = 5; empty text excluded
        assert out["doc_id"].to_pylist() == [1, 2]
        assert out["n_feats"].to_pylist() == [5, 1]
        want = sum(
            _weight(f)
            for f in ["one", "two", "three", "one two", "two three"]
        )
        assert out["raw"].to_pylist()[0] == want
        assert out["raw"].to_pylist()[1] == _weight("solo")

    def test_memo_survives_batches(self):
        from scrupyst_ray.pipelines.classify import HashedLinearClassifier

        clf = HashedLinearClassifier()
        b = pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["same tokens again"], pa.string()),
                "source": pa.array(["s"], pa.string()),
            }
        )
        r1 = clf(b)["raw"].to_pylist()
        r2 = clf(b)["raw"].to_pylist()
        assert r1 == r2
        assert len(clf._memo) == 5  # 3 unigrams + 2 bigrams, memoized once


@pytest.mark.usefixtures("ray_session")
class TestOracleParity:
    def test_scores_match_duckdb(self):
        import sys

        sys.path.insert(0, REPO_ROOT)
        import __ray_entry__ as e

        ours = e.queries()["quality_classifier_scores"](SF).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')"
        )
        theirs = con.execute(e.oracle_sql()["quality_classifier_scores"]).fetchdf()
        assert len(ours) == len(theirs) > 0
        a = sorted(ours[sorted(ours.columns)].astype(str).itertuples(index=False, name=None))
        b = sorted(theirs[sorted(theirs.columns)].astype(str).itertuples(index=False, name=None))
        assert a == b
        # both labels actually occur (the gate is non-degenerate)
        assert set(ours["label"]) == {"keep", "drop"}
