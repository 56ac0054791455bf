"""Pipeline-level tests over the driver testdata (sf0.001): dedup, ANN,
text stats, multimodal plumbing — including cross-checks between the
approximate and exact paths."""

from __future__ import annotations

import os
import subprocess
import sys

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
class TestDedupPipelines:
    def test_exact_dedup_matches_sql(self):
        from scrupyst_ray.pipelines.dedup import exact_dedup_keep

        ours = exact_dedup_keep(SF).to_pandas()["doc_id"].tolist()
        theirs = [
            r[0]
            for r in duckdb.sql(
                f"SELECT MIN(doc_id) FROM read_parquet('{SF}/documents.parquet') "
                "GROUP BY text ORDER BY 1"
            ).fetchall()
        ]
        assert ours == theirs

    def test_minhash_pairs_deterministic_and_symmetric(self):
        from scrupyst_ray.pipelines.dedup import minhash_pairs

        p1 = minhash_pairs(SF).to_pandas()
        p2 = minhash_pairs(SF).to_pandas()
        assert p1.equals(p2)
        assert (p1.a < p1.b).all()
        assert (p1.est_jaccard >= 0.5).all()

    def test_minhash_keep_drops_pair_tails(self):
        from scrupyst_ray.pipelines.dedup import minhash_dedup_keep, minhash_pairs

        pairs = minhash_pairs(SF).to_pandas()
        kept = set(minhash_dedup_keep(SF).to_pandas()["doc_id"])
        for _, row in pairs.iterrows():
            assert row.b not in kept  # larger id of every near-dup pair dropped
        assert len(kept) == 500 - len(set(pairs.b))

    def test_minhash_keep_logs_no_schema_hash_warning(self):
        """The keep-set is the documents minus the drop-set, sorted.  The
        documents file carries pandas schema metadata (a dict); blocks the
        broadcast anti-join passes through with it make the sort's reduce
        workers log "Failed to hash the schemas", which a driver logging
        handler never sees, so the query runs in its own Ray session and its
        whole process output is read."""
        script = (
            "import ray\n"
            "ray.init(address='local', num_cpus=2, include_dashboard=False)\n"
            "from scrupyst_ray.pipelines.dedup import minhash_dedup_keep\n"
            "for _ in range(2):\n"
            f"    assert minhash_dedup_keep({SF!r}).take_all()\n"
            "ray.shutdown()\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=dict(os.environ, RAY_ADDRESS="local"),
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "Failed to hash the schemas" not in out.stdout + out.stderr

    def test_simhash_pairs_verified_by_hamming(self):
        from scrupyst_ray.functions.dedup import hamming64, simhash64
        from scrupyst_ray.pipelines.dedup import simhash_pairs

        pairs = simhash_pairs(SF).to_pandas()
        docs = duckdb.sql(
            f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
        ).fetchdf()
        texts = dict(zip(docs.doc_id, docs.text))
        for _, row in pairs.head(5).iterrows():
            d = int(hamming64(simhash64(texts[row.a]), simhash64(texts[row.b])))
            assert d == row.hamming <= 3


@pytest.mark.usefixtures("ray_session")
class TestANN:
    def test_brute_force_matches_numpy(self):
        from scrupyst_ray.pipelines.ann import brute_force_topk

        t = brute_force_topk(SF, [0], 10).to_pandas()
        emb = duckdb.sql(
            f"SELECT vec_id, embedding FROM read_parquet('{SF}/embeddings.parquet') ORDER BY vec_id"
        ).fetchdf()
        m = np.asarray(emb.embedding.tolist(), dtype=np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        q = m[emb.vec_id.tolist().index(0)]
        cos = m @ q
        order = np.lexsort((emb.vec_id.values, -cos))[:10]
        assert t.vec_id.tolist() == emb.vec_id.values[order].tolist()

    def test_ivf_recall_vs_brute_force(self):
        from scrupyst_ray.pipelines.ann import brute_force_topk, ivf_topk

        bf = set(brute_force_topk(SF, [0], 10).to_pandas().vec_id)
        ivf = set(ivf_topk(SF, [0], 10).to_pandas().vec_id)
        recall = len(bf & ivf) / 10
        assert recall >= 0.5  # nprobe=4/16 cells; exact top-1 must survive
        assert 0 in ivf  # the query vector itself

    def test_neardup_pairs_ordered(self):
        from scrupyst_ray.pipelines.ann import embedding_neardup_pairs

        p = embedding_neardup_pairs(SF, threshold=0.35).to_pandas()
        assert (p.a < p.b).all()
        assert (p.cos.astype(float) >= 0.35).all()

    def test_neardup_cells_match_exact_all_pairs(self):
        """The cell-routed candidate generation must not lose any pair vs
        the exact O(N²) definition at test scale."""
        from scrupyst_ray.pipelines.ann import embedding_neardup_pairs

        p = embedding_neardup_pairs(SF, threshold=0.35).to_pandas()
        exact = duckdb.sql(
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
            f"FROM read_parquet('{SF}/embeddings.parquet')) "
            "SELECT a.vec_id AS a, b.vec_id AS b, "
            "printf('%.4f', list_cosine_similarity(a.v, b.v)) AS cos "
            "FROM e a JOIN e b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.v, b.v) >= 0.35 ORDER BY a, b"
        ).fetchdf()
        assert p.reset_index(drop=True).equals(exact.reset_index(drop=True))

    def test_ivf_full_probe_is_exact(self):
        """Probing every cell must reproduce brute force EXACTLY (ids and
        order) — proves the partitioned store is lossless and the probe
        path re-ranks identically."""
        from scrupyst_ray.pipelines.ann import brute_force_topk, ivf_recall, ivf_topk

        bf = brute_force_topk(SF, [0, 7], 10)
        iv = ivf_topk(SF, [0, 7], 10, n_clusters=16, nprobe=16)
        assert bf["vec_id"].to_pylist() == iv["vec_id"].to_pylist()
        r = ivf_recall(SF, [0, 7, 23], 10)
        assert r["recall_ok"].to_pylist() == [True, True, True]

    def test_ivf_partial_probe_floor_gate(self):
        """The driver-visible partial-probe gate: recall@10 at nprobe=4/16
        clears the measured floor and the exact top-1 always survives; a
        deliberately starved probe (nprobe=0 is meaningless, so floor > 1)
        must FAIL — proves the gate can go false."""
        from scrupyst_ray.pipelines.ann import ivf_recall_floor

        r = ivf_recall_floor(SF, [0, 7, 23, 41], 10, nprobe=4)
        assert all(r["recall_floor_ok"].to_pylist())
        assert all(r["top1_ok"].to_pylist())
        # impossible floor → the boolean actually reacts to the data
        r2 = ivf_recall_floor(SF, [0], 10, nprobe=4, floor=1.01)
        assert r2["recall_floor_ok"].to_pylist() == [False]

    def test_ivf_store_partitions_on_disk(self):
        """The index is a one-time hive-partitioned store; a probe reads
        only its cells' files."""
        import os

        from scrupyst_ray.pipelines.ann import build_ivf_index

        cells_dir, centroids = build_ivf_index(SF, 16)
        assert os.path.exists(os.path.join(os.path.dirname(cells_dir), "_COMPLETE"))
        assert centroids.shape[1] == 64
        cells = [d for d in os.listdir(cells_dir) if d.startswith("cell=")]
        assert 2 <= len(cells) <= 16


@pytest.mark.usefixtures("ray_session")
class TestMultimodal:
    def test_feature_extraction_plumbing(self):
        from scrupyst_ray.stages.multimodal import media_features

        t = media_features(SF).to_pandas()
        assert len(t) == 500
        feats = np.asarray(t.feature.tolist(), dtype=np.float32)
        assert feats.shape == (500, 16)
        norms = np.linalg.norm(feats, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-3)  # unit-norm fake features
        assert set(t.media_type) == {"image", "audio", "video"}
        # deterministic across runs
        t2 = media_features(SF).to_pandas()
        assert t.media_id.tolist() == t2.media_id.tolist()
        assert np.array_equal(feats, np.asarray(t2.feature.tolist(), np.float32))


@pytest.mark.usefixtures("ray_session")
class TestFrameSampling:
    def test_fanout_and_slice_reconstruction(self):
        import duckdb

        from scrupyst_ray.stages.multimodal import media_frames

        t = media_frames(SF).to_pandas()
        per = t.groupby("media_id").size()
        # image rows (media_id % 3 == 0) → 1 frame; audio/video → 4
        for mid, n in per.items():
            assert n == (1 if mid % 3 == 0 else 4)
        # frame bytes reconstruct the payload exactly
        sizes = t.groupby("media_id")["frame_bytes"].sum()
        texts = dict(
            duckdb.sql(
                f"SELECT doc_id, octet_length(encode(text)) "
                f"FROM read_parquet('{SF}/documents.parquet')"
            ).fetchall()
        )
        for mid, total in sizes.items():
            assert total == texts[mid]
        # timestamps are monotone within each media row
        for _, grp in t.groupby("media_id"):
            ts = grp.sort_values("frame_idx")["frame_ts_ms"].tolist()
            assert ts == sorted(ts)

    def test_frame_digests_deterministic(self):
        from scrupyst_ray.stages.multimodal import media_frames

        a = media_frames(SF).to_pandas()
        b = media_frames(SF).to_pandas()
        assert a.frame_digest.tolist() == b.frame_digest.tolist()
        # distinct slices hash differently (first media row's 4 frames)
        vid = a[a.media_id == 2]
        assert vid.frame_digest.nunique() == len(vid)


@pytest.mark.usefixtures("ray_session")
class TestEmbeddingClustering:
    def test_sizes_partition_corpus_and_deterministic(self):
        from scrupyst_ray.pipelines.ann import embedding_cluster_sizes

        a = embedding_cluster_sizes(SF).take_all()
        assert sum(r["n_vectors"] for r in a) == 500
        assert len(a) == 8
        assert a == embedding_cluster_sizes(SF).take_all()

    def test_balanced_sample_assignments_are_nearest_centroid(self):
        import numpy as np

        from scrupyst_ray.pipelines.ann import (
            _normalize,
            _train_centroids,
            cluster_balanced_sample,
            load_query_vectors,
        )

        rows = cluster_balanced_sample(SF, per_cluster=5).take_all()
        from collections import Counter

        per = Counter(r["cluster_id"] for r in rows)
        assert all(v <= 5 for v in per.values())
        cent = _train_centroids(SF, 8)
        assert np.allclose(np.linalg.norm(cent, axis=1), 1.0)  # unit-norm
        ids = [r["vec_id"] for r in rows]
        vecs = _normalize(load_query_vectors(SF, ids))
        # independent formulation: EUCLIDEAN nearest centroid (not the
        # pipeline's dot-product argmax — equivalent only because the
        # centroids are unit-norm, which is exactly the invariant under test)
        d = ((vecs[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assert [int(n) for n in d.argmin(axis=1)] == [
            r["cluster_id"] for r in rows
        ]


@pytest.mark.usefixtures("ray_session")
class TestEmbeddingCovariance:
    def test_matches_numpy_cov(self):
        from scrupyst_ray.pipelines.ann import embedding_covariance

        t = embedding_covariance(SF).to_pandas()
        emb = duckdb.sql(
            f"SELECT embedding FROM read_parquet('{SF}/embeddings.parquet')"
            " ORDER BY vec_id"
        ).fetchdf()
        m = np.asarray(emb.embedding.tolist(), dtype=np.float64)
        want = np.cov(m, rowvar=False)  # sample covariance, ddof=1
        assert len(t) == 64 * 65 // 2  # upper triangle incl. diagonal
        got = {(r.i, r.j): r.cov for r in t.itertuples()}
        for (i, j), v in got.items():
            assert i <= j
            assert v == f"{want[i, j]:.4f}"

    def test_pca_whitening_identity_covariance(self):
        from scrupyst_ray.pipelines.ann import pca_whiten

        t = pca_whiten(SF, k=8).to_pandas()
        p = np.asarray(t.proj.tolist())
        assert p.shape == (500, 8)
        # whitened output: zero mean, identity covariance over the corpus
        assert np.allclose(p.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(np.cov(p, rowvar=False), np.eye(8), atol=1e-9)

    def test_explained_variance_matches_numpy(self):
        from scrupyst_ray.pipelines.ann import pca_explained_variance

        t = pca_explained_variance(SF, k=4).to_pandas()
        emb = duckdb.sql(
            f"SELECT embedding FROM read_parquet('{SF}/embeddings.parquet')"
            " ORDER BY vec_id"
        ).fetchdf()
        m = np.asarray(emb.embedding.tolist(), dtype=np.float64)
        vals = np.sort(np.linalg.eigvalsh(np.cov(m, rowvar=False)))[::-1]
        want = [f"{v / vals.sum():.4f}" for v in vals[:4]]
        assert t.var_ratio.tolist() == want
        assert sorted(t.var_ratio.tolist(), reverse=True) == t.var_ratio.tolist()

    def test_pca_reconstruction_identity(self):
        """The measured distributed residual equals trace(cov) − Σλ_top to
        float precision (Eckart-Young) and the gate booleans are earned."""
        from scrupyst_ray.pipelines.ann import pca_reconstruction

        t = pca_reconstruction(SF).to_pandas()
        assert t.n_components.tolist() == [8, 32]
        assert t.recon_ok.all()
        assert float(t.total_variance.iloc[0]) > 0
        assert t.total_variance.nunique() == 1

    def test_pca_whiten_clamps_to_effective_rank(self, tmp_path):
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        # 5 rows of dim 64 → covariance rank ≤ 4; k=16 must clamp, not NaN
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(5, 64)).astype(np.float32)
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(range(5), pa.int64()),
                    "embedding": pa.array(
                        [v.tolist() for v in vecs], pa.list_(pa.float32())
                    ),
                }
            ),
            os.path.join(str(tmp_path), "embeddings.parquet"),
        )
        from scrupyst_ray.pipelines.ann import pca_whiten

        p = np.asarray(pca_whiten(str(tmp_path), k=16).to_pandas().proj.tolist())
        assert p.shape[1] <= 4
        assert np.isfinite(p).all()


def test_ivf_topk_full_equals_brute_force(ray_session):
    """Full probe is lossless: ranked lists equal brute-force cosine top-k."""
    from scrupyst_ray.pipelines.ann import brute_force_topk, ivf_topk_full

    full = ivf_topk_full(SF)
    exact = brute_force_topk(SF, [0, 7, 23, 41], 10)
    assert full["query_id"].to_pylist() == exact["query_id"].to_pylist()
    assert full["vec_id"].to_pylist() == exact["vec_id"].to_pylist()
