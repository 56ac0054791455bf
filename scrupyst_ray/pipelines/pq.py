"""Product quantization — compressed-vector ANN (Jégou et al., TPAMI '11,
"Product Quantization for Nearest Neighbor Search").

PQ slices each d-dim vector into M subvectors and k-means-quantizes every
subspace independently: a vector becomes M uint8 codes (32× smaller than
float32 at M=8, d=64), and asymmetric distance computation (ADC) scores a
query against ALL codes with one (M × 256) lookup table + a table-gather —
the memory-bound scale path when the corpus no longer fits as floats.

Distributed shape (mirrors `pipelines/ann.py`'s IVF discipline):
- codebooks train once on a seeded `random_sample` (driver-side k-means on
  a bounded sample — the same legal small-state move as the IVF quantizer)
  and broadcast via `ray.put`;
- encoding is one streamed `map_batches` pass (vectorized per-subspace
  argmin), emitting (vec_id, code: binary(M)) rows — the corpus floats
  never ship anywhere afterwards;
- ADC search broadcasts the per-query lookup tables (M×256 floats each)
  and scans CODES per batch: per-batch local top-k, driver merges only
  #batches × k rows (the brute_force_topk pattern, on 32×-smaller data).

Rows-only (k-means); pytest gates: encode determinism, ADC-vs-exact recall
on the synthetic embeddings, reconstruction-error sanity.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray

from scrupyst_ray import cache
from scrupyst_ray.pipelines.ann import (
    _emb,
    _kmeans,
    _normalize,
    _to_matrix,
    build_ivf_index,
    load_query_vectors,
)


def train_codebooks(
    sf_dir: str,
    m: int = 8,
    n_codes: int = 64,
    sample_rows: int = 2048,
    seed: int = 11,
) -> np.ndarray:
    """(m, n_codes, d/m) float64 per-subspace codebooks, trained on a
    seeded random sample (bounded driver-side state, corpus-size-free).
    n_codes ≤ 256 so codes fit uint8."""
    if n_codes > 256:
        raise ValueError("n_codes must fit uint8 (≤ 256)")
    emb = _emb(sf_dir)
    total = emb.count()
    frac = min(1.0, sample_rows / max(total, 1))
    tables = [
        t
        for t in ray.get(emb.random_sample(frac, seed=seed).to_arrow_refs())
        if t.num_columns
    ]
    sample = pa.concat_tables(tables).sort_by("vec_id")
    _, x = _to_matrix(sample)
    x = _normalize(x)  # unit vectors: L2 is then monotonic in cosine
    d = x.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    books = np.stack(
        [
            _kmeans(x[:, j * sub : (j + 1) * sub], n_codes)
            for j in range(m)
        ]
    )
    return books


def encode(sf_dir: str, m: int = 8, n_codes: int = 64):
    """(vec_id, code: binary(m)) — the PQ-compressed corpus, one streamed
    pass; vectorized per-subspace nearest-centroid argmin."""
    books_ref = ray.put(train_codebooks(sf_dir, m, n_codes))

    def enc(b: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        ids, x = _to_matrix(b)
        x = _normalize(x)
        mm, _, sub = books.shape
        codes = np.empty((len(x), mm), np.uint8)
        for j in range(mm):
            xs = x[:, j * sub : (j + 1) * sub]
            # ||x - c||² argmin == argmax(2x·c − ||c||²), vectorized
            dots = xs @ books[j].T
            codes[:, j] = np.argmin(
                (books[j] ** 2).sum(axis=1)[None, :] - 2 * dots, axis=1
            ).astype(np.uint8)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "code": pa.array([c.tobytes() for c in codes], pa.binary()),
            }
        )

    return _emb(sf_dir).map_batches(enc, batch_format="pyarrow")


def pq_code_stats(sf_dir: str, m: int = 8, n_codes: int = 64):
    """(n_vectors, code_bytes, distinct_codes, mean_sq_error) — compression
    + fidelity summary of the PQ index (the sanity dashboard row).
    mean_sq_error is the corpus-mean ‖x − decode(encode(x))‖², %.4f."""
    books_ref = ray.put(train_codebooks(sf_dir, m, n_codes))

    def per_vector(b: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        ids, x = _to_matrix(b)
        x = _normalize(x)
        mm, _, sub = books.shape
        err = np.zeros(len(x))
        code_rows = np.empty((len(x), mm), np.uint8)
        for j in range(mm):
            xs = x[:, j * sub : (j + 1) * sub]
            dots = xs @ books[j].T
            c = np.argmin(
                (books[j] ** 2).sum(axis=1)[None, :] - 2 * dots, axis=1
            )
            code_rows[:, j] = c.astype(np.uint8)
            err += ((xs - books[j][c]) ** 2).sum(axis=1)
        return pa.table(
            {
                "code": pa.array([c.tobytes() for c in code_rows], pa.binary()),
                "se": pa.array(err, pa.float64()),
            }
        )

    # distinct codes via a code-keyed groupby (codes never collect on the
    # driver — at corpus scale the code column is the whole index)
    coded = _emb(sf_dir).map_batches(
        per_vector, batch_format="pyarrow"
    ).materialize()
    agg = coded.sum("se")
    n = coded.count()
    sse = agg if isinstance(agg, float) else agg["sum(se)"]
    distinct = coded.groupby("code").count().count()
    return pa.table(
        {
            "n_vectors": pa.array([n], pa.int64()),
            "code_bytes": pa.array([m], pa.int64()),
            "distinct_codes": pa.array([distinct], pa.int64()),
            "mean_sq_error": pa.array([f"{sse / max(n, 1):.4f}"], pa.string()),
        }
    )


def adc_topk(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 10,
    m: int = 8,
    n_codes: int = 64,
    rerank: int | None = None,
):
    """(query_id, vec_id, adc_dist) — top-k by ASYMMETRIC distance: the
    query stays float, the corpus is scanned as uint8 codes against a
    broadcast (n_queries, m, n_codes) lookup table of per-subspace squared
    distances; per-batch local top-k, driver merges #batches × k rows.

    With ``rerank=R`` the ADC scan produces an R-candidate shortlist per
    query and the FINAL ranking re-scores only those R ids against their
    exact float vectors (the paper's IVFADC+R refinement): the full corpus
    is still touched only as uint8 codes; the exact read fetches R·|q|
    rows by id.  adc_dist then carries the exact squared L2 (monotonic in
    cosine on the unit-normalized vectors)."""
    if query_ids is None:
        query_ids = [0]
    shortlist = max(k, rerank or 0)
    books = train_codebooks(sf_dir, m, n_codes)
    q = _normalize(load_query_vectors(sf_dir, query_ids))  # (nq, d)
    mm, _, sub = books.shape
    # luts[qi, j, c] = ||q_sub - codeword||²
    luts = np.stack(
        [
            np.stack(
                [
                    ((q[qi, j * sub : (j + 1) * sub][None, :] - books[j]) ** 2).sum(
                        axis=1
                    )
                    for j in range(mm)
                ]
            )
            for qi in range(len(q))
        ]
    )
    luts_ref = ray.put(luts)
    qids_arr = list(query_ids)
    codes = encode(sf_dir, m, n_codes)

    def local_topk(b: pa.Table) -> pa.Table:
        lt = ray.get(luts_ref)
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        cm = np.stack(
            [np.frombuffer(c, np.uint8) for c in b["code"].to_pylist()]
        )  # (n, m)
        out_q, out_v, out_d = [], [], []
        for qi, qid in enumerate(qids_arr):
            # gather: dist[i] = Σ_j lut[qi, j, code[i, j]]
            dist = lt[qi][np.arange(cm.shape[1])[None, :], cm].sum(axis=1)
            kk = min(shortlist, len(ids))
            top = np.argpartition(dist, kk - 1)[:kk]
            out_q.extend([qid] * kk)
            out_v.extend(ids[top].tolist())
            out_d.extend(dist[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "adc_dist": pa.array(out_d, pa.float64()),
            }
        )

    # merged driver-side: #batches × shortlist rows only
    parts = codes.map_batches(local_topk, batch_format="pyarrow").take_all()
    rows = sorted(
        parts, key=lambda r: (r["query_id"], r["adc_dist"], r["vec_id"])
    )
    if rerank:
        # exact refinement: fetch ONLY the shortlist ids' float vectors
        # (R·|q| rows by id), score exactly, keep top-k per query
        per_q: dict[int, list] = {}
        for r in rows:
            mine = per_q.setdefault(r["query_id"], [])
            if len(mine) < rerank:
                mine.append(r["vec_id"])
        all_ids = sorted({v for vs in per_q.values() for v in vs})
        vecs = _normalize(load_query_vectors(sf_dir, all_ids))
        pos = {v: i for i, v in enumerate(all_ids)}
        rows = []
        for qi, qid in enumerate(qids_arr):
            cand = per_q.get(qid, [])
            d = ((vecs[[pos[v] for v in cand]] - q[qi][None, :]) ** 2).sum(
                axis=1
            )
            rows.extend(
                {"query_id": qid, "vec_id": v, "adc_dist": float(dd)}
                for v, dd in zip(cand, d)
            )
        rows.sort(key=lambda r: (r["query_id"], r["adc_dist"], r["vec_id"]))
    # group once (dict-of-lists), not a per-query scan of the full row list
    by_q: dict[int, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    out_q, out_v, out_d = [], [], []
    for qid in qids_arr:
        mine = by_q.get(qid, [])[:k]
        out_q.extend([qid] * len(mine))
        out_v.extend(r["vec_id"] for r in mine)
        out_d.extend(round(r["adc_dist"], 4) for r in mine)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "adc_dist": pa.array(out_d, pa.float64()),
        }
    )


_IVFPQ_VERSION = 2  # v2: corpus-fingerprint cache key + atomic staged publish


def build_ivfpq_store(
    sf_dir: str, n_clusters: int = 16, m: int = 16, n_codes: int = 256
) -> tuple[str, np.ndarray, np.ndarray]:
    """One-time IVF-PQ store → (codes_dir, centroids, codebooks): the
    canonical composed scale-ANN layout (Jégou '11 IVFADC) — every vector
    is quantized to its IVF cell AND PQ-encoded to m uint8 codes in ONE
    streaming pass, written under ``cell=<c>/`` hive partitions.  A query
    later reads only its nprobe cells' partitions of uint8 codes: probe
    I/O ≈ (nprobe / n_clusters) · N · m bytes — neither the floats nor the
    other cells ever move.  The coarse quantizer is SHARED with the
    IVF-Flat index (``build_ivf_index`` — same centroids, same cells), so
    the two indexes stay consistent.  ``cell_id`` is duplicated as a data
    column because hive partition values don't ride into partition-file
    reads (see ``ann._read_cells``).  Built once through ``cache.store``,
    named by the parameters and the embeddings' ``cache.source_key``, so
    concurrent or killed builders never leave a half-written store."""

    def build(staging: str) -> None:
        books = train_codebooks(sf_dir, m, n_codes)
        _, centroids = build_ivf_index(sf_dir, n_clusters)
        cent_ref = ray.put(centroids)
        books_ref = ray.put(books)

        def assign_encode(b: pa.Table) -> pa.Table:
            cents = ray.get(cent_ref)
            bks = ray.get(books_ref)
            ids, x = _to_matrix(b)
            x = _normalize(x)
            cell = (x @ cents.T).argmax(axis=1).astype(np.int64)
            mm, _, sub = bks.shape
            codes = np.empty((len(x), mm), np.uint8)
            for j in range(mm):
                xs = x[:, j * sub : (j + 1) * sub]
                dots = xs @ bks[j].T
                codes[:, j] = np.argmin(
                    (bks[j] ** 2).sum(axis=1)[None, :] - 2 * dots, axis=1
                ).astype(np.uint8)
            return pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "code": pa.array([c.tobytes() for c in codes], pa.binary()),
                    "cell_id": pa.array(cell, pa.int64()),
                    "cell": pa.array(cell, pa.int64()),
                }
            )

        _emb(sf_dir).map_batches(
            assign_encode, batch_format="pyarrow"
        ).write_parquet(os.path.join(staging, "codes"), partition_cols=["cell"])
        np.save(os.path.join(staging, "centroids.npy"), centroids)
        np.save(os.path.join(staging, "books.npy"), books)

    root = cache.store(
        f"scrupyst_ivfpq_v{_IVFPQ_VERSION}_{os.path.basename(os.path.normpath(sf_dir))}"
        f"_{cache.source_key(os.path.join(sf_dir, 'embeddings.parquet'))}"
        f"_c{n_clusters}_m{m}_k{n_codes}",
        build,
    )
    return (
        os.path.join(root, "codes"),
        np.load(os.path.join(root, "centroids.npy")),
        np.load(os.path.join(root, "books.npy")),
    )


def ivfpq_topk(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 10,
    n_clusters: int = 16,
    m: int = 16,
    n_codes: int = 256,
    nprobe: int = 4,
    rerank: int = 50,
):
    """(query_id, vec_id, adc_dist) — IVFADC+R over the composed store:
    probe the nprobe nearest cells, ADC-scan ONLY their uint8 codes against
    broadcast lookup tables, per-batch local shortlists, exact rerank of
    the R-candidate shortlist (float rows fetched by id pushdown).
    ``adc_dist`` carries the exact squared L2 after rerank (monotonic in
    cosine on the unit-normalized vectors)."""
    from scrupyst_ray.pipelines.ann import _read_cells

    if query_ids is None:
        query_ids = [0, 7, 23, 41]
    codes_dir, centroids, books = build_ivfpq_store(
        sf_dir, n_clusters, m, n_codes
    )
    q = _normalize(load_query_vectors(sf_dir, query_ids))
    probe_cells = np.argsort(-(q @ centroids.T), axis=1)[:, :nprobe]
    probed_union = sorted({int(c) for c in probe_cells.flatten()})
    mm, _, sub = books.shape
    luts = np.stack(
        [
            np.stack(
                [
                    ((q[qi, j * sub : (j + 1) * sub][None, :] - books[j]) ** 2)
                    .sum(axis=1)
                    for j in range(mm)
                ]
            )
            for qi in range(len(q))
        ]
    )
    luts_ref = ray.put(luts)
    probe_ref = ray.put(probe_cells)
    qids_arr = list(query_ids)
    shortlist = max(k, rerank)

    def local_topk(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:  # empty parquet fragment → np.stack would raise
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "adc_dist": pa.array([], pa.float64()),
                }
            )
        lt = ray.get(luts_ref)
        probes = ray.get(probe_ref)
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        cells = b["cell_id"].to_numpy(zero_copy_only=False)
        cm = np.stack(
            [np.frombuffer(c, np.uint8) for c in b["code"].to_pylist()]
        )
        out_q, out_v, out_d = [], [], []
        for qi, qid in enumerate(qids_arr):
            mask = np.isin(cells, probes[qi])
            if not mask.any():
                continue
            sub_ids = ids[mask]
            dist = lt[qi][np.arange(cm.shape[1])[None, :], cm[mask]].sum(axis=1)
            kk = min(shortlist, len(sub_ids))
            top = np.argpartition(dist, kk - 1)[:kk]
            out_q.extend([qid] * kk)
            out_v.extend(sub_ids[top].tolist())
            out_d.extend(dist[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "adc_dist": pa.array(out_d, pa.float64()),
            }
        )

    parts = (
        _read_cells(codes_dir, probed_union)
        .map_batches(local_topk, batch_format="pyarrow")
        .take_all()  # bounded: #batches × shortlist × |q| rows
    )
    rows = sorted(
        parts, key=lambda r: (r["query_id"], r["adc_dist"], r["vec_id"])
    )
    per_q: dict[int, list] = {}
    for r in rows:
        mine = per_q.setdefault(r["query_id"], [])
        if len(mine) < rerank:
            mine.append(r["vec_id"])
    all_ids = sorted({v for vs in per_q.values() for v in vs})
    vecs = _normalize(load_query_vectors(sf_dir, all_ids))
    pos = {v: i for i, v in enumerate(all_ids)}
    out_q, out_v, out_d = [], [], []
    for qi, qid in enumerate(qids_arr):
        cand = per_q.get(qid, [])
        if not cand:
            continue
        d = ((vecs[[pos[v] for v in cand]] - q[qi][None, :]) ** 2).sum(axis=1)
        order = sorted(zip(d, cand))[:k]
        out_q.extend([qid] * len(order))
        out_v.extend(v for _, v in order)
        out_d.extend(round(float(dd), 4) for dd, _ in order)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "adc_dist": pa.array(out_d, pa.float64()),
        }
    )


def ivfpq_recall_floor(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 10,
    nprobe: int = 4,
    floor: float = 0.4,
):
    """(query_id, exact_topk_id_sum, ivfpq_recall_ok, top1_ok) — the
    partial-probe gate for the composed IVF-PQ index (the
    ``ann_ivf_recall_probe4`` / ``pq_recall_floor`` pattern): exact cosine
    top-k id-sums recomputed independently by the SQL oracle, plus two
    booleans the nprobe-limited ADC+R path must EARN — recall@k ≥ floor
    (the 0.4 floor matches the IVF-Flat probe4 gate: the stores share the
    coarse quantizer, and cell coverage — not the ADC cut — is the binding
    loss; a broken router scores ~nprobe/n_clusters ≈ 0.25) and the exact
    top-1 surviving (it lands in the query's own nearest cell and the
    rerank is exact)."""
    from scrupyst_ray.pipelines.ann import brute_force_topk

    if query_ids is None:
        query_ids = [0, 7, 23, 41]
    approx = ivfpq_topk(sf_dir, query_ids, k, nprobe=nprobe)
    exact = brute_force_topk(sf_dir, query_ids, k)
    got: dict[int, set] = {}
    for qid, vid in zip(
        approx["query_id"].to_pylist(), approx["vec_id"].to_pylist()
    ):
        got.setdefault(qid, set()).add(vid)
    want: dict[int, set] = {}
    sums: dict[int, int] = {}
    top1: dict[int, int] = {}
    for qid, vid in zip(
        exact["query_id"].to_pylist(), exact["vec_id"].to_pylist()
    ):
        want.setdefault(qid, set()).add(vid)
        sums[qid] = sums.get(qid, 0) + vid
        top1.setdefault(qid, vid)  # brute_force_topk rows are ranked
    qs = sorted(want)
    return pa.table(
        {
            "query_id": pa.array(qs, pa.int64()),
            "exact_topk_id_sum": pa.array([sums[q] for q in qs], pa.int64()),
            "ivfpq_recall_ok": pa.array(
                [
                    len(got.get(q, set()) & want[q]) / len(want[q]) >= floor
                    for q in qs
                ],
                pa.bool_(),
            ),
            "top1_ok": pa.array(
                [top1[q] in got.get(q, set()) for q in qs], pa.bool_()
            ),
        }
    )


def pq_recall_floor(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 10,
    m: int = 16,
    n_codes: int = 256,
    rerank: int = 50,
    floor: float = 0.9,
):
    """(query_id, exact_topk_id_sum, pq_recall_ok) — the PQ twin of
    ``ann_ivf_recall_probe4``: per query, the EXACT cosine top-k id-sum
    (recomputed independently by the SQL oracle via
    ``list_cosine_similarity`` + row_number — data-dependent, so a broken
    brute-force/normalize path hash-mismatches) plus a boolean our ADC+R
    path must EARN: recall@k of the rerank-refined PQ shortlist vs that
    exact top-k must clear *floor* (measured 1.0 at the gate corpora with
    R=50 — the boolean flips on codebook-training, encode, LUT/ADC, or
    shortlist-fetch bugs).  Oracle expects TRUE; the recall itself is
    computed Ray-side from two independent pipelines."""
    from scrupyst_ray.pipelines.ann import brute_force_topk

    if query_ids is None:
        query_ids = [0, 7, 23, 41]
    rec = pq_recall(sf_dir, query_ids, k, m, n_codes, rerank=rerank)
    exact = brute_force_topk(sf_dir, query_ids, k)
    sums: dict[int, int] = {}
    for qid, vid in zip(
        exact["query_id"].to_pylist(), exact["vec_id"].to_pylist()
    ):
        sums[qid] = sums.get(qid, 0) + vid
    recalls = dict(
        zip(rec["query_id"].to_pylist(), rec["recall_at_k"].to_pylist())
    )
    qs = sorted(query_ids)
    return pa.table(
        {
            "query_id": pa.array(qs, pa.int64()),
            "exact_topk_id_sum": pa.array(
                [sums.get(q, 0) for q in qs], pa.int64()
            ),
            "pq_recall_ok": pa.array(
                [recalls.get(q, 0.0) >= floor for q in qs], pa.bool_()
            ),
        }
    )


def pq_recall(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 10,
    m: int = 8,
    n_codes: int = 64,
    rerank: int | None = None,
):
    """(query_id, recall_at_k) — ADC top-k vs exact cosine top-k.  PQ
    approximates L2, the exact oracle ranks by cosine; on the synthetic
    unit-scale embeddings the two agree enough that recall gates the
    encode/ADC path end to end (threshold pinned in tests)."""
    from scrupyst_ray.pipelines.ann import brute_force_topk

    if query_ids is None:
        query_ids = [0, 7, 23, 41]
    adc = adc_topk(sf_dir, query_ids, k, m, n_codes, rerank=rerank)
    exact = brute_force_topk(sf_dir, query_ids, k)  # pa.Table (small)
    got: dict[int, set] = {}
    for qid, vid in zip(
        adc["query_id"].to_pylist(), adc["vec_id"].to_pylist()
    ):
        got.setdefault(qid, set()).add(vid)
    want: dict[int, set] = {}
    for qid, vid in zip(
        exact["query_id"].to_pylist(), exact["vec_id"].to_pylist()
    ):
        want.setdefault(qid, set()).add(vid)
    qs = sorted(want)
    return pa.table(
        {
            "query_id": pa.array(qs, pa.int64()),
            "recall_at_k": pa.array(
                [len(got.get(q, set()) & want[q]) / len(want[q]) for q in qs],
                pa.float64(),
            ),
        }
    )
