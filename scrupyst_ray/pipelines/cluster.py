"""Connected-components clustering over near-duplicate pair graphs.

The missing step between PAIR detection (``pipelines/dedup.py``) and corpus
curation: near-dup pairs form a graph whose connected components are the
duplicate CLUSTERS — keep one representative per cluster, or weight samples
by 1/cluster_size.  The reference engine has no analog (it deduplicates
single requests, not corpora); the semantics here follow the standard
MapReduce-CC formulation (Kiveris et al., "Connected Components in MapReduce
and Beyond", SoCC'14): iterative min-label propagation with pointer-jumping
("shortcutting"), which converges in O(log d) rounds for diameter d.

Scale shape (100 TB story):
- The label table is one row per document id (16 bytes) — tiny next to the
  corpus; it lives in the object store as a materialized Dataset between
  rounds (materialize() per round truncates the lineage that iterative
  dataflows otherwise accumulate — blocks stay distributed, nothing lands
  on the driver).
- Each round is two vertex-id-keyed joins (propagate: edges ⨝ labels;
  shortcut: labels ⨝ labels) — the standard CC exchange, proportional to
  |E| + |V|, never all-pairs.  The joins are size-selected
  (``joins.attach_by_key``): a small label table broadcasts once per round,
  a 10^9-vertex one takes the distributed hash join.
- Convergence is detected with a driver-side SCALAR (sum of labels —
  labels only decrease, so an unchanged sum means a fixed point), not by
  materializing either table on the driver.

The pair set is the exact same-``source`` 3-gram-Jaccard graph that
``dedup.jaccard_pairs_by_source`` computes, so a DuckDB recursive-CTE
oracle reproduces the whole query bit-for-bit (see ``__ray_entry__``).
"""

from __future__ import annotations

import pyarrow as pa
from ray.data.aggregate import Count, Sum

from scrupyst_ray.pipelines.dedup import jaccard_pairs_by_source
from scrupyst_ray.pipelines.joins import attach_by_key, rename
from scrupyst_ray.pipelines.textstats import _docs


def _label_sum(labels) -> int:
    return labels.aggregate(Sum("l"))["sum(l)"]


def connected_components(edges, vertices, max_iters: int = 25):
    """(v, l) per vertex where l = min vertex id reachable from v.

    *edges* is a Dataset with int64 columns (a, b), a<b, each undirected
    edge once; *vertices* a Dataset with one int64 column ``v`` (a superset
    of the ids appearing in edges — isolated vertices come out as their own
    component).  Returns a materialized Dataset (v, l).
    """
    # symmetric edge list: one (src, dst) row per direction
    def both_dirs(t: pa.Table) -> pa.Table:
        a, b = t["a"].combine_chunks(), t["b"].combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([a.cast(pa.int64()), b.cast(pa.int64())]),
                "dst": pa.concat_arrays([b.cast(pa.int64()), a.cast(pa.int64())]),
            }
        )

    edges = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()
    labels = vertices.map_batches(
        lambda t: pa.table(
            {"v": t["v"].cast(pa.int64()), "l": t["v"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    ).materialize()
    if edges.count() == 0:
        return labels
    # labels is one int64 pair per vertex; at test scale it broadcasts, at
    # 10^9 vertices attach_by_key switches both per-round joins to the
    # distributed hash join automatically (same size-selection as dedup)
    n_verts = labels.count()
    prev = _label_sum(labels)
    for _ in range(max_iters):
        # propagate: candidate label for dst = label(src), for every edge
        prop = rename(
            attach_by_key(
                edges, labels, "src", "l", side_rows=n_verts
            ).select_columns(["dst", "l"]),
            ["v", "l"],
        )
        merged = rename(
            labels.union(prop).groupby("v").min("l"), ["v", "l"]
        ).materialize()
        # pointer jump: l ← label(l).  label(x) ≤ x always (labels start at
        # the identity and only decrease), so the joined l2 replaces l.
        jumped = rename(
            attach_by_key(
                merged, merged, "l", "l2", side_rows=n_verts
            ).select_columns(["v", "l2"]),
            ["v", "l"],
        ).materialize()
        cur = _label_sum(jumped)
        labels = jumped
        if cur == prev:
            break
        prev = cur
    return labels


def _neardup_labels(sf_dir: str, threshold: float, max_iters: int):
    """Unsorted (doc_id, cluster_id) labels over the exact same-source
    3-gram Jaccard ≥ threshold pair graph (``jaccard_pairs_by_source``)."""
    pairs = (
        jaccard_pairs_by_source(sf_dir, threshold)
        .select_columns(["a", "b"])
        .materialize()
    )
    verts = rename(_docs(sf_dir, ["doc_id"]), ["v"])
    return rename(
        connected_components(pairs, verts, max_iters), ["doc_id", "cluster_id"]
    )


def neardup_clusters(sf_dir: str, threshold: float = 0.5, max_iters: int = 25):
    """(doc_id, cluster_id) for EVERY document: cluster_id = the smallest
    doc_id in the document's near-dup component (singletons label
    themselves).  SQL-oracle-checkable (recursive CTE)."""
    return _neardup_labels(sf_dir, threshold, max_iters).sort("doc_id")


def neardup_cluster_sizes(sf_dir: str, threshold: float = 0.5):
    """(cluster_id, n_docs) per component — the sampling-weight /
    keep-one-per-cluster statistic.  Groups the UNSORTED labels (the
    doc_id sort would be a wasted whole-table shuffle ahead of a
    different-keyed groupby)."""
    return rename(
        _neardup_labels(sf_dir, threshold, 25)
        .groupby("cluster_id")
        .aggregate(Count()),
        ["cluster_id", "n_docs"],
    ).sort("cluster_id")
