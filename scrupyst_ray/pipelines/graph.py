"""Distributed PageRank over the extracted link graph — the canonical
iterative web-graph operator (Page et al. '99; the reason crawlers exist).

Pipeline shape (all Ray Data, superstep-driver like ``pipelines/crawl.py``):

- **Edge store** (one-time, ``cache.store``): pages → link extraction →
  distinct follow edges ``(src, dst)`` persisted as parquet — ``rel=nofollow``
  edges are dropped because nofollow does not pass rank.
- **Static tables** (built once, reused every iteration): out-degree per
  src, the node set (src ∪ dst), and edges pre-weighted with ``1/outdeg``.
- **Per iteration** (no driver-side node table ever):
  ranks ⨝ weighted-edges on src (size-selected broadcast vs distributed
  hash join, ``pipelines/joins.py``) → per-batch contribution
  ``r·(1/deg)`` → ``groupby(dst).sum`` — the ONLY shuffle, and it moves one
  float per edge.  Dangling mass needs no dangling-node join: rank mass is
  conserved, so ``dang = 1 − Σ incoming``, a driver scalar.
- New ranks: nodes LEFT-attach incoming (fill 0) →
  ``(1−d)/n + d·(s + dang/n)``.

At web scale the node/rank table is sharded like any Dataset and both join
sides stay distributed; only ``n``, ``Σ incoming`` (two scalars per
iteration) reach the driver.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from scrupyst_ray import cache
from scrupyst_ray.pipelines.joins import (
    attach_by_key,
    attach_from_lookup,
    broadcast_lookup,
    dist_join,
    rename,
    _small_enough,
)

_GRAPH_VERSION = 1


def _edges_name(H: int, P: int) -> str:
    from scrupyst_ray.sources.corpus import CORPUS_VERSION

    return f"scrupyst_linkgraph_v{CORPUS_VERSION}.{_GRAPH_VERSION}_H{H}_P{P}"


def edges_dir(H: int = 8, P: int = 50) -> str:
    """Where :func:`edges_store` publishes the edge parquet (built or not);
    the DuckDB oracles read this path."""
    return os.path.join(cache.path(_edges_name(H, P)), "edges")


def edges_store(H: int = 8, P: int = 50) -> str:
    """Persist the corpus' distinct follow-edge list once (``cache.store``:
    staged, then published whole); return :func:`edges_dir`."""
    from scrupyst_ray.functions.links import extract_links_batch
    from scrupyst_ray.functions.textextract import detect_and_decode
    from scrupyst_ray.sources.corpus import corpus_cache_dir, write_corpus

    def build(staging: str) -> None:
        corpus = corpus_cache_dir(H, P)
        write_corpus(corpus, H=H, P=P)
        pages = ray.data.read_parquet(
            os.path.join(corpus, "pages"), columns=["url", "html"]
        )

        def to_edges(b: pa.Table) -> pa.Table:
            urls = b["url"].to_pylist()
            decoded = [detect_and_decode(h or b"") for h in b["html"].to_pylist()]
            t = extract_links_batch(
                [txt for _, txt in decoded], urls, [e for e, _ in decoded]
            )
            t = t.filter(pc.invert(t["nofollow"]))
            return t.select(["src", "dst"])

        (
            pages.map_batches(to_edges, batch_format="pyarrow")
            .groupby(["src", "dst"])
            .count()
            .select_columns(["src", "dst"])
            .write_parquet(os.path.join(staging, "edges"))
        )

    cache.store(_edges_name(H, P), build)
    return edges_dir(H, P)


def _left_attach_fill0(nodes, incoming, n_incoming: int):
    """nodes(url) LEFT-attach incoming(url, s) with 0.0 for no-inlink nodes —
    size-selected like attach_by_key but keeping unmatched rows."""
    if n_incoming > 0 and _small_enough(incoming, n_incoming):
        ref = broadcast_lookup(incoming, "url", "s")
        return nodes.map_batches(
            lambda b: attach_from_lookup(b, "url", "s", ref, fill=0.0),
            batch_format="pyarrow",
        )
    side = rename(incoming, ["__k_url", "s"])
    out = dist_join(nodes, side, "left_outer", ("url",), ("__k_url",))
    return out.map_batches(
        lambda t: pa.table(
            {
                "url": t["url"],
                "s": pc.fill_null(
                    pc.cast(t["s"], pa.float64()), 0.0
                ),
            }
        ),
        batch_format="pyarrow",
    )


def pagerank(
    sf_dir: str,
    iters: int = 5,
    damping: float = 0.85,
    H: int = 8,
    P: int = 50,
):
    """(url, pr) after *iters* power iterations; ``pr`` is the rank scaled
    by n (≈1.0 for an average page) printed %.4f for float-stable compares."""
    edges = ray.data.read_parquet(edges_store(H, P))

    outdeg = edges.groupby("src").count()
    wedges = attach_by_key(
        edges,
        rename(outdeg, ["src", "deg"]),
        "src",
        "deg",
    ).map_batches(
        # keep deg itself and divide r/deg per iteration — the exact same
        # float op the SQL oracle performs (r * (1/deg) differs in the ulp)
        lambda t: pa.table(
            {
                "src": t["src"],
                "dst": t["dst"],
                "deg": pc.cast(t["deg"], pa.float64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    nodes = (
        rename(edges.select_columns(["src"]), ["url"])
        .union(rename(edges.select_columns(["dst"]), ["url"]))
        .groupby("url")
        .count()
        .select_columns(["url"])
        .materialize()
    )
    n = nodes.count()

    ranks = nodes.map_batches(
        lambda b: b.append_column(
            "r", pa.array([1.0 / n] * b.num_rows, pa.float64())
        ),
        batch_format="pyarrow",
    ).materialize()

    from scrupyst_ray.pipelines.joins import collect_table

    for _ in range(iters):
        contribs = attach_by_key(wedges, ranks, "src", "r").map_batches(
            lambda t: pa.table(
                {"dst": t["dst"], "c": pc.divide(t["r"], t["deg"])}
            ),
            batch_format="pyarrow",
        )
        incoming = rename(
            contribs.groupby("dst").sum("c"), ["url", "s"]
        ).materialize()
        n_in = incoming.count()
        if n_in > 0 and _small_enough(incoming, n_in):
            # small path: ONE collection serves both the Σ incoming scalar
            # and the broadcast lookup — the separate `.sum("s")` execution
            # per iteration was pure executor-startup overhead at gate scale
            t_in = collect_table(incoming.select_columns(["url", "s"]))
            total_in = float(pc.sum(t_in["s"]).as_py() or 0.0)
            ref = ray.put(
                (t_in["url"].combine_chunks(), t_in["s"].combine_chunks())
            )
            attached = nodes.map_batches(
                lambda b, ref=ref: attach_from_lookup(
                    b, "url", "s", ref, fill=0.0
                ),
                batch_format="pyarrow",
            )
        else:
            total_in = incoming.sum("s") or 0.0
            attached = _left_attach_fill0(nodes, incoming, n_in)
        dang = 1.0 - total_in
        base = (1.0 - damping) / n + damping * dang / n
        ranks = (
            attached.map_batches(
                lambda t, base=base: pa.table(
                    {
                        "url": t["url"],
                        "r": pc.add(
                            pa.scalar(base),
                            pc.multiply(
                                pa.scalar(damping),
                                pc.cast(t["s"], pa.float64()),
                            ),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )

    def fmt(t: pa.Table) -> pa.Table:
        scaled = pc.multiply(t["r"], pa.scalar(float(n)))
        return pa.table(
            {
                "url": t["url"],
                "pr": pa.array(
                    [f"{v:.4f}" for v in scaled.to_pylist()], pa.string()
                ),
            }
        )

    return ranks.map_batches(fmt, batch_format="pyarrow").sort("url")


def degree_distribution(sf_dir: str, H: int = 8, P: int = 50):
    """(direction, degree, n_nodes) — in-/out-degree histograms of the link
    graph (the shape report that sizes shuffle skew: a power-law tail here
    is exactly the hot-key risk the crawl's per-host caps bound).

    Scale shape: degree per node via one edge-keyed groupby per direction
    (cardinality ≤ nodes), then a tiny histogram groupby over degrees."""
    edges = ray.data.read_parquet(edges_store(H, P))

    def hist(keyed, direction: str):
        deg = rename(keyed.groupby(keyed.columns()[0]).count(), ["url", "degree"])
        h = rename(deg.groupby("degree").count(), ["degree", "n_nodes"])
        return h.map_batches(
            lambda t, d=direction: t.append_column(
                "direction", pa.array([d] * t.num_rows, pa.string())
            ).select(["direction", "degree", "n_nodes"]),
            batch_format="pyarrow",
        )

    out = hist(edges.select_columns(["src"]), "out")
    ind = hist(edges.select_columns(["dst"]), "in")
    return ind.union(out).sort(["direction", "degree"])


def hits(sf_dir: str, iters: int = 5, H: int = 8, P: int = 50):
    """(url, hub, auth) — Kleinberg's HITS after *iters* mutual-reinforcement
    rounds with L1 normalization (auth ∝ Σ hub over in-edges, hub ∝ Σ auth
    over out-edges).  Same distributed shape as :func:`pagerank`: each half-
    step is one size-selected join + one float-per-edge groupby-sum; only
    the L1 total (one scalar) reaches the driver.  Scores are scaled by n
    (≈1.0 average) and printed %.4f."""
    edges = ray.data.read_parquet(edges_store(H, P))
    nodes = (
        rename(edges.select_columns(["src"]), ["url"])
        .union(rename(edges.select_columns(["dst"]), ["url"]))
        .groupby("url")
        .count()
        .select_columns(["url"])
        .materialize()
    )
    n = nodes.count()
    edges = edges.materialize()

    def uniform(b: pa.Table) -> pa.Table:
        return b.append_column(
            "s", pa.array([1.0 / n] * b.num_rows, pa.float64())
        )

    from scrupyst_ray.pipelines.joins import collect_table

    def half_step(scores, join_key: str, group_key: str):
        """scores(url,s) pushed across edges joined on *join_key*, summed per
        *group_key*, L1-normalized over the node set.  Small path: ONE
        collection serves both the L1 total and the broadcast lookup (same
        fusion as pagerank — the separate ``.sum()`` execution per half-step
        was pure executor-startup overhead at gate scale)."""
        pushed = attach_by_key(edges, scores, join_key, "s").map_batches(
            lambda t: pa.table({"url": t[group_key], "c": t["s"]}),
            batch_format="pyarrow",
        )
        summed = rename(
            pushed.groupby("url").sum("c"), ["url", "s"]
        ).materialize()
        n_sum = summed.count()
        if n_sum > 0 and _small_enough(summed, n_sum):
            t_in = collect_table(summed.select_columns(["url", "s"]))
            total = float(pc.sum(t_in["s"]).as_py() or 0.0) or 1.0
            ref = ray.put(
                (t_in["url"].combine_chunks(), t_in["s"].combine_chunks())
            )
            attached = nodes.map_batches(
                lambda b, ref=ref: attach_from_lookup(
                    b, "url", "s", ref, fill=0.0
                ),
                batch_format="pyarrow",
            )
        else:
            total = summed.sum("s") or 1.0
            attached = _left_attach_fill0(nodes, summed, n_sum)
        return (
            attached.map_batches(
                lambda t, total=total: pa.table(
                    {
                        "url": t["url"],
                        "s": pc.divide(
                            pc.cast(t["s"], pa.float64()), pa.scalar(total)
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )

    hub = nodes.map_batches(uniform, batch_format="pyarrow").materialize()
    auth = None
    for _ in range(iters):
        auth = half_step(hub, "src", "dst")
        hub = half_step(auth, "dst", "src")

    def fmt(name):
        def inner(t: pa.Table) -> pa.Table:
            scaled = pc.multiply(t["s"], pa.scalar(float(n)))
            return pa.table(
                {
                    "url": t["url"],
                    name: pa.array(
                        [f"{v:.4f}" for v in scaled.to_pylist()],
                        pa.string(),
                    ),
                }
            )

        return inner

    hub_t = hub.map_batches(fmt("hub"), batch_format="pyarrow")
    auth_t = rename(
        auth.map_batches(fmt("auth"), batch_format="pyarrow"),
        ["__k_url", "auth"],
    )
    joined = dist_join(hub_t, auth_t, "inner", ("url",), ("__k_url",))
    return joined.map_batches(
        lambda t: t.select(["url", "hub", "auth"]), batch_format="pyarrow"
    ).sort("url")
