"""Curation reporting — the funnel a training-data run actually reads.

``curation_funnel`` composes the individually-tested gates (min-token
length, Gopher repetition thresholds, C4-style char-quality, exact-dup
collapse) into one cumulative survivor count per stage — the acceptance
report a 100 TB curation job prints at the end.

Scale shape: ONE streaming pass over the corpus emits per-batch partial
rows — 4 stage-count rows per batch plus one 16-byte md5 digest row per
distinct final-stage survivor of the batch (text never leaves the task).
The driver sums the stage rows and unions the digests as the blocks
finish (:func:`~scrupyst_ray.pipelines.joins.fold_by_key`): no
``materialize()``, no groupby.  Past the broadcast bounds (more distinct
survivors than the driver should hold) the digests take a digest-keyed
distinct count instead.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from scrupyst_ray.pipelines.joins import fold_by_key, stream_blocks
from scrupyst_ray.pipelines.textstats import _docs, c4_keep, gopher_keep

STAGES = (
    "0_total",
    "1_min_tokens",
    "2_gopher_repetition",
    "3_quality",
    "4_distinct_text",
)
# a batch's partial rows: its four stage counts (digest b"") and one row
# per distinct survivor digest (stage "")
_PARTIALS = pa.schema(
    [("stage", pa.string()), ("digest", pa.binary()), ("n", pa.int64())]
)


def curation_funnel(
    sf_dir: str,
    min_tokens: int = 15,
    max_dup_2gram: float = 0.15,
    max_top_2gram: float = 0.10,
    min_chars: int = 100,
    min_alpha: float = 0.5,
):
    """(stage, n_docs) — cumulative survivors through the curation gates;
    stages 0-3 are sums of per-batch counts, stage 4 is
    COUNT(DISTINCT md5(text)) over stage-3 survivors (what exact dedup
    would keep)."""
    ds = _docs(sf_dir, ["doc_id", "text", "n_chars"])

    def partials(b: pa.Table) -> pa.Table:
        long, gopher = gopher_keep(b["text"], min_tokens, max_dup_2gram, max_top_2gram)
        quality = gopher & c4_keep(b, min_chars, min_alpha)
        digests = pc.unique(
            pa.array(
                [
                    hashlib.md5(t.encode("utf-8")).digest()
                    for t in b["text"].filter(pa.array(quality)).to_pylist()
                ],
                pa.binary(),
            )
        )
        ns = [b.num_rows, *(int(m.sum()) for m in (long, gopher, quality))]
        return pa.table(
            {
                "stage": list(STAGES[:4]) + [""] * len(digests),
                "digest": pa.concat_arrays([pa.array([b""] * 4, pa.binary()), digests]),
                "n": ns + [0] * len(digests),
            },
            schema=_PARTIALS,
        )

    parts = ds.map_batches(partials, batch_format="pyarrow")
    folded = fold_by_key(parts, _PARTIALS)
    if folded is None:
        rows = _keyed_funnel(parts)
    else:
        stages = folded.filter(pc.not_equal(folded["stage"], ""))
        counts = dict(zip(stages["stage"].to_pylist(), stages["n"].to_pylist()))
        rows = [counts.get(s, 0) for s in STAGES[:4]]
        rows.append(folded.num_rows - stages.num_rows)
    return pa.table(
        {
            "stage": pa.array(list(STAGES), pa.string()),
            "n_docs": pa.array(rows, pa.int64()),
        }
    )


def _keyed_funnel(parts) -> list[int]:
    """The five stage counts when the survivors' digests are too many to
    hold: stage counts summed as the blocks stream in, digests counted by
    a digest-keyed groupby."""
    parts = parts.materialize()
    counts = dict.fromkeys(STAGES[:4], 0)
    for b in stream_blocks(parts.filter(expr="stage != ''")):
        for s, n in zip(b["stage"].to_pylist(), b["n"].to_pylist()):
            counts[s] += n
    n_distinct = parts.filter(expr="stage == ''").groupby("digest").count().count()
    return [*counts.values(), n_distinct]


def host_page_stats(sf_dir: str):
    """(host, n_pages, html_bytes, first_ts, last_ts) over the synthetic
    page corpus — the per-host coverage report a crawl operator reads after
    a run.  Partial-aggregated per batch (one row per host per batch), so
    the shuffle moves host cardinality, not page cardinality."""
    from scrupyst_ray.pipelines.webops import _pages

    ds = _pages(["url", "warc_ts", "html"])

    def partial(b: pa.Table) -> pa.Table:
        host = pc.replace_substring_regex(
            b["url"], pattern=r"^https?://([^/]+)/.*$", replacement=r"\1"
        )
        t = pa.table(
            {
                "host": host,
                "n_pages": pa.array([1] * b.num_rows, pa.int64()),
                "html_bytes": pc.cast(
                    pc.binary_length(b["html"]), pa.int64()
                ),
                "first_ts": b["warc_ts"],
                "last_ts": b["warc_ts"],
            }
        )
        return (
            t.group_by("host")
            .aggregate(
                [
                    ("n_pages", "sum"),
                    ("html_bytes", "sum"),
                    ("first_ts", "min"),
                    ("last_ts", "max"),
                ]
            )
            .rename_columns(
                ["host", "n_pages", "html_bytes", "first_ts", "last_ts"]
            )
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .map_groups(
            lambda g: pa.table(
                {
                    "host": [g["host"][0].as_py()],
                    "n_pages": [pc.sum(g["n_pages"]).as_py()],
                    "html_bytes": [pc.sum(g["html_bytes"]).as_py()],
                    "first_ts": [pc.min(g["first_ts"]).as_py()],
                    "last_ts": [pc.max(g["last_ts"]).as_py()],
                }
            ),
            batch_format="pyarrow",
        )
    )
    return merged.sort("host")
