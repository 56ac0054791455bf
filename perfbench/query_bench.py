"""The ``curation_queries`` workload: a fixed mix of SQL-oracled query
pipelines over a seeded document set.  It never touches the crawl engine.

Each call of ``__ray_entry__.queries()[name]`` is timed, including pulling
its result to the driver (the pipelines return lazy datasets).  Outside the
timed calls every result is compared with ``__ray_entry__.oracle_sql()[name]``
run in DuckDB over the same document set, by row count, column names and
``tools/validate_entry.value_hash``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import inputs

# The shared-scan family (the queries that each re-read and re-tokenize
# the same corpus) plus the shuffle-heavy ones.  Left out:
# ``jaccard_allpairs_exact`` (alone it outlasts the whole run) and
# ``pagerank`` (it ignores its input directory and builds a fixed link
# graph under the system temp dir, so its input is not seeded and it writes
# outside the checkout).
MIX = (
    "token_stats_by_lang",
    "doc_length_quantiles",
    "top_terms_by_lang",
    "gopher_repetition",
    "source_mixing_weights",
    "curation_funnel",
    "bigram_lm_ppl",
    "dsir_logweights",
    "top_terms_by_lang_cms",
    "dedup_exact",
)

# the query that pays the cold start inside setup
WARM_QUERY = "token_stats_by_lang"


def _layer_name(fn, query: str) -> str:
    module = fn.__module__.removeprefix("scrupyst_ray.")
    return f"{module}.{query}_s"


def layer_names() -> dict[str, tuple[str, str]]:
    import __ray_entry__

    qs = __ray_entry__.queries()
    return {_layer_name(qs[q], q): ("s", "lower") for q in MIX}


def _oracle(ctx, docs_dir: str, n_docs: int) -> dict:
    """Expected (rows, columns, value hash) per query, cached per seed."""
    path = os.path.join(ctx.work, "oracle", f"curation-n{n_docs}-s{ctx.seed}.json")
    if not os.path.exists(path):
        import duckdb
        import __ray_entry__
        from validate_entry import value_hash

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM read_parquet("
            f"'{os.path.join(docs_dir, 'documents.parquet')}')"
        )
        sql = __ray_entry__.oracle_sql()
        doc = {}
        for q in MIX:
            df = con.execute(sql[q]).fetchdf()
            doc[q] = {"rows": len(df), "cols": sorted(df.columns), "hash": value_hash(df)}
        con.close()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(doc, f)
        os.replace(path + ".tmp", path)
    with open(path) as f:
        return json.load(f)


def prepare(ctx) -> dict:
    """The seeded document set and its oracle, before the Ray session."""
    n_docs = inputs.SMOKE_N_DOCS if ctx.smoke else inputs.N_DOCS
    docs_dir = os.path.join(ctx.work, "inputs", f"docs-n{n_docs}-s{ctx.seed}")
    if not os.path.exists(os.path.join(docs_dir, "documents.parquet")):
        inputs.write_documents(docs_dir, ctx.seed, n_docs)
    want = _oracle(ctx, docs_dir, n_docs)
    if ctx.tamper:
        want[MIX[0]]["hash"] = "0" * 12
    return {"docs_dir": docs_dir, "want": want}


def warm(ctx, st: dict) -> None:
    """The first (cold) query of the session — part of set-up."""
    import __ray_entry__
    from validate_entry import to_pandas

    with ctx.op(f"query {WARM_QUERY} (cold)", 120), ctx.trace.span("warm query"):
        to_pandas(__ray_entry__.queries()[WARM_QUERY](st["docs_dir"]))


def iteration(ctx, st: dict, i: int) -> dict:
    """One pass over the mix; each result is checked after its call."""
    import __ray_entry__
    from validate_entry import to_pandas, value_hash

    qs = __ray_entry__.queries()
    tr = ctx.trace
    walls: dict[str, float] = {}  # net of the steal share over each call
    raw = 0.0
    with tr.span(f"iteration {i}", workload=ctx.workload):
        for q in MIX:
            t0, k0 = time.monotonic(), ctx.ticks()
            with ctx.op(f"query {q}", 120), tr.span(f"queries()[{q}]"):
                df = to_pandas(qs[q](st["docs_dir"]))
            wall = time.monotonic() - t0
            raw += wall
            walls[q] = ctx.net_of_steal(wall, k0)
            exp = st["want"][q]
            got = {"rows": len(df), "cols": sorted(df.columns), "hash": value_hash(df)}
            ctx.check(f"oracle {q}", got == exp, f"{got} != oracle {exp}")
    return {
        "walls": walls, "work_s": sum(walls.values()), "raw_work_s": raw,
        "steps": list(walls.values()),
    }


def summarize(ctx, st: dict, its: list[dict]) -> dict:
    """End-to-end figures over the passes *its*; per-query walls of the last
    pass as the per-layer figures when they were traced."""
    import __ray_entry__

    qs = __ray_entry__.queries()
    queries_s = statistics.mean(r["work_s"] for r in its)
    return {
        "setup_reps": [],  # the cold query is timed with the session start
        "throughput_per_s": (len(MIX) / queries_s, f"{len(MIX)} / queries_s"),
        "step": ("query", "queries"),
        "extra": {"queries_s": (queries_s, "s")},
        "layers": (
            {_layer_name(qs[q], q): its[-1]["walls"][q] for q in MIX}
            if ctx.trace.enabled else {}
        ),
    }
