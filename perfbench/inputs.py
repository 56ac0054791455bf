"""Seeded benchmark inputs.

The page corpus is ``sources.corpus.write_corpus`` (a pure function of its
sizes, so it is cached across runs).  The seed list and the curation
document set are drawn from the workload seed: the same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from scrupyst_ray.sources.corpus import SEEDS_SCHEMA, page_url, write_corpus

# Crawl sizing per workload.  show=20 is the reference benchserver's
# links-per-page.  crawl_wide: a broad crawl whose rounds are big enough that
# parse and dedup dominate the per-round floor.  crawl_polite: a tight
# per-host budget, so every round is small and alike and the fixed
# per-round cost dominates.
CRAWL_SIZES = {
    "crawl_wide": {"H": 50, "P": 50, "budget": 128},
    "crawl_polite": {"H": 30, "P": 44, "budget": 4},
}
SMOKE_CRAWL_SIZES = {
    "crawl_wide": {"H": 6, "P": 24, "budget": 128},
    "crawl_polite": {"H": 5, "P": 16, "budget": 4},
}
SHOW = 20

# The curation document set stands in for the ``documents`` table of the
# repository's synthetic test data (generated outside the repository, so the
# benchmark cannot read it).  Its shape, measured on that table at sf0.1:
# 5,000 documents; every token drawn uniformly from the 30-word vocabulary
# below; 10 to 99 tokens per document, uniformly; languages en 41%, zh, es
# and fr 15% each, de 14%; source ``src{doc_id % 20}``; and 5% near
# duplicates, each another document's text with " dup" appended.
N_DOCS = 5000
SMOKE_N_DOCS = 120
_VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
_LANGS = ("en", "zh", "es", "fr", "de")
_LANG_P = (0.41, 0.15, 0.15, 0.15, 0.14)
_SOURCES = 20
_NEAR_DUP_SHARE = 0.05


def corpus_dir(work: str, sizes: dict) -> str:
    """Write (once) and return the page corpus for *sizes*."""
    out = os.path.join(work, "corpus", f"H{sizes['H']}-P{sizes['P']}-s{SHOW}")
    write_corpus(
        out,
        H=sizes["H"],
        P=sizes["P"],
        show=SHOW,
        hosts_per_file=max(1, sizes["H"] // 4),
    )
    return out


def seed_urls(sizes: dict, seed: int) -> list[str]:
    """Every host's top page, in a seeded order.  The order sets the
    crawl's tie-breaks, so the crawl order and its digest depend on the
    seed while the pages fetched do not.  Under a tight per-host budget the
    tie-breaks can move pages to a later round (crawl_polite takes 14 or 15
    rounds by seed)."""
    rng = np.random.default_rng(seed)
    return [page_url(int(h), sizes["P"]) for h in rng.permutation(sizes["H"])]


def write_seeds(path: str, urls: list[str]) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    table = pa.table(
        {"url": urls, "seq": list(range(len(urls)))}, schema=SEEDS_SCHEMA
    )
    pq.write_table(table, path)
    return path


def write_documents(out_dir: str, seed: int, n_docs: int) -> str:
    """The curation input: ``documents.parquet`` with the schema of the
    ``documents`` table ``(doc_id, text, lang, source, n_chars)`` and the
    shape described above."""
    rng = np.random.default_rng(seed)
    vocab = np.array(_VOCAB)
    lengths = rng.integers(10, 100, n_docs)
    texts = [" ".join(vocab[rng.integers(0, len(vocab), n)]) for n in lengths]
    near_dup = rng.choice(n_docs, size=int(n_docs * _NEAR_DUP_SHARE), replace=False)
    bases = rng.integers(0, n_docs, len(near_dup))
    originals = list(texts)
    for i, j in zip(near_dup, bases):
        texts[i] = originals[j] + " dup"
    langs = rng.choice(len(_LANGS), size=n_docs, p=_LANG_P)
    table = pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([_LANGS[k] for k in langs], pa.string()),
            "source": pa.array([f"src{i % _SOURCES}" for i in range(n_docs)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(table, os.path.join(out_dir, "documents.parquet"))
    return out_dir
