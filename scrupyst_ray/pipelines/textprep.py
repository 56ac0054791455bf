"""Training-data text-prep operators over the documents table: Unicode
normalization, PII scrubbing, deterministic stratified sampling.

These are the pre-tokenization hygiene stages of an LLM data pipeline
(complementing the analysis/dedup families in ``pipelines/textstats.py`` and
``pipelines/dedup.py``).  All three are single-pass vectorized
``map_batches`` kernels with no shuffle except the final small aggregate —
at 100 TB each is embarrassingly parallel over blocks, and the sampler's
keep-decision is a pure function of ``doc_id`` (no RNG state), so any block
can be (re)processed independently and resumably.

Oracle notes: the scrub regexes are RE2 on BOTH sides (pyarrow and DuckDB
bundle RE2), and the sampler uses integer arithmetic (Knuth multiplicative
hash) instead of a bytes hash, so the DuckDB oracle reproduces the exact
keep-set with no Python in the loop on either side.
"""

from __future__ import annotations

import unicodedata

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from scrupyst_ray.pipelines.textstats import _docs

# RE2-compatible (no backreferences/lookaround) — identical engines in
# pyarrow and DuckDB
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
URL_RE = r"https?://[^\s]+"

# Knuth multiplicative hash (2^32 modulus) — vectorizable in numpy and
# exactly reproducible as HUGEINT arithmetic in SQL
_KNUTH = 2654435761
_MOD = 1 << 32

# per-language sampling rates (fraction of 2^32 kept)
SAMPLE_RATES = {"en": 0.5}
SAMPLE_RATE_DEFAULT = 0.2


def text_normalize(sf_dir: str):
    """NFC + lowercase + whitespace collapse + trim — emitted as an md5
    digest per doc (the full normalized text never needs to leave the
    task; downstream exact-dedup consumes the digest)."""

    def norm(b: pa.Table) -> pa.Table:
        # NFC needs Python's unicodedata (no Arrow kernel); the rest stays
        # in Arrow.  NFC is O(len) C code per string — not a row loop over
        # per-row Python logic.
        nfc = pa.array(
            [unicodedata.normalize("NFC", t) for t in b["text"].to_pylist()],
            pa.string(),
        )
        low = pc.utf8_lower(nfc)
        collapsed = pc.replace_substring_regex(low, r"\s+", " ")
        # trim plain spaces only (collapse already reduced every \s run to
        # one ' '); utf8_trim_whitespace would also strip Unicode spaces
        # RE2's ASCII \s leaves alone, diverging from SQL trim()
        trimmed = pc.utf8_trim(collapsed, " ")
        import hashlib

        digests = pa.array(
            [hashlib.md5(t.encode()).hexdigest() for t in trimmed.to_pylist()],
            pa.string(),
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "norm_chars": pc.cast(pc.utf8_length(trimmed), pa.int64()),
                "norm_digest": digests,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    ).sort("doc_id")


def pii_scrub(sf_dir: str):
    """Redact emails and URLs; report per-doc counts and the scrubbed
    digest.  Pure RE2 column kernels — the 100 TB shape is just more
    blocks."""

    def scrub(b: pa.Table) -> pa.Table:
        text = b["text"]
        n_emails = pc.cast(pc.count_substring_regex(text, EMAIL_RE), pa.int64())
        step1 = pc.replace_substring_regex(text, EMAIL_RE, "<EMAIL>")
        n_urls = pc.cast(pc.count_substring_regex(step1, URL_RE), pa.int64())
        scrubbed = pc.replace_substring_regex(step1, URL_RE, "<URL>")
        import hashlib

        digests = pa.array(
            [hashlib.md5(t.encode()).hexdigest() for t in scrubbed.to_pylist()],
            pa.string(),
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_emails": n_emails,
                "n_urls": n_urls,
                "scrub_digest": digests,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        scrub, batch_format="pyarrow"
    ).sort("doc_id")


def stratified_sample(sf_dir: str):
    """Deterministic per-language downsampling: keep doc when
    ``(doc_id * KNUTH) mod 2^32 < rate(lang) * 2^32``.  No RNG state — any
    worker can decide any row independently (the resumable-sampling shape
    for a 100 TB corpus), and the SQL oracle reproduces the identical
    keep-set with HUGEINT arithmetic."""

    def keep(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(_KNUTH)) % np.uint64(_MOD)
        langs = b["lang"].to_pylist()
        thresh = np.fromiter(
            (
                int(SAMPLE_RATES.get(l, SAMPLE_RATE_DEFAULT) * _MOD)
                for l in langs
            ),
            dtype=np.uint64,
            count=len(langs),
        )
        # a parquet file written from pandas carries a ``pandas`` metadata
        # dict; blocks keeping it make the sort's schema dedup fail to hash
        return b.filter(pa.array(h < thresh)).replace_schema_metadata()

    return (
        _docs(sf_dir, ["doc_id", "lang"])
        .map_batches(keep, batch_format="pyarrow")
        .sort("doc_id")
    )
