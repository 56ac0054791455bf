"""Request fingerprinting — the URL-seen key.

Reimplements the reference's default request fingerprinter
(``scrapy/utils/request.py:35-97``): SHA-1 over the sorted-key JSON of
``{method, canonicalize_url(url, keep_fragments=False), body.hex(),
headers({} unless include_headers)}``.  The hex digest of this hash is the
dupefilter key (``scrapy/dupefilters.py:94-105``).

Golden vectors: reference ``tests/test_utils_request.py:65-141`` (copied into
``tests/test_fingerprint.py`` verbatim as byte literals).

Batch kernel: :func:`fingerprint_batch` adds ``fp`` (20-byte binary) and
``fp64`` (:func:`fp_to_u64`, the first 8 bytes as uint64 — the URL-seen
bloom's key and the sort key of the exact seen lanes, ``state/seen.py``)
columns to an Arrow table, vectorized over rows with hashlib in a tight
loop over :func:`fingerprint_payload` (SHA-1 of ~100-byte payloads; ~1M
rows/s/core).  It fingerprints every frontier row: eagerly for seeds and
follow-ups (``stages/frontier.py``), after within-round dedup for link
candidates (the crawl gate).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa

from scrupyst_ray.functions.urlnorm import canonicalize_url, safe_url_string


def fingerprint(
    url: str,
    method: str = "GET",
    body: bytes = b"",
    headers: dict[str, list[bytes]] | None = None,
    include_headers: list[str] | None = None,
    keep_fragments: bool = False,
    *,
    url_is_safe: bool = False,
) -> bytes:
    """20-byte SHA-1 request fingerprint (reference semantics).

    ``url_is_safe=True`` skips the ``safe_url_string`` pass for URLs already
    normalized at frontier construction (the reference normalizes at Request
    construction, ``http/request/__init__.py:228-239``, so fingerprinting sees
    a safe URL; we replicate by safing once on entry to the frontier).
    """
    if not url_is_safe:
        url = safe_url_string(url)
    header_map: dict[str, list[str]] = {}
    if include_headers and headers:
        lowered = {k.lower(): v for k, v in headers.items()}
        for h in sorted(hh.lower() for hh in include_headers):
            if h in lowered:
                header_map[h.encode().hex()] = [v.hex() for v in lowered[h]]
    fingerprint_data = {
        "method": method,
        "url": canonicalize_url(url, keep_fragments=keep_fragments),
        "body": (body or b"").hex(),
        "headers": header_map,
    }
    fingerprint_json = json.dumps(fingerprint_data, sort_keys=True)
    return hashlib.sha1(fingerprint_json.encode()).digest()  # noqa: S324


def fp_to_u64(fp: bytes) -> int:
    """First 8 bytes of the fingerprint as an unsigned 64-bit int (big-endian)
    — the approximate-membership key for the URL-seen bloom."""
    return int.from_bytes(fp[:8], "big")


def fingerprint_payload(canonical_url: str) -> str:
    """The canonical-JSON fingerprint payload for a GET/no-body request —
    the exact string the reference SHA-1s (sorted-key ``json.dumps`` of
    ``{method, url, body, headers}``, reference ``utils/request.py:87-96``)."""
    return (
        '{"body": "", "headers": {}, "method": "GET", "url": '
        + json.dumps(canonical_url)
        + "}"
    )


def fingerprint_sha256_hex(canonical_url: str) -> str:
    """SHA-256 hex digest over the SAME canonical-JSON payload as the SHA-1
    request fingerprint.  DuckDB has no ``sha1`` but does have ``sha256``, so
    this parallel digest makes the canonicalization + payload assembly (the
    hard part of M2) checkable by an independent SQL oracle, while the SHA-1
    goldens keep byte parity with the reference."""
    return hashlib.sha256(fingerprint_payload(canonical_url).encode()).hexdigest()


def fingerprint_batch(
    batch: pa.Table,
    url_col: str = "url",
    urls_are_safe: bool = True,
    with_sha256: bool = False,
) -> pa.Table:
    """Append ``fp: binary`` and ``fp64: uint64`` columns to *batch*
    (plus ``fp256: string`` hex when *with_sha256* — the SQL-oracle digest).

    GET/no-body fast path (the only shape the frontier produces — the engine
    is a crawler, every frontier row is a GET with empty body, matching the
    reference's LinkExtractor-driven requests).
    """
    urls = batch[url_col].to_pylist()
    n = len(urls)
    fps = [b""] * n
    fp64 = np.empty(n, dtype=np.uint64)
    fp256: list[str] = [""] * n if with_sha256 else []
    _sha1 = hashlib.sha1
    _sha256 = hashlib.sha256
    _canon = canonicalize_url
    _safe = safe_url_string
    for i, u in enumerate(urls):
        if not urls_are_safe:
            u = _safe(u)
        payload = fingerprint_payload(_canon(u)).encode()
        d = _sha1(payload).digest()  # noqa: S324
        fps[i] = d
        fp64[i] = fp_to_u64(d)
        if with_sha256:
            fp256[i] = _sha256(payload).hexdigest()
    out = batch
    for col in ("fp", "fp64", "fp256"):
        if col in out.column_names:
            out = out.drop_columns([col])
    out = out.append_column("fp", pa.array(fps, type=pa.binary()))
    out = out.append_column("fp64", pa.array(fp64, type=pa.uint64()))
    if with_sha256:
        out = out.append_column("fp256", pa.array(fp256, type=pa.string()))
    return out
