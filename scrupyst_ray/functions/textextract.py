"""HTML body → unicode text: the byte-identical-text invariant kernel.

Replicates ``TextResponse.text`` / ``TextResponse.encoding`` from the
reference (``scrapy/http/response/text.py:42-141``) for a response with **no
headers** (the corpus page table carries no Content-Type column — matching
``TextResponse(url, body=html)`` with empty headers, see FIXTURES.md §1):

    encoding = BOM → <meta>/xml declaration → auto-detect(ascii, utf-8,
               cp1252) → default "ascii"
    text     = html_to_unicode(f"charset={encoding}", body)[1]   (declared)
             | the auto-detect decode itself                      (inferred)

Used as a vectorized Arrow kernel via :func:`extract_text_batch` inside
``map_batches(batch_format="pyarrow")``.
"""

from __future__ import annotations

import pyarrow as pa

from scrupyst_ray.functions.encoding import (
    html_body_declared_encoding,
    html_to_unicode,
    read_bom,
    resolve_encoding,
)

_DEFAULT_ENCODING = "ascii"


def _auto_detect(text: bytes) -> str | None:
    # TextResponse._auto_detect_fun (text.py:110-133): first of
    # ascii → utf-8 → cp1252 that decodes strictly, passed through
    # resolve_encoding (so ascii reports as cp1252).
    for enc in (_DEFAULT_ENCODING, "utf-8", "cp1252"):
        try:
            text.decode(enc)
        except UnicodeError:
            continue
        return resolve_encoding(enc)
    return None


def detect_and_decode(html: bytes) -> tuple[str, str]:
    """Return ``(encoding, text)`` exactly as ``TextResponse`` would with no
    explicit encoding and empty headers."""
    declared = read_bom(html)[0] or html_body_declared_encoding(html)
    if declared:
        # TextResponse.text (text.py:89-98): decode via the header path of
        # html_to_unicode with the already-resolved declared encoding.
        return declared, html_to_unicode(f"charset={declared}", html)[1]
    return html_to_unicode(
        None, html, default_encoding=_DEFAULT_ENCODING, auto_detect_fun=_auto_detect
    )


def extract_text(html: bytes) -> str:
    """Body as unicode — must equal the reference's ``TextResponse(...).text``
    byte-for-byte (BASELINE.json per-row invariant)."""
    return detect_and_decode(html)[1]


def extract_text_batch(
    batch: pa.Table, html_col: str = "html", out_col: str = "text"
) -> pa.Table:
    """Append ``text: string`` (+ ``encoding: string``) decoded from the
    binary *html_col*.  Drop-in ``map_batches`` kernel (Arrow in/out)."""
    htmls = batch[html_col].to_pylist()
    encs: list[str] = []
    texts: list[str] = []
    for h in htmls:
        e, t = detect_and_decode(h or b"")
        encs.append(e)
        texts.append(t)
    out = batch
    for col in (out_col, "encoding"):
        if col in out.column_names:
            out = out.drop_columns([col])
    out = out.append_column(out_col, pa.array(texts, type=pa.string()))
    out = out.append_column("encoding", pa.array(encs, type=pa.string()))
    return out
