"""The corpus ``text`` column is an INDEPENDENT oracle (VERDICT r1 §1).

Round 1 generated ``text`` by running ``extract_text`` on ``html`` — a
circular oracle that could never fail.  Now ``sources/corpus.py`` derives the
expected text by hand (:func:`page_text` / :func:`robots_text`, independent
literals per encoding mode of the resolution order in
``scrapy/http/response/text.py:67-141``), and these tests close the loop:

1. the kernel must reproduce every oracle byte exactly (the real invariant);
2. a deliberately-broken decoder (Python's builtin ``errors="replace"``
   instead of the w3lib per-byte replacement) MUST mismatch — i.e. the
   oracle is capable of failing.
"""

from __future__ import annotations

from scrupyst_ray.functions.textextract import extract_text
from scrupyst_ray.sources.corpus import (
    page_html,
    page_rows,
    page_text,
    robots_body,
    robots_text,
)

H, P = 6, 24  # covers all 6 page encoding modes and all 5 robots modes


def test_kernel_matches_independent_oracle_every_row():
    rows = [page_rows(h, H, P, 3, 1) for h in range(H)]
    htmls = [html for r in rows for html in r["html"]]
    texts = [text for r in rows for text in r["text"]]
    urls = [url for r in rows for url in r["url"]]
    assert len(htmls) > H * P  # pages + robots rows
    for url, html, expected in zip(urls, htmls, texts):
        assert extract_text(html) == expected, url


def test_oracle_covers_every_mode():
    modes = {n % 6 for n in range(1, P + 1)}
    assert modes == set(range(6))
    rmodes = {h % 5 for h in range(H)}
    assert rmodes == set(range(5))


def test_broken_decoder_fails_the_oracle():
    """Builtin utf-8 ``replace`` collapses the truncated 2-byte sequence in
    mode 4 to ONE U+FFFD; the reference (w3lib) emits one per byte.  The
    oracle must distinguish the two — this is what makes ``matches_oracle``
    in the ``page_text_extract`` query a real check."""
    n_mode4 = next(n for n in range(1, P + 1) if n % 6 == 4)
    html = page_html(0, n_mode4, H, P)
    expected = page_text(0, n_mode4, H, P)
    broken = html.decode("utf-8", "replace")
    assert extract_text(html) == expected
    assert broken != expected


def test_all_utf8_decoder_fails_on_cp1252_and_gb_modes():
    """A decoder that ignores declarations and decodes everything as utf-8
    mismatches the cp1252 (mode 2) and gb18030 (mode 3) oracle cells."""
    for mode_n in (2, 3):
        n = next(n for n in range(1, P + 1) if n % 6 == mode_n)
        html = page_html(1, n, H, P)
        assert html.decode("utf-8", "replace") != page_text(1, n, H, P)


def test_robots_oracle_rows():
    for h in range(H):
        body = robots_body(h)
        expected = robots_text(h)
        if body is None:
            assert expected is None
            continue
        assert extract_text(body) == expected
