"""Deterministic synthetic Common-Crawl-style page corpus (FIXTURES.md §1).

Graph shape mirrors the reference benchserver / mockserver follow resource
(``scrapy/utils/benchserver.py:9-47``,
``tests/mockserver/http_resources_aiohttp.py:142-171`` with ``order=desc``):
H hosts × P pages; page *n* links to ``/follow?n={n-1 .. n-show}`` on the same
host (desc, floor 1) plus ``xlink`` deterministic cross-host links, plus noise
links that exercise the extractor filters (nofollow / javascript: / mailto: /
IGNORED extension / fragment / <base>-relative).

Schema is exactly the BASELINE.json input hint:
``(url: string, warc_ts: timestamp[us], html: binary, text: string,
lang: string)``.  ``text`` is the oracle column — the EXPECTED decode of
``html`` under the reference's resolution order
(``scrapy/http/response/text.py:67-141``: BOM → meta/xml declaration →
ascii/utf-8/cp1252 auto-detect → default), derived BY HAND in
:func:`page_text` / :func:`robots_text` from independent string literals.
It is deliberately NOT produced by ``scrupyst_ray.functions.textextract``
(the kernel under test) — a broken decoder makes ``page_text_extract``'s
``matches_oracle`` column go false (see ``tests/test_corpus_oracle.py``).

Everything is a pure function of ``(h, n, H, P, show, xlink)`` — no RNG
state, no wall clock — so any subset of rows can be regenerated
independently on any worker (this is what makes 100 TB-scale generation and
resumable writes possible).
"""

from __future__ import annotations

import datetime as dt
import os

import pyarrow as pa
import pyarrow.parquet as pq

from scrupyst_ray import cache

EPOCH = dt.datetime(2025, 1, 1, 0, 0, 0)

# Bump when corpus CONTENT changes so stale cached corpora regenerate.
CORPUS_VERSION = 2

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

SEEDS_SCHEMA = pa.schema([("url", pa.string()), ("seq", pa.int64())])

_LANGS = ("en", "de", "zh")

# per-encoding flavor text (anchors stay pure ASCII → valid in every encoding)
_FLAVOR_UTF8 = "héllo ünïcode wörld"
_FLAVOR_CP1252 = b"\x93quoted\x94 caf\xe9"  # cp1252 curly quotes + é
_FLAVOR_GB = "你好世界"
_FLAVOR_ASCII = "plain ascii body text"

# EXPECTED decoded text per flavor — independent literals, hand-derived from
# the reference resolution order (scrapy/http/response/text.py:67-141 +
# w3lib.encoding.html_to_unicode).  These are NOT computed by the kernel.
#
# (c) cp1252 declared, cp1252 bytes: \x93→U+201C, \x94→U+201D, \xe9→é.
_FLAVOR_CP1252_TEXT = "“quoted” café"
# (e) declared utf-8 but cp1252/truncated bytes.  w3lib replaces each
# undecodable BYTE with its own U+FFFD (w3lib_replace handler), unlike
# Python's builtin "replace" which collapses a maximal invalid subsequence
# to ONE U+FFFD.  \x93 → 1×U+FFFD, \x94 → 1×U+FFFD, and the truncated
# 2-byte prefix \xe2\x82 of a 3-byte € sequence → 2×U+FFFD (builtin
# "replace" would give only 1 there — this cell discriminates the two).
_FLAVOR_MISDECL = b"mis\x93declared\x94 tr\xe2\x82"
_FLAVOR_MISDECL_TEXT = "mis�declared� tr��"


def host_name(h: int) -> str:
    return f"host{h:03d}.test"


def page_url(h: int, n: int) -> str:
    return f"http://{host_name(h)}/follow?n={n}"


def robots_url(h: int) -> str:
    return f"http://{host_name(h)}/robots.txt"


def _anchors(h: int, n: int, H: int, P: int, show: int, xlink: int) -> list[str]:
    parts = []
    for k in range(1, show + 1):
        m = n - k
        if m < 1:
            break
        parts.append(f'<a href="/follow?n={m}">page {m}</a>')
    for j in range(xlink):
        th = (h * 31 + n * 7 + j) % H
        tn = 1 + (n * 13 + j) % P
        parts.append(
            f'<a href="http://{host_name(th)}/follow?n={tn}">xlink {th}:{tn}</a>'
        )
    # noise links (must be filtered / flagged — FIXTURES.md §1)
    parts.append(f'<a href="/nf{n}" rel="nofollow">nofollow</a>')
    parts.append('<a href="javascript:void(0)">js</a>')
    parts.append(f'<a href="/file{n}.jpg">image</a>')
    parts.append('<a href="mailto:nobody@example.test">mail</a>')
    parts.append('<a href="#frag">fragment</a>')
    if n % 10 == 0:
        parts.append(f'<a href="rel{n}.html">based-relative</a>')
    return parts


def page_html(h: int, n: int, H: int, P: int, show: int = 3, xlink: int = 1) -> bytes:
    """Body bytes for page (h, n), cycling the FIXTURES encoding matrix by n."""
    anchors = "\n".join(_anchors(h, n, H, P, show, xlink))
    base = (
        f'<base href="http://{host_name((h + 1) % H)}/based/">' if n % 10 == 0 else ""
    )
    mode = n % 6
    title = f"host {h} page {n}"
    if mode == 2:  # (c) meta cp1252 with cp1252 bytes
        head = f'<head><meta charset="cp1252"><title>{title}</title>{base}</head>'
        body = (
            f"<html>{head}<body><p>".encode("ascii")
            + _FLAVOR_CP1252
            + f"</p>\n{anchors}</body></html>".encode("ascii")
        )
        return body
    if mode == 3:  # (d) http-equiv gb18030 with gb18030 bytes
        head = (
            '<head><meta http-equiv="Content-Type" '
            'content="text/html; charset=gb18030">'
            f"<title>{title}</title>{base}</head>"
        )
        return f"<html>{head}<body><p>{_FLAVOR_GB}</p>\n{anchors}</body></html>".encode(
            "gb18030"
        )
    if mode == 4:  # (e) declared utf-8 but containing cp1252/truncated bytes
        head = f'<head><meta charset="utf-8"><title>{title}</title>{base}</head>'
        return (
            f"<html>{head}<body><p>".encode("ascii")
            + _FLAVOR_MISDECL
            + f"</p>\n{anchors}</body></html>".encode("ascii")
        )
    if mode == 5:  # (f) pure ASCII, no declaration
        head = f"<head><title>{title}</title>{base}</head>"
        return f"<html>{head}<body><p>{_FLAVOR_ASCII}</p>\n{anchors}</body></html>".encode(
            "ascii"
        )
    # (a) plain UTF-8 no declaration / (b) UTF-8 BOM
    head = f"<head><title>{title}</title>{base}</head>"
    raw = f"<html>{head}<body><p>{_FLAVOR_UTF8}</p>\n{anchors}</body></html>".encode(
        "utf-8"
    )
    return (b"\xef\xbb\xbf" + raw) if mode == 1 else raw


def page_text(h: int, n: int, H: int, P: int, show: int = 3, xlink: int = 1) -> str:
    """EXPECTED extracted text for page (h, n) — the independent oracle.

    Hand-derived per encoding mode from the reference resolution order
    (``scrapy/http/response/text.py:67-141``), NOT by running the decode
    kernel on :func:`page_html`'s bytes:

    - mode 0 (utf-8, undeclared): no BOM/meta → auto-detect: ascii fails on
      the é/ü bytes, utf-8 decodes strictly → lossless round-trip, so the
      text is exactly the source string.
    - mode 1 (utf-8 BOM): BOM wins, is stripped, rest decodes utf-8 →
      identical to mode 0.
    - mode 2 (meta cp1252, cp1252 bytes): declared encoding wins; cp1252
      maps \\x93/\\x94/\\xe9 → the ``_FLAVOR_CP1252_TEXT`` literal.
    - mode 3 (http-equiv gb18030, gb18030 bytes): declared wins; lossless
      round-trip of the source string.
    - mode 4 (declared utf-8, invalid bytes): declared wins; each
      undecodable byte → one U+FFFD (``_FLAVOR_MISDECL_TEXT`` literal).
    - mode 5 (pure ASCII, undeclared): auto-detect hits ascii, which the
      w3lib web-compat table reports as cp1252; ASCII bytes decode
      identically under cp1252 → the source string.
    """
    anchors = "\n".join(_anchors(h, n, H, P, show, xlink))
    base = (
        f'<base href="http://{host_name((h + 1) % H)}/based/">' if n % 10 == 0 else ""
    )
    mode = n % 6
    title = f"host {h} page {n}"
    if mode == 2:
        head = f'<head><meta charset="cp1252"><title>{title}</title>{base}</head>'
        flavor = _FLAVOR_CP1252_TEXT
    elif mode == 3:
        head = (
            '<head><meta http-equiv="Content-Type" '
            'content="text/html; charset=gb18030">'
            f"<title>{title}</title>{base}</head>"
        )
        flavor = _FLAVOR_GB
    elif mode == 4:
        head = f'<head><meta charset="utf-8"><title>{title}</title>{base}</head>'
        flavor = _FLAVOR_MISDECL_TEXT
    elif mode == 5:
        head = f"<head><title>{title}</title>{base}</head>"
        flavor = _FLAVOR_ASCII
    else:  # modes 0 and 1 (BOM stripped by the header/BOM path)
        head = f"<head><title>{title}</title>{base}</head>"
        flavor = _FLAVOR_UTF8
    return f"<html>{head}<body><p>{flavor}</p>\n{anchors}</body></html>"


def robots_body(h: int, user_agent_token: str = "scrupyst-ray") -> bytes | None:
    """FIXTURES.md robots matrix; None ⇒ host has NO robots row (allow-all)."""
    mode = h % 5
    if mode == 0:
        return b"User-agent: *\nDisallow: /follow?n=1\n"
    if mode == 1:
        return (
            f"User-agent: {user_agent_token}\nDisallow: /\n\n"
            "User-agent: *\nDisallow:\n"
        ).encode()
    if mode == 2:
        return b""
    if mode == 3:
        return None
    return b"\xef\xbb\xbf\xff\xfe garbage \xfe\nUser-agent: *\nDisallow: /never\n"


def robots_text(h: int, user_agent_token: str = "scrupyst-ray") -> str | None:
    """EXPECTED extracted text for the robots row of host *h* (independent
    oracle, hand-derived — see :func:`page_text`).

    Modes 0–2 are pure ASCII (mode 2 empty → auto-detect ascii → "" text);
    mode 3 has no row; mode 4 starts with a UTF-8 BOM (stripped), then the
    stray bytes \\xff, \\xfe, \\xfe each decode to one U+FFFD under the
    per-byte w3lib replacement.
    """
    mode = h % 5
    if mode == 0:
        return "User-agent: *\nDisallow: /follow?n=1\n"
    if mode == 1:
        return (
            f"User-agent: {user_agent_token}\nDisallow: /\n\n"
            "User-agent: *\nDisallow:\n"
        )
    if mode == 2:
        return ""
    if mode == 3:
        return None
    return "�� garbage �\nUser-agent: *\nDisallow: /never\n"


def _row_index(h: int, n: int, P: int) -> int:
    return h * (P + 1) + n  # robots row is n=0


def page_rows(h: int, H: int, P: int, show: int, xlink: int) -> dict[str, list]:
    """All rows for one host (robots row first), as column lists."""
    urls: list[str] = []
    ts: list[dt.datetime] = []
    htmls: list[bytes] = []
    texts: list[str] = []
    langs: list[str] = []

    def add(url: str, html: bytes, text: str, idx: int) -> None:
        urls.append(url)
        ts.append(EPOCH + dt.timedelta(seconds=idx))
        htmls.append(html)
        texts.append(text)
        langs.append(_LANGS[idx % 3])

    rb = robots_body(h)
    if rb is not None:
        add(robots_url(h), rb, robots_text(h), _row_index(h, 0, P))
    for n in range(1, P + 1):
        add(
            page_url(h, n),
            page_html(h, n, H, P, show, xlink),
            page_text(h, n, H, P, show, xlink),
            _row_index(h, n, P),
        )
    return {"url": urls, "warc_ts": ts, "html": htmls, "text": texts, "lang": langs}


def generate_seeds_table(H: int, P: int, every: int = 1) -> pa.Table:
    """Seed list: the top page (n=P) of every ``every``-th host, FIFO seq
    (FIXTURES.md §2)."""
    hosts = [h for h in range(H) if h % every == 0]
    return pa.table(
        {
            "url": [page_url(h, P) for h in hosts],
            "seq": list(range(len(hosts))),
        },
        schema=SEEDS_SCHEMA,
    )


def write_corpus(
    out_dir: str,
    H: int = 5,
    P: int = 40,
    show: int = 3,
    xlink: int = 1,
    hosts_per_file: int = 50,
    overwrite: bool = False,
) -> str:
    """Write the corpus as partitioned parquet (one file per host range —
    resumable: finished part files are skipped on rerun).

    Large-scale generation distributes host ranges over Ray tasks when a Ray
    session is active and the corpus is big; each task regenerates its hosts
    independently (pure function of indices — no data movement).
    """
    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    done_marker = os.path.join(out_dir, "_COMPLETE")
    if os.path.exists(done_marker) and not overwrite:
        return out_dir

    ranges = [(lo, min(lo + hosts_per_file, H)) for lo in range(0, H, hosts_per_file)]

    def build_part(lo: int, hi: int) -> pa.Table:
        cols: dict[str, list] = {
            k: [] for k in ("url", "warc_ts", "html", "text", "lang")
        }
        for h in range(lo, hi):
            rows = page_rows(h, H, P, show, xlink)
            for k in cols:
                cols[k].extend(rows[k])
        return pa.table(cols, schema=PAGES_SCHEMA)

    def part_path(lo: int, hi: int) -> str:
        return os.path.join(pages_dir, f"part-{lo:06d}-{hi:06d}.parquet")

    pending = [(lo, hi) for lo, hi in ranges if not os.path.exists(part_path(lo, hi))]

    use_ray = False
    if len(pending) > 4:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:
            use_ray = False

    if use_ray:
        import ray

        @ray.remote
        def _write_part(lo: int, hi: int) -> str:
            tmp = part_path(lo, hi) + ".tmp"
            pq.write_table(build_part(lo, hi), tmp)
            os.replace(tmp, part_path(lo, hi))
            return part_path(lo, hi)

        ray.get([_write_part.remote(lo, hi) for lo, hi in pending])
    else:
        for lo, hi in pending:
            tmp = part_path(lo, hi) + ".tmp"
            pq.write_table(build_part(lo, hi), tmp)
            os.replace(tmp, part_path(lo, hi))

    seeds = generate_seeds_table(H, P)
    pq.write_table(seeds, os.path.join(out_dir, "seeds.parquet"))
    with open(done_marker, "w") as f:
        f.write(f"H={H} P={P} show={show} xlink={xlink}\n")
    return out_dir


def corpus_cache_dir(H: int, P: int, show: int = 3, xlink: int = 1) -> str:
    """Where the shared (H, P) corpus lives in the cache root; callers fill
    it with :func:`write_corpus`, which resumes by part file."""
    return cache.path(
        f"scrupyst_corpus_v{CORPUS_VERSION}_H{H}_P{P}_s{show}_x{xlink}"
    )
