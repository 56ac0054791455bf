"""Link extraction — reference ``LxmlLinkExtractor`` semantics without lxml.

Reimplements the follow-all configuration of the reference link extractor
(``scrapy/linkextractors/lxmlhtml.py:60-284`` + defaults
``linkextractors/__init__.py:18-133``) on the stdlib ``html.parser`` (lxml is
not installed in this environment):

per <a>/<area> href, in document order:
  strip_html5_whitespace → urljoin(base_url, href) → safe_url_string(url,
  encoding=response_encoding) → urljoin(response_url, url)
  → Link(url, text=subtree string content, nofollow=rel contains "nofollow")
filters (``_link_allowed``):
  scheme ∈ {http, https, file, ftp} · allow/deny regex · allow/deny domains ·
  IGNORED_EXTENSIONS (url_has_any_extension) · restrict_text
region restriction (``restrict_regions``): the ``restrict_xpaths`` /
  ``restrict_css`` analog (``lxmlhtml.py:88-101,217-249``) expressible on
  ``html.parser``:
  - CSS subset: ``tag`` / ``#id`` / ``.class`` / ``tag#id`` / ``tag.class``
    steps joined by the DESCENDANT (whitespace) and CHILD (``>``)
    combinators (``div#main p``, ``div#m > a``);
  - XPath subset: ``//tag``, ``//*`` steps with one optional predicate —
    ``[@id='v']``, ``[@class='v']`` (EXACT attribute equality, lxml
    semantics), ``[contains(@class,'v')]`` (substring on the class string,
    lxml semantics), ``[@attr]`` existence and generic ``[@attr='v']``
    equality — joined by ``//`` (descendant) and single ``/`` (child)
    steps (``//div[@id='main']//a``, ``//ul[@role='nav']/li``).
  An anchor qualifies when it or an open ancestor COMPLETES a chain,
  matched by an NFA over the open-element stack: each element stores the
  states whose last step it matched; descendant steps advance from any
  open ancestor's state, child steps only from the current parent's.
  (Sets, not a greedy prefix: with ``a > b`` over ``<a><a><b>`` the greedy
  outer-``a`` binding would wrongly reject the inner parent.)  Covers the
  reference's own restrict test fixtures
  (``tests/test_linkextractors.py:226-292``, ported); full XPath (axes,
  functions, positional predicates) remains env-blocked on lxml/parsel,
  COVERAGE.md.
dedup: first occurrence per ``canonicalize_url(url, keep_fragments=True)``
  (``lxmlhtml.py:56-57,154-157``, unique=True default)
base_url: first ``<base href>`` in the first 4096 characters of the decoded
  body, resolved against the response URL (w3lib ``get_base_url`` semantics,
  used at ``scrapy/utils/response.py`` / ``lxmlhtml.py:141-145``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import urljoin

import pyarrow as pa

from scrupyst_ray.functions.urlnorm import (
    canonicalize_url,
    make_joiner,
    safe_url_string,
    strip_html5_whitespace,
    url_has_any_extension,
    url_is_from_any_domain,
)

# reference linkextractors/__init__.py:18-116 (verbatim list, public constant)
IGNORED_EXTENSIONS = frozenset(
    [
        # archives
        "7z", "7zip", "bz2", "rar", "tar", "tar.gz", "xz", "zip",
        # images
        "mng", "pct", "bmp", "gif", "jpg", "jpeg", "png", "pst", "psp",
        "tif", "tiff", "ai", "drw", "dxf", "eps", "ps", "svg", "cdr",
        "ico", "webp",
        # audio
        "mp3", "wma", "ogg", "wav", "ra", "aac", "mid", "au", "aiff",
        # video
        "3gp", "asf", "asx", "avi", "mov", "mp4", "mpg", "qt", "rm",
        "swf", "wmv", "m4a", "m4v", "flv", "webm",
        # office suites
        "xls", "xlsm", "xlsx", "xltm", "xltx", "potm", "potx", "ppt",
        "pptm", "pptx", "pps", "doc", "docb", "docm", "docx", "dotm",
        "dotx", "odt", "ods", "odg", "odp",
        # other
        "css", "pdf", "exe", "bin", "rss", "dmg", "iso", "apk", "jar",
        "sh", "rb", "js", "hta", "bat", "cpl", "msi", "msp", "py",
    ]
)

_VALID_SCHEMES = frozenset(["http", "https", "file", "ftp"])

_BASEURL_RE = re.compile(r"<base\s[^>]*href\s*=\s*[\"']?([^\"'\s>]+)", re.I)


def get_base_url(text: str, response_url: str) -> str:
    """First <base href> in the first 4 KiB of *text*, joined to the response
    URL (w3lib ``get_base_url``)."""
    m = _BASEURL_RE.search(text[:4096])
    if m:
        return urljoin(safe_url_string(response_url), safe_url_string(m.group(1)))
    return safe_url_string(response_url)


def _rel_has_nofollow(rel: str | None) -> bool:
    return rel is not None and "nofollow" in rel.replace(",", " ").split()


# elements that never take an end tag (HTML5 void elements) — not pushed on
# the ancestor stack
_VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_SELECTOR_RE = re.compile(r"^([a-zA-Z][\w-]*)?(?:#([\w-]+)|\.([\w-]+))?$")


def parse_region_selector(sel: str) -> tuple[str | None, str | None, str | None]:
    """``tag`` / ``#id`` / ``.class`` / ``tag#id`` / ``tag.class`` →
    (tag, id, class); raises on anything outside the subset."""
    m = _SELECTOR_RE.match(sel.strip())
    if m is None or not any(m.groups()):
        raise ValueError(f"unsupported region selector: {sel!r}")
    tag, id_, cls = m.groups()
    return (tag.lower() if tag else None, id_, cls)


# one step of a region chain (7-tuple): tag/None, id, class-TOKEN (CSS
# .class), class-EXACT ([@class='v']), class-SUBSTRING
# ([contains(@class,'v')]), generic attribute predicates
# ((name, value|None), ...) from [@attr] / [@attr='v'], and direct (True =
# child-combinator step: must match a CHILD of the previous step's match,
# from CSS `>` or XPath `/`).  Legacy 3-/5-tuples are padded on ingest.
_XPATH_STEP_RE = re.compile(
    r"^([a-zA-Z][\w-]*|\*)"
    r"(?:\[(?:"
    r"@id\s*=\s*(?P<q1>['\"])(?P<id>[^'\"]*)(?P=q1)"
    r"|@class\s*=\s*(?P<q2>['\"])(?P<cls>[^'\"]*)(?P=q2)"
    r"|contains\(\s*@class\s*,\s*(?P<q3>['\"])(?P<sub>[^'\"]*)(?P=q3)\s*\)"
    r"|@(?P<aname>[a-zA-Z][\w:-]*)"
    r"(?:\s*=\s*(?P<q4>['\"])(?P<aval>[^'\"]*)(?P=q4))?"
    r")\])?$"
)


def _pad_step(step: tuple) -> tuple:
    """Normalize a legacy 3- or 5-tuple step to the 7-tuple form."""
    if len(step) == 3:
        return step + (None, None, (), False)
    if len(step) == 5:
        return step + ((), False)
    return step


def _xpath_step(step: str, direct: bool) -> tuple:
    m = _XPATH_STEP_RE.match(step.strip())
    if m is None:
        raise ValueError(f"unsupported region xpath step: {step!r}")
    tag = m.group(1)
    attr_preds: tuple = ()
    if m.group("aname"):
        attr_preds = ((m.group("aname").lower(), m.group("aval")),)
    return (
        None if tag == "*" else tag.lower(),
        m.group("id"),
        None,
        m.group("cls"),
        m.group("sub"),
        attr_preds,
        direct,
    )


def _split_xpath_steps(body: str) -> list[tuple[str, bool]]:
    """``a//b/c`` → [("a", False), ("b", False), ("c", True)]: ``//`` =
    descendant, single ``/`` = child (never splitting inside brackets —
    predicates contain no slashes in this subset)."""
    out: list[tuple[str, bool]] = []
    i, n, cur, direct = 0, len(body), [], False
    while i < n:
        if body.startswith("//", i):
            out.append(("".join(cur), direct))
            cur, direct = [], False
            i += 2
        elif body[i] == "/":
            out.append(("".join(cur), direct))
            cur, direct = [], True
            i += 1
        else:
            cur.append(body[i])
            i += 1
    out.append(("".join(cur), direct))
    if any(not s for s, _ in out):
        raise ValueError(f"unsupported region xpath: {body!r}")
    return out


def parse_region_expr(expr: str) -> list[tuple]:
    """One restrict expression → a chain of element predicates (7-tuples,
    see above):

    - ``//``-prefixed: XPath subset — ``//`` separates descendant steps,
      a single ``/`` a CHILD step; one optional predicate per step
      (``[@id='v']``, ``[@class='v']``, ``[contains(@class,'v')]``,
      ``[@attr]``, ``[@attr='v']``);
    - otherwise CSS subset — whitespace = descendant combinator, ``>`` =
      child combinator (``div > a``).
    """
    expr = expr.strip()
    if expr.startswith("//"):
        return [_xpath_step(s, d) for s, d in _split_xpath_steps(expr[2:])]
    # CSS: tokenize on whitespace, fold '>' into a direct flag on the
    # FOLLOWING step ("div > a" and "div>a" both work)
    toks: list[str] = []
    for t in re.split(r"(\s+|>)", expr):
        t = t.strip()
        if t:
            toks.append(t)
    steps: list[tuple] = []
    direct = False
    for t in toks:
        if t == ">":
            if direct or not steps:
                raise ValueError(f"unsupported region selector: {expr!r}")
            direct = True
            continue
        steps.append(parse_region_selector(t) + (None, None, (), direct))
        direct = False
    if not steps or direct:
        raise ValueError(f"unsupported region selector: {expr!r}")
    return steps


def _pred_matches(pred: tuple, tag: str, attrs: dict[str, str | None]) -> bool:
    ptag, pid, pcls_tok, pcls_exact, pcls_sub, pattrs, _ = _pad_step(pred)
    if ptag is not None and tag != ptag:
        return False
    if pid is not None and attrs.get("id") != pid:
        return False
    if pcls_tok is not None and pcls_tok not in (attrs.get("class") or "").split():
        return False
    if pcls_exact is not None and (attrs.get("class") or "") != pcls_exact:
        return False
    if pcls_sub is not None and pcls_sub not in (attrs.get("class") or ""):
        return False
    for name, value in pattrs:
        if name not in attrs:
            return False
        if value is not None and (attrs.get(name) or "") != value:
            return False
    return True


@dataclass
class Link:
    url: str
    text: str = ""
    nofollow: bool = False


class _AnchorParser(HTMLParser):
    """Collect (href, rel, subtree-text, in_region) for <a>/<area>, in
    document order.

    *collect_text=False* skips anchor-text accumulation (the crawl hot path
    never reads it; only the edges query surface and ``restrict_text`` do).
    *regions* (parsed selectors) restrict anchors to matching elements or
    their descendants; with no regions every anchor is in-region."""

    def __init__(
        self,
        collect_text: bool = True,
        regions: list[tuple[str | None, str | None, str | None]] | None = None,
        tags: tuple[str, ...] = ("a", "area"),
        attrs: tuple[str, ...] = ("href",),
    ) -> None:
        super().__init__(convert_charrefs=True)
        self.anchors: list[list] = []  # [href, rel, [text chunks], in_region]
        self._open: list[list] = []  # stack of currently-open anchor entries
        self._collect_text = collect_text
        # regions: list of chains of 7-tuple steps; a legacy bare tuple
        # selector is a 1-chain
        self._regions: list[list[tuple]] = [
            [_pad_step(r)] if isinstance(r, tuple) else [_pad_step(s) for s in r]
            for r in (regions or [])
        ]
        # NFA subsequence matcher: every stack entry carries the set of
        # states (chain_idx, matched_len) whose LAST step matched at that
        # element.  A descendant step may advance from a state on ANY open
        # ancestor; a child (direct) step only from a state on the current
        # stack top.  Sets (not a single greedy prefix) are required for
        # child combinators: with chain "a > b" over <a><a><b>, the greedy
        # outer-a prefix would wrongly reject the inner-a parent.
        # stack entry: (tag, [(chain_idx, matched_len)...], n_completed_here)
        self._stack: list[tuple[str, list[tuple[int, int]], int]] = []
        self._region_depth = 0
        self._tags = tags
        self._attrs = attrs

    def _advances(self, tag: str, d: dict[str, str | None]) -> list[tuple[int, int]]:
        """All NFA states a *tag* element would create, deduped:
        (chain_idx, new_matched_len) — new_matched_len == len(chain) means
        this element completes that chain (it is a region root)."""
        out: dict[tuple[int, int], bool] = {}
        top = len(self._stack) - 1
        for i, chain in enumerate(self._regions):
            if _pred_matches(chain[0], tag, d):
                out[(i, 1)] = True
            for e, (_, states, _) in enumerate(self._stack):
                for ci, p in states:
                    if ci != i or p >= len(chain):
                        continue
                    nxt = chain[p]
                    if nxt[6] and e != top:  # child step: parent must match
                        continue
                    if _pred_matches(nxt, tag, d):
                        out[(i, p + 1)] = True
        return list(out)

    def _emit(
        self,
        tag: str,
        attrs: list[tuple[str, str | None]],
        d: dict,
        in_region: bool,
    ) -> list | None:
        """Append one entry per scanned attribute present on the element
        (reference ``_iter_links`` scans attributes in element order); all
        entries of one <a> share the text-chunk list.  Returns the shared
        text entry to push on the open stack (or None)."""
        rel = d.get("rel")
        chunks: list[str] = []
        first = None
        for name, value in attrs:
            if name in self._attrs and value is not None:
                entry = [value, rel, chunks, in_region]
                self.anchors.append(entry)
                if first is None:
                    first = entry
        return first

    def _region_state(
        self, tag: str, d: dict[str, str | None]
    ) -> tuple[list[tuple[int, int]], int, bool]:
        """(new NFA states, n chains completed at this element, in_region)."""
        if not self._regions:
            return [], 0, True
        adv = self._advances(tag, d)
        completed = len(
            {i for i, p in adv if p == len(self._regions[i])}
        )
        return adv, completed, self._region_depth > 0 or completed > 0

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        d = dict(attrs)
        adv, completed, in_region = self._region_state(tag, d)
        if tag in self._tags:
            entry = self._emit(tag, attrs, d, in_region)
            if entry is not None and tag == "a" and self._collect_text:
                self._open.append(entry)
        if self._regions and tag not in _VOID_ELEMENTS:
            self._stack.append((tag, adv, completed))
            self._region_depth += completed

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in self._tags:
            d = dict(attrs)
            _, _, in_region = self._region_state(tag, d)
            self._emit(tag, attrs, d, in_region)

    def handle_endtag(self, tag: str) -> None:
        if tag == "a" and self._open:
            self._open.pop()
        if self._regions and tag not in _VOID_ELEMENTS:
            # lenient recovery: close up to the nearest matching open tag;
            # NFA states die with their stack entries
            for i in range(len(self._stack) - 1, -1, -1):
                if self._stack[i][0] == tag:
                    for _, _, completed in self._stack[i:]:
                        self._region_depth -= completed
                    del self._stack[i:]
                    break

    def handle_data(self, data: str) -> None:
        for entry in self._open:
            entry[2].append(data)


@dataclass
class LinkExtractorConfig:
    """Follow-all defaults of the reference ``LxmlLinkExtractor``."""

    allow: list[str] = field(default_factory=list)  # regex whitelist
    deny: list[str] = field(default_factory=list)  # regex blacklist
    allow_domains: list[str] = field(default_factory=list)
    deny_domains: list[str] = field(default_factory=list)
    deny_extensions: frozenset[str] = IGNORED_EXTENSIONS
    restrict_text: list[str] = field(default_factory=list)
    # restrict_xpaths/css analog: CSS-subset selectors (tag/#id/.class)
    restrict_regions: list[str] = field(default_factory=list)
    unique: bool = True
    # reference LxmlLinkExtractor extras (lxmlhtml.py:102-160):
    tags: tuple[str, ...] = ("a", "area")  # elements scanned for links
    attrs: tuple[str, ...] = ("href",)  # attributes read off those elements
    # href hook applied BEFORE joining (None ⇒ drop the link) — the
    # reference's process_value (e.g. pull a URL out of a javascript: href)
    process_value: object = None
    # emit canonicalized URLs (dedup always keys on the canonical form)
    canonicalize: bool = False

    def __post_init__(self) -> None:
        self._allow_res = [re.compile(r) for r in self.allow]
        self._deny_res = [re.compile(r) for r in self.deny]
        self._restrict_res = [re.compile(r) for r in self.restrict_text]
        self._region_sels = [parse_region_expr(s) for s in self.restrict_regions]

    def link_allowed(self, link: Link) -> bool:
        # mirrors LxmlLinkExtractor._link_allowed (lxmlhtml.py:217-249)
        scheme = link.url.split("://", 1)[0]
        if scheme not in _VALID_SCHEMES:
            return False
        if self._allow_res and not any(r.search(link.url) for r in self._allow_res):
            return False
        if self._deny_res and any(r.search(link.url) for r in self._deny_res):
            return False
        if self.allow_domains and not url_is_from_any_domain(
            link.url, self.allow_domains
        ):
            return False
        if self.deny_domains and url_is_from_any_domain(link.url, self.deny_domains):
            return False
        if self.deny_extensions and url_has_any_extension(
            link.url, self.deny_extensions
        ):
            return False
        if self._restrict_res and not any(
            r.search(link.text) for r in self._restrict_res
        ):
            return False
        return True


DEFAULT_EXTRACTOR = LinkExtractorConfig()


def extract_links(
    text: str,
    response_url: str,
    response_encoding: str = "utf-8",
    config: LinkExtractorConfig = DEFAULT_EXTRACTOR,
    collect_text: bool = True,
) -> list[Link]:
    """All followable links of one decoded page, reference order & filters.

    *collect_text=False* returns links with empty ``text`` (crawl hot path;
    incompatible with a ``restrict_text`` config, which reads the text)."""
    if config._restrict_res:
        collect_text = True
    parser = _AnchorParser(
        collect_text=collect_text,
        regions=config._region_sels,
        tags=config.tags,
        attrs=config.attrs,
    )
    try:
        parser.feed(text)
        parser.close()
    except Exception:
        pass  # recover what was parsed so far (lxml is similarly lenient)
    base_url = get_base_url(text, response_url)
    response_url_safe = safe_url_string(response_url)
    join_base = make_joiner(base_url)

    links: list[Link] = []
    for href, rel, chunks, in_region in parser.anchors:
        if not in_region:
            continue
        try:
            attr_val = strip_html5_whitespace(href)
            if config.process_value is not None:
                attr_val = config.process_value(attr_val)  # type: ignore[operator]
                if attr_val is None:
                    continue  # hook dropped the link (reference process_attr)
            attr_val = join_base(attr_val)
        except ValueError:
            continue  # bogus link
        try:
            url = safe_url_string(attr_val, encoding=response_encoding)
        except ValueError:
            continue
        # urljoin with an absolute reference (scheme + netloc) is the
        # identity (Python does not dot-normalize absolute refs), so skip
        # the re-parse for the common case — verified in test_links parity
        if not (
            (url.startswith("http://") or url.startswith("https://"))
            and url[url.index("//") + 2 : url.index("//") + 3] not in ("", "/", "?", "#")
        ):
            url = urljoin(response_url_safe, url)
        if config.canonicalize:
            url = canonicalize_url(url)
        link = Link(url, "".join(chunks), nofollow=_rel_has_nofollow(rel))
        if config.link_allowed(link):
            links.append(link)

    if config.unique:
        seen: set[str] = set()
        deduped: list[Link] = []
        for link in links:
            key = canonicalize_url(link.url, keep_fragments=True)
            if key not in seen:
                seen.add(key)
                deduped.append(link)
        return deduped
    return links


_EDGE_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("dst", pa.string()),
        ("anchor", pa.string()),
        ("nofollow", pa.bool_()),
        ("link_idx", pa.int32()),
    ]
)


def extract_links_batch(
    texts: list[str],
    urls: list[str],
    encodings: list[str],
    config: LinkExtractorConfig = DEFAULT_EXTRACTOR,
) -> pa.Table:
    """Explode pages → edges table ``(src, dst, anchor, nofollow, link_idx)``.
    ``link_idx`` is the per-page document-order index (deterministic seq
    tiebreaker for frontier ordering parity, SURVEY.md §4.2)."""
    src: list[str] = []
    dst: list[str] = []
    anchor: list[str] = []
    nofollow: list[bool] = []
    link_idx: list[int] = []
    for text, url, enc in zip(texts, urls, encodings):
        for i, link in enumerate(extract_links(text, url, enc, config)):
            src.append(url)
            dst.append(link.url)
            anchor.append(link.text)
            nofollow.append(link.nofollow)
            link_idx.append(i)
    return pa.table(
        {
            "src": pa.array(src, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "anchor": pa.array(anchor, pa.string()),
            "nofollow": pa.array(nofollow, pa.bool_()),
            "link_idx": pa.array(link_idx, pa.int32()),
        },
        schema=_EDGE_SCHEMA,
    )
