"""Redirect + retry follow-up rows (M9, M10) — columnar re-emission.

In the corpus-replay model there is no live network, so these middlewares
become flat-map stages over a fetched table with synthetic ``status`` /
``redirect_to`` columns:

- redirect (reference ``scrapy/downloadermiddlewares/redirect.py:27-212``):
  3xx + Location ⇒ new frontier row at the target with ``priority + 2``
  (REDIRECT_PRIORITY_ADJUST, ``default_settings.py:447``),
  ``redirect_times + 1`` capped at 20, fragment-preserving urljoin.
  Reference edge semantics (``redirect.py:166-176``): the Location is
  ``safe_url_string``-ed BEFORE the join; a raw ``//``-prefixed Location
  is scheme-relative (``request_scheme + "://" + location.lstrip("/")`` —
  NOT plain urljoin, which would treat ``///host/p`` as an empty-netloc
  path); and a joined target outside http/https does not redirect at all.
- retry (reference ``scrapy/downloadermiddlewares/retry.py:38-179``):
  status ∈ RETRY_HTTP_CODES ⇒ re-emit the SAME url with
  ``retry_times + 1`` (≤ RETRY_TIMES=2), ``dont_filter=True``,
  ``priority - 1`` (RETRY_PRIORITY_ADJUST, ``default_settings.py:467``).
- meta refresh (reference ``redirect.py:184-212``): when the row carries a
  decoded ``text`` column and neither middleware above fired, a
  ``<meta http-equiv=refresh>`` with interval < 100 re-emits the target as
  a redirect (same priority adjust / cap; reason "meta refresh").  Status
  redirects win because process_response runs highest-priority-first and
  RedirectMiddleware (600) precedes MetaRefreshMiddleware (580).

All three emit ``FOLLOWUP_SCHEMA`` rows: frontier rows built by
``stages.frontier.frontier_rows`` (eager fingerprints, the same shard and
bucket routing as seeds and link candidates) plus the retry/redirect
counters, which the driver unions into the next round.
"""

from __future__ import annotations

from urllib.parse import urljoin, urlsplit

import numpy as np
import pyarrow as pa

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.functions.metarefresh import meta_refresh_target
from scrupyst_ray.functions.urlnorm import parse_host, safe_url_string
from scrupyst_ray.stages.frontier import FRONTIER_SCHEMA, frontier_rows

# reference default_settings.py:454-472
RETRY_HTTP_CODES = frozenset([500, 502, 503, 504, 522, 524, 408, 429])
REDIRECT_STATUSES = frozenset([301, 302, 303, 307, 308])
REDIRECT_MAX_TIMES = 20
REDIRECT_PRIORITY_ADJUST = 2
RETRY_TIMES = 2
RETRY_PRIORITY_ADJUST = -1

FOLLOWUP_SCHEMA = pa.schema(
    list(FRONTIER_SCHEMA)
    + [("retry_times", pa.int8()), ("redirect_times", pa.int8())]
)


# per follow-up kind: (priority adjust, order-key marker suffix,
# dont_filter, retry_times step, redirect_times step)
_REDIRECT = (REDIRECT_PRIORITY_ADJUST, b"\xff\xfd", False, 0, 1)
_RETRY = (RETRY_PRIORITY_ADJUST, b"\xff\xfe", True, 1, 0)  # retry.py: dont_filter
_META_REFRESH = (REDIRECT_PRIORITY_ADJUST, b"\xff\xfc", False, 0, 1)


def followups_batch(batch: pa.Table, cfg: CrawlConfig | None = None) -> pa.Table:
    """Fetched rows (url, status, depth, priority, order_key[, redirect_to,
    retry_times, redirect_times]) → follow-up frontier rows."""
    cfg = cfg or CrawlConfig()
    n = batch.num_rows

    def col(name: str, default) -> list:
        if name in batch.column_names:
            return batch[name].to_pylist()
        return [default] * n

    statuses, urls = col("status", None), col("url", None)
    depths, prios = col("depth", 0), col("priority", 0)
    keys = (
        batch["order_key"].to_pylist()
        if "order_key" in batch.column_names
        else [i.to_bytes(8, "big") for i in range(n)]
    )
    redirect_to, texts = col("redirect_to", None), col("text", None)
    retry_times, redirect_times = col("retry_times", 0), col("redirect_times", 0)

    # (url, depth, priority, order_key, dont_filter, retry_times,
    # redirect_times) per follow-up row
    out = []
    for i in range(n):
        s = statuses[i]
        if s in REDIRECT_STATUSES and redirect_to[i]:
            if redirect_times[i] >= REDIRECT_MAX_TIMES:
                continue  # IgnoreRequest: max redirections reached
            loc = safe_url_string(redirect_to[i])
            if redirect_to[i].startswith("//"):
                # scheme-relative Location (redirect.py:169-171)
                loc = urls[i].split(":", 1)[0] + "://" + loc.lstrip("/")
            target = urljoin(urls[i], loc)
            if urlsplit(target).scheme not in ("http", "https"):
                continue  # non-http(s) target: no redirect (redirect.py:175)
            kind = _REDIRECT
        elif s in RETRY_HTTP_CODES:
            if retry_times[i] >= RETRY_TIMES:
                continue  # gave up (stats: retry/max_reached)
            target, kind = urls[i], _RETRY
        elif texts[i]:
            target = meta_refresh_target(texts[i], urls[i])
            if target is None or redirect_times[i] >= REDIRECT_MAX_TIMES:
                continue
            kind = _META_REFRESH
        else:
            continue
        adjust, marker, dont_filter, d_retry, d_redirect = kind
        out.append((
            safe_url_string(target), depths[i], prios[i] + adjust, keys[i] + marker,
            dont_filter, retry_times[i] + d_retry, redirect_times[i] + d_redirect,
        ))

    columns = zip(*out) if out else [()] * 7
    url, depth, priority, order_key, dont_filter, rt, rd = columns
    rows = frontier_rows(
        cfg, url, [parse_host(u) for u in url], depth, priority, order_key,
        np.array(dont_filter, bool),
    )
    return rows.append_column(
        "retry_times", pa.array(rt, pa.int8())
    ).append_column("redirect_times", pa.array(rd, pa.int8()))
