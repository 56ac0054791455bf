"""User-extension surface: priority-ordered batch-transform chains.

The reference's middleware managers (downloader middlewares
``scrapy/core/downloader/middleware.py:27-149``, spider middlewares
``scrapy/core/spidermw.py:53-556``, item pipelines
``scrapy/pipelines/__init__.py:32-80``) hold per-record hook methods in
priority-ordered chains built from a component priority dict
(``scrapy/utils/conf.py:20-80``: value ``None`` disables a component, lower
numbers run closer to the engine).  Request-side hooks run in ascending
priority order; response-/output-side hooks run in REVERSE order (the
reference ``appendleft``s them, ``middleware.py:38-43``).

Here the unit of processing is a batch, so each hook is a table transform
``(pa.Table, MiddlewareContext) -> pa.Table``.  Dropping rows = returning a
filtered table (the batch analogue of ``IgnoreRequest`` / ``DropItem``);
rewriting a column = the analogue of returning a modified request/response.
Per-record signals are deliberately not reproduced — they would defeat
batching (SURVEY.md §2.10).

Hook points and their reference equivalents:

- ``process_candidates`` — downloader-mw ``process_request``: admitted
  frontier rows, just before the store probe (ascending order).
- ``process_fetched`` — downloader-mw ``process_response``: the joined
  (frontier ⨝ pages) table with ``status``/``html`` columns (reverse order).
- ``process_edges`` — spider-mw ``process_spider_output``: extracted link
  edges before candidate filtering (reverse order, ``spidermw.py``); the
  table also carries each edge's ``parent_fetch_key``, which a hook must
  keep.
- ``process_items`` — item pipelines ``process_item``: the fetched-artifact
  rows before they are written (ascending order; all pipelines run).

Components are plain picklable objects (they ride into Ray tasks inside the
crawl config); implement any subset of the hook methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import pyarrow as pa

HOOKS_ASCENDING = ("process_candidates", "process_items")
HOOKS_DESCENDING = ("process_fetched", "process_edges")
ALL_HOOKS = HOOKS_ASCENDING + HOOKS_DESCENDING


@dataclass
class MiddlewareContext:
    """Engine-side facts a hook may need (the batch analogue of the
    ``spider``/``request`` arguments the reference passes to hooks): the
    round being crawled and a stats counter.  One context serves a whole
    fetch block, which may span several store buckets, so it names no
    bucket."""

    round_id: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    def inc(self, key: str, n: int = 1) -> None:
        """Stats counter hook — mirrors ``spider.crawler.stats.inc_value``."""
        self.stats[key] = self.stats.get(key, 0) + n


def build_component_list(compdict: Mapping[Any, float | None]) -> list[Any]:
    """Order a component priority dict: drop ``None``-valued components,
    sort ascending by priority with insertion order breaking ties
    (``scrapy/utils/conf.py:20-80``)."""
    for name, value in compdict.items():
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(
                f"Invalid priority {value!r} for component {name!r}: "
                "provide a real number or None"
            )
    enabled = [(v, i, c) for i, (c, v) in enumerate(compdict.items()) if v is not None]
    enabled.sort(key=lambda t: (t[0], t[1]))
    return [c for _, _, c in enabled]


class MiddlewarePipeline:
    """Priority-ordered batch-transform chains for the four hook points."""

    def __init__(self, components: Mapping[Any, float | None] | list | None = None):
        if components is None:
            components = {}
        if isinstance(components, Mapping):
            ordered = build_component_list(components)
        else:
            ordered = list(components)
        self.components = ordered
        self._chains: dict[str, list[Callable]] = {h: [] for h in ALL_HOOKS}
        for comp in ordered:
            for hook in HOOKS_ASCENDING:
                fn = getattr(comp, hook, None)
                if callable(fn):
                    self._chains[hook].append(fn)
            for hook in HOOKS_DESCENDING:
                fn = getattr(comp, hook, None)
                if callable(fn):
                    self._chains[hook].insert(0, fn)  # reference appendleft

    def __bool__(self) -> bool:
        return any(self._chains[h] for h in ALL_HOOKS)

    def has(self, hook: str) -> bool:
        return bool(self._chains.get(hook))

    def run(
        self, hook: str, table: pa.Table, ctx: MiddlewareContext | None = None
    ) -> pa.Table:
        """Apply *hook*'s chain to *table*.  Each transform must return a
        ``pa.Table`` (possibly filtered / column-rewritten); returning an
        empty table short-circuits the rest of the chain (nothing left to
        process, like an ``IgnoreRequest`` cascade)."""
        chain = self._chains.get(hook)
        if not chain:
            return table
        if ctx is None:
            ctx = MiddlewareContext()
        for fn in chain:
            out = fn(table, ctx)
            if not isinstance(out, pa.Table):
                raise TypeError(
                    f"Middleware hook {fn!r} must return a pyarrow.Table, "
                    f"got {type(out).__name__}"
                )
            table = out
            if table.num_rows == 0:
                break
        return table
