"""Crawl configuration.

A plain dataclass keeping the reference's setting names for the implemented
subset (reference defaults: ``scrapy/settings/default_settings.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CrawlConfig:
    # politeness (reference: CONCURRENT_REQUESTS_PER_DOMAIN=8 default_settings.py:220,
    # DOWNLOAD_DELAY=0 :245; our per-round token budget per host plays the role of
    # "requests a host's slot admits during one superstep", SURVEY.md ST3)
    concurrent_requests_per_domain: int = 8
    download_delay: float = 0.0
    # one superstep round models this many seconds of politeness wall-clock:
    # per-host budget = round_seconds / effective_delay when a delay is set
    # (time-free determinism; see state/politeness.py)
    round_seconds: float = 8.0
    # depth (spidermiddlewares/depth.py:30-101; DEPTH_LIMIT=0 means "no limit")
    depth_limit: int = 0
    depth_priority: int = 1  # BFO parity config (FIXTURES.md §7)
    # within-round tie-break at equal priority (O2): "bfo" = FIFO order_key
    # (reference FIFO queues + DEPTH_PRIORITY=1, docs/topics/broad-crawls),
    # "dfo" = LIFO order_key (reference default LifoMemoryQueue pop order,
    # squeues.py:149-176).  The superstep barrier stays breadth-wise; this
    # flips every within-round ordering decision (dedup winner, politeness
    # draw, fetch order, candidate-cap top-k, crawl-order artifact).
    order_mode: str = "bfo"
    # url length (default_settings.py:528)
    urllength_limit: int = 2083
    # robots (default_settings.py:474-478)
    robotstxt_obey: bool = True
    user_agent: str = "scrupyst-ray/0.1 (+local)"
    # offsite: empty = no restriction (spider allowed_domains)
    allowed_domains: list[str] = field(default_factory=list)
    # follow rel=nofollow edges? (the reference LinkExtractor keeps them
    # flagged; following is spider policy — default off for a polite crawler)
    follow_nofollow: bool = False
    # per-slot overrides, reference DOWNLOAD_SLOTS
    # (core/downloader/__init__.py:131-133,148-167):
    #   {host: {"delay": float, "concurrency": int}}
    download_slots: dict = field(default_factory=dict)
    # AutoThrottle (ST5, extensions/throttle.py:21-129): adaptive per-host
    # delay from observed latency; superstep analog applies one adjustment
    # per (host, round) from the round's mean latency (state/throttle.py)
    autothrottle_enabled: bool = False
    autothrottle_start_delay: float = 5.0  # AUTOTHROTTLE_START_DELAY
    autothrottle_max_delay: float = 60.0  # AUTOTHROTTLE_MAX_DELAY
    autothrottle_target_concurrency: float = 1.0
    # corpus replay has no network latency; the engine feeds the throttle a
    # deterministic proxy latency = html_bytes / this bandwidth (bytes/s).
    # On a live cluster, replace with measured per-fetch wall time.
    autothrottle_sim_bandwidth: float = 1_000_000.0
    # stop conditions (extensions/closespider.py:37-150)
    closespider_pagecount: int = 0  # 0 = unlimited
    max_rounds: int = 0  # 0 = until frontier empty
    # user-extension surface (SURVEY §2.10): component priority dict
    # {component: priority | None} of batch-transform middlewares
    # (stages/middleware.py) — the reference's DOWNLOADER_MIDDLEWARES /
    # SPIDER_MIDDLEWARES / ITEM_PIPELINES settings collapsed into one dict
    # (hook names on the component pick the chain). None disables, lower
    # priorities run closer to the engine. Components ride into Ray tasks
    # inside this config, so they must be picklable.
    middlewares: dict = field(default_factory=dict)
    # scale knobs
    # URL-seen / politeness state shards (>= cluster cores); each holds a
    # bloom + exact sorted fingerprint lanes (state/seen.py)
    seen_shards: int = 16
    max_round_candidates: int = 1_000_000  # frontier cap per round (shuffle bound)
    # hot-host skew bound (SURVEY §7.4 salting, the "two-phase top-k"): each
    # PRODUCER (the fetched pages of one fetch_key) keeps only its local
    # per-host top-N candidates (same (host, -priority, order_key) order the
    # budget draw uses) before writing the shard exchange files, so no gate
    # task ever ingests a hot domain's full candidate set.  None = off
    # (default).  Parity caveat: the local
    # rank is computed BEFORE the gate, so already-seen / dup / robots rows
    # count against N — a fresh admittable URL behind ≥N such rows in one
    # producer's output is dropped un-fingerprinted (re-discoverable later;
    # same trade as the max_round_candidates tail drop).  Crawl identity
    # therefore holds when N ≥ per-host budget × rounds × the host's
    # candidate-to-admittable inflation, not unconditionally; this is a
    # boundedness knob, not a free lunch.
    map_side_host_cap: int | None = None
    fetch_buckets: int = 16  # hash(url) buckets for the fetch join

    @classmethod
    def from_settings(cls, settings: dict) -> "CrawlConfig":
        """Build a config from a reference-style settings dict (the names a
        reference user already has: ``default_settings.py`` keys).  ADDONS
        run first and may mutate the dict (``registry.apply_addons``);
        middleware/pipeline priority dicts are dotted paths resolved and
        instantiated through the registry, so the whole configuration ships
        as ONE serializable dict.  Unknown keys are ignored (the reference
        tolerates unused settings the same way)."""
        from scrupyst_ray.registry import apply_addons, components_from_settings

        settings = dict(settings)
        apply_addons(settings)
        field_map = {
            "CONCURRENT_REQUESTS_PER_DOMAIN": "concurrent_requests_per_domain",
            "DOWNLOAD_DELAY": "download_delay",
            "DEPTH_LIMIT": "depth_limit",
            "DEPTH_PRIORITY": "depth_priority",
            "URLLENGTH_LIMIT": "urllength_limit",
            "ROBOTSTXT_OBEY": "robotstxt_obey",
            "USER_AGENT": "user_agent",
            "DOWNLOAD_SLOTS": "download_slots",
            "AUTOTHROTTLE_ENABLED": "autothrottle_enabled",
            "AUTOTHROTTLE_START_DELAY": "autothrottle_start_delay",
            "AUTOTHROTTLE_MAX_DELAY": "autothrottle_max_delay",
            "AUTOTHROTTLE_TARGET_CONCURRENCY": "autothrottle_target_concurrency",
            "CLOSESPIDER_PAGECOUNT": "closespider_pagecount",
            "ORDER_MODE": "order_mode",
        }
        kwargs = {
            attr: settings[key]
            for key, attr in field_map.items()
            if key in settings
        }
        if "ALLOWED_DOMAINS" in settings:
            kwargs["allowed_domains"] = list(settings["ALLOWED_DOMAINS"])
        mw: dict = {}
        for key in ("DOWNLOADER_MIDDLEWARES", "SPIDER_MIDDLEWARES", "ITEM_PIPELINES"):
            mw.update(components_from_settings(settings, key))
        if mw:
            kwargs["middlewares"] = mw
        return cls(**kwargs)
