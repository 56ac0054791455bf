"""End-to-end crawl vs the single-threaded oracle simulator, plus
kill-and-resume identity (FIXTURES.md §5, §7; reference oracle shape:
``tests/test_scheduler.py:181-218`` and ``tests/test_crawl.py``)."""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq
import pytest

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.pipelines.crawl import CrawlEngine

from tests.crawl_sim import load_pages_dict, simulate_crawl


def _cfg() -> CrawlConfig:
    return CrawlConfig(
        seen_shards=4,
        fetch_buckets=4,
        concurrent_requests_per_domain=4,
        closespider_pagecount=0,
    )


def _seed_urls(corpus: str) -> list[str]:
    t = pq.read_table(os.path.join(corpus, "seeds.parquet"))
    return t.sort_by("seq")["url"].to_pylist()


def _engine_order(result) -> list[tuple[int, str]]:
    t = result.crawl_order_table()
    return list(zip(t["round"].to_pylist(), t["url"].to_pylist()))


def _engine_seen_fps(workdir: str) -> set[bytes]:
    seen_dir = os.path.join(workdir, "seen")
    fps: set[bytes] = set()
    for shard in os.listdir(seen_dir):
        sdir = os.path.join(seen_dir, shard)
        for f in os.listdir(sdir):
            if f.startswith("round=") and f.endswith(".parquet"):
                fps.update(pq.read_table(os.path.join(sdir, f))["fp"].to_pylist())
    return fps


GATE_SIDECAR_KEYS = {
    "total", "admitted", "deferred", "robots_forbidden", "dupefilter_filtered"
}
GATE_PHASES = {"read", "dedup", "rpc", "draw"}


def _assert_phase_schema(workdir: str, n_rounds: int) -> None:
    """Pin the per-round record the benchmark reads: every gate sidecar
    carries the counters and phase seconds, and every manifest folds them
    into ``stats.fetch_phase_s`` as gate_<phase>."""
    rounds_dir = os.path.join(workdir, "rounds")
    rdirs = sorted(  # round n+1's dir already holds its frontier
        d
        for d in os.listdir(rounds_dir)
        if os.path.exists(os.path.join(rounds_dir, d, "MANIFEST.json"))
    )
    assert len(rdirs) == n_rounds
    for d in rdirs:
        gdir = os.path.join(rounds_dir, d, "gate_stats")
        sidecars = [f for f in os.listdir(gdir) if f.startswith("shard=")]
        assert sidecars, d
        for f in sidecars:
            with open(os.path.join(gdir, f)) as fh:
                c = json.load(fh)
            assert GATE_SIDECAR_KEYS <= c.keys(), (d, f)
            assert set(c["phase_s"]) == GATE_PHASES, (d, f)
        with open(os.path.join(rounds_dir, d, "MANIFEST.json")) as fh:
            phases = json.load(fh)["stats"]["fetch_phase_s"]
        assert {f"gate_{p}" for p in GATE_PHASES} <= phases.keys(), d


@pytest.mark.usefixtures("ray_session")
class TestCrawlE2E:
    def test_matches_oracle(self, smoke_corpus, tmp_path):
        cfg = _cfg()
        seeds = _seed_urls(smoke_corpus)
        sim = simulate_crawl(load_pages_dict(smoke_corpus), seeds, cfg, max_rounds=6)

        eng = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "wd"), cfg
        )
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=6)
        eng.shutdown_actors()

        assert res.total_fetched > 0
        # crawl order parity: (round, url) sequence identical
        assert _engine_order(res) == sim.fetch_order
        # URL-seen set parity: bit-for-bit fingerprint set
        assert _engine_seen_fps(str(tmp_path / "wd")) == sim.seen_fps
        # politeness parity per round
        assert [r.admitted for r in res.rounds] == sim.per_round_admitted
        assert [r.deferred for r in res.rounds] == sim.per_round_deferred
        assert sum(r.robots_forbidden for r in res.rounds) == sim.robots_forbidden

    def test_kill_and_resume_identical(self, smoke_corpus, tmp_path):
        cfg = _cfg()
        # uninterrupted reference run
        eng_a = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "full"), cfg
        )
        eng_a.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res_a = eng_a.run(max_rounds=5)
        eng_a.shutdown_actors()

        # killed-at-round-2 run, resumed by a FRESH engine (fresh actors)
        wd = str(tmp_path / "resumed")
        eng_b = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
        eng_b.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        eng_b.run(max_rounds=2)
        eng_b.shutdown_actors()  # "kill"

        eng_c = CrawlEngine(eng_b.store_dir, wd, cfg)
        assert eng_c.last_complete_round() == 1
        res_c = eng_c.run(max_rounds=5)
        eng_c.shutdown_actors()

        assert _engine_order(res_c) != []  # resumed rounds happened
        full_order = _engine_order(res_a)
        # artifact over ALL rounds of the resumed workdir equals the
        # uninterrupted artifact
        from scrupyst_ray.pipelines.crawl import CrawlResult

        all_rounds = CrawlResult(wd, [], "")
        assert (
            list(
                zip(
                    all_rounds.crawl_order_table()["round"].to_pylist(),
                    all_rounds.crawl_order_table()["url"].to_pylist(),
                )
            )
            == full_order
        )
        assert _engine_seen_fps(wd) == _engine_seen_fps(str(tmp_path / "full"))

    def test_autothrottle_resume_identical(self, smoke_corpus, tmp_path):
        """AutoThrottle (ST5) on: adaptive delays shrink budgets AND the
        adjusted delays are part of the committed round state, so a killed
        run still resumes to the identical artifact."""
        cfg = _cfg()
        cfg.autothrottle_enabled = True
        cfg.autothrottle_start_delay = 2.0  # budget 8/2=4 from round 0
        cfg.autothrottle_sim_bandwidth = 500.0  # pages ≈ kB ⇒ latency > 1 s

        eng_a = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "at_full"), cfg
        )
        eng_a.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res_a = eng_a.run(max_rounds=5)
        eng_a.shutdown_actors()
        assert res_a.total_fetched > 0
        # throttle state checkpoints exist alongside the seen deltas
        seen_dir = os.path.join(str(tmp_path / "at_full"), "seen")
        snaps = [
            f
            for shard in os.listdir(seen_dir)
            for f in os.listdir(os.path.join(seen_dir, shard))
            if f.startswith("throttle=")
        ]
        assert snaps

        wd = str(tmp_path / "at_resumed")
        eng_b = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
        eng_b.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        eng_b.run(max_rounds=2)
        eng_b.shutdown_actors()  # "kill"
        eng_c = CrawlEngine(eng_b.store_dir, wd, cfg)
        eng_c.run(max_rounds=5)
        eng_c.shutdown_actors()

        from scrupyst_ray.pipelines.crawl import CrawlResult

        t_full = CrawlResult(str(tmp_path / "at_full"), [], "").crawl_order_table()
        t_res = CrawlResult(wd, [], "").crawl_order_table()
        assert list(zip(t_res["round"].to_pylist(), t_res["url"].to_pylist())) == list(
            zip(t_full["round"].to_pylist(), t_full["url"].to_pylist())
        )
        assert _engine_seen_fps(wd) == _engine_seen_fps(str(tmp_path / "at_full"))

    def test_robots_and_budget_visible(self, smoke_corpus, tmp_path):
        """Sanity: the robots matrix actually bites (host h%5==1 disallows our
        UA entirely) and per-host budgets defer work."""
        cfg = _cfg()
        eng = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "wd2"), cfg
        )
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=3)
        eng.shutdown_actors()
        assert sum(r.robots_forbidden for r in res.rounds) > 0
        assert sum(r.deferred for r in res.rounds) > 0
        assert sum(r.dupefilter_filtered for r in res.rounds) > 0
        # no fetched URL may be from host001 (Disallow: / for our UA)
        t = res.fetched_dataset().to_pandas()
        fetched_hosts = set(t[t.status == 200].host)
        assert "host001.test" not in fetched_hosts
        _assert_phase_schema(str(tmp_path / "wd2"), len(res.rounds))

    def test_candidate_cap_bounds_frontier(self, smoke_corpus, tmp_path):
        """max_round_candidates: the per-round top-k keeps the next shuffle
        bounded, preserves (priority desc, order_key) crawl-order winners,
        and the crawl still completes."""
        cfg = _cfg()
        cfg.max_round_candidates = 25
        eng = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "wdcap"), cfg
        )
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=4)
        eng.shutdown_actors()
        assert res.total_fetched > 0
        capped_rounds = [r for r in res.rounds if r.cap_s > 0]
        assert capped_rounds, "cap never triggered — corpus/config drifted"
        for r in capped_rounds:
            # kept = capped new candidates (= exactly k) + deferred backlog
            assert r.candidates_kept == 25 + r.deferred


@pytest.mark.usefixtures("ray_session")
class TestMapSideHostCap:
    """Phase-1 of the salted two-phase top-k (SURVEY §7.4): an adequate
    per-producer per-host cap must not change the crawl, and it must bound
    what reaches the gate shards.  "Adequate" covers gate-discarded rows
    too (the local rank counts seen/dup candidates — see
    CrawlConfig.map_side_host_cap); the smoke corpus at cap=64 satisfies
    that comfortably."""

    def _order_and_seen(self, smoke_corpus, tmp_path, cap, tag):
        cfg = _cfg()
        cfg.map_side_host_cap = cap
        wd = str(tmp_path / f"wd_{tag}")
        eng = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=6)
        return _engine_order(res), _engine_seen_fps(wd)

    def test_generous_cap_is_identity(self, smoke_corpus, tmp_path):
        # budget=4/host × 6 rounds → cap 64 can never drop an admittable row
        base_order, base_seen = self._order_and_seen(
            smoke_corpus, tmp_path, None, "nocap"
        )
        cap_order, cap_seen = self._order_and_seen(
            smoke_corpus, tmp_path, 64, "cap"
        )
        assert cap_order == base_order
        assert cap_seen == base_seen

    def test_cap_bounds_candidate_files(self, smoke_corpus, tmp_path):
        import pyarrow as pa

        from scrupyst_ray.stages.exchange import read_exchange_file

        cfg = _cfg()
        cfg.map_side_host_cap = 3
        wd = str(tmp_path / "wd_bound")
        eng = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        eng.run(max_rounds=3)
        # every exchange file (one per producer task per shard) holds at most
        # cap rows per host
        rounds_dir = os.path.join(wd, "rounds")
        checked = 0
        for root, _dirs, files in os.walk(rounds_dir):
            for f in files:
                if "candidates" not in root or not f.startswith("from-"):
                    continue
                t = read_exchange_file(os.path.join(root, f))
                hosts = t["host"].to_pylist()
                from collections import Counter

                assert all(v <= 3 for v in Counter(hosts).values()), (root, f)
                checked += 1
        assert checked > 0
