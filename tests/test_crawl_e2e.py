"""End-to-end crawl vs the single-threaded oracle simulator, plus
kill-and-resume identity (FIXTURES.md §5, §7; reference oracle shape:
``tests/test_scheduler.py:181-218`` and ``tests/test_crawl.py``)."""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from scrupyst_ray.config import CrawlConfig
from scrupyst_ray.pipelines.crawl import CrawlEngine, CrawlResult, _fetch_parts
from scrupyst_ray.stages.exchange import (
    admitted_path,
    frontier_shards,
    read_exchange_file,
    write_admitted,
)
from scrupyst_ray.state.shard import FETCH_SPLIT

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


def _committed_manifests(workdir: str) -> dict[str, dict]:
    """{round dir: MANIFEST.json} for the committed rounds (round n+1's dir
    already holds its frontier)."""
    rounds_dir = os.path.join(workdir, "rounds")
    out = {}
    for d in sorted(os.listdir(rounds_dir)):
        mp = os.path.join(rounds_dir, d, "MANIFEST.json")
        if os.path.exists(mp):
            with open(mp) as fh:
                out[d] = json.load(fh)
    return out


def _assert_phase_schema(workdir: str, n_rounds: int) -> None:
    """Pin the per-round record the benchmark reads: one gate sidecar per
    shard with work, each carrying the counters and phase seconds, and
    every manifest folds them into ``stats.fetch_phase_s`` as
    gate_<phase>.  The walls of the round's gate calls and of its fetch
    execution are stats of their own, not summed task-seconds."""
    manifests = _committed_manifests(workdir)
    assert len(manifests) == n_rounds
    for d, manifest in manifests.items():
        gdir = os.path.join(workdir, "rounds", d, "gate_stats")
        sidecars = sorted(f for f in os.listdir(gdir) if f.startswith("shard="))
        with_work = frontier_shards(os.path.join(workdir, "rounds", d, "frontier"))
        assert sidecars == [f"shard={k:05d}.json" for k in with_work], d
        for f in sidecars:
            with open(os.path.join(gdir, f)) as fh:
                c = json.load(fh)
            assert GATE_SIDECAR_KEYS <= c.keys(), (d, f)
            assert set(c["phase_s"]) == GATE_PHASES, (d, f)
        phases = manifest["stats"]["fetch_phase_s"]
        assert {f"gate_{p}" for p in GATE_PHASES} <= phases.keys(), d
        # the round's fetch tasks; none when nothing was admitted
        stats = manifest["stats"]
        assert (stats["fetch_parts"] > 0) == (stats["admitted"] > 0), d
        assert not {"gate_s", "fetch_exec_s"} & phases.keys(), d
        assert stats["gate_s"] > 0, d
        assert (stats["fetch_exec_s"] > 0) == (stats["fetch_parts"] > 0), d


def _assert_one_artifact_per_block(workdir: str, cfg: CrawlConfig) -> None:
    """The fetch stage writes one artifact per fetch range, not one per
    fetch_key: each round's fetched/*.parquet count is at most its fetch
    task count, and the block sidecars add up to the manifest."""
    import ray

    n_cpus = int(ray.cluster_resources()["CPU"])
    for d, manifest in _committed_manifests(workdir).items():
        stats = manifest["stats"]
        fdir = os.path.join(workdir, "rounds", d, "fetched")
        files = os.listdir(fdir) if os.path.isdir(fdir) else []
        parts = [f for f in files if f.endswith(".parquet")]
        assert len(parts) <= _fetch_parts(cfg, stats["admitted"], n_cpus), d
        fetched = 0
        for f in files:
            if f.endswith(".stats.json"):
                with open(os.path.join(fdir, f)) as fh:
                    fetched += json.load(fh)["fetched"]
        assert fetched == stats["fetched"], d


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
        _assert_one_artifact_per_block(str(tmp_path / "wd"), cfg)

    def test_engine_over_a_store_built_elsewhere(self, smoke_corpus, tmp_path):
        """The page store is the only source of robots.txt: an engine over
        a store that another workdir's ``for_corpus`` built obeys every
        host's robots.txt, with nothing else built in its own workdir."""
        cfg = _cfg()
        sim = simulate_crawl(
            load_pages_dict(smoke_corpus), _seed_urls(smoke_corpus), cfg, max_rounds=6
        )
        built = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "built"), cfg
        )
        wd = str(tmp_path / "wd")
        eng = CrawlEngine(built.store_dir, wd, cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=6)
        eng.shutdown_actors()

        assert sim.robots_forbidden > 0
        assert sum(r.robots_forbidden for r in res.rounds) == sim.robots_forbidden
        assert _engine_order(res) == sim.fetch_order
        assert _engine_seen_fps(wd) == sim.seen_fps
        assert [r.deferred for r in res.rounds] == sim.per_round_deferred

    def test_half_written_round0_frontier_is_rewritten(self, smoke_corpus, tmp_path):
        """A kill between two seed-shard writes leaves round 0's frontier
        without its ``_COMPLETE`` marker and without some shards; the next
        ``init_frontier`` writes it again, and the crawl matches the
        oracle.  Once round 0 is committed, ``init_frontier`` is a no-op."""
        cfg = _cfg()
        sim = simulate_crawl(
            load_pages_dict(smoke_corpus), _seed_urls(smoke_corpus), cfg, max_rounds=4
        )
        seeds = os.path.join(smoke_corpus, "seeds.parquet")
        wd = str(tmp_path / "wd")
        eng = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
        eng.init_frontier(seeds)
        fdir = os.path.join(wd, "rounds", "round-000000", "frontier")
        shard = os.path.join(fdir, "candidates", "shard-00003")
        assert os.path.isdir(shard)
        shutil.rmtree(shard)  # the kill: one shard never written ...
        marker = os.path.join(fdir, "_COMPLETE")
        if os.path.exists(marker):
            os.remove(marker)  # ... so the marker never was either
        eng.init_frontier(seeds)
        res = eng.run(max_rounds=4)
        eng.shutdown_actors()

        assert _engine_order(res) == sim.fetch_order
        assert _engine_seen_fps(wd) == sim.seen_fps

        def frontier_files():
            return sorted(
                os.path.join(d, f) for d, _, fs in os.walk(fdir) for f in fs
            )

        before = frontier_files()
        os.remove(marker)
        CrawlEngine(eng.store_dir, wd, cfg).init_frontier(seeds)
        assert frontier_files() == [f for f in before if f != marker]

    def test_kill_and_resume_identical(self, smoke_corpus, tmp_path):
        """A resumed crawl equals an uninterrupted one, even when the killed
        round left fetch outputs under a block id the re-run does not
        reuse (block ids follow the fetch_parts cuts, and fetch_parts
        follows the CPU count)."""
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
        # the killed attempt at round 2 got as far as one fetch block
        src = tmp_path / "full" / "rounds" / "round-000002" / "fetched"
        part = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))[0]
        stale = os.path.join(wd, "rounds", "round-000002", "fetched")
        os.makedirs(stale)
        for ext in (".parquet", ".stats.json"):
            shutil.copy(
                src / part.replace(".parquet", ext),
                os.path.join(stale, f"part-999999{ext}"),
            )

        eng_c = CrawlEngine(eng_b.store_dir, wd, cfg)
        assert eng_c.last_complete_round() == 1
        res_c = eng_c.run(max_rounds=5)
        eng_c.shutdown_actors()

        assert _engine_order(res_c) != []  # resumed rounds happened
        full_order = _engine_order(res_a)
        # artifact over ALL rounds of the resumed workdir equals the
        # uninterrupted artifact
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
        fetched = {
            d: m["stats"]["fetched"] for d, m in _committed_manifests(wd).items()
        }
        assert fetched == {
            d: m["stats"]["fetched"]
            for d, m in _committed_manifests(str(tmp_path / "full")).items()
        }

    def test_stale_admitted_file_is_not_fetched(
        self, smoke_corpus, tmp_path, monkeypatch
    ):
        """A killed attempt's admitted file for a shard that admits nothing
        in the re-run is never fetched: the re-run clears the round's
        ``admitted/``, and the fetch reads only the files of the shards
        whose gate returned rows in this attempt, so a file planted after
        the clear (round 0's admitted rows, under a shard without work) is
        not read either."""
        from scrupyst_ray.pipelines import crawl

        cfg = _cfg()
        cfg.seen_shards = 8  # 5 hosts: every round has shards without work
        pages = os.path.join(smoke_corpus, "pages")
        sim = simulate_crawl(
            load_pages_dict(smoke_corpus), _seed_urls(smoke_corpus), cfg, max_rounds=6
        )
        wd = str(tmp_path / "wd")
        eng = CrawlEngine.for_corpus(pages, wd, cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        eng.run(max_rounds=2)
        eng.shutdown_actors()  # "kill"
        round0 = eng._round_dir(0)
        stale = [
            read_exchange_file(admitted_path(round0, k))
            for k in range(cfg.seen_shards)
            if os.path.exists(admitted_path(round0, k))
        ]
        assert stale

        def plant(frontier_dir: str, with_work: list[int]) -> None:
            idle = [k for k in range(cfg.seen_shards) if k not in with_work]
            for rows, k in zip(stale, idle):
                write_admitted(rows, os.path.dirname(frontier_dir), k)

        # the killed attempt at round 2 ...
        plant(eng._frontier_dir(2), frontier_shards(eng._frontier_dir(2)))
        planted: list[str] = []

        def shards_then_plant(frontier_dir: str) -> list[int]:
            # ... and one that would survive the clear of every round
            with_work = frontier_shards(frontier_dir)
            plant(frontier_dir, with_work)
            planted.append(frontier_dir)
            return with_work

        monkeypatch.setattr(crawl, "frontier_shards", shards_then_plant)
        resumed = CrawlEngine(eng.store_dir, wd, cfg)
        res = resumed.run(max_rounds=6)
        resumed.shutdown_actors()

        assert len(planted) == len(res.rounds) > 1
        assert _engine_order(CrawlResult(wd, [], "")) == sim.fetch_order
        assert _engine_seen_fps(wd) == sim.seen_fps
        assert [r.admitted for r in res.rounds] == sim.per_round_admitted[2:]

    def test_state_shards_never_import_ray_air(self, smoke_corpus, tmp_path):
        """No StateShard method returns an Arrow table, so no actor process
        pays the ``ray.air`` import of a first Arrow return."""
        import ray

        eng = CrawlEngine.for_corpus(
            os.path.join(smoke_corpus, "pages"), str(tmp_path / "wd"), _cfg()
        )
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=3)
        try:
            imported = ray.get(
                [
                    a.__ray_call__.remote(lambda self: "ray.air" in sys.modules)
                    for a in eng._actors
                ]
            )
        finally:
            eng.shutdown_actors()
        assert res.total_fetched > 0
        assert imported == [False] * len(imported) and imported

    def test_lost_state_shard_heals(self, smoke_corpus, tmp_path, monkeypatch):
        """Shard 1's actor dies before round 2's first attempt, while the
        other shards' gates run round 2.  The round re-runs in restarted
        actors restored to round 1, and the crawl equals an uninterrupted
        one and the simulator."""
        lost = self._heal_after_losing(smoke_corpus, tmp_path, monkeypatch, _cfg(), 1)
        assert lost == [1]

    def test_lost_actor_of_two_shards_heals(self, smoke_corpus, tmp_path, monkeypatch):
        """8 shards on 4 actors: the actor that dies hosts two shards with
        round 2 work (2 and 6; host001 of shard 6 is the robots-forbidden
        one), and both heal with it."""
        cfg = _cfg()
        cfg.seen_shards = 8
        lost = self._heal_after_losing(smoke_corpus, tmp_path, monkeypatch, cfg, 2)
        assert lost == [2, 6]

    def _heal_after_losing(self, smoke_corpus, tmp_path, monkeypatch, cfg, actor):
        """Kill ``actors[actor]`` before round 2's first attempt, while the
        other actors' gates run round 2, and check the healed crawl against
        an uninterrupted one and the simulator.  Returns the shards with
        round 2 work that the lost actor hosted."""
        import ray

        pages = os.path.join(smoke_corpus, "pages")
        seeds = os.path.join(smoke_corpus, "seeds.parquet")
        sim = simulate_crawl(
            load_pages_dict(smoke_corpus), _seed_urls(smoke_corpus), cfg, max_rounds=6
        )
        full_wd = str(tmp_path / "full")
        full = CrawlEngine.for_corpus(pages, full_wd, cfg)
        full.init_frontier(seeds)
        res_full = full.run(max_rounds=6)
        full.shutdown_actors()

        attempts: list[int] = []
        gated_first: list[str] = []
        run_round = CrawlEngine._run_round

        n_actors: list[int] = []

        def lose_actor(self, n, actors):
            first = n == 2 and n not in attempts
            attempts.append(n)
            if not first:
                return run_round(self, n, actors)
            n_actors.append(len(actors))
            ray.kill(actors[actor])
            try:
                return run_round(self, n, actors)
            finally:
                gdir = os.path.join(self._round_dir(n), "gate_stats")
                gated_first.extend(sorted(os.listdir(gdir)))

        monkeypatch.setattr(CrawlEngine, "_run_round", lose_actor)
        wd = str(tmp_path / "healed")
        eng = CrawlEngine.for_corpus(pages, wd, cfg)
        eng.init_frontier(seeds)
        res = eng.run(max_rounds=6)
        eng.shutdown_actors()

        assert attempts.count(2) == 2
        (a,) = n_actors
        with_work = frontier_shards(eng._frontier_dir(2))
        lost = [k for k in with_work if k % a == actor]
        assert lost
        assert gated_first == [
            f"shard={k:05d}.json" for k in with_work if k not in lost
        ]
        assert [r.round for r in res.rounds] == [r.round for r in res_full.rounds]
        assert _engine_order(res) == _engine_order(res_full) == sim.fetch_order
        assert _engine_seen_fps(wd) == _engine_seen_fps(full_wd) == sim.seen_fps
        assert [r.admitted for r in res.rounds] == sim.per_round_admitted
        assert [r.deferred for r in res.rounds] == sim.per_round_deferred
        assert sum(r.robots_forbidden for r in res.rounds) == sim.robots_forbidden
        return lost

    def test_shards_share_actors(self, smoke_corpus, tmp_path):
        """8 shards in the 4-CPU session start 4 actors of 2 shards each.  A
        crawl stopped at half its rounds and resumed in a fresh engine
        equals the simulator, every shard gates and checkpoints on its own
        (one sidecar per shard with work, one seen delta per shard and
        round), and each shard keeps its own robots rules (host001, the
        forbidden host, is shard 6: actor 2's second shard)."""
        import ray

        cfg = _cfg()
        cfg.seen_shards = 8
        pages = os.path.join(smoke_corpus, "pages")
        sim = simulate_crawl(
            load_pages_dict(smoke_corpus), _seed_urls(smoke_corpus), cfg, max_rounds=6
        )
        n_rounds = len(sim.per_round_admitted)
        assert n_rounds >= 4
        wd = str(tmp_path / "wd")
        eng = CrawlEngine.for_corpus(pages, wd, cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        first = eng.run(max_rounds=n_rounds // 2)
        assert int(ray.cluster_resources()["CPU"]) == len(eng._actors) == 4
        eng.shutdown_actors()  # "kill"
        resumed = CrawlEngine(eng.store_dir, wd, cfg)
        rest = resumed.run(max_rounds=6)
        assert len(resumed._actors) == 4
        resumed.shutdown_actors()

        assert first.start_s > 0 and rest.start_s > 0
        rounds = first.rounds + rest.rounds
        assert [r.round for r in rounds] == list(range(n_rounds))
        assert _engine_order(CrawlResult(wd, [], "")) == sim.fetch_order
        assert _engine_seen_fps(wd) == sim.seen_fps
        assert [r.admitted for r in rounds] == sim.per_round_admitted
        assert [r.deferred for r in rounds] == sim.per_round_deferred
        assert sum(r.robots_forbidden for r in rounds) == sim.robots_forbidden > 0
        _assert_phase_schema(wd, n_rounds)
        seen_dir = os.path.join(wd, "seen")
        assert sorted(os.listdir(seen_dir)) == [f"shard={k:05d}" for k in range(8)]
        for shard in os.listdir(seen_dir):
            assert sorted(os.listdir(os.path.join(seen_dir, shard))) == [
                f"round={n:06d}.parquet" for n in range(n_rounds)
            ]

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

    def test_robots_row_is_the_root_robots_txt(self, smoke_corpus, tmp_path):
        """A host's robots rules come from ``http://{host}/robots.txt``,
        else ``https://{host}/robots.txt``: a nested robots.txt page is an
        ordinary page, and http wins over https."""
        import pyarrow as pa

        from scrupyst_ray.sources.corpus import PAGES_SCHEMA

        pages = tmp_path / "pages"
        shutil.copytree(os.path.join(smoke_corpus, "pages"), pages)
        block_all = b"User-agent: *\nDisallow: /\n"
        extra = {
            # nested: not host000's robots row (its root one stays in force)
            "http://host000.test/docs/robots.txt": block_all,
            # host001's http robots.txt blocks our agent; https allows all
            "https://host001.test/robots.txt": b"User-agent: *\nDisallow:\n",
            # host003 has no http robots.txt, so https applies
            "https://host003.test/robots.txt": block_all,
        }
        pq.write_table(
            pa.table(
                {
                    "url": list(extra),
                    "warc_ts": pa.array([0] * len(extra), pa.timestamp("us")),
                    "html": list(extra.values()),
                    "text": [b.decode() for b in extra.values()],
                    "lang": ["en"] * len(extra),
                },
                schema=PAGES_SCHEMA,
            ),
            pages / "part-zz-extra.parquet",
        )
        cfg = _cfg()
        sim = simulate_crawl(
            load_pages_dict(str(tmp_path)), _seed_urls(smoke_corpus), cfg, max_rounds=4
        )
        eng = CrawlEngine.for_corpus(str(pages), str(tmp_path / "wd"), cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=4)
        eng.shutdown_actors()

        hosts = {u.split("/")[2] for _, u in sim.fetch_order}
        assert "host000.test" in hosts and "host003.test" not in hosts
        assert _engine_order(res) == sim.fetch_order
        assert sum(r.robots_forbidden for r in res.rounds) == sim.robots_forbidden

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

    def test_cap_keeps_top_k(self, smoke_corpus, tmp_path):
        """With ``max_round_candidates=25``, the candidates round 1 writes
        are the top 25, by (priority desc, order_key), of those it writes
        with the cap off.  (Round 0 writes 24, so both crawls enter round
        1 alike.)"""
        from scrupyst_ray.stages.exchange import candidates_dir, read_exchange_dir

        def round1_candidates(cap: int):
            cfg = _cfg()
            cfg.max_round_candidates = cap
            cfg.max_rounds = 2  # run(max_rounds=0) falls back to it
            wd = str(tmp_path / f"wd{cap}")
            eng = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
            eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
            res = eng.run(max_rounds=0)
            eng.shutdown_actors()
            r0, r1 = res.rounds
            assert res.stopped_reason == "max_rounds"
            assert r0.candidates_kept == 24
            fdir = os.path.join(wd, "rounds", "round-000002", "frontier")
            rows = read_exchange_dir(candidates_dir(fdir))
            order = [("priority", "descending"), ("order_key", "ascending")]
            return r1, rows.sort_by(order)

        r1, capped = round1_candidates(25)
        _, every = round1_candidates(0)
        assert r1.candidates_kept == 25 + r1.deferred and every.num_rows > 25
        assert capped.equals(every.slice(0, 25))


class TestFetchParts:
    """The fetch fan-out rule, without Ray: one task per 64 admitted rows
    and at least one, capped at half the fetch_key space and at four tasks
    per CPU."""

    def test_small_round_fetches_in_one_task(self):
        cfg = CrawlConfig(fetch_buckets=64)
        assert {_fetch_parts(cfg, rows, 32) for rows in range(128)} == {1}

    def test_one_task_per_64_rows(self):
        cfg = CrawlConfig(fetch_buckets=64)  # caps: 256 keys' half, 128 cpu
        for k in range(1, 129):
            assert _fetch_parts(cfg, 64 * k, 32) == k
            assert _fetch_parts(cfg, 64 * k + 63, 32) == k

    def test_caps(self):
        few_keys = CrawlConfig(fetch_buckets=4)
        assert _fetch_parts(few_keys, 10**6, 32) == 4 * FETCH_SPLIT // 2 == 16
        assert _fetch_parts(CrawlConfig(fetch_buckets=64), 10**6, 2) == 4 * 2
        assert _fetch_parts(few_keys, 64 * 20, 3) == 12  # the cpu cap binds


@contextlib.contextmanager
def _schema_warnings():
    """Collect Ray Data's "different schema" warnings logged in the block."""
    import ray.data  # noqa: F401 — sets up Ray Data's loggers first

    messages: list[str] = []

    class Capture(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                messages.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    handler = Capture(logging.WARNING)
    log.addHandler(handler)
    try:
        yield messages
    finally:
        log.removeHandler(handler)


def _executions_per_round(monkeypatch) -> list[int]:
    """Count the Ray Data executions of every ``_run_round`` call: the
    returned list gets one entry per round, in order.  Every execution
    starts a ``StreamingExecutor``, however its output is consumed."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from scrupyst_ray.pipelines import crawl

    calls: list[int] = []
    per_round: list[int] = []
    execute = StreamingExecutor.execute
    run_round = crawl.CrawlEngine._run_round

    def counted(executor, *args, **kwargs):
        calls.append(1)
        return execute(executor, *args, **kwargs)

    def round_spy(self, n, actors):
        before = len(calls)
        stats = run_round(self, n, actors)
        per_round.append(len(calls) - before)
        return stats

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    monkeypatch.setattr(crawl.CrawlEngine, "_run_round", round_spy)
    return per_round


@pytest.mark.usefixtures("ray_session")
class TestRoundFanOut:
    """Each round's one Ray Data execution follows the rows it carries: its
    fetch tasks the exact admitted count."""

    def _crawl(self, smoke_corpus, wd, cfg, seeds=None, max_rounds=6):
        eng = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
        eng.init_frontier(seeds or os.path.join(smoke_corpus, "seeds.parquet"))
        res = eng.run(max_rounds=max_rounds)
        eng.shutdown_actors()
        return res

    def test_fetch_sized_by_admitted_rows(self, smoke_corpus, tmp_path, monkeypatch):
        from scrupyst_ray.pipelines import crawl

        calls: list[int] = []
        sized = crawl._fetch_parts

        def spy(cfg, rows, n_cpus):
            calls.append(rows)
            return sized(cfg, rows, n_cpus)

        monkeypatch.setattr(crawl, "_fetch_parts", spy)
        cfg = _cfg()
        res = self._crawl(smoke_corpus, str(tmp_path / "wd"), cfg)
        admitted = [r.admitted for r in res.rounds]
        assert all(admitted) and len(res.rounds) > 1
        assert calls == admitted
        # the frontier overstates the fetch work on a deferring crawl
        assert any(r.frontier > r.admitted for r in res.rounds)
        import ray

        n_cpus = int(ray.cluster_resources()["CPU"])
        assert [r.fetch_parts for r in res.rounds] == [
            sized(cfg, a, n_cpus) for a in admitted
        ]

    def test_one_execution_per_admitting_round(
        self, smoke_corpus, tmp_path, monkeypatch
    ):
        """The gate runs in the StateShard actors, so an admitting round
        runs one Ray Data execution, the fetch."""
        per_round = _executions_per_round(monkeypatch)
        res = self._crawl(smoke_corpus, str(tmp_path / "wd"), _cfg())
        assert len(res.rounds) > 1 and all(r.admitted for r in res.rounds)
        assert per_round == [1] * len(res.rounds)

    def test_round_admitting_nothing(self, smoke_corpus, tmp_path, monkeypatch):
        """Seeds only on host001, whose robots.txt disallows our UA: round 0
        admits nothing, commits, and runs no Ray Data execution."""
        import pyarrow as pa

        from scrupyst_ray.pipelines import crawl

        class NoFetch:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a round that admitted nothing fetched")

        urls = sorted(
            u
            for u in load_pages_dict(smoke_corpus)
            if u.startswith("http://host001.test/")
        )[:3]
        seeds = str(tmp_path / "seeds.parquet")
        pq.write_table(pa.table({"url": urls, "seq": list(range(len(urls)))}), seeds)
        cfg = _cfg()
        sim = simulate_crawl(load_pages_dict(smoke_corpus), urls, cfg, max_rounds=6)

        monkeypatch.setattr(crawl, "FetchParse", NoFetch)
        per_round = _executions_per_round(monkeypatch)
        wd = str(tmp_path / "wd")
        res = self._crawl(smoke_corpus, wd, cfg, seeds=seeds)

        assert [r.round for r in res.rounds] == [0]
        assert per_round == [0]
        (r0,) = res.rounds
        assert (r0.admitted, r0.fetched, r0.fetch_parts) == (0, 0, 0)
        assert r0.robots_forbidden == len(urls) == sim.robots_forbidden
        (manifest,) = _committed_manifests(wd).values()
        assert manifest["stats"]["fetched"] == 0
        fdir = os.path.join(wd, "rounds", "round-000000", "fetched")
        assert not os.path.isdir(fdir) or not [
            f for f in os.listdir(fdir) if f.endswith(".parquet")
        ]
        assert sim.fetch_order == []
        assert sim.per_round_admitted == [0]
        assert _engine_seen_fps(wd) == sim.seen_fps


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

    def test_binding_cap_resume_identical(self, smoke_corpus, tmp_path, monkeypatch):
        """With a cap that drops rows, a crawl killed after round 1 and
        resumed with a different fetch task count (so other fixed fetch_key
        cuts, as on a resized cluster) equals the uninterrupted crawl: the
        cap ranks within each fetch_key, not within a block."""
        from scrupyst_ray.pipelines import crawl

        cfg = _cfg()
        cfg.map_side_host_cap = 3
        pages = os.path.join(smoke_corpus, "pages")
        eng_a = CrawlEngine.for_corpus(pages, str(tmp_path / "full"), cfg)
        eng_a.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        res_a = eng_a.run(max_rounds=5)
        eng_a.shutdown_actors()

        wd = str(tmp_path / "resumed")
        eng_b = CrawlEngine.for_corpus(pages, wd, cfg)
        eng_b.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        eng_b.run(max_rounds=2)
        eng_b.shutdown_actors()  # "kill"
        monkeypatch.setattr(crawl, "_fetch_parts", lambda cfg, rows, n_cpus: 7)
        eng_c = CrawlEngine(eng_b.store_dir, wd, cfg)
        eng_c.run(max_rounds=5)
        eng_c.shutdown_actors()

        t_res = crawl.CrawlResult(wd, [], "").crawl_order_table()
        assert (
            list(zip(t_res["round"].to_pylist(), t_res["url"].to_pylist()))
            == _engine_order(res_a)
        )
        assert _engine_seen_fps(wd) == _engine_seen_fps(str(tmp_path / "full"))

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


@pytest.mark.usefixtures("ray_session")
class TestFixedCutExchanges:
    """Every keyed exchange of a crawl is cut at fixed ranges and sorts
    nothing: producers (seed read blocks, page-store row groups, fetch
    tasks) write files, and consumers read fixed key ranges of them."""

    def test_rounds_run_no_sort(self, smoke_corpus, tmp_path, monkeypatch):
        """With the candidate cap off, ``run()`` calls no
        ``Dataset.sort``, and the crawl still matches the oracle."""
        import ray.data

        cfg = _cfg()
        cfg.max_round_candidates = 0
        sim = simulate_crawl(
            load_pages_dict(smoke_corpus), _seed_urls(smoke_corpus), cfg, max_rounds=6
        )
        wd = str(tmp_path / "wd")
        eng = CrawlEngine.for_corpus(os.path.join(smoke_corpus, "pages"), wd, cfg)
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        sorts: list[tuple] = []
        sort = ray.data.Dataset.sort

        def counted(ds, *args, **kwargs):
            sorts.append(args)
            return sort(ds, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(ray.data.Dataset, "sort", counted)
            res = eng.run(max_rounds=6)
        eng.shutdown_actors()

        assert sorts == []
        assert len(res.rounds) > 1 and all(r.fetch_parts for r in res.rounds)
        assert _engine_order(res) == sim.fetch_order
        assert _engine_seen_fps(wd) == sim.seen_fps

    @pytest.mark.parametrize("shards", [4, 1])
    def test_no_sampling_matches_oracle(
        self, smoke_corpus, tmp_path, monkeypatch, shards
    ):
        """No exchange samples sort boundaries, and the crawl matches the
        oracle at four shards and at one (a single range holding every
        key)."""
        from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

        def no_sampling(*args, **kwargs):
            raise AssertionError("a crawl exchange sampled its sort boundaries")

        cfg = _cfg()
        cfg.seen_shards = shards
        sim = simulate_crawl(
            load_pages_dict(smoke_corpus), _seed_urls(smoke_corpus), cfg, max_rounds=6
        )
        with monkeypatch.context() as m:
            m.setattr(SortTaskSpec, "sample_boundaries", staticmethod(no_sampling))
            eng = CrawlEngine.for_corpus(
                os.path.join(smoke_corpus, "pages"), str(tmp_path / "wd"), cfg
            )
            eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
            res = eng.run(max_rounds=6)
        eng.shutdown_actors()

        assert _engine_order(res) == sim.fetch_order
        assert _engine_seen_fps(str(tmp_path / "wd")) == sim.seen_fps
        assert sum(r.robots_forbidden for r in res.rounds) == sim.robots_forbidden

    def test_for_corpus_runs_no_all_to_all(
        self, smoke_corpus, tmp_path, monkeypatch
    ):
        """``for_corpus`` and ``init_frontier`` run no all-to-all operator
        (no sort, shuffle or repartition), and write nothing but the store
        and round 0's frontier into the workdir."""
        from ray.data._internal.execution.operators.base_physical_operator import (
            AllToAllOperator,
        )

        ops = []
        init = AllToAllOperator.__init__

        def counted(op, *args, **kwargs):
            ops.append(type(op).__name__)
            init(op, *args, **kwargs)

        monkeypatch.setattr(AllToAllOperator, "__init__", counted)
        wd = tmp_path / "wd"
        pages = os.path.join(smoke_corpus, "pages")
        eng = CrawlEngine.for_corpus(pages, str(wd), _cfg())
        eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
        assert ops == []
        assert sorted(os.listdir(wd)) == ["rounds", "store"]
        assert not os.path.exists(wd / "store" / "_runs")
        assert os.listdir(wd / "rounds") == ["round-000000"]

    def test_no_cpu_warning(self, smoke_corpus, tmp_path):
        """Building a crawl logs no "does not have any available CPUs"
        warning.  Ray Data's eager ``materialize`` checks for free CPUs
        while the tasks of the run it just finished still hold them; the
        warning is logged once per process, so the builds run in a Ray
        session of their own and its whole output is read."""
        pages = os.path.join(smoke_corpus, "pages")
        seeds = os.path.join(smoke_corpus, "seeds.parquet")
        script = (
            "import ray\n"
            "ray.init(address='local', num_cpus=2, include_dashboard=False)\n"
            "from scrupyst_ray.config import CrawlConfig\n"
            "from scrupyst_ray.pipelines.crawl import CrawlEngine\n"
            "cfg = CrawlConfig(seen_shards=4, fetch_buckets=4)\n"
            f"for wd in {[str(tmp_path / 'wd0'), str(tmp_path / 'wd1')]!r}:\n"
            f"    CrawlEngine.for_corpus({pages!r}, wd, cfg).init_frontier({seeds!r})\n"
            "ray.shutdown()\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=dict(os.environ, RAY_ADDRESS="local"),
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "available CPUs" not in out.stdout + out.stderr

    def test_no_schema_drift_warnings(self, smoke_corpus, tmp_path, monkeypatch):
        """Rounds that admit fewer rows than there are fetch ranges, and
        capped rounds that leave a shard without candidates, log no Ray
        Data "different schema" warning; nor does building the page store,
        nor a 64-bucket page store (most buckets
        of the smoke corpus hold pages, a few do not), nor ``init_frontier``
        over the five-row seed file (more read blocks than rows would leave
        empty ones)."""
        from scrupyst_ray.pipelines import crawl
        from scrupyst_ray.stages.fetch import build_page_store

        parts = 16
        monkeypatch.setattr(crawl, "_fetch_parts", lambda cfg, rows, n_cpus: parts)

        cfg = _cfg()
        cfg.max_round_candidates = 25
        with _schema_warnings() as messages:
            eng = CrawlEngine.for_corpus(
                os.path.join(smoke_corpus, "pages"), str(tmp_path / "wd"), cfg
            )
            eng.init_frontier(os.path.join(smoke_corpus, "seeds.parquet"))
            res = eng.run(max_rounds=4)
            pages = os.path.join(smoke_corpus, "pages")
            build_page_store(pages, str(tmp_path / "store64"), 64)
        eng.shutdown_actors()

        assert min(r.admitted for r in res.rounds) < parts
        assert any(r.cap_s > 0 for r in res.rounds)
        assert not messages


@pytest.mark.usefixtures("ray_session")
class TestQuerySchemaDrift:
    """The "no different schema warning" rule of the crawl's exchanges,
    held for a curation query."""

    def test_token_stats_by_lang(self, tmp_path):
        """A per-language query over a table read as more blocks than it
        has languages logs no "different schema" warning either (a
        few-key groupby would leave empty partitions)."""
        import duckdb
        import pyarrow as pa

        import __ray_entry__
        from scrupyst_ray.pipelines.textstats import token_stats_by_lang

        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(40), pa.int64()),
                    "text": pa.array([f"w{i} x y" for i in range(40)]),
                    "lang": pa.array(["en", "de"] * 20),
                    "source": pa.array(["s"] * 40),
                    "n_chars": pa.array([6] * 40, pa.int64()),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        with _schema_warnings() as messages:
            got = token_stats_by_lang(str(tmp_path)).to_pandas()
        assert not messages

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM read_parquet("
            f"'{tmp_path}/documents.parquet')"
        )
        want = con.execute(__ray_entry__.oracle_sql()["token_stats_by_lang"]).fetchdf()
        assert got.values.tolist() == want.values.tolist()
