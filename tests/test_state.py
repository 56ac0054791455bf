"""Unit tests for the host-sharded state: bloom, seen set, politeness.

Mirrors the reference's dupefilter / scheduler test strategy
(``tests/test_dupefilters.py:60-153``, ``tests/test_scheduler.py:127-290``;
see FIXTURES.md §4-5) — no Ray needed (plain classes)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from scrupyst_ray.state.bloom import Bloom
from scrupyst_ray.state.politeness import (
    ADMITTED,
    DEFERRED,
    ROBOTS_FORBIDDEN,
    PolitenessState,
    budget_draw,
)
from scrupyst_ray.state.seen import SeenState
from scrupyst_ray.state.shard import SEEN_DUP, _StateShard


def _fp(i: int) -> bytes:
    return i.to_bytes(4, "big") * 5  # 20 bytes, unique per i


def _fp64(fps: list[bytes]) -> np.ndarray:
    return np.fromiter(
        (int.from_bytes(fp[:8], "big") for fp in fps), dtype=np.uint64, count=len(fps)
    )


def _draw_into(out, live, hosts, budgets_of, priority=None, order_mode="bfo"):
    """Budget-draw the *live* rows (ADMITTED / DEFERRED into *out*), as the
    crawl gate does: one draw over (host, priority, order_key), with
    order_key = input position so ties fall back to input order."""
    live = np.asarray(live, dtype=np.int64)
    rows = pa.table(
        {
            "host": [hosts[i] for i in live],
            "priority": pa.array(
                [0 if priority is None else priority[i] for i in live], pa.int64()
            ),
            "order_key": [int(i).to_bytes(4, "big") for i in live],
        }
    )
    budget_hosts = sorted(set(rows["host"].to_pylist()))
    order, admit = budget_draw(
        rows, budget_hosts, budgets_of(budget_hosts), order_mode
    )
    out[live[order]] = np.where(admit, ADMITTED, DEFERRED)
    return out.tolist()


def _gate(p: PolitenessState, hosts, urls, **kw) -> list[int]:
    """Politeness statuses per row: robots verdict, then the budget draw."""
    out = np.full(len(urls), ROBOTS_FORBIDDEN, dtype=np.int8)
    live = np.flatnonzero(p.robots_ok(hosts, urls))
    return _draw_into(out, live, hosts, p.budgets, **kw)


def _shard_round(sh: _StateShard, round_id, fps, skip, hosts, urls) -> list[int]:
    """One shard's round as the crawl gate runs it: ONE gate_check (seen +
    robots + budgets), then the budget draw over fresh robots-ok rows."""
    budget_hosts = sorted(set(hosts))
    res = sh.gate_check(
        round_id, fps, _fp64(fps), np.asarray(skip), hosts, urls, budget_hosts
    )
    bmap = dict(zip(budget_hosts, res["budgets"]))
    fresh, ok = res["fresh"], res["robots_ok"]
    out = np.full(len(urls), SEEN_DUP, dtype=np.int8)
    out[fresh & ~ok] = ROBOTS_FORBIDDEN
    live = np.flatnonzero(fresh & ok)
    return _draw_into(out, live, hosts, lambda hs: [bmap[h] for h in hs])


class TestBloom:
    def test_no_false_negatives(self):
        b = Bloom(capacity=10_000)
        keys = np.arange(1, 5_000, dtype=np.uint64) * np.uint64(2654435761)
        b.add_many(keys)
        assert b.contains_many(keys).all()

    def test_low_false_positive_rate(self):
        b = Bloom(capacity=10_000)
        rng = np.random.default_rng(42)
        present = rng.integers(0, 2**63, 10_000, dtype=np.uint64)
        absent = rng.integers(0, 2**63, 10_000, dtype=np.uint64) | np.uint64(1 << 63)
        b.add_many(present)
        fp_rate = b.contains_many(absent).mean()
        assert fp_rate < 0.01

    def test_empty(self):
        b = Bloom(capacity=1000)
        assert b.contains_many(np.array([], dtype=np.uint64)).shape == (0,)
        assert not b.contains_many(np.array([123], dtype=np.uint64))[0]


class TestSeenState:
    def test_first_wins_then_filtered(self):
        s = SeenState(0)
        fps = [_fp(1), _fp(2), _fp(3)]
        out = s.check_and_add(0, fps, _fp64(fps))
        assert out.tolist() == [True, True, True]
        out2 = s.check_and_add(1, fps, _fp64(fps))
        assert out2.tolist() == [False, False, False]
        assert s.stats["filtered"] == 3

    def test_round_idempotence(self):
        """Re-delivery of the same round's batch (Ray task retry) must give
        identical answers and not corrupt state."""
        s = SeenState(0)
        fps = [_fp(1), _fp(2)]
        out1 = s.check_and_add(5, fps, _fp64(fps))
        out2 = s.check_and_add(5, fps, _fp64(fps))  # retry
        assert out1.tolist() == out2.tolist() == [True, True]
        assert s.check_and_add(6, fps, _fp64(fps)).tolist() == [False, False]

    def test_delta_flush_and_restore(self, tmp_path):
        s = SeenState(0)
        fps = [_fp(i) for i in range(10)]
        s.check_and_add(0, fps, _fp64(fps))
        path = str(tmp_path / "shard=0" / "round=0.parquet")
        assert s.flush_delta(path) == 10
        # new shard restores from the delta and keeps filtering
        s2 = SeenState(0)
        assert s2.load_delta(path, 0) == 10
        assert s2.check_and_add(1, fps, _fp64(fps)).tolist() == [False] * 10
        # flushing again writes an empty delta (already flushed)
        assert s.flush_delta(str(tmp_path / "d2.parquet")) == 0


ROBOTS = b"User-agent: *\nDisallow: /private\nCrawl-delay: 2\n"


class TestPoliteness:
    def _state(self, **kw) -> PolitenessState:
        kw.setdefault("user_agent", "scrupyst-ray/0.1")
        kw.setdefault("per_domain_budget", 2)
        return PolitenessState(0, **kw)

    def test_budget_per_host(self):
        p = self._state()
        hosts = ["a"] * 3 + ["b"] * 2
        urls = [f"http://{h}/x{i}" for i, h in enumerate(hosts)]
        out = _gate(p, hosts, urls)
        assert out == [ADMITTED, ADMITTED, DEFERRED, ADMITTED, ADMITTED]

    def test_budget_resets_next_round(self):
        p = self._state()
        hosts, urls = ["a"] * 3, [f"http://a/{i}" for i in range(3)]
        assert _gate(p, hosts, urls)[2] == DEFERRED
        assert _gate(p, hosts, urls)[2] == DEFERRED  # still 2/round
        assert _gate(p, ["a"], ["http://a/z"]) == [ADMITTED]

    def test_robots_forbidden(self):
        p = self._state(per_domain_budget=10)
        p.load_robots_bodies(["a"], [ROBOTS])
        out = _gate(p, ["a", "a"], ["http://a/private/x", "http://a/ok"])
        assert out == [ROBOTS_FORBIDDEN, ADMITTED]

    def test_missing_robots_allows_all(self):
        # reference robotstxt.py:128-136 — no robots ⇒ allow
        p = self._state()
        assert _gate(p, ["nowhere"], ["http://nowhere/x"]) == [ADMITTED]

    def test_crawl_delay_shrinks_budget(self):
        p = self._state(per_domain_budget=10, round_seconds=4.0)
        p.load_robots_bodies(["a"], [ROBOTS])  # crawl-delay: 2 ⇒ 4/2 = 2 per round
        hosts, urls = ["a"] * 4, [f"http://a/ok{i}" for i in range(4)]
        out = _gate(p, hosts, urls)
        assert out == [ADMITTED, ADMITTED, DEFERRED, DEFERRED]

    def test_robotstxt_obey_false(self):
        p = self._state(robotstxt_obey=False, per_domain_budget=10)
        p.load_robots_bodies(["a"], [b"User-agent: *\nDisallow: /\n"])
        assert _gate(p, ["a"], ["http://a/x"]) == [ADMITTED]

    def test_round_idempotence(self):
        """A retried gate task re-sends the same round's gate_check: fresh,
        robots verdicts and budgets must replay, not re-spend."""
        sh = _StateShard(0, user_agent="scrupyst-ray/0.1", per_domain_budget=2)
        sh.politeness.load_robots_bodies(["a"], [ROBOTS])
        fps = [_fp(i) for i in range(3)]
        hosts = ["a"] * 3
        urls = ["http://a/0", "http://a/private/1", "http://a/2"]
        args = (7, fps, _fp64(fps), np.zeros(3, bool), hosts, urls, ["a"])
        r1, r2 = sh.gate_check(*args), sh.gate_check(*args)  # retry
        for key in ("fresh", "robots_ok", "budgets"):
            assert r1[key].tolist() == r2[key].tolist(), key
        assert r1["robots_ok"].tolist() == [True, False, True]

    def test_dfo_flips_order_key_tiebreak(self):
        """At equal priority BFO spends the last budget slot on the lowest
        order_key (FIFO), DFO on the highest (LIFO); priority still wins."""
        p = self._state()
        hosts = ["a"] * 4
        urls = [f"http://a/{i}" for i in range(4)]
        prio = [0, 0, 0, 1]
        bfo = _gate(p, hosts, urls, priority=prio)
        dfo = _gate(p, hosts, urls, priority=prio, order_mode="dfo")
        assert bfo == [ADMITTED, DEFERRED, DEFERRED, ADMITTED]
        assert dfo == [DEFERRED, DEFERRED, ADMITTED, ADMITTED]


class TestStateShard:
    def test_gate_check_then_draw(self):
        sh = _StateShard(0, user_agent="scrupyst-ray/0.1", per_domain_budget=2)
        fps = [_fp(i) for i in range(5)]
        hosts = ["a", "a", "a", "b", "b"]
        urls = [f"http://{h}/p{i}" for i, h in enumerate(hosts)]
        skip = np.zeros(5, dtype=bool)
        out = _shard_round(sh, 0, fps, skip, hosts, urls)
        # host a: 2 admitted, 1 deferred; host b: 2 admitted
        assert out == [ADMITTED, ADMITTED, DEFERRED, ADMITTED, ADMITTED]
        # same fps next round: dupefilter hits (the deferred row would skip seen)
        out2 = _shard_round(sh, 1, fps, skip, hosts, urls)
        assert out2 == [SEEN_DUP] * 5
        # deferred row re-enters with skip_seen=True and gets admitted
        out3 = _shard_round(sh, 2, [fps[2]], [True], ["a"], [urls[2]])
        assert out3 == [ADMITTED]

    def test_checkpoint_restore(self, tmp_path):
        seen_dir = str(tmp_path / "seen")
        sh = _StateShard(3, user_agent="ua", per_domain_budget=8)
        fps = [_fp(i) for i in range(4)]
        hosts = ["h"] * 4
        urls = [f"http://h/{i}" for i in range(4)]
        _shard_round(sh, 0, fps, np.zeros(4, bool), hosts, urls)
        assert sh.checkpoint(seen_dir, 0) == 4
        fresh = _StateShard(3, user_agent="ua", per_domain_budget=8)
        assert fresh.restore(seen_dir, upto_round=0) == 4
        out = _shard_round(fresh, 1, fps, np.zeros(4, bool), hosts, urls)
        assert out == [SEEN_DUP] * 4

    def test_dont_filter_bypasses_seen(self):
        sh = _StateShard(0, user_agent="ua", per_domain_budget=8)
        fps = [_fp(1)]
        args = (["h"], ["http://h/x"])
        assert _shard_round(sh, 0, fps, [False], *args) == [ADMITTED]
        # dont_filter re-request of the same URL in a later round is admitted
        assert _shard_round(sh, 1, fps, [True], *args) == [ADMITTED]
