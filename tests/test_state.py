"""Unit tests for the host-sharded state: bloom, seen set, politeness.

Mirrors the reference's dupefilter / scheduler test strategy
(``tests/test_dupefilters.py:60-153``, ``tests/test_scheduler.py:127-290``;
see FIXTURES.md §4-5) — plain classes, without Ray; only building the page
store that ``TestStoreRobots`` reads needs a Ray session."""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrupyst_ray.state import seen
from scrupyst_ray.state.bloom import Bloom
from scrupyst_ray.state.politeness import (
    ADMITTED,
    DEFERRED,
    ROBOTS_FORBIDDEN,
    PolitenessState,
    budget_draw,
)
from scrupyst_ray.state.seen import SeenState
from scrupyst_ray.state.shard import SEEN_DUP, _ShardGroup, _StateShard


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

    def test_add_sets_every_bit(self):
        """A small filter makes one batch repeat bytes many times over; every
        bit must still land (reference: np.bitwise_or.at)."""
        b = Bloom(capacity=1024)
        keys = np.arange(5_000, dtype=np.uint64)
        b.add_many(keys)
        pos = b._positions(keys).ravel()
        want = np.zeros_like(b._bits)
        np.bitwise_or.at(want, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
        assert np.array_equal(b._bits, want)

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

    def test_load_delta_keeps_earliest_round(self, tmp_path):
        """A fingerprint in several delta files keeps the earliest round,
        whatever order the files load in."""
        fps = [_fp(1)]
        for rnd in (1, 2):
            s = SeenState(0)
            s.check_and_add(rnd, fps, _fp64(fps))
            s.flush_delta(str(tmp_path / f"round={rnd}.parquet"))
        s = SeenState(0)
        s.load_delta(str(tmp_path / "round=2.parquet"), 2)
        s.load_delta(str(tmp_path / "round=1.parquet"), 1)
        assert len(s) == 1
        assert s.check_and_add(2, fps, _fp64(fps)).tolist() == [False]

    def test_rejects_fingerprints_of_wrong_width(self):
        s = SeenState(0)
        assert s.check_and_add(0, [], _fp64([])).tolist() == []
        fps = [b"short-fingerprint"]
        with pytest.raises(ValueError):
            s.check_and_add(0, fps, _fp64(fps))
        assert len(s) == 0

    def test_stats_count_bloom_negatives_and_filtered(self):
        """An empty state answers every key from the bloom; a retry of the
        recording round filters nothing, a later round filters them all."""
        s = SeenState(0)
        fps = [_fp(i) for i in range(3)]
        s.check_and_add(0, fps, _fp64(fps))
        assert s.stats == {"checked": 3, "filtered": 0, "bloom_negatives": 3}
        s.check_and_add(0, fps, _fp64(fps))
        assert s.stats == {"checked": 6, "filtered": 0, "bloom_negatives": 3}
        s.check_and_add(1, fps, _fp64(fps))
        assert s.stats == {"checked": 9, "filtered": 3, "bloom_negatives": 3}

    def test_shared_prefix_stays_exact(self):
        """Fingerprints that share their first 8 bytes share fp64, so the
        bloom cannot tell them apart; the exact lanes must."""
        prefix = b"samehead"
        fps = [prefix + bytes([i]) * 12 for i in (0, 1, 2)]
        s = SeenState(0)
        assert s.check_and_add(0, fps[:2], _fp64(fps[:2])).tolist() == [True] * 2
        out = s.check_and_add(1, fps, _fp64(fps))
        assert out.tolist() == [False, False, True]
        assert len(s) == 3

    def test_merge_across_many_chunks(self, tmp_path):
        """Batches larger than the merge chunk, each half seen before, land
        interleaved through the lanes: answers match a set, the lanes stay
        sorted, and a flush writes every fingerprint once."""
        rng = np.random.default_rng(7)
        s = SeenState(0)
        model: set[bytes] = set()
        old = np.empty((0, 20), np.uint8)
        for rnd in range(3):
            new = rng.integers(0, 256, (seen._CHUNK, 20), dtype=np.uint8)
            rows = np.concatenate([new, old[: seen._CHUNK // 2]])
            keys = [r.tobytes() for r in rows]
            want = [k not in model for k in keys]
            fp64 = rows[:, :8].copy().view(">u8").ravel().astype(np.uint64)
            out = s.check_and_add(rnd, rows.view("S20").ravel(), fp64)
            assert out.tolist() == want
            model.update(keys)
            old = new
        assert len(s) == len(model)
        hi = s._hi[: len(s)]
        assert (hi[1:] >= hi[:-1]).all()
        path = str(tmp_path / "round=2.parquet")
        assert s.flush_delta(path) == len(model)
        assert set(pq.read_table(path)["fp"].to_pylist()) == model


# Few 8-byte prefixes, so fp64 collides across distinct fingerprints, and
# tails that end in NUL bytes (numpy's S dtype strips those in tolist()).
_FINGERPRINTS = st.builds(
    bytes.__add__,
    st.sampled_from([bytes(8), b"\x01" * 8, b"shared-8"])
    | st.binary(min_size=8, max_size=8),
    st.sampled_from([bytes(12), b"t" + bytes(11), bytes(11) + b"\x01"])
    | st.binary(min_size=12, max_size=12),
)
_STEPS = st.lists(
    st.tuples(
        st.integers(0, 6),  # round (any order)
        st.lists(_FINGERPRINTS, unique=True, max_size=12),  # deduped batch
        st.booleans(),  # re-deliver the batch in the same round (task retry)
        st.booleans(),  # flush the delta, restore every delta into a new state
    ),
    max_size=12,
)


@pytest.mark.parametrize("chunk", [4, seen._CHUNK])
@settings(max_examples=300, deadline=None)
@given(steps=_STEPS)
def test_seen_state_matches_dict_model(chunk, steps):
    """SeenState against a plain dict of fingerprint -> first round.  A
    4-entry merge chunk makes the in-place merge shift many chunks."""
    model: dict[bytes, int] = {}
    pending: set[bytes] = set()
    deltas: list[tuple[str, int]] = []
    state = SeenState(0)
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(seen, "_CHUNK", chunk),
    ):
        for i, (rnd, batch, retry, restart) in enumerate(steps):
            want = [model.get(fp, rnd) == rnd for fp in batch]
            for fp in batch:
                if fp not in model:
                    model[fp] = rnd
                    pending.add(fp)
            for _ in range(1 + retry):
                assert state.check_and_add(rnd, batch, _fp64(batch)).tolist() == want
            assert len(state) == len(model)
            if restart:
                path = os.path.join(tmp, f"round={i}.parquet")
                assert state.flush_delta(path) == len(pending)
                table = pq.read_table(path)
                fps = table["fp"].to_pylist()
                assert sorted(fps) == sorted(pending)
                assert table["fp64"].to_pylist() == _fp64(fps).tolist()
                deltas.append((path, rnd))
                # restored at the delta's round
                model.update(dict.fromkeys(pending, rnd))
                pending.clear()
                state = SeenState(0)
                for path, r in deltas:
                    state.load_delta(path, r)
                assert len(state) == len(model)


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
        """A re-run round repeats the same round's gate_check: fresh,
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

    def test_restore_upto_round(self, tmp_path):
        """After restore(upto): exactly the deltas up to *upto* are seen in
        round upto+1, a later delta's fingerprints are fresh, and a retried
        round upto+1 answers the same."""
        seen_dir = str(tmp_path / "seen")
        sh = _StateShard(2, user_agent="ua")
        batches = [[_fp(i) for i in range(r * 3, r * 3 + 4)] for r in range(4)]
        for rnd, fps in enumerate(batches):
            sh.seen.check_and_add(rnd, fps, _fp64(fps))
            sh.checkpoint(seen_dir, rnd)
        upto = 2
        restored = set().union(*batches[: upto + 1])
        later = sorted(set(batches[upto + 1]) - restored)
        fresh = _StateShard(2, user_agent="ua")
        fresh.restore(seen_dir, upto_round=upto)
        assert len(fresh.seen) == len(restored)
        fps = sorted(restored) + later
        want = [False] * len(restored) + [True] * len(later)
        for _ in range(2):  # the round, then its retry
            out = fresh.seen.check_and_add(upto + 1, fps, _fp64(fps))
            assert out.tolist() == want

    def test_dont_filter_bypasses_seen(self):
        sh = _StateShard(0, user_agent="ua", per_domain_budget=8)
        fps = [_fp(1)]
        args = (["h"], ["http://h/x"])
        assert _shard_round(sh, 0, fps, [False], *args) == [ADMITTED]
        # dont_filter re-request of the same URL in a later round is admitted
        assert _shard_round(sh, 1, fps, [True], *args) == [ADMITTED]


class TestShardGroup:
    """The shards one actor process hosts, without Ray."""

    def test_checkpoint_restore_every_hosted_shard(self, tmp_path):
        """A group of shards 1 and 5 writes each shard's own delta in one
        checkpoint call and restores them in one restore call; one shard
        id builds a one-shard group over the same files."""
        seen_dir = str(tmp_path / "seen")
        group = _ShardGroup([1, 5], user_agent="ua")
        assert sorted(group.shards) == [1, 5]
        for k, sh in group.shards.items():
            fps = [_fp(10 * k + i) for i in range(k)]
            sh.seen.check_and_add(0, fps, _fp64(fps))
        assert group.checkpoint(seen_dir, 0) == 1 + 5
        assert sorted(os.listdir(seen_dir)) == ["shard=00001", "shard=00005"]
        assert _ShardGroup([1, 5], user_agent="ua").restore(seen_dir, 0) == 6
        one = _ShardGroup(5, user_agent="ua")
        assert list(one.shards) == [5]
        assert one.restore(seen_dir, 0) == 5
        assert one.warm() is None


class TestShardGate:
    """``_StateShard.gate`` over a frontier laid out on disk, without Ray:
    within-round dedup (exact URL and canonical spelling), a fingerprint
    seen in an earlier round, a robots-forbidden row, a deferred backlog
    and the per-host budget draw, in both crawl orders."""

    # (url, order_key) of the round's new candidates, all priority 0
    CANDIDATES = [
        ("http://a.test/1", 1),
        ("http://a.test/2", 2),
        ("http://a.test/1", 3),  # same URL
        ("http://a.test/3", 4),
        ("http://a.test/q?x=1&y=2", 5),
        ("http://a.test/q?y=2&x=1", 6),  # same fingerprint
        ("http://b.test/private/x", 7),  # robots-forbidden
        ("http://b.test/ok", 8),
        ("http://a.test/old", 9),  # seen in round 0
    ]
    DEFERRED_IN = [
        ("http://c.test/d1", 10),
        ("http://c.test/d2", 11),
        ("http://c.test/d3", 12),
    ]
    # budget 2 per host: the (url, order_key) rows admitted, and deferred
    WANT = {
        "bfo": (
            {
                ("http://a.test/1", 1),
                ("http://a.test/2", 2),
                ("http://b.test/ok", 8),
                ("http://c.test/d1", 10),
                ("http://c.test/d2", 11),
            },
            {
                ("http://a.test/3", 4),
                ("http://a.test/q?x=1&y=2", 5),
                ("http://c.test/d3", 12),
            },
        ),
        # LIFO: the later spelling wins each duplicate group, and each
        # host's budget goes to its highest order_keys
        "dfo": (
            {
                ("http://a.test/3", 4),
                ("http://a.test/q?y=2&x=1", 6),
                ("http://b.test/ok", 8),
                ("http://c.test/d2", 11),
                ("http://c.test/d3", 12),
            },
            {
                ("http://a.test/1", 3),
                ("http://a.test/2", 2),
                ("http://c.test/d1", 10),
            },
        ),
    }

    @staticmethod
    def _rows(cfg, pairs, fingerprints):
        from scrupyst_ray.functions.urlnorm import parse_host
        from scrupyst_ray.stages.frontier import frontier_rows

        urls = [u for u, _ in pairs]
        return frontier_rows(
            cfg,
            urls,
            [parse_host(u) for u in urls],
            depth=[1] * len(urls),
            priority=[0] * len(urls),
            order_key=[k.to_bytes(8, "big") for _, k in pairs],
            dont_filter=False,
            fingerprints=fingerprints,
        )

    def _round(self, tmp_path, order_mode):
        """Lay out round 1's frontier, then gate it twice: (first
        (admitted rows, count), second (admitted rows, count), first-call
        files, second-call files)."""
        from scrupyst_ray.config import CrawlConfig
        from scrupyst_ray.functions.fingerprint import fingerprint_batch
        from scrupyst_ray.stages.exchange import (
            candidates_dir,
            write_candidates,
            write_deferred,
        )

        cfg = CrawlConfig(seen_shards=1, fetch_buckets=4)
        fdir, nf_dir = str(tmp_path / "f1"), str(tmp_path / "f2")
        stats_dir = str(tmp_path / "gate_stats")
        write_candidates(
            self._rows(cfg, self.CANDIDATES, False), candidates_dir(fdir), 7
        )
        deferred = self._rows(cfg, self.DEFERRED_IN, True)
        deferred = deferred.set_column(
            deferred.schema.get_field_index("already_enqueued"),
            "already_enqueued",
            pa.array([True] * deferred.num_rows),
        )
        write_deferred(deferred, fdir, 0)

        sh = _StateShard(0, user_agent=cfg.user_agent, per_domain_budget=2)
        sh.politeness.load_robots_bodies(["b.test"], [ROBOTS])
        old = fingerprint_batch(pa.table({"url": ["http://a.test/old"]}))
        sh.seen.check_and_add(0, old["fp"].to_pylist(), old["fp64"].to_numpy())

        rdir = str(tmp_path / "round-000001")
        args = (1, fdir, nf_dir, stats_dir, rdir, order_mode)
        first = self._admitted(rdir, sh.gate(*args))
        files = self._files(nf_dir, stats_dir)
        second = self._admitted(rdir, sh.gate(*args))
        return first, second, files, self._files(nf_dir, stats_dir)

    @staticmethod
    def _admitted(round_dir, count):
        """(the rows of shard 0's admitted file, the gate's count)."""
        from scrupyst_ray.stages.exchange import admitted_path, read_exchange_file

        return read_exchange_file(admitted_path(round_dir, 0)), count

    @staticmethod
    def _files(nf_dir, stats_dir):
        """(deferred rows written, sidecar without its timings)."""
        import json

        from scrupyst_ray.stages.exchange import read_shard

        cands, deferred = read_shard(nf_dir, 0)
        assert cands is None
        with open(os.path.join(stats_dir, "shard=00000.json")) as f:
            sidecar = json.load(f)
        assert set(sidecar.pop("phase_s")) == {"read", "dedup", "rpc", "draw"}
        return deferred, sidecar

    @pytest.mark.parametrize("order_mode", ["bfo", "dfo"])
    def test_gate_admits_defers_and_counts(self, tmp_path, order_mode):
        from scrupyst_ray.functions.fingerprint import fingerprint_batch
        from scrupyst_ray.state.shard import ADMITTED_SCHEMA, FETCH_SPLIT

        (admitted, count), _, (deferred, sidecar), _ = self._round(
            tmp_path, order_mode
        )
        want_admitted, want_deferred = self.WANT[order_mode]

        def pairs(t):
            keys = [int.from_bytes(k, "big") for k in t["order_key"].to_pylist()]
            return set(zip(t["url"].to_pylist(), keys))

        assert admitted.schema == ADMITTED_SCHEMA
        assert count == admitted.num_rows == len(want_admitted)
        assert pairs(admitted) == want_admitted
        # the fetch tasks read their key ranges out of the file by binary
        # search
        keys = admitted["fetch_key"].to_pylist()
        assert keys == sorted(keys)
        # lazy fingerprints are filled in, and the fetch key is the row's
        # store bucket sub-split by fp64
        fps = fingerprint_batch(admitted.select(["url"]))
        assert admitted["fp"].to_pylist() == fps["fp"].to_pylist()
        assert admitted["fp64"].to_pylist() == fps["fp64"].to_pylist()
        buckets, fp64 = admitted["bucket"].to_pylist(), admitted["fp64"].to_pylist()
        want_key = [b * FETCH_SPLIT + f % FETCH_SPLIT for b, f in zip(buckets, fp64)]
        assert admitted["fetch_key"].to_pylist() == want_key

        assert pairs(deferred) == want_deferred
        assert all(deferred["already_enqueued"].to_pylist())
        assert sidecar == {
            "shard": 0,
            "total": len(self.CANDIDATES) + len(self.DEFERRED_IN),
            "admitted": len(want_admitted),
            "deferred": len(want_deferred),
            "robots_forbidden": 1,
            "dupefilter_filtered": 3,  # two local duplicates, one seen
        }

    @pytest.mark.parametrize("order_mode", ["bfo", "dfo"])
    def test_same_round_twice_is_identical(self, tmp_path, order_mode):
        """A re-run round calls the gate again for the same round: it must
        return the same count and write equal files."""
        first, second, files_1, files_2 = self._round(tmp_path, order_mode)
        assert first[1] == second[1]
        assert first[0].equals(second[0])
        assert files_1[0].equals(files_2[0])
        assert files_1[1] == files_2[1]

    def test_shard_without_rows(self, tmp_path):
        sh = _StateShard(0, user_agent="ua")
        stats_dir, rdir = str(tmp_path / "gate_stats"), str(tmp_path / "round")
        count = sh.gate(
            0, str(tmp_path / "f0"), str(tmp_path / "f1"), stats_dir, rdir, "bfo"
        )
        assert count == 0
        assert not os.path.exists(stats_dir) and not os.path.exists(rdir)


@pytest.mark.usefixtures("ray_session")
class TestStoreRobots:
    """A shard with a page store reads each host's robots.txt from it the
    first time the host is looked up, by the rule ``tests/crawl_sim.py``
    states: the page at ``http://{host}/robots.txt``, else
    ``https://{host}/robots.txt``, else allow-all."""

    UA = "scrupyst-ray/0.1"
    BLOCK_ALL = b"User-agent: *\nDisallow: /\n"
    ROBOTS_PAGES = {
        "http://a.test/robots.txt": ROBOTS,  # http only
        "https://b.test/robots.txt": BLOCK_ALL,  # https only
        "http://c.test/robots.txt": b"User-agent: *\nDisallow: /y\nCrawl-delay: 4\n",
        "https://c.test/robots.txt": BLOCK_ALL,  # both: http wins
        # d.test has none; e.test's is nested, an ordinary page
        "http://e.test/docs/robots.txt": BLOCK_ALL,
    }
    HOSTS = ["a.test", "b.test", "c.test", "d.test", "e.test"]
    BUCKETS = 4

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        from scrupyst_ray.sources.corpus import PAGES_SCHEMA
        from scrupyst_ray.stages.fetch import build_page_store

        pages = dict(self.ROBOTS_PAGES)
        pages.update({f"http://{h}/page": b"<html></html>" for h in self.HOSTS})
        root = tmp_path_factory.mktemp("robots_store")
        pq.write_table(
            pa.table(
                {
                    "url": list(pages),
                    "warc_ts": pa.array([0] * len(pages), pa.timestamp("us")),
                    "html": list(pages.values()),
                    "text": [""] * len(pages),
                    "lang": ["en"] * len(pages),
                },
                schema=PAGES_SCHEMA,
            ),
            root / "pages.parquet",
        )
        return build_page_store(str(root), str(root / "store"), self.BUCKETS)

    def _reads(self, monkeypatch) -> list[int]:
        """The buckets the page store is probed for, one entry a probe."""
        from scrupyst_ray.stages import fetch

        reads: list[int] = []
        bucket_dataset = fetch._bucket_dataset

        def counted(store_dir, bucket):
            reads.append(bucket)
            return bucket_dataset(store_dir, bucket)

        monkeypatch.setattr(fetch, "_bucket_dataset", counted)
        return reads

    def _check(self, sh: _StateShard, round_id: int, urls: list[str]) -> dict:
        hosts = [u.split("/")[2] for u in urls]
        fps = [_fp(1000 * round_id + i) for i in range(len(urls))]
        skip = np.zeros(len(urls), bool)
        return sh.gate_check(round_id, fps, _fp64(fps), skip, hosts, urls, self.HOSTS)

    def test_rules_from_the_store_read_once(self, store, monkeypatch):
        from scrupyst_ray.functions.hashing import bucket_of
        from scrupyst_ray.functions.robots import parse_robots

        urls = [f"http://{h}/{p}" for h in self.HOSTS for p in ("ok", "private/x", "y")]
        reads = self._reads(monkeypatch)
        sh = _StateShard(
            0,
            user_agent=self.UA,
            per_domain_budget=8,
            round_seconds=8.0,
            store_dir=store,
            fetch_buckets=self.BUCKETS,
        )
        res = self._check(sh, 0, urls)
        probed = [
            f"{s}://{h}/robots.txt" for h in self.HOSTS for s in ("http", "https")
        ]
        assert sorted(reads) == sorted(set(bucket_of(probed, self.BUCKETS).tolist()))

        def rules(host):
            url = f"http://{host}/robots.txt"
            if url not in self.ROBOTS_PAGES:
                url = f"https://{host}/robots.txt"
            return parse_robots(self.ROBOTS_PAGES.get(url))

        want_ok = [rules(u.split("/")[2]).allowed(u, self.UA) for u in urls]
        assert res["robots_ok"].tolist() == want_ok
        # per host (ok, private/x, y): a blocks /private, b all, c /y
        assert [want_ok[i : i + 3] for i in range(0, len(urls), 3)] == [
            [True, False, True],
            [False] * 3,
            [True, True, False],
            [True] * 3,  # d.test: no robots.txt
            [True] * 3,  # e.test: only a nested one
        ]
        delays = [rules(h).crawl_delay(self.UA) for h in self.HOSTS]
        want_budgets = [8 // d if d else 8 for d in delays]
        assert res["budgets"].tolist() == want_budgets == [4, 8, 2, 8, 8]

        # the same hosts again: every rule is already installed
        reads.clear()
        again = self._check(sh, 1, urls)
        assert reads == []
        assert again["robots_ok"].tolist() == want_ok
        assert again["budgets"].tolist() == res["budgets"].tolist()

    def test_obey_off_reads_nothing(self, store, monkeypatch):
        reads = self._reads(monkeypatch)
        sh = _StateShard(
            0,
            user_agent=self.UA,
            robotstxt_obey=False,
            store_dir=store,
            fetch_buckets=self.BUCKETS,
        )
        urls = [f"http://{h}/private/x" for h in self.HOSTS]
        res = self._check(sh, 0, urls)
        assert reads == []
        assert res["robots_ok"].all()
        # the group's warm still pays the reader set-up with one probe
        group = _ShardGroup(
            [0, 2], user_agent=self.UA, store_dir=store, fetch_buckets=self.BUCKETS
        )
        assert group.warm() is None
        assert len(reads) == 1
