"""AutoThrottle (ST5) + DOWNLOAD_SLOTS tests.

Formula parity with the reference controller
(``scrapy/extensions/throttle.py:104-129``): target = latency /
target_concurrency; new = max(target, (old + target) / 2) clamped to
[min_delay, max_delay]; no decrease on a non-200 observation.  Slot
overrides: ``scrapy/core/downloader/__init__.py:148-167``.
"""

import numpy as np
import pyarrow as pa
import pytest

from scrupyst_ray.state.politeness import (
    ADMITTED,
    DEFERRED,
    PolitenessState,
    budget_draw,
)
from scrupyst_ray.state.shard import _StateShard
from scrupyst_ray.state.throttle import AutoThrottleState


class TestAdjustFormula:
    def test_starts_at_start_delay(self):
        at = AutoThrottleState(start_delay=5.0)
        assert at.delay_for("a.example") == 5.0

    def test_start_delay_floored_by_min(self):
        at = AutoThrottleState(start_delay=1.0, min_delay=3.0)
        assert at.delay_for("a.example") == 3.0

    def test_slow_host_raises_delay_to_latency(self):
        # latency 20 > old 5: target=20, mean=12.5 → max → 20
        at = AutoThrottleState(start_delay=5.0, max_delay=60.0)
        at.observe_round(0, ["h"], [20.0], [True])
        assert at.delay_for("h") == 20.0

    def test_fast_host_converges_halfway(self):
        # latency 1 < old 5: target=1, new=(5+1)/2=3 (mean, not target)
        at = AutoThrottleState(start_delay=5.0, min_delay=0.5)
        at.observe_round(0, ["h"], [1.0], [True])
        assert at.delay_for("h") == 3.0
        at.observe_round(1, ["h"], [1.0], [True])
        assert at.delay_for("h") == 2.0

    def test_clamped_to_max(self):
        at = AutoThrottleState(start_delay=5.0, max_delay=10.0)
        at.observe_round(0, ["h"], [100.0], [True])
        assert at.delay_for("h") == 10.0

    def test_clamped_to_min(self):
        at = AutoThrottleState(start_delay=5.0, min_delay=2.0)
        for r in range(20):
            at.observe_round(r, ["h"], [0.0], [True])
        assert at.delay_for("h") == 2.0

    def test_no_decrease_on_error(self):
        # error pages are small/fast; lowering delay on them is the positive
        # feedback the reference guards against (throttle.py:123-129)
        at = AutoThrottleState(start_delay=5.0, min_delay=0.0)
        at.observe_round(0, ["h"], [0.1], [False])
        assert at.delay_for("h") == 5.0

    def test_increase_allowed_on_error(self):
        at = AutoThrottleState(start_delay=5.0, max_delay=60.0)
        at.observe_round(0, ["h"], [30.0], [False])
        assert at.delay_for("h") == 30.0

    def test_target_concurrency_divides_latency(self):
        at = AutoThrottleState(start_delay=5.0, target_concurrency=4.0)
        at.observe_round(0, ["h"], [40.0], [True])  # target = 10
        assert at.delay_for("h") == 10.0

    def test_round_replay_is_idempotent(self):
        at = AutoThrottleState(start_delay=5.0)
        at.observe_round(0, ["h"], [20.0], [True])
        once = at.delay_for("h")
        at.observe_round(0, ["h"], [20.0], [True])  # redelivered round
        assert at.delay_for("h") == once

    def test_invalid_target_concurrency(self):
        with pytest.raises(ValueError):
            AutoThrottleState(target_concurrency=0.0)


class TestCheckpointRestore:
    def test_snapshot_roundtrip(self, tmp_path):
        at = AutoThrottleState(start_delay=5.0)
        at.observe_round(0, ["a", "b"], [20.0, 1.0], [True, True])
        p = str(tmp_path / "throttle=000000.parquet")
        assert at.snapshot(p) == 2
        fresh = AutoThrottleState(start_delay=5.0)
        fresh.restore(p)
        assert fresh.delay_for("a") == at.delay_for("a")
        assert fresh.delay_for("b") == at.delay_for("b")
        assert fresh.delay_for("unseen") == 5.0

    def test_shard_checkpoint_includes_throttle(self, tmp_path):
        shard = _StateShard(
            0,
            user_agent="ua",
            download_delay=0.5,
            throttle_config={"start_delay": 5.0, "max_delay": 60.0,
                             "target_concurrency": 1.0},
        )
        shard.observe_round(0, ["h"], [20.0], [True])
        shard.checkpoint(str(tmp_path), 0)
        resumed = _StateShard(
            0,
            user_agent="ua",
            download_delay=0.5,
            throttle_config={"start_delay": 5.0, "max_delay": 60.0,
                             "target_concurrency": 1.0},
        )
        resumed.restore(str(tmp_path), 0)
        assert resumed.throttle.delay_for("h") == shard.throttle.delay_for("h")

    def test_restore_ignores_future_rounds(self, tmp_path):
        shard = _StateShard(
            0, user_agent="ua",
            throttle_config={"start_delay": 5.0, "max_delay": 60.0,
                             "target_concurrency": 1.0},
        )
        shard.observe_round(0, ["h"], [20.0], [True])
        shard.checkpoint(str(tmp_path), 0)
        shard.observe_round(1, ["h"], [40.0], [True])
        shard.checkpoint(str(tmp_path), 1)
        resumed = _StateShard(
            0, user_agent="ua",
            throttle_config={"start_delay": 5.0, "max_delay": 60.0,
                             "target_concurrency": 1.0},
        )
        resumed.restore(str(tmp_path), 0)  # resume AT round 1 → state ≤ 0
        assert resumed.throttle.delay_for("h") == 20.0


def _draw(p: PolitenessState, host: str, n: int) -> list[int]:
    """Budget-draw *n* equal-priority rows of *host* against
    ``p.budgets``: ADMITTED (0) / DEFERRED (1) per row, in input order."""
    rows = pa.table(
        {
            "host": [host] * n,
            "priority": pa.array([0] * n, pa.int64()),
            "order_key": [i.to_bytes(4, "big") for i in range(n)],
        }
    )
    order, admit = budget_draw(rows, [host], p.budgets([host]))
    out = np.empty(n, dtype=np.int64)
    out[order] = np.where(admit, ADMITTED, DEFERRED)
    return out.tolist()


class TestBudgetIntegration:
    def test_throttle_delay_drives_budget(self):
        at = AutoThrottleState(start_delay=2.0)
        p = PolitenessState(0, user_agent="ua", round_seconds=8.0, throttle=at)
        # fresh host: delay 2 → budget 8/2 = 4
        assert _draw(p, "h", 6) == [0, 0, 0, 0, 1, 1]  # 4 admitted, 2 deferred
        at.observe_round(0, ["h"], [8.0], [True])  # slow → delay 8
        assert _draw(p, "h", 3) == [0, 1, 1]  # budget 8/8 = 1

    def test_download_slots_override_delay(self):
        p = PolitenessState(
            0, user_agent="ua", per_domain_budget=8, round_seconds=8.0,
            download_slots={"slow.example": {"delay": 4.0}},
        )
        assert _draw(p, "slow.example", 4) == [0, 0, 1, 1]  # 8/4 = 2 admitted
        assert _draw(p, "fast.example", 4) == [0, 0, 0, 0]  # default budget 8

    def test_download_slots_override_concurrency(self):
        p = PolitenessState(
            0, user_agent="ua", per_domain_budget=8, round_seconds=8.0,
            download_slots={"tight.example": {"concurrency": 1}},
        )
        assert _draw(p, "tight.example", 3) == [0, 1, 1]

    def test_robots_crawl_delay_still_wins_over_throttle(self):
        at = AutoThrottleState(start_delay=1.0)
        p = PolitenessState(0, user_agent="ua", round_seconds=8.0, throttle=at)
        p.load_robots_bodies(["h"], [b"User-agent: *\nCrawl-delay: 8\n"])
        assert _draw(p, "h", 3) == [0, 1, 1]  # max(throttle 1, crawl-delay 8) → 1/round
