"""The fleet chaos plug-in: determinism, oracles, fixed-seed campaign."""

from repro.sim.chaos import (
    execute_schedule,
    generate_schedule,
    run_campaign,
    run_chaos,
)
from repro.sim.shard_harness import FAILPOINTS, ShardChaosConfig


def test_schedule_is_deterministic():
    a = generate_schedule(ShardChaosConfig(seed=3))
    b = generate_schedule(ShardChaosConfig(seed=3))
    assert [e.describe() for e in a] == [e.describe() for e in b]


def test_schedule_guarantees_failure_kinds_and_failpoints():
    events = generate_schedule(ShardChaosConfig(seed=1, n_events=60))
    kinds = {e.kind for e in events}
    assert "shard_crash" in kinds
    assert "shard_partition" in kinds
    armed = {e.payload["when"] for e in events if e.kind == "shard_crash"}
    for failpoint in FAILPOINTS:
        assert failpoint in armed


def test_execution_is_deterministic():
    config = ShardChaosConfig(seed=5)
    events = generate_schedule(config)
    first = execute_schedule(config, events)
    second = execute_schedule(ShardChaosConfig(seed=5), events)
    assert first.trace_text() == second.trace_text()
    assert first.ok


def test_fixed_seed_campaign_no_violations():
    campaign = run_campaign(ShardChaosConfig(n_events=50).campaign(8))
    assert campaign.ok, "\n\n".join(
        failure.trace_text() for failure in campaign.failures)
    # The campaign must actually have exercised the machinery.
    assert campaign.all_failure_kinds_covered()
    assert campaign.counters["committed_txns"] > 50
    assert campaign.counters["xtxn_committed"] > 5
    assert campaign.counters["interrupted_commits"] >= 1
    assert campaign.counters["reopens"] >= 1
    assert campaign.counters["served_while_down"] >= 1
    assert campaign.counters["rebalances"] > 0


def test_eager_restart_mode_also_passes():
    result = run_chaos(ShardChaosConfig(seed=2, n_events=40,
                                        restart_mode="eager"))
    assert result.ok, result.trace_text()


def test_single_run_reports_counters():
    result = run_chaos(ShardChaosConfig(seed=0))
    assert result.ok, result.trace_text()
    assert result.counters["committed_txns"] > 0
    assert result.event_counts.get("client", 0) > 0
