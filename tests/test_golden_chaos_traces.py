"""Chaos traces pinned *across commits*.

Two runs of one commit agreeing proves determinism but not stability: a
refactor that shifts every trace (one more log record, one more
simulated microsecond before an armed crash) still agrees with itself.
This test recomputes the sha256 of ``execute_schedule(...).trace_text()``
for fixed seeds of both chaos plug-ins and compares it with
``tests/golden_chaos_traces.json`` — the same digest in every process
and at every commit, which is why CI carries no run-twice-and-diff step.

A digest may change only when the change *means* to move simulated time,
log bytes or recovery order; then regenerate in the same diff and say
why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_chaos_traces.py --regen

To see *what* moved, run ``python -m repro.sim.chaos engine --seed N
--restart-mode M --restore-mode M`` (or ``... fleet --seed N``) at both
commits and diff the output.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.sim import chaos, harness, shard_harness

GOLDEN = Path(__file__).with_name("golden_chaos_traces.json")
SEEDS = (11, 42)
SHARD_SEED = 5


def _digest(config) -> str:
    events = chaos.generate_schedule(config)
    text = chaos.execute_schedule(config, events).trace_text()
    return hashlib.sha256(text.encode()).hexdigest()


LAZY = {"restart_mode": "on_demand", "restore_mode": "on_demand"}

#: name -> the config whose trace is pinned
CASES = {
    f"engine seed={seed} restart={restart} restore={restore}":
        harness.ChaosConfig(seed=seed, restart_mode=restart,
                            restore_mode=restore)
    for seed in SEEDS for restart, restore in harness.MODE_COMBOS
}
CASES[f"shard seed={SHARD_SEED}"] = shard_harness.ShardChaosConfig(
    seed=SHARD_SEED)
# The schedules only an option reaches: the replication event family,
# a rebalance-heavy fleet run and an eager fleet.
CASES.update({
    "engine seed=42 standby ack=replicated_durable": harness.ChaosConfig(
        seed=42, standby=True, ack_mode="replicated_durable"),
    "engine seed=42 standby ship=segment on_demand": harness.ChaosConfig(
        seed=42, standby=True, ship_mode="segment", **LAZY),
    "shard seed=7 events=50": shard_harness.ShardChaosConfig(
        seed=7, n_events=50),
    "shard seed=2 events=40 restart=eager": shard_harness.ShardChaosConfig(
        seed=2, n_events=40, restart_mode="eager"),
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN.read_text())
    assert _digest(CASES[name]) == golden[name], (
        f"chaos trace '{name}' moved; see this module's docstring")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {name: _digest(config) for name, config in sorted(CASES.items())},
        indent=2) + "\n")
    print(f"wrote {GOLDEN}")
