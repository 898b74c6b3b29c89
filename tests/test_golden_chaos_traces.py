"""Chaos traces pinned *across commits*.

CI's ``chaos-smoke`` job diffs two runs of the same commit, so it proves
determinism but not stability: a refactor that shifts every trace (one
more log record, one more simulated microsecond before an armed crash)
still passes.  This test recomputes the sha256 of
``execute_schedule(...).trace_text()`` for fixed seeds of both harnesses
and compares it with ``tests/golden_chaos_traces.json``.

A digest may change only when the change *means* to move simulated time,
log bytes or recovery order; then regenerate in the same diff and say
why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_chaos_traces.py --regen

To see *what* moved, run ``python -m repro.sim.harness --seed N
--restart-mode M --restore-mode M`` at both commits and diff the output.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.sim import harness, shard_harness

GOLDEN = Path(__file__).with_name("golden_chaos_traces.json")
SEEDS = (11, 42)
SHARD_SEED = 5


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _engine_case(seed: int, restart_mode: str, restore_mode: str) -> str:
    config = harness.ChaosConfig(seed=seed, restart_mode=restart_mode,
                                 restore_mode=restore_mode)
    events = harness.generate_schedule(config)
    return _digest(harness.execute_schedule(config, events).trace_text())


def _shard_case() -> str:
    config = shard_harness.ShardChaosConfig(seed=SHARD_SEED)
    events = shard_harness.generate_schedule(config)
    return _digest(shard_harness.execute_schedule(config, events).trace_text())


CASES = {
    f"engine seed={seed} restart={restart} restore={restore}":
        (_engine_case, (seed, restart, restore))
    for seed in SEEDS for restart, restore in harness.MODE_COMBOS
}
CASES[f"shard seed={SHARD_SEED}"] = (_shard_case, ())


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN.read_text())
    compute, args = CASES[name]
    assert compute(*args) == golden[name], (
        f"chaos trace '{name}' moved; see this module's docstring")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {name: compute(*args) for name, (compute, args) in sorted(CASES.items())},
        indent=2) + "\n")
    print(f"wrote {GOLDEN}")
