"""The bench's span tree pinned *across commits*.

``bench/trace.py`` wraps public methods of the engine's classes; the
per-layer metrics subtract one span's time from its parent's.  A change
that drops a wrapped method from a path, calls it once more, or moves it
under another parent moves those metrics while every count stays put.
This pins, for two seeded streams driven by the bench's own runner, and
for each client-op class, the multiset of ``(span, parent span)`` pairs
the tracer records:

* ``kv_hot_embedded`` — the smoke-scale stream of that workload (seed 1)
  through the embedded client;
* ``kv_fleet_inproc`` — the same-scale stream of ``kv_fleet_process``
  (seed 1) through an in-process 2-shard fleet, the router's spans and
  each worker's engine spans together.

A change that means to move the shape regenerates in the same diff and
says why in CHANGES.md::

    PYTHONPATH=src python tests/test_trace_shape.py --regen
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_trace_shape.json")

#: stream name -> (bench workload, transport)
CASES = {
    "kv_hot_embedded": ("kv_hot_embedded", "process"),
    "kv_fleet_inproc": ("kv_fleet_process", "inproc"),
}
SEED = 1


def _shape(workload_name: str, transport: str) -> dict[str, dict[str, int]]:
    from bench.run import SMOKE_ROUND_OPS, SMOKE_ROUNDS
    from bench.runner import Runner
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    runner = Runner(workload, SEED, workload.records // 20, SMOKE_ROUND_OPS,
                    SMOKE_ROUNDS, tracer=Tracer(), transport=transport)
    try:
        runner.setup()
        runner.run()
    finally:
        runner.close()
    tracer = runner.tracer
    spans = list(tracer.spans())
    name_of = {sid: tracer.names[name_id]
               for sid, name_id, _s, _e, _p, _op in spans}
    pairs: dict[str, Counter[str]] = {}
    for _sid, name_id, _start, _end, parent, op in spans:
        if op < 0:
            continue  # maintenance and recovery entry points, not client ops
        above = name_of.get(parent, "-") if parent >= 0 else "-"
        pairs.setdefault(runner.op_class[op], Counter())[
            f"{tracer.names[name_id]} < {above}"] += 1
    return {cls: dict(sorted(counts.items()))
            for cls, counts in sorted(pairs.items())}


def test_trace_shape_matches_golden() -> None:
    golden = json.loads(GOLDEN.read_text())
    for name, case in CASES.items():
        ours = _shape(*case)
        moved = {f"{cls}: {pair}": (golden[name].get(cls, {}).get(pair),
                                    ours.get(cls, {}).get(pair))
                 for cls in sorted(set(golden[name]) | set(ours))
                 for pair in sorted(set(golden[name].get(cls, {}))
                                    | set(ours.get(cls, {})))
                 if golden[name].get(cls, {}).get(pair)
                 != ours.get(cls, {}).get(pair)}
        assert not moved, f"'{name}' span pairs moved (golden, ours): {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {name: _shape(*case) for name, case in sorted(CASES.items())},
        indent=1) + "\n")
    print(f"wrote {GOLDEN}")
