"""The work each bench workload does, pinned count by count.

Each workload of ``bench/`` runs at smoke scale (a twentieth of its
records) for rounds long enough that two maintenance checkpoints fall
inside the timed rounds, so every workload writes pages back and takes
page copies.  Summed over the timed rounds, the engine's counts of pages
written back, device page writes, page copies, misses, repairs and log
records are pinned exactly.  A change to how I/O is priced moves *when*
work finishes in simulated time, never *what* is done: it must
reproduce every count here.  The fleet runs on the in-process
transport, which counts the same work as the process one.
"""

from __future__ import annotations

import pytest

from bench.runner import Runner
from bench.workloads import WORKLOADS

#: client ops per round: the warm-up round and two timed rounds reach
#: the runner's 5 000th and 10 000th op, each a checkpoint
ROUND_OPS = 3400
ROUNDS = 2
COUNTERS = ("pages_written_back", "device_writes", "page_copies_taken",
            "buffer_misses", "single_page_recoveries", "log_records")

#: workload -> the counts above, summed over the timed rounds of seed 1
PINNED = {
    "kv_hot_embedded": (24, 28, 76, 0, 0, 9261),
    "dblp_cold_embedded": (122, 126, 106, 124, 0, 1690),
    "kv_fleet_process": (24, 32, 24, 0, 0, 10878),
    "failures_embedded": (38, 422, 21, 524, 315, 2184),
}


def timed_counts(name: str) -> tuple[int, ...]:
    workload = WORKLOADS[name]
    runner = Runner(workload, 1, workload.records // 20, ROUND_OPS, ROUNDS,
                    transport="inproc")
    try:
        runner.setup()
        timed = runner.run()
    finally:
        runner.close()
    assert runner.failed == 0
    assert sum(rnd.ops for rnd in timed) == ROUND_OPS * ROUNDS
    return tuple(sum(rnd.counters.get(counter, 0) for rnd in timed)
                 for counter in COUNTERS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_workloads_work_is_pinned(name):
    assert dict(zip(COUNTERS, timed_counts(name))) == dict(
        zip(COUNTERS, PINNED[name]))
