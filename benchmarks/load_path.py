"""Time the sorted load, stage by stage.

Loads the layered benchmark's key-value records (``bench/``'s
``failures_embedded`` set-up, seed 1: 8 000 keys in ascending order, in
the runner's 500-put ``apply_batch`` calls — the load that is most of
that workload's ``setup_s``) into a fresh deployment, and splits the
load's time, the Python functions of ``repro`` it enters and the log
records it appends among the structure changes it makes: splits (each
formats its foster child through an allocation and logs one record per
page it changes: the foster child with the moved half, once, and the
source page), adoptions (each posts a separator and logs the child's
new fences — and, when the tightened fences allow, its longer prefix —
as one record) and what is left — the descent, the leaf runs, their
log records and the commits — per record.  Inclusive: a split's row
holds its allocation, an adoption's the building of its prefix
extension's ops, which log no record of their own.

Microseconds are medians over ``--reps`` loads; the calls and records
are counted in one more load under ``sys.setprofile`` and repeat
exactly (a fresh deployment and the same records each time).  The whole-benchmark claim
(``python3 -m bench.run``) is made of these.

Usage (pin to one core for steady numbers)::

    taskset -c 1 python3 benchmarks/load_path.py [--reps N]
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import repro  # noqa: E402
from bench.runner import LOAD_BATCH  # noqa: E402
from bench.workloads import WORKLOADS, kv_records  # noqa: E402
from benchmarks.common import print_table  # noqa: E402
from repro.btree.node import BTreeNode  # noqa: E402

now = time.perf_counter_ns

#: (row label, where the stage's entry point lives, its name)
STAGES = (
    ("split", "tree", "_split"),
    ("  allocation", "db", "allocate_page"),
    ("adoption", "tree", "_adopt"),
    ("  prefix extension ops", "node", "ops_reencode_prefix"),
)


def load(records: list[tuple[bytes, bytes]], counting: bool
         ) -> tuple[int, int, int, dict[str, list[int]]]:
    """One load into a fresh deployment: ``(ns, repro calls, log
    records, {stage: [events, ns, calls, log records]})``; calls are
    counted only when ``counting``."""
    client = repro.connect(WORKLOADS["failures_embedded"].engine_config(1))
    db = client.db
    owners = {"tree": db.tree(client.index_id), "db": db, "node": BTreeNode}
    spent = {label: [0, 0, 0, 0] for label, _owner, _name in STAGES}
    active: list[list[int]] = []
    total = [0]
    logged = db.stats.counter("log_records")

    def wrap(label: str, real):  # noqa: ANN001, ANN202
        cell = spent[label]

        def timed(*args):  # noqa: ANN002, ANN202
            active.append(cell)
            before = logged.value or 0
            start = now()
            try:
                return real(*args)
            finally:
                cell[1] += now() - start
                cell[0] += 1
                cell[3] += (logged.value or 0) - before
                active.pop()
        return timed

    # The node's builder is a class attribute: put back after the load.
    patched = [(owners[owner], name, owners[owner].__dict__.get(name))
               for _label, owner, name in STAGES]
    for label, owner, name in STAGES:
        setattr(owners[owner], name, wrap(label, getattr(owners[owner], name)))

    def profile(frame, event: str, _arg) -> None:  # noqa: ANN001
        if (event == "call" and frame.f_globals.get("__name__", "")
                .split(".")[0] == "repro"):
            total[0] += 1
            for cell in active:
                cell[2] += 1

    batches = [[("put", key, value) for key, value in records[i:i + LOAD_BATCH]]
               for i in range(0, len(records), LOAD_BATCH)]
    gc.collect()
    if counting:
        sys.setprofile(profile)
    start_records = logged.value or 0
    start = now()
    try:
        for batch in batches:
            client.apply_batch(batch)
    finally:
        sys.setprofile(None)
        ns = now() - start
        for owner, name, original in patched:
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
    records_logged = (logged.value or 0) - start_records
    client.close()
    return ns, total[0], records_logged, spent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=9)
    reps = parser.parse_args().reps

    workload = WORKLOADS["failures_embedded"]
    records = kv_records(1, workload.records)
    _ns, calls, logged, counted = load(records, counting=True)
    timed = [load(records, counting=False) for _ in range(reps)]
    load_ns = statistics.median(ns for ns, _calls, _logged, _spent in timed)
    n = len(records)
    rows = [["sorted load, per record", n, load_ns / n / 1e3, calls / n,
             logged / n, 1.0]]
    rest_ns, rest_calls, rest_logged = load_ns, calls, logged
    for label, _owner, _name in STAGES:
        events, _stage_ns, stage_calls, stage_logged = counted[label]
        stage_ns = statistics.median(spent[label][1]
                                     for _ns, _c, _l, spent in timed)
        if not label.startswith(" "):
            rest_ns -= stage_ns
            rest_calls -= stage_calls
            rest_logged -= stage_logged
        rows.append([label, events, stage_ns / max(events, 1) / 1e3,
                     stage_calls / max(events, 1),
                     stage_logged / max(events, 1), stage_ns / load_ns])
    rows.append(["the rest (descent, leaf runs, log, commit), per record",
                 n, rest_ns / n / 1e3, rest_calls / n, rest_logged / n,
                 rest_ns / load_ns])
    print(f"{n} records in {len(range(0, n, LOAD_BATCH))} batches of "
          f"{LOAD_BATCH}, {reps} timed loads; {calls} repro calls and "
          f"{logged} log records per load")
    print_table("The sorted load, stage by stage (inclusive; medians)",
                ["stage", "events", "us per event", "repro calls per event",
                 "log records per event", "share of the load"], rows)


if __name__ == "__main__":
    main()
