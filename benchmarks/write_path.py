"""Time the autocommit put alone, stage by stage.

Loads the layered benchmark's key-value tree (``bench/``'s
``kv_hot_embedded`` set-up, seed 1: every page stays in the pool),
then rewrites existing keys with same-length values — the workload's
``put`` — three ways: through ``client.put`` whole, through its four
public steps (``begin`` / ``locks.acquire`` / ``upsert`` / ``commit``),
and through an unrolled copy of the path with a clock read between
every two stages.  Microseconds per put, median of ``--reps`` passes;
each stage of the unrolled put carries one ``perf_counter_ns`` call
(~0.07 us) of its own.  The whole-benchmark claim (``python3 -m
bench.run``) is made of these.

Last, the rewrite next to ``dblp_cold_embedded``'s: for ``--puts``
random 100-byte kv values and as many mdate rewrites of the bench's
DBLP records, the bytes one rewrite's UPDATE logs with both values
whole (the encoding before spans), as built by ``value_rewrite`` in a
transaction, and as an autocommit put's redo-only record, and what the
span rule costs per rewrite: building the op, and applying it to a leaf
(a spanned op splices and checks its middle).

The unrolled put must stay what ``FosterBTree._write`` +
``TransactionManager.log_update`` / ``commit`` do — a redo-only record
that takes its commit bit at append, the leaf's page id taken from the
descent (no header re-read), one pool exit (``pool.unfix(page_id,
dirty_lsn)``), the force in ``LogManager.commit`` — counted through the
handles they count through;
the script checks that it moves the log end and every counter (the
whole ``Stats.delta``) exactly as ``client.put`` does and stops if not.
It also prints how many Python functions of ``repro`` one warm put and
one warm get enter (``tests/test_write_path_calls.py`` holds the
budget).

Usage (pin to one core for steady numbers)::

    taskset -c 1 python3 benchmarks/write_path.py [--reps N] [--puts N]
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import statistics
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.runner import Runner  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from bench.workloads import DblpCorpus, kv_key  # noqa: E402
from benchmarks.common import (incs_during, print_table,  # noqa: E402
                               python_calls)
from repro.btree.node import DATA_START  # noqa: E402
from repro.page.page import Page, PageType  # noqa: E402
from repro.page.slotted import Record, SlottedPage, update_value  # noqa: E402
from repro.txn.transaction import TxnState  # noqa: E402
from repro.wal.ops import OpUpdateValue, value_rewrite  # noqa: E402
from repro.wal.records import (LogicalUndo, LogRecord,  # noqa: E402
                               LogRecordKind, UndoAction)

now = time.perf_counter_ns

STAGES = (
    "db.begin", "locks.acquire",
    "descent (shared with get)", "node.find",
    "probe_value (ghost bit, before-image, room: one slot read)",
    "value_rewrite (redo-only: no undo)", "LogRecord(...)",
    "log.append (+ the commit bit)", "op.apply_redo",
    "PageLSN + chain head + inc", "inc + unfix(page_id, dirty_lsn)",
    "log.commit (the force alone)",
    "finish (inc, active table, release_all)",
)


def unrolled_put(db, tree, key: bytes, value: bytes, spent: list[int]) -> None:
    """One autocommit rewrite of a live key, a clock read per stage."""
    log, tm = db.log, db.tm
    t0 = now()
    txn = db.begin()
    txn.redo_only = True        # as client.put sets it
    t1 = now()
    db.locks.acquire(txn.txn_id, key)
    t2 = now()
    page, node, pid = tree._descend(key, for_write=True)
    t3 = now()
    i, _found = node.find(key)
    t4 = now()
    _ghost, old, _room = node.probe_value(i)
    t5 = now()
    op = value_rewrite(DATA_START + i, old, value, True)
    t6 = now()
    record = LogRecord(LogRecordKind.UPDATE, txn.txn_id, txn.last_lsn,
                       pid, page.page_lsn, tree.index_id, 0, op, None)
    record.redo_only = True
    t7 = now()
    lsn = log.append(record)
    txn.state = TxnState.COMMITTED
    t8 = now()
    op.apply_redo(page)
    t9 = now()
    page.page_lsn = lsn
    txn.first_lsn = txn.first_lsn or lsn
    txn.last_lsn = lsn
    tm._page_updates_logged.inc()
    t10 = now()
    tree._btree_updates.inc()
    db.pool.unfix(pid, lsn)
    t11 = now()
    log.commit(txn.txn_id, lsn)
    t12 = now()
    tm._user_txns_committed.inc()
    txn.redo_only = False
    tm._finish(txn)
    t13 = now()
    for stage, (a, b) in enumerate(zip(
            (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12),
            (t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13))):
        spent[stage] += b - a


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--puts", type=int, default=2000)
    args = parser.parse_args()

    workload = WORKLOADS["kv_hot_embedded"]
    runner = Runner(workload, 1, workload.records, workload.round_ops(10), 1)
    runner.setup()
    client, db = runner.client, runner.db
    tree = db.tree(client.index_id)
    # As bench.run does once its deployments are built: the loaded tree
    # is not garbage, and a collector that keeps re-walking it would be
    # charged to whichever stage allocates next.
    gc.collect()
    gc.freeze()
    rng = random.Random("write-path")
    keys = rng.sample(runner.sorted_keys, min(args.puts, len(runner.sorted_keys)))
    size = len(runner.oracle[keys[0]])
    values = [bytes([65 + rep % 26]) * size for rep in range(args.reps + 2)]
    print(f"{len(runner.sorted_keys)} records, {len(keys)} puts per pass of "
          f"{len(keys[0])} B key / {size} B value, {args.reps} passes")

    def per_put(step) -> float:  # noqa: ANN001
        """Median over the passes of a pass's mean ns inside ``step``
        (which returns the ns it spent)."""
        passes = []
        for rep in range(args.reps):
            value = values[rep]
            passes.append(sum(step(key, value) for key in keys) / len(keys))
        return statistics.median(passes) / 1e3

    def whole(fn):  # noqa: ANN001, ANN202
        def step(key: bytes, value: bytes) -> int:
            start = now()
            fn(key, value)
            return now() - start
        return step

    # -- the four public steps, each timed around the real call --------
    public = [0, 0, 0, 0]

    def by_public_steps(key: bytes, value: bytes) -> int:
        t0 = now()
        txn = db.begin()
        txn.redo_only = True
        t1 = now()
        db.locks.acquire(txn.txn_id, key)
        t2 = now()
        tree.upsert(txn, key, value)
        t3 = now()
        db.commit(txn)
        t4 = now()
        for i, dt in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            public[i] += dt
        return t4 - t0

    # -- the unrolled put must log and count what client.put does -------
    def effect(put, value: bytes) -> tuple[int, dict[str, int]]:  # noqa: ANN001
        end, before = db.log.end_lsn, db.stats.snapshot()
        put(keys[0], value)
        return db.log.end_lsn - end, db.stats.delta(before)

    real = effect(client.put, values[-1])
    mine = effect(lambda key, value: unrolled_put(
        db, tree, key, value, [0] * len(STAGES)), values[-2])
    if real != mine or client.get(keys[0]) != values[-2]:
        raise SystemExit(f"unrolled put drifted from client.put: (log bytes, "
                         f"Stats.delta) {mine}, client.put {real}")
    counts = incs_during(lambda: client.put(keys[0], values[-1]))
    print(f"an autocommit put logs {real[1]['log_records']} record(s), "
          f"{real[0]} B; counts per put: {counts} inc() calls")
    print(f"Python calls in repro: put "
          f"{python_calls(lambda: client.put(keys[0], values[-2]))}, get "
          f"{python_calls(lambda: client.get(keys[0]))}")

    rows = [("client.get (same keys)",
             per_put(whole(lambda key, _value: client.get(key)))),
            ("client.put", per_put(whole(client.put)))]
    total = per_put(by_public_steps)
    calls = args.reps * len(keys)
    rows.append(("begin + acquire + upsert + commit, called directly", total))
    for name, ns in zip(("  db.begin", "  locks.acquire", "  tree.upsert",
                         "  db.commit"), public):
        rows.append((name, ns / calls / 1e3))

    spent = [0] * len(STAGES)

    def unrolled(key: bytes, value: bytes) -> int:
        start = now()
        unrolled_put(db, tree, key, value, spent)
        return now() - start

    rows.append(("unrolled put, a clock read per stage", per_put(unrolled)))
    for name, ns in zip(STAGES, spent):
        rows.append(("  " + name, ns / calls / 1e3))
    for name, micros in rows:
        print(f"{micros:8.2f} us  {name}")
    runner.close()
    rewrite_table(args.puts, args.reps)


def _update_size(key: bytes, op: OpUpdateValue) -> int:
    """The UPDATE a B-tree rewrite logs for ``op``: in a transaction
    with undo (which shares its before-image), or redo-only."""
    if op.old_value is None:
        return LogRecord(LogRecordKind.UPDATE, op=op, commits=True,
                         redo_only=True).encoded_size()
    return LogRecord(LogRecordKind.UPDATE, op=op, undo=LogicalUndo(
        UndoAction.RESTORE_VALUE, key, op.old_value, op.prefix,
        op.suffix)).encoded_size()


def rewrite_table(n: int, reps: int) -> None:
    """Log bytes and span-rule cost of a kv rewrite and a DBLP one."""
    rng = random.Random("write-path/rewrites")

    def mdate() -> bytes:
        return b"20%02d-%02d-%02d" % (rng.randint(10, 25), rng.randint(1, 12),
                                      rng.randint(1, 28))

    shapes = {
        "kv_hot: random 100 B value": [
            (kv_key(i), rng.randbytes(100), rng.randbytes(100))
            for i in range(n)],
        "dblp_cold: mdate of a record": [
            (key, value, mdate() + value[10:])
            for key, value in DblpCorpus(1, n).records],
    }
    rows = []
    for name, rewrites in shapes.items():
        whole = [OpUpdateValue(DATA_START, old, new) for _k, old, new in rewrites]
        spanned = [value_rewrite(DATA_START, old, new)
                   for _k, old, new in rewrites]
        redo_only = [value_rewrite(DATA_START, old, new, True)
                     for _k, old, new in rewrites]
        logged = [statistics.mean(_update_size(key, op) for (key, _o, _n), op
                                  in zip(rewrites, ops))
                  for ops in (whole, spanned, redo_only)]
        build = [_per_rewrite(lambda: [make(DATA_START, old, new)
                                       for _k, old, new in rewrites],
                              len(rewrites), reps)
                 for make in (OpUpdateValue, value_rewrite)]
        redo = [_redo_per_rewrite(rewrites, ops, reps)
                for ops in (whole, spanned)]
        rows.append([name, f"{logged[0]:.1f}", f"{logged[1]:.1f}",
                     f"{logged[2]:.1f}", f"{build[0]:.2f} / {build[1]:.2f}",
                     f"{redo[0]:.2f} / {redo[1]:.2f}",
                     f"{build[1] + redo[1] - build[0] - redo[0]:+.2f}"])
    print_table("One rewrite: bytes its UPDATE logs, us to build and apply "
                "its op (whole value / spanned)",
                ["rewrite", "whole B", "spanned B", "redo-only B", "build us",
                 "redo us", "span rule us"], rows)


def _per_rewrite(run, count: int, reps: int) -> float:  # noqa: ANN001
    """Median over ``reps`` passes of ``run()``'s us per rewrite."""
    passes = []
    for _ in range(reps):
        start = now()
        run()
        passes.append((now() - start) / count / 1e3)
    return statistics.median(passes)


def _redo_per_rewrite(rewrites, ops, reps: int) -> float:  # noqa: ANN001
    """us per ``op.apply_redo`` on a leaf holding the old value."""
    page = Page.format(4096, 1, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    for slot in range(DATA_START + 1):
        slotted.insert(slot, Record(b"k%d" % slot, b""))
    passes = []
    for _ in range(reps):
        spent = 0
        for (_key, old, _new), op in zip(rewrites, ops):
            update_value(slotted.page, DATA_START, old)
            start = now()
            op.apply_redo(page)
            spent += now() - start
        passes.append(spent / len(rewrites) / 1e3)
    return statistics.median(passes)


if __name__ == "__main__":
    main()
