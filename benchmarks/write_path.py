"""Time the autocommit put alone, stage by stage.

Loads the layered benchmark's key-value tree (``bench/``'s
``kv_hot_embedded`` set-up, seed 1: every page stays in the pool),
then rewrites existing keys with same-length values — the workload's
``put`` — three ways: through ``client.put`` whole, through the one
engine call it makes (``Database.autocommit_write``) and that call's
four steps (``begin_unlisted`` / ``locks.check`` / ``insert`` /
``end_autocommit``), and through an unrolled copy of the path with a
clock read between every two stages.  Then the listed write: one put in
a ``client.txn()`` and one key of a 32-put ``client.apply_batch`` (each
logs an UPDATE with its undo, the before-image shared), whole and
unrolled the same way — a listed transaction's begin, each put's stages
and its commit.  Microseconds per put, median of ``--reps`` passes;
each stage of an unrolled path carries one ``perf_counter_ns`` call
(~0.07 us) of its own.  The whole-benchmark claim (``python3 -m
bench.run``) is made of these.

Last, the rewrite next to ``dblp_cold_embedded``'s: for ``--puts``
random 100-byte kv values and as many mdate rewrites of the bench's
DBLP records, the bytes one rewrite's UPDATE logs with both values
whole (the encoding before spans), as built by ``value_rewrite`` in a
transaction, and as an autocommit put's redo-only record, and what the
span rule costs per rewrite: building the op, and applying its bytes to
a leaf through the op kind's kernel (a spanned op splices and checks its
middle).

The unrolled put must stay what ``Database.autocommit_write`` +
``FosterBTree._write`` + ``TransactionManager.log_update`` / ``commit``
do — an unlisted write (no active-table entry, no registered lock)
whose key is checked free, a redo-only record
packed with its commit bit (``encode_update``, no record object) and
written once by ``log.append``, the logged bytes applied by the op
kind's kernel (``repro.wal.ops.REDO``), the leaf's page id taken from
the descent (no header re-read), one pool exit (``pool.unfix(page_id,
dirty_lsn)``), the force in ``LogManager.commit`` — counted through the
handles they count through; the unrolled txn and batch likewise stay
what ``Database.begin``, ``LockManager.acquire``, ``FosterBTree._write``
and ``TransactionManager.commit`` do.  The script checks that each moves
the log end and every counter (the whole ``Stats.delta``) exactly as
``client.put``, ``client.txn()`` and ``client.apply_batch`` do and
stops if not.
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
import struct
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
from repro.page.page import LSN_OFFSET, PAGE_LSN, Page, PageType  # noqa: E402
from repro.page.slotted import Record, SlottedPage, update_value  # noqa: E402
from repro.txn.transaction import TxnState  # noqa: E402
from repro.wal.ops import REDO, value_rewrite  # noqa: E402
from repro.wal.records import (NARROW_HEADER_SIZE, WIDE_BIT,  # noqa: E402
                               WIDE_HEADER_SIZE, LogicalUndo, UndoAction,
                               encode_update)

now = time.perf_counter_ns

STAGES = (
    "tm.begin_unlisted (id + inc)", "locks.check (nothing registered)",
    "descent (shared with get)", "node.find",
    "probe_value (ghost bit, before-image, room: one slot read)",
    "value_rewrite (redo-only: the op's bytes)",
    "encode_update (header, flags, op: one join)",
    "log.append (the bytes, written once)", "REDO kernel (the logged bytes)",
    "PageLSN + chain head + inc", "inc + unfix(page_id, dirty_lsn)",
    "log.commit (the force alone)",
    "finish (inc)",
)
#: the stages of one put of a listed transaction
LISTED_STAGES = (
    "locks.acquire (registered)", "descent (shared with get)", "node.find",
    "probe_value", "value_rewrite + LogicalUndo (the span it returns)",
    "encode_update (header, flags, op, undo: one join)",
    "log.append (the bytes, written once)", "REDO kernel (the logged bytes)",
    "PageLSN + txn chain + inc", "inc + unfix(page_id, dirty_lsn)",
)
#: the stages of a listed transaction around its puts
TXN_STAGES = ("tm.begin (listed)", "log.commit (bit + force)",
              "finish (inc, active table, locks)")


def _apply_logged(page, encoding: bytes) -> None:  # noqa: ANN001
    """Apply the op of the UPDATE ``encoding`` to ``page`` as
    ``TransactionManager.log_update`` does: the kernel of its kind, on
    the bytes past the header, the flags byte and the op's length."""
    at = (WIDE_HEADER_SIZE if encoding[0] & WIDE_BIT
          else NARROW_HEADER_SIZE) + 3
    REDO[encoding[at]](page, encoding, at)


def unrolled_put(db, tree, key: bytes, value: bytes, spent: list[int]) -> None:
    """One autocommit rewrite of a live key, a clock read per stage."""
    log, tm = db.log, db.tm
    t0 = now()
    txn = tm.begin_unlisted()
    txn.redo_only = True        # as Database.autocommit_write sets it
    t1 = now()
    db.locks.check(txn.txn_id, key)
    t2 = now()
    page, node, pid = tree._descend(key, for_write=True)
    t3 = now()
    i, _found = node.find(key)
    t4 = now()
    _ghost, old, _room = node.probe_value(i)
    t5 = now()
    op = value_rewrite(DATA_START + i, old, value, True)[0]
    t6 = now()
    encoding = encode_update(txn.txn_id, txn.last_lsn, pid,
                             PAGE_LSN.unpack_from(page.data, LSN_OFFSET)[0],
                             tree.index_id, op, None, True)
    t7 = now()
    lsn = log.append(encoding)
    txn.state = TxnState.COMMITTED
    t8 = now()
    _apply_logged(page, encoding)
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
    t13 = now()
    for stage, (a, b) in enumerate(zip(
            (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12),
            (t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13))):
        spent[stage] += b - a


def unrolled_listed_put(db, tree, txn, key: bytes, value: bytes,  # noqa: ANN001
                        spent: list[int]) -> None:
    """One put of the listed ``txn``, rewriting a live key, a clock read
    per stage: :data:`LISTED_STAGES`."""
    log, tm = db.log, db.tm
    t0 = now()
    db.locks.acquire(txn.txn_id, key)
    t1 = now()
    page, node, pid = tree._descend(key, for_write=True)
    t2 = now()
    i, _found = node.find(key)
    t3 = now()
    _ghost, old, _room = node.probe_value(i)
    t4 = now()
    op, before, prefix, suffix = value_rewrite(DATA_START + i, old, value)
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, key, before, prefix, suffix)
    t5 = now()
    encoding = encode_update(txn.txn_id, txn.last_lsn, pid,
                             PAGE_LSN.unpack_from(page.data, LSN_OFFSET)[0],
                             tree.index_id, op, undo, False)
    t6 = now()
    lsn = log.append(encoding)
    t7 = now()
    _apply_logged(page, encoding)
    t8 = now()
    page.page_lsn = lsn
    txn.first_lsn = txn.first_lsn or lsn
    txn.last_lsn = lsn
    tm._page_updates_logged.inc()
    t9 = now()
    tree._btree_updates.inc()
    db.pool.unfix(pid, lsn)
    t10 = now()
    marks = (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10)
    for stage, (a, b) in enumerate(zip(marks, marks[1:])):
        spent[stage] += b - a


def unrolled_txn(db, tree, puts: list[tuple[bytes, bytes]],  # noqa: ANN001
                 spent_txn: list[int], spent_put: list[int]) -> None:
    """A listed transaction of ``puts``, each a rewrite of a live key —
    a ``client.txn()`` or an ``apply_batch`` of them — a clock read per
    stage: :data:`TXN_STAGES` around :func:`unrolled_listed_put`."""
    log, tm = db.log, db.tm
    t0 = now()
    txn = tm.begin()
    t1 = now()
    for key, value in puts:
        unrolled_listed_put(db, tree, txn, key, value, spent_put)
    t2 = now()
    log.commit(txn.txn_id, txn.last_lsn)
    t3 = now()
    tm._user_txns_committed.inc()
    txn.state = TxnState.COMMITTED
    with tm._mutex:
        tm.active.pop(txn.txn_id, None)
    db.locks.release_all(txn.txn_id)
    t4 = now()
    spent_txn[0] += t1 - t0
    spent_txn[1] += t3 - t2
    spent_txn[2] += t4 - t3


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

    # -- the engine call, and its four steps timed around each --------
    steps = [0, 0, 0, 0]

    def by_steps(key: bytes, value: bytes) -> int:
        t0 = now()
        txn = db.tm.begin_unlisted()
        txn.redo_only = True
        t1 = now()
        db.locks.check(txn.txn_id, key)
        t2 = now()
        tree.insert(txn, key, value, replace=True)
        t3 = now()
        db.end_autocommit(txn)
        t4 = now()
        for i, dt in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            steps[i] += dt
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

    def in_txn(key: bytes, value: bytes) -> None:
        with client.txn() as txn:
            txn.put(key, value)

    def unrolled_in_txn(key: bytes, value: bytes) -> None:
        unrolled_txn(db, tree, [(key, value)], [0] * len(TXN_STAGES),
                     [0] * len(LISTED_STAGES))

    batch = 32
    batches = [keys[i:i + batch] for i in range(0, len(keys), batch)]

    def a_batch(_key: bytes, value: bytes) -> None:
        client.apply_batch([("put", key, value) for key in batches[0]])

    def unrolled_batch(_key: bytes, value: bytes) -> None:
        unrolled_txn(db, tree, [(key, value) for key in batches[0]],
                     [0] * len(TXN_STAGES), [0] * len(LISTED_STAGES))

    for name, whole_path, unrolled_path in (
            ("client.txn()", in_txn, unrolled_in_txn),
            ("client.apply_batch", a_batch, unrolled_batch)):
        expected = effect(whole_path, values[-1])
        got = effect(unrolled_path, values[-2])
        if expected != got or client.get(keys[0]) != values[-2]:
            raise SystemExit(f"unrolled path drifted from {name}: (log "
                             f"bytes, Stats.delta) {got}, {name} {expected}")
    counts = incs_during(lambda: client.put(keys[0], values[-1]))
    print(f"an autocommit put logs {real[1]['log_records']} record(s), "
          f"{real[0]} B; counts per put: {counts} inc() calls")
    print(f"Python calls in repro: put "
          f"{python_calls(lambda: client.put(keys[0], values[-2]))}, get "
          f"{python_calls(lambda: client.get(keys[0]))}")

    rows = [("client.get (same keys)",
             per_put(whole(lambda key, _value: client.get(key)))),
            ("client.put", per_put(whole(client.put))),
            ("db.autocommit_write, called directly", per_put(whole(
                lambda key, value: db.autocommit_write(tree, key, value))))]
    total = per_put(by_steps)
    calls = args.reps * len(keys)
    rows.append(("its four steps, called directly", total))
    for name, ns in zip(("  tm.begin_unlisted", "  locks.check",
                         "  tree.insert", "  db.end_autocommit"), steps):
        rows.append((name, ns / calls / 1e3))

    spent = [0] * len(STAGES)

    def unrolled(key: bytes, value: bytes) -> int:
        start = now()
        unrolled_put(db, tree, key, value, spent)
        return now() - start

    rows.append(("unrolled put, a clock read per stage", per_put(unrolled)))
    for name, ns in zip(STAGES, spent):
        rows.append(("  " + name, ns / calls / 1e3))

    # -- the listed write: a transaction's put, a batch's key ----------
    rows.append(("client.txn(): one put, begin to commit",
                 per_put(whole(in_txn))))
    txn_spent = [0] * len(TXN_STAGES)
    put_spent = [0] * len(LISTED_STAGES)

    def unrolled_one(key: bytes, value: bytes) -> int:
        start = now()
        unrolled_txn(db, tree, [(key, value)], txn_spent, put_spent)
        return now() - start

    rows.append(("unrolled txn of one put, a clock read per stage",
                 per_put(unrolled_one)))
    for name, ns in zip(TXN_STAGES + LISTED_STAGES, txn_spent + put_spent):
        rows.append(("  " + name, ns / calls / 1e3))

    def per_batch_key(run) -> float:  # noqa: ANN001
        passes = []
        for rep in range(args.reps):
            value = values[rep]
            start = now()
            for group in batches:
                run(group, value)
            passes.append((now() - start) / len(keys))
        return statistics.median(passes) / 1e3

    rows.append((f"client.apply_batch of {batch} puts, per key",
                 per_batch_key(lambda group, value: client.apply_batch(
                     [("put", key, value) for key in group]))))
    txn_spent = [0] * len(TXN_STAGES)
    put_spent = [0] * len(LISTED_STAGES)
    rows.append((f"unrolled batch of {batch} puts, per key, a clock read "
                 f"per stage", per_batch_key(lambda group, value: unrolled_txn(
                     db, tree, [(key, value) for key in group], txn_spent,
                     put_spent))))
    for name, ns in zip(TXN_STAGES + LISTED_STAGES, txn_spent + put_spent):
        rows.append(("  " + name, ns / calls / 1e3))
    for name, micros in rows:
        print(f"{micros:8.2f} us  {name}")
    runner.close()
    rewrite_table(args.puts, args.reps)


def _whole(slot: int, old: bytes, new: bytes
           ) -> tuple[bytes, bytes, int, int]:
    """A rewrite that logs both values whole — the encoding before
    spans, kind 3 of ``repro.wal.ops`` — shaped as ``value_rewrite``'s
    return, for comparison."""
    return (struct.pack("<BHH", 3, slot, len(old)) + old
            + struct.pack("<H", len(new)) + new, old, 0, 0)


def _update_size(key: bytes, rewrite: tuple) -> int:
    """The UPDATE a B-tree rewrite logs for ``rewrite`` (what
    ``value_rewrite`` returns): in a transaction with undo (which shares
    its before-image), or redo-only."""
    op, before, prefix, suffix = rewrite
    if before is None:
        return len(encode_update(0, 0, -1, 0, 0, op, None, True))
    return len(encode_update(0, 0, -1, 0, 0, op, LogicalUndo(
        UndoAction.RESTORE_VALUE, key, before, prefix, suffix), False))


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
        whole = [_whole(DATA_START, old, new) for _k, old, new in rewrites]
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
                 for make in (_whole, value_rewrite)]
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
    """us per redo of an op's bytes — its kind's kernel, as replay and
    the write run it — on a leaf holding the old value."""
    page = Page.format(4096, 1, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    for slot in range(DATA_START + 1):
        slotted.insert(slot, Record(b"k%d" % slot, b""))
    encoded = [rewrite[0] for rewrite in ops]
    passes = []
    for _ in range(reps):
        spent = 0
        for (_key, old, _new), op in zip(rewrites, encoded):
            update_value(slotted.page, DATA_START, old)
            start = now()
            REDO[op[0]](page, op, 0)
            spent += now() - start
        passes.append(spent / len(rewrites) / 1e3)
    return statistics.median(passes)


if __name__ == "__main__":
    main()
