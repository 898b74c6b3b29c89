"""Redo-only autocommit writes: one record, committed at its append.

An autocommit transaction around one tree write (``client.put`` /
``delete``, the shard worker's ``put`` / ``delete``, ``Database``'s
single-operation helpers) logs that write as a redo-only record: no
``LogicalUndo``, no before-image, the commit bit set as the log places
it.  From the append on the transaction is committed — a failure after
it (here: the leaf's ``unfix`` raising, as a repair that escalates
would) finishes the commit and propagates, and recovery replays the
write.  Every other shape keeps its undo: ``client.txn()``,
``apply_batch`` of any length, a ``Session``, a 2PC branch, and a ghost
revival, which logs two records.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import RecoveryError, TransactionError
from repro.page.page import Page, PageType
from repro.page.slotted import Record, SlottedPage
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.wal.ops import OpUpdateValue, value_rewrite
from repro.wal.records import LogRecord, LogRecordKind
from tests.conftest import assert_no_pins, fast_config, key_of, value_of

UPDATE = LogRecordKind.UPDATE


def loaded_client():  # noqa: ANN201
    client = repro.connect(fast_config(capacity_pages=1024, buffer_capacity=48))
    client.apply_batch([("put", key_of(i), value_of(i, 0)) for i in range(120)])
    client.db.checkpoint()
    return client


def records_since(db, end: int) -> list[LogRecord]:  # noqa: ANN001
    return [r for r in db.log.records_from(end) if r.kind == UPDATE and r.txn_id]


def user_records(db, end: int) -> list[LogRecord]:  # noqa: ANN001
    """The UPDATE records user transactions logged since ``end``."""
    system = {r.txn_id for r in db.log.records_from(end)
              if r.commits and not r.commits_user_txn}
    return [r for r in records_since(db, end) if r.txn_id not in system]


def assert_redo_only(record: LogRecord) -> None:
    assert record.redo_only and record.commits and record.undo is None
    if type(record.op) is OpUpdateValue:
        assert record.op.old_value is None
    decoded = LogRecord.decode(record.encode())
    decoded.lsn = record.lsn
    assert decoded == record


def assert_undoable(record: LogRecord) -> None:
    assert not record.redo_only and record.undo is not None
    if type(record.op) is OpUpdateValue:
        assert record.op.old_value is not None


# ----------------------------------------------------------------------
# Which writes are redo-only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("write", ["rewrite", "insert", "delete"])
def test_an_autocommit_write_logs_one_redo_only_record(write):
    client = loaded_client()
    db = client.db
    end, forces = db.log.end_lsn, db.stats.get("log_forces")
    if write == "rewrite":
        client.put(key_of(5), value_of(5, 1))
    elif write == "insert":
        client.put(key_of(500), value_of(500, 0))
    else:
        assert client.delete(key_of(5)) is True
    (record,) = user_records(db, end)
    assert_redo_only(record)
    assert db.stats.get("log_forces") == forces + 1
    assert record.lsn < db.log.durable_lsn
    assert not db.tm.active and db.locks.held_keys() == []
    assert not any(r.kind == LogRecordKind.COMMIT for r in db.log.records_from(end))


def test_the_engine_helpers_and_the_shard_worker_are_redo_only():
    client = loaded_client()
    db = client.db
    tree = db.tree(client.index_id)
    end = db.log.end_lsn
    db.update(tree, key_of(3), value_of(3, 1))
    db.delete(tree, key_of(4))
    db.insert(tree, key_of(700), value_of(700, 0))
    records = user_records(db, end)
    assert len(records) == 3
    for record in records:
        assert_redo_only(record)
    router = ShardRouter(ShardConfig(n_shards=2, transport="inproc"))
    try:
        worker = router.shards[0].worker
        worker.execute(("put", b"key-1", b"one"))
        end = worker.db.log.end_lsn
        worker.execute(("put", b"key-1", b"two"))
        assert worker.execute(("delete", b"key-1")) is True
        records = user_records(worker.db, end)
        assert len(records) == 2
        for record in records:
            assert_redo_only(record)
        assert worker.execute(("outcome_since", end))[1] == 1
    finally:
        router.close()


def test_a_ghost_revival_logs_two_records_with_their_undo():
    client = loaded_client()
    db = client.db
    client.delete(key_of(9))
    end = db.log.end_lsn
    client.put(key_of(9), value_of(9, 2))
    records = user_records(db, end)
    assert len(records) == 2
    for record in records:
        assert_undoable(record)
    assert [r.commits for r in records] == [False, True]


def test_every_multi_record_shape_keeps_its_undo():
    client = loaded_client()
    db = client.db
    tree = db.tree(client.index_id)
    end = db.log.end_lsn
    with client.txn() as txn:
        txn.put(key_of(1), value_of(1, 1))
    client.apply_batch([("put", key_of(2), value_of(2, 1))])
    client.apply_batch([("put", key_of(i), value_of(i, 1))
                        for i in range(10, 42)])
    session = db.session()
    session.begin()
    session.update(tree, key_of(50), value_of(50, 1))
    session.commit()
    records = user_records(db, end)
    assert len(records) == 1 + 1 + 32 + 1
    for record in records:
        assert_undoable(record)
    router = ShardRouter(ShardConfig(n_shards=2, transport="inproc"))
    try:
        worker = router.shards[0].worker
        worker.execute(("put", b"key-2", b"one"))
        end = worker.db.log.end_lsn
        worker.execute(("txn_put", 7, b"key-2", b"two", True))
        worker.execute(("txn_put", 7, b"key-3", b"new"))
        worker.execute(("prepare", 7, 99))
        records = user_records(worker.db, end)
        assert len(records) == 2
        for record in records:
            assert_undoable(record)
        worker.execute(("resolve", 99, True))
    finally:
        router.close()


# ----------------------------------------------------------------------
# A failure after the append commits; it does not roll back
# ----------------------------------------------------------------------
class Escalated(Exception):
    """What the patched ``unfix`` raises once it has unpinned the leaf."""


def fail_the_write_unfix(db, hook=None):  # noqa: ANN001, ANN201
    """Make the next pool ``unfix`` that names a dirty LSN — the leaf
    the write just logged on — raise after it has unpinned the page."""
    pool = db.pool
    unfix = pool.unfix

    def failing(page_id: int, dirty_lsn: int | None = None) -> None:
        unfix(page_id, dirty_lsn)
        if dirty_lsn is not None:
            del pool.unfix
            if hook is not None:
                hook()
            raise Escalated(page_id)

    pool.unfix = failing


@pytest.mark.parametrize("mode", ["eager", "on_demand"])
def test_a_failure_after_the_append_leaves_the_write_committed(mode):
    client = loaded_client()
    db = client.db
    end = db.log.end_lsn
    fail_the_write_unfix(db)
    with pytest.raises(Escalated):
        client.put(key_of(7), value_of(7, 1))
    (record,) = db.log.records_from(end)
    assert_redo_only(record)
    assert record.lsn < db.log.durable_lsn      # the commit's force ran
    assert not any(r.kind == LogRecordKind.ABORT for r in db.log.records_from(end))
    assert not db.tm.active and db.locks.held_keys() == []
    assert_no_pins(db)
    assert client.get(key_of(7)) == value_of(7, 1)
    db.crash()
    report = db.restart(mode=mode)
    assert report.loser_txn_ids == []
    if mode == "on_demand":
        db.finish_restart()
    assert dict(db.tree(1).range_scan())[key_of(7)] == value_of(7, 1)


def test_a_checkpoint_between_append_and_force_lists_no_loser():
    """The transaction is committed, though not yet finished: a
    checkpoint taken then must not hand it to restart as a loser."""
    client = loaded_client()
    db = client.db
    fail_the_write_unfix(db, hook=db.checkpoint)
    with pytest.raises(Escalated):
        client.put(key_of(8), value_of(8, 1))
    master = db.log.record_at(db.log.master_checkpoint_lsn)
    assert master.checkpoint.active_txns == []
    db.crash()
    assert db.restart(mode="eager").loser_txn_ids == []
    assert dict(db.tree(1).range_scan())[key_of(8)] == value_of(8, 1)


def test_a_committed_at_append_transaction_cannot_abort_or_commit_twice():
    client = loaded_client()
    db = client.db
    tree = db.tree(client.index_id)
    txn = db.begin()
    txn.redo_only = True
    db.locks.acquire(txn.txn_id, key_of(6))
    tree.update(txn, key_of(6), value_of(6, 1))
    with pytest.raises(TransactionError):
        db.abort(txn)
    db.commit(txn)
    with pytest.raises(TransactionError):
        db.commit(txn)
    assert client.get(key_of(6)) == value_of(6, 1)
    # A redo-only record must be its transaction's only one: refused,
    # before anything is logged, after a record of the transaction's own.
    txn = db.begin()
    db.locks.acquire(txn.txn_id, key_of(9))
    tree.update(txn, key_of(9), value_of(9, 1))
    txn.redo_only = True
    end = db.log.end_lsn
    with pytest.raises(TransactionError):
        tree.update(txn, key_of(9), value_of(9, 2))
    assert db.log.end_lsn == end
    db.abort(txn)
    assert client.get(key_of(9)) == value_of(9, 0)


def test_redo_of_a_spanned_redo_only_rewrite_checks_the_old_middle_length():
    """No before-image to compare, but the splice still refuses a value
    whose span leaves a middle of another length, before a byte moves."""
    page = Page.format(4096, 1, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    old, new = b"2019-03-04" + b"x" * 30, b"2021-11-22" + b"x" * 30
    slotted.insert(0, Record(b"k", old))
    op = value_rewrite(0, old, new, True)
    assert (op.old_value, op.old_length) == (None, 8)
    wrong = OpUpdateValue(0, None, b"21-11-22", op.prefix, op.suffix, 9)
    with pytest.raises(RecoveryError):
        wrong.apply_redo(page)
    assert slotted.read_value(0) == (False, old)
    op.apply_redo(page)
    assert slotted.read_value(0) == (False, new)
