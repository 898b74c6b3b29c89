"""A sorted batch written the way a per-key loop writes it.

``Client.apply_batch`` must leave the tree exactly as the same ops
applied one at a time through ``upsert`` / ``remove`` in one
transaction leave it — the same key -> value map, the same page images
(checksum and PageLSN masked: both follow from the log's LSNs), the
same splits, adoptions and adoption opportunities — after commit and
after abort, whatever mix of sorted new keys, existing keys, ghosts,
duplicates, deletes and value sizes the batch holds.

And a leaf run's record: one UPDATE per run, the records of ops that
start none unchanged; a rollback that ghosts every key once, its CLRs
naming the run as the next record to undo until the last; a crash
after the first of those CLRs, under eager and on-demand restart, that
still undoes the whole run; on-demand restart re-locking every key of
a loser's run; a standby replaying runs to the primary's pages.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.engine.database import Database
from repro.shard.router import check_batch_op
from repro.wal.ops import OpBulkInsert
from repro.wal.records import LogRecord, LogRecordKind
from tests.conftest import fast_config
from tests.test_golden_logical_state import _MASKED, tree_pages
from tests.test_golden_write_path import lsn_free

#: keys ``0 .. _UNIVERSE - 1``; the preload holds every third one
_UNIVERSE = 700


def _key(i: int) -> bytes:
    return b"k%05d" % i


def _value(i: int, size: int) -> bytes:
    return bytes([65 + i % 26]) * size


def _loaded() -> repro.Client:
    """1 KiB pages holding every third key, some of them ghosts, some
    rewritten to another size (fragmented leaves), with foster chains
    the next writes may adopt."""
    db = Database(fast_config(page_size=1024, capacity_pages=2048,
                              buffer_capacity=64))
    client = repro.connect(db)
    tree = db.tree(client.index_id)
    rng = random.Random(11)
    txn = db.begin()
    present = list(range(0, _UNIVERSE, 3))
    for i in present:
        db.locks.acquire(txn.txn_id, _key(i))
        tree.upsert(txn, _key(i), _value(i, rng.randrange(10, 100)))
    for i in rng.sample(present, 60):
        tree.upsert(txn, _key(i), _value(i + 1, rng.randrange(0, 110)))
    for i in rng.sample(present, 40):
        tree.remove(txn, _key(i))
    db.commit(txn)
    return client


def _per_key(client: repro.Client, ops: list[tuple], abort: bool) -> None:
    db = client.db
    tree = db.tree(client.index_id)
    txn = db.begin()
    for op in ops:
        db.locks.acquire(txn.txn_id, op[1])
        if op[0] == "put":
            tree.upsert(txn, op[1], op[2])
        else:
            tree.remove(txn, op[1])
    (db.abort if abort else db.commit)(txn)


def _batch(client: repro.Client, ops: list[tuple], abort: bool) -> None:
    if not abort:
        client.apply_batch(ops)
        return
    with pytest.raises(repro.ConfigError):
        client.apply_batch(ops + [("frob",)])


def _state(client: repro.Client) -> tuple:
    """The key -> value map, the masked image of every tree page, and
    the tree's structural counts."""
    db, index_id = client.db, client.index_id
    tree = db.tree(index_id)
    rows = list(tree.range_scan())
    db.flush_everything()
    images = []
    for pid in tree_pages(db, index_id):
        image = bytearray(db.device.raw_image(pid))
        for start, end in _MASKED:
            image[start:end] = bytes(end - start)
        images.append((pid, bytes(image)))
    counts = tuple(db.stats.get(name) for name in (
        "btree_splits", "btree_adoptions", "btree_root_growths",
        "btree_inserts", "btree_updates", "btree_deletes",
        "btree_compensations"))
    return rows, images, counts, tree._adopt_opportunities


_OPS = st.lists(st.tuples(st.sampled_from(["put", "put", "put", "put",
                                           "delete"]),
                          st.integers(0, _UNIVERSE - 1),
                          st.integers(0, 110)),
                min_size=1, max_size=120)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_OPS, st.sampled_from(["sorted", "sorted", "as drawn"]),
       st.booleans())
def test_apply_batch_leaves_what_per_key_writes_leave(intents, order, abort):
    if order == "sorted":
        intents = sorted(intents, key=lambda intent: intent[1])
    ops = [("put", _key(i), _value(i, size)) if kind == "put"
           else ("delete", _key(i)) for kind, i, size in intents]
    batch, per_key = _loaded(), _loaded()
    _batch(batch, ops, abort)
    _per_key(per_key, ops, abort)
    assert _state(batch) == _state(per_key)


@pytest.mark.parametrize("abort", [False, True], ids=["commit", "abort"])
def test_a_sorted_load_into_a_populated_tree(abort):
    """Hundreds of sorted new keys between the preloaded ones, values
    of every size: splits, adoptions and compactions inside the batch."""
    rng = random.Random(5)
    ops = [("put", _key(i), _value(i, rng.randrange(0, 110)))
           for i in range(_UNIVERSE) if i % 3]
    batch, per_key = _loaded(), _loaded()
    _batch(batch, ops, abort)
    _per_key(per_key, ops, abort)
    assert _state(batch) == _state(per_key)


# ----------------------------------------------------------------------
# The log of a leaf run, its rollback, and recovery through it
# ----------------------------------------------------------------------
def _run_db() -> tuple[Database, object]:
    """1 KiB pages holding keys 0, 3, 6 .. 297, committed and flushed."""
    db = Database(fast_config(page_size=1024, capacity_pages=2048,
                              buffer_capacity=256))
    tree = db.create_index()
    txn = db.begin()
    for i in range(0, 300, 3):
        db.locks.acquire(txn.txn_id, _key(i))
        tree.upsert(txn, _key(i), _value(i, 40))
    db.commit(txn)
    db.flush_everything()
    return db, tree


#: new keys past the preload: long runs on the rightmost leaves
_TAIL = [("put", _key(i), _value(i, 40)) for i in range(300, 360)]


def _runs(db: Database, txn_id: int) -> list:  # noqa: ANN001
    return [record for record in db.log.all_records()
            if record.txn_id == txn_id and record.kind == LogRecordKind.UPDATE
            and record.undo is not None and record.undo.keys]


def _open_batch(db: Database, tree, ops: list[tuple]):  # noqa: ANN001, ANN202
    txn = db.begin()
    tree.apply_batch(txn, ops, check_batch_op)
    return txn


def test_a_sorted_batch_logs_one_update_per_leaf_run():
    db, tree = _run_db()
    txn = _open_batch(db, tree, _TAIL)
    runs = _runs(db, txn.txn_id)
    user_updates = [record for record in db.log.all_records()
                    if record.txn_id == txn.txn_id
                    and record.kind == LogRecordKind.UPDATE]
    assert len(user_updates) < len(_TAIL) // 4
    rows = [key for record in runs for key in record.undo.keys]
    assert rows == sorted(rows) and len(rows) > len(_TAIL) * 3 // 4
    for record in runs:
        assert type(record.op) is OpBulkInsert
        assert len(record.op.records) == len(record.undo.keys) >= 2
        decoded = LogRecord.decode(record.encode())
        decoded.lsn = record.lsn  # an LSN is where a record lies
        assert decoded == record
    db.commit(txn)
    assert list(tree.range_scan(_key(300))) == [op[1:] for op in _TAIL]


def test_a_batch_op_that_starts_no_run_logs_what_a_per_key_write_logs():
    """Rewrites, a lone new key between two others, a delete: the
    records a per-key loop in one transaction logs, field for field."""
    ops = [("put", _key(3), b"rewritten"), ("put", _key(4), b"lone"),
           ("delete", _key(9)), ("put", _key(400), b"last")]
    logs = []
    for batch in (True, False):
        db, tree = _run_db()
        start = db.log.end_lsn
        if batch:
            db.commit(_open_batch(db, tree, ops))
        else:
            _per_key(repro.connect(db), ops, abort=False)
        logs.append([lsn_free(record)
                     for record in db.log.records_from(start)])
    assert logs[0] == logs[1]


def test_abort_of_a_batch_with_runs_ghosts_every_key_once():
    db, tree = _run_db()
    before = list(tree.range_scan())
    txn = _open_batch(db, tree, _TAIL)
    runs = _runs(db, txn.txn_id)
    assert runs
    db.abort(txn)
    assert list(tree.range_scan()) == before
    clrs = [record for record in db.log.all_records()
            if record.txn_id == txn.txn_id
            and record.kind == LogRecordKind.COMPENSATION]
    assert len(clrs) == sum(len(record.undo.keys) for record in runs)
    # Newest run first; within a run, every CLR but the last names the
    # run itself as the next record to undo, the last its predecessor.
    at = 0
    for record in reversed(runs):
        n = len(record.undo.keys)
        assert ([clr.undo_next_lsn for clr in clrs[at:at + n]]
                == [record.lsn] * (n - 1) + [record.prev_lsn])
        at += n
    assert not db.locks.held_keys()


class _Crash(Exception):
    """Raised in place of the second CLR of a rollback."""


@pytest.mark.parametrize("mode", ["eager", "on_demand"])
def test_a_crash_after_the_first_clr_still_undoes_the_whole_run(
        mode, monkeypatch):
    db, tree = _run_db()
    before = list(tree.range_scan())
    txn = _open_batch(db, tree, _TAIL)
    run = _runs(db, txn.txn_id)[-1]
    log_compensation = db.tm.log_compensation
    calls = []

    def first_only(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
        if calls:
            raise _Crash
        calls.append(args)
        return log_compensation(*args, **kwargs)

    monkeypatch.setattr(db.tm, "log_compensation", first_only)
    with pytest.raises(_Crash):
        db.abort(txn)
    db.log.force()
    db.crash()
    monkeypatch.undo()
    db.restart(mode)
    db.drain_pending()
    tree = db.tree(tree.index_id)
    assert list(tree.range_scan()) == before
    clrs = [record for record in db.log.all_records()
            if record.txn_id == txn.txn_id
            and record.kind == LogRecordKind.COMPENSATION]
    # The first CLR's key is a ghost already: the redone undo of the
    # run logs nothing for it, one CLR for every other key.
    assert clrs[0].undo_next_lsn == run.lsn
    assert len(clrs) == sum(len(record.undo.keys)
                            for record in _runs(db, txn.txn_id))


def test_on_demand_restart_relocks_every_key_of_a_losers_run():
    db, tree = _run_db()
    txn = _open_batch(db, tree, _TAIL)
    keys = {key for record in _runs(db, txn.txn_id)
            for key in record.undo.keys}
    assert len(keys) > 10
    db.log.force()
    db.crash()
    db.restart("on_demand")
    assert all(db.locks.holder_of(key) == txn.txn_id for key in keys)
    db.drain_pending()
    assert not db.locks.held_keys()
    assert all(not db.tree(tree.index_id).contains(key) for key in keys)


def test_a_standby_replays_leaf_runs_to_the_same_pages():
    """Page for page, the standby's replay of the run records leaves the
    primary's bytes — the update counter included, which a run advances
    by its row count on both sides, and which a page formatted during
    the batch starts from zero on both sides."""
    db, tree = _run_db()
    standby = db.attach_standby()
    client = repro.connect(db)
    client.apply_batch(_TAIL + [("put", _key(i), _value(i, 30))
                                for i in range(1, 300, 3)])
    assert _runs(db, db.log.all_records()[-1].txn_id)
    assert standby.applied_lsn == db.log.durable_lsn
    for pid in tree_pages(db, tree.index_id):
        page = db.pool.fix(pid)
        try:
            assert _masked(page.data) == _masked(standby.pages[pid].data)
        finally:
            db.pool.unfix(pid)


def _masked(data: bytes | bytearray) -> bytes:
    image = bytearray(data)
    for start, end in _MASKED:
        image[start:end] = bytes(end - start)
    return bytes(image)
