"""Every autocommit point write against a held key and a failure inside.

The sites: the embedded client's ``put`` / ``delete``, the in-process
shard worker's ``put`` / ``delete`` through ``LocalShard.call``, and
``Database.insert`` / ``update`` / ``delete``.  Each writes a key held
by one of three holders:

* an open transaction (a ``client.txn()``, or the worker's branch of a
  router transaction): the write raises ``LockConflict``, logs no
  write and leaves no lock of its own;
* a prepared branch left in doubt by a crash and restart: the same;
* a loser an on-demand restart left pending: the write rolls the loser
  back, then commits.

And every site is struck by a media failure escalating inside it, before
and after its one record's append: a typed error, no force by the
write, one transaction killed, no lock and no active transaction left;
and by a crash at the same two points: nothing logged or forced for the
write after the crash, and restart finds no loser.
A ghost revival (two records, with undo) whose second record fails
rolls back to the ghost.
"""

from __future__ import annotations

import pytest

import repro
from repro import Database, ShardConfig
from repro.errors import MediaFailure, SystemFailure
from repro.txn.locks import LockConflict
from repro.txn.manager import TransactionManager
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecordKind, read_header
from tests.conftest import assert_no_pins, fast_config
from tests.record_reference import record_at, records_from

UPDATE = LogRecordKind.UPDATE
ABORT = LogRecordKind.ABORT
KEYS = [b"k%06d" % i for i in range(40)]
OLD, HELD, NEW = b"old", b"held", b"new"
#: a key no preload writes: Database.insert's, which must find it absent
FRESH = b"k000007x"


class _Embedded:
    """One engine behind the embedded client."""

    def __init__(self) -> None:
        self.db = Database(fast_config())
        self.client = repro.connect(self.db)
        self.client.apply_batch([("put", key, OLD) for key in KEYS])
        self._open = None

    @property
    def tree(self):  # noqa: ANN201
        return self.db.tree(self.client.index_id)

    def read(self, key: bytes) -> bytes | None:
        return self.client.get(key)

    def hold_open(self, key: bytes) -> int:
        self._open = self.client.txn()  # kept: collecting it aborts
        handle = self._open.__enter__()
        handle.put(key, HELD)
        return handle.txn.txn_id

    def hold_in_doubt(self, key: bytes) -> int:
        db = self.db
        txn = db.begin()
        db.locks.acquire(txn.txn_id, key)
        self.tree.upsert(txn, key, HELD)
        db.prepare(txn, 77)
        db.crash()
        db.restart()
        return txn.txn_id

    def hold_loser(self, key: bytes) -> int:
        db = self.db
        txn = db.begin()
        db.locks.acquire(txn.txn_id, key)
        self.tree.upsert(txn, key, HELD)
        db.log.force()
        db.crash()
        db.restart(mode="on_demand")
        return txn.txn_id

    def close(self) -> None:
        self.client.close()


class _Worker:
    """The in-process shard of a 2-shard fleet that owns the keys."""

    def __init__(self) -> None:
        self.fleet = repro.connect(ShardConfig(n_shards=2, transport="inproc",
                                               engine=fast_config()))
        self.fleet.apply_batch([("put", key, OLD) for key in KEYS])
        router = self.fleet.router
        self.shard = router.shards[router.shard_of(KEYS[3])]
        self.db = self.shard.worker.db

    def read(self, key: bytes) -> bytes | None:
        return self.shard.call(("get", key))

    def _branch(self, key: bytes) -> int:
        before = self.db.tm.next_txn_id
        self.shard.call(("txn_put", 5, key, HELD, True))
        return before

    def hold_open(self, key: bytes) -> int:
        return self._branch(key)

    def hold_in_doubt(self, key: bytes) -> int:
        txn_id = self._branch(key)
        self.shard.call(("prepare", 5, 77))
        self.shard.call(("crash",))
        assert self.shard.call(("restart",)) == [77]
        return txn_id

    def hold_loser(self, key: bytes) -> int:
        txn_id = self._branch(key)
        self.db.log.force()
        self.shard.call(("crash",))
        self.shard.call(("restart", "on_demand"))
        return txn_id

    def close(self) -> None:
        self.fleet.close()


def _put(env, key):  # noqa: ANN001, ANN202
    return env.client.put(key, NEW)


def _delete(env, key):  # noqa: ANN001, ANN202
    return env.client.delete(key)


def _worker_put(env, key):  # noqa: ANN001, ANN202
    return env.shard.call(("put", key, NEW))


def _worker_delete(env, key):  # noqa: ANN001, ANN202
    return env.shard.call(("delete", key))


def _db_insert(env, key):  # noqa: ANN001, ANN202
    return env.db.insert(env.tree, key, NEW)


def _db_update(env, key):  # noqa: ANN001, ANN202
    return env.db.update(env.tree, key, NEW)


def _db_delete(env, key):  # noqa: ANN001, ANN202
    return env.db.delete(env.tree, key)


#: name -> (environment, write, key, what the key reads after it commits)
SITES = {
    "client.put": (_Embedded, _put, KEYS[3], NEW),
    "client.delete": (_Embedded, _delete, KEYS[3], None),
    "worker.put": (_Worker, _worker_put, KEYS[3], NEW),
    "worker.delete": (_Worker, _worker_delete, KEYS[3], None),
    "db.insert": (_Embedded, _db_insert, FRESH, NEW),
    "db.update": (_Embedded, _db_update, KEYS[3], NEW),
    "db.delete": (_Embedded, _db_delete, KEYS[3], None),
}
#: the sites that write a value (a ghost of the key is revived)
VALUE_SITES = ["client.put", "worker.put", "db.insert"]


def _appended(db, end: int) -> list:  # noqa: ANN001
    return [(r.kind, r.txn_id) for r in records_from(db.log, end)]


@pytest.mark.parametrize("holder", ["open", "in_doubt"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_key_held_by_a_live_transaction_refuses_the_write(site, holder):
    make, write, key, _after = SITES[site]
    env = make()
    try:
        holder_id = getattr(env, f"hold_{holder}")(key)
        db = env.db
        active = dict(db.tm.active)
        end, writer = db.log.end_lsn, db.tm.next_txn_id
        with pytest.raises(LockConflict):
            write(env, key)
        # No write: the refused transaction's one record is its ABORT.
        assert _appended(db, end) == [(ABORT, writer)]
        assert db.locks.held_keys() == [key]
        assert db.locks.holder_of(key) == holder_id
        assert db.locks.locks_held(writer) == set()
        assert db.tm.active == active
        assert_no_pins(db)
    finally:
        env.close()


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_key_held_by_a_pending_loser_rolls_it_back_and_commits(site):
    make, write, key, after = SITES[site]
    env = make()
    try:
        loser = env.hold_loser(key)
        db = env.db
        assert loser in db.pending_recovery.pending_losers
        end, writer = db.log.end_lsn, db.tm.next_txn_id
        undone = db.stats.get("lazy_undo_on_conflict")
        write(env, key)
        assert db.stats.get("lazy_undo_on_conflict") == undone + 1
        kinds = _appended(db, end)
        # The loser's rollback (compensations, its ABORT), then the write.
        assert kinds.index((ABORT, loser)) < kinds.index((UPDATE, writer))
        assert all(txn_id == loser for _kind, txn_id in kinds
                   [:kinds.index((ABORT, loser)) + 1])
        assert db.log.durable_lsn == db.log.end_lsn
        assert db.locks.held_keys() == [] and not db.tm.active
        assert env.read(key) == after
        assert_no_pins(db)
    finally:
        env.close()


def _fail_at_append(monkeypatch, db, after: bool, fail) -> None:  # noqa: ANN001
    """The first UPDATE appended calls ``fail()``, which raises, before
    or after the record is placed."""
    append = LogManager.append

    def failing(log, record: bytes):  # noqa: ANN001, ANN202
        if log is not db.log or read_header(record)[0] != UPDATE:
            return append(log, record)
        monkeypatch.setattr(LogManager, "append", append)
        if after:
            append(log, record)
        fail()

    monkeypatch.setattr(LogManager, "append", failing)


def _escalate_at_append(monkeypatch, db, after: bool) -> None:  # noqa: ANN001
    """The first UPDATE appended fails the device, before or after it
    is placed, as a repair escalating to a media failure would."""
    def escalate() -> None:
        media = MediaFailure(db.device.name, "injected device loss")
        db.recovery_manager.on_media_failure(media)
        raise media

    _fail_at_append(monkeypatch, db, after, escalate)


@pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_media_failure_inside_the_write_kills_it(site, after, monkeypatch):
    make, write, key, _after = SITES[site]
    env = make()
    try:
        db = env.db
        before, end, writer = db.stats.snapshot(), db.log.end_lsn, db.tm.next_txn_id
        _escalate_at_append(monkeypatch, db, after)
        with pytest.raises(MediaFailure):
            write(env, key)
        monkeypatch.undo()
        # Before: nothing placed.  After: the one record, committed by
        # its bit and never forced.
        assert _appended(db, end) == ([(UPDATE, writer)] if after else [])
        assert db.log.durable_lsn <= end
        delta = db.stats.delta(before)
        assert delta.get("log_forces", 0) == 0
        assert delta["txns_killed_by_media_failure"] == 1
        assert delta.get("txns_aborted", 0) == 0
        assert db.locks.held_keys() == [] and not db.tm.active
        assert db._media_failed
    finally:
        env.close()


@pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_crash_inside_the_write_leaves_it_to_restart(site, after, monkeypatch):
    """The crash's new engine never knew the write: nothing is logged
    or forced for it after the crash, and restart finds no loser."""
    make, write, key, _after = SITES[site]
    env = make()
    try:
        db = env.db
        was = env.read(key)
        before, durable = db.stats.snapshot(), db.log.durable_lsn

        def crash() -> None:
            db.crash()
            raise SystemFailure("injected crash")

        _fail_at_append(monkeypatch, db, after, crash)
        with pytest.raises(SystemFailure):
            write(env, key)
        monkeypatch.undo()
        assert db.log.end_lsn == db.log.durable_lsn == durable
        assert db.stats.delta(before).get("log_forces", 0) == 0
        assert db.restart().loser_txn_ids == []
        assert env.read(key) == was
        assert db.locks.held_keys() == [] and not db.tm.active
    finally:
        env.close()


@pytest.mark.parametrize("site", VALUE_SITES)
def test_a_revival_whose_second_record_fails_rolls_back_to_the_ghost(
        site, monkeypatch):
    make, write, key, _after = SITES[site]
    env = make()
    try:
        db = env.db
        if site == "worker.put":
            env.shard.call(("delete", key))
        elif site == "db.insert":
            db.insert(env.tree, key, OLD)
            db.delete(env.tree, key)
        else:
            env.client.delete(key)
        assert env.read(key) is None
        end, writer = db.log.end_lsn, db.tm.next_txn_id
        log_update = TransactionManager.log_update
        calls = []

        def second_fails(tm, txn, *args, **kwargs):  # noqa: ANN001, ANN002, ANN003, ANN202
            calls.append(txn.txn_id)
            if len(calls) == 2:
                raise RuntimeError("injected: the revival's second record")
            return log_update(tm, txn, *args, **kwargs)

        monkeypatch.setattr(TransactionManager, "log_update", second_fails)
        with pytest.raises(RuntimeError):
            write(env, key)
        monkeypatch.undo()
        assert calls == [writer, writer]
        kinds = _appended(db, end)
        assert kinds[0] == (UPDATE, writer) and kinds[-1] == (ABORT, writer)
        first = record_at(db.log, end)
        assert first.undo is not None and not first.commits
        assert env.read(key) is None
        assert db.locks.held_keys() == [] and not db.tm.active
        assert_no_pins(db)
        write(env, key)
        assert env.read(key) == NEW
    finally:
        env.close()
