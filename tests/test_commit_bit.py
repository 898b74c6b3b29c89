"""The commit rides on the transaction's last record (Figure 5).

A commit is one bit on the transaction's last log record, made durable
by a force; a COMMIT / SYS_COMMIT record exists only as the fallback
for a transaction whose last record can no longer change.  This suite
is the crash-point matrix of that rule — crash before and after the
force for one-write, three-write and system transactions; the carrying
record already hardened by another transaction's force, a checkpoint,
a PREPARE, or (two threads) a rider's force between write and commit —
each cell recovered under both restart modes with the byte-identity
oracle, and through ``recover_media()``; then the readers of
"committed" outside recovery (the shard worker's retry probe and slot
delta, the chaos oracle), and the log-traffic accounting of a put.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro.btree.verify import verify_tree
from repro.engine.database import Database
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.sim.harness import DurabilityOracle
from repro.wal.records import LogRecordKind, commits_user_txn
from tests.conftest import (
    assert_identical_recovery,
    clone_crashed,
    fast_config,
    key_of,
    value_of,
)
from tests.record_reference import all_records, encode, record_at, records_from
from tests.test_shard_round_trips import keys_on

N_KEYS = 120


def prepared(with_backup: bool = False) -> tuple[Database, object, dict]:
    """A committed base, made durable and checkpointed (or backed up)."""
    db = Database(fast_config(capacity_pages=1024, buffer_capacity=48))
    tree = db.create_index()
    model = {}
    txn = db.begin()
    for i in range(N_KEYS):
        tree.insert(txn, key_of(i), value_of(i, 0))
        model[key_of(i)] = value_of(i, 0)
    db.commit(txn)
    db.flush_everything()
    if with_backup:
        db.take_full_backup()
    else:
        db.checkpoint()
    return db, tree, model


def write(db: Database, tree, txn, model: dict | None, *indexes: int) -> None:
    for i in indexes:
        db.locks.acquire(txn.txn_id, key_of(i))
        tree.update(txn, key_of(i), value_of(i, 1))
        if model is not None:
            model[key_of(i)] = value_of(i, 1)


def user_commit(record) -> bool:  # noqa: ANN001
    """Does ``record`` end a user transaction as committed?"""
    return commits_user_txn(encode(record), record.kind, record.commits)


def records_of(db: Database, txn_id: int) -> list:
    return [r for r in all_records(db.log) if r.txn_id == txn_id]


def leaf_of(db: Database, tree, i: int) -> int:
    page, _node, _pid = tree._descend(key_of(i), for_write=False)
    db.pool.unfix(page.page_id)
    return page.page_id


# ----------------------------------------------------------------------
# Scenarios: each runs some transactions, asserts how each commit was
# recorded, and leaves in ``model`` what a *crash right now* must
# preserve (what committed durably).  It returns the keys of writes
# that finished on a bit no force has covered yet: gone after a crash,
# committed for any reader of the running engine.
# ----------------------------------------------------------------------
def one_write_before_force(db, tree, model):
    txn = db.begin()
    write(db, tree, txn, None, 3)
    lsn = db.tm.commit(txn, defer_force=True)   # the bit, no force yet
    assert record_at(db.log, lsn).commits and lsn >= db.log.durable_lsn
    # Finished as far as the running engine goes: locks free, not active.
    assert txn.txn_id not in db.tm.active and db.locks.held_keys() == []
    return (3,)


def one_write_after_force(db, tree, model):
    txn = db.begin()
    write(db, tree, txn, model, 3)
    forces = db.stats.get("log_forces")
    lsn = db.commit(txn)
    assert db.stats.get("log_forces") == forces + 1
    assert lsn < db.log.durable_lsn == db.log.end_lsn
    (record,) = records_of(db, txn.txn_id)      # one record, no COMMIT
    assert record.kind == LogRecordKind.UPDATE and record.commits


def three_writes_before_force(db, tree, model):
    txn = db.begin()
    write(db, tree, txn, None, 3, 50, 97)
    lsn = db.tm.commit(txn, defer_force=True)
    assert [r.commits for r in records_of(db, txn.txn_id)] == [
        False, False, True]
    assert lsn == txn.last_lsn >= db.log.durable_lsn
    return (3, 50, 97)


def three_writes_after_force(db, tree, model):
    txn = db.begin()
    write(db, tree, txn, model, 3, 50, 97)
    lsn = db.commit(txn)
    records = records_of(db, txn.txn_id)
    assert [r.kind for r in records] == [LogRecordKind.UPDATE] * 3
    assert [r.commits for r in records] == [False, False, True]
    assert records[-1].lsn == lsn < db.log.durable_lsn


def system_txn_before_force(db, tree, model):
    """A split commits by the bit and does not force; the crash takes
    it whole (contents-neutral: it never happened)."""
    forces = db.stats.get("log_forces")
    sys_ids = {t for t in db.tm.active}
    tree._split(leaf_of(db, tree, 10))
    assert db.stats.get("log_forces") == forces
    split = [r for r in all_records(db.log)
             if r.lsn >= db.log.durable_lsn and r.txn_id not in sys_ids]
    assert split and split[-1].commits and not user_commit(split[-1])
    assert not any(r.kind == LogRecordKind.SYS_COMMIT for r in split)


def system_txn_after_force(db, tree, model):
    system_txn_before_force(db, tree, model)
    db.log.force()      # somebody's force (Figure 5): the split is durable


def hardened_by_another_commit(db, tree, model):
    """The rider case: another transaction's group force hardened our
    last record before we committed — it cannot change any more."""
    mine = db.begin()
    write(db, tree, mine, model, 3)
    other = db.begin()
    write(db, tree, other, model, 50)
    db.commit(other)
    assert mine.last_lsn < db.log.durable_lsn
    lsn = db.commit(mine)
    update, commit = records_of(db, mine.txn_id)
    assert not update.commits
    assert commit.kind == LogRecordKind.COMMIT and commit.lsn == lsn
    assert lsn < db.log.durable_lsn


def hardened_by_a_checkpoint(db, tree, model):
    """The checkpoint's ATT lists the transaction at its last record;
    analysis starts behind that record, so the commit must be a record
    of its own after the checkpoint."""
    txn = db.begin()
    write(db, tree, txn, model, 3, 50)
    db.checkpoint()
    lsn = db.commit(txn)
    assert record_at(db.log, lsn).kind == LogRecordKind.COMMIT
    assert lsn > db.log.master_checkpoint_lsn
    assert not any(r.commits for r in records_of(db, txn.txn_id))


def prepared_then_committed(db, tree, model):
    """2PC is the rule's fallback path: a forced PREPARE, then a COMMIT
    record phase two appends unforced — the coordinator's forced
    decision covers it, and a crash that takes it leaves the branch in
    doubt for the coordinator to commit again."""
    txn = db.begin()
    write(db, tree, txn, model, 3)
    forces = db.stats.get("log_forces")
    db.prepare(txn, gtid=77)
    lsn = db.commit_prepared(txn)
    assert db.stats.get("log_forces") == forces + 1
    assert lsn >= db.log.durable_lsn
    assert [(r.kind, r.commits) for r in records_of(db, txn.txn_id)] == [
        (LogRecordKind.UPDATE, False), (LogRecordKind.PREPARE, False),
        (LogRecordKind.COMMIT, False)]


def rider_force_between_write_and_commit(db, tree, model):
    """Two threads on two sessions: the second session's commit forces
    the shared tail between the first session's write and its commit."""
    first = db.session()
    first.begin()
    first.update(tree, key_of(3), value_of(3, 1))
    model[key_of(3)] = value_of(3, 1)

    def rider() -> None:
        second = db.session()
        second.begin()
        second.update(tree, key_of(50), value_of(50, 1))
        second.commit()

    thread = threading.Thread(target=rider)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    model[key_of(50)] = value_of(50, 1)
    mine = first.txn
    assert mine.last_lsn < db.log.durable_lsn
    lsn = first.commit()
    assert record_at(db.log, lsn).kind == LogRecordKind.COMMIT
    assert not any(r.commits for r in records_of(db, mine.txn_id))
    assert lsn < db.log.durable_lsn


#: the coordinator's forced decision for each gtid a case prepares
DECISIONS = {77: True, 41: True}


def resolve_as_coordinator(db: Database) -> list[int]:
    """Deliver the coordinator's decision to every branch a recovery
    left in doubt (a phase-two COMMIT the crash took commits again);
    returns their gtids."""
    gtids = sorted(db.indoubt)
    for gtid in gtids:
        db.resolve_indoubt(gtid, DECISIONS[gtid])
    return gtids


SCENARIOS = {
    "one-write/before-force": one_write_before_force,
    "one-write/after-force": one_write_after_force,
    "three-writes/before-force": three_writes_before_force,
    "three-writes/after-force": three_writes_after_force,
    "system/before-force": system_txn_before_force,
    "system/after-force": system_txn_after_force,
    "hardened/by-another-commit": hardened_by_another_commit,
    "hardened/by-a-checkpoint": hardened_by_a_checkpoint,
    "hardened/by-prepare": prepared_then_committed,
    "hardened/by-a-rider-thread": rider_force_between_write_and_commit,
}


@pytest.mark.parametrize("mode", ["eager", "on_demand"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_crash_converges_to_what_committed_durably(scenario, mode):
    db, tree, model = prepared()
    SCENARIOS[scenario](db, tree, model)
    db.crash()
    report = db.restart(mode=mode)
    assert report.loser_txn_ids == []   # nothing here is a durable loser
    assert resolve_as_coordinator(db) == (
        [77] if scenario == "hardened/by-prepare" else [])
    if mode == "on_demand":
        db.finish_restart()
    tree = db.tree(1)
    assert dict(tree.range_scan()) == model
    assert verify_tree(tree).ok
    assert db.locks.held_keys() == [] and not db.tm.active
    # And the recovered engine commits by the same rule.
    txn = db.begin()
    write(db, tree, txn, model, 7)
    assert record_at(db.log, db.commit(txn)).commits
    assert dict(tree.range_scan()) == model


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_restart_modes_recover_identically(scenario):
    """One crash image, two recoveries: byte-identical pages, identical
    log (commit bits included), identical committed state."""
    db, tree, model = prepared()
    SCENARIOS[scenario](db, tree, model)
    db.crash()
    eager_db, lazy_db = clone_crashed(db), clone_crashed(db)
    eager_db.restart(mode="eager")
    lazy_db.restart(mode="on_demand")
    resolve_as_coordinator(eager_db)
    resolve_as_coordinator(lazy_db)
    lazy_db.finish_restart()
    assert_identical_recovery(eager_db, lazy_db)
    assert dict(eager_db.tree(1).range_scan()) == model


@pytest.mark.parametrize("crash_first", [False, True],
                         ids=["media-only", "crash-then-media"])
@pytest.mark.parametrize("mode", ["eager", "on_demand"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_media_recovery_sees_the_same_commits(scenario, mode, crash_first):
    """``recover_media()`` replays the same log through the same
    predicate.  Without a crash the unforced tail is still there, so a
    transaction that finished on an unforced bit counts as committed —
    as it does for every reader of the running engine."""
    db, tree, model = prepared(with_backup=True)
    backup_id = db.backup_store.full_backup_ids()[-1]
    unforced = SCENARIOS[scenario](db, tree, model) or ()
    if crash_first:
        db.crash()
        db.restart(mode="eager")
        resolve_as_coordinator(db)
    else:
        for i in unforced:
            model[key_of(i)] = value_of(i, 1)
    db.device.fail_device("injected media failure")
    report = db.recover_media(backup_id, mode=mode)
    assert report.loser_txn_ids == [] and not db.indoubt
    if mode == "on_demand":
        db.finish_restore()
    tree = db.tree(1)
    assert dict(tree.range_scan()) == model
    assert verify_tree(tree).ok


# ----------------------------------------------------------------------
# An autocommit put between its append and its force: ``client.put``
# inside ``db.group_commit()`` defers the force to the block's end, so a
# crash inside the block finds the put's record in the volatile tail —
# unless another transaction's force hardened it first.
# ----------------------------------------------------------------------
def recovered(db: Database, recovery: str, backup_id: int | None) -> Database:
    """``db`` (crashed) recovered by ``recovery``: a restart in either
    mode, or an eager restart, then a media failure and an on-demand
    restore from ``backup_id``."""
    if recovery == "media":
        db.restart(mode="eager")
        resolve_as_coordinator(db)
        db.device.fail_device("injected media failure")
        assert db.recover_media(backup_id, mode="on_demand").loser_txn_ids == []
        db.finish_restore()
    else:
        assert db.restart(mode=recovery).loser_txn_ids == []
        resolve_as_coordinator(db)
        if recovery == "on_demand":
            db.finish_restart()
    assert not db.indoubt
    return db


def put_inside_a_group_commit(db: Database, model: dict,
                              hardened: bool) -> None:
    """An autocommit put whose force the block defers, then (with
    ``hardened``) another transaction's force, then the crash — all
    inside the block."""
    client = repro.connect(db)
    end = db.log.end_lsn
    with db.group_commit():
        client.put(key_of(3), value_of(3, 1))
        (record,) = records_from(db.log, end)     # appended, not forced
        assert record.kind == UPDATE and record.commits
        assert record.lsn >= db.log.durable_lsn
        assert client.get(key_of(3)) == value_of(3, 1)
        assert db.locks.held_keys() == [] and not db.tm.active
        if hardened:
            # A prepared branch's vote forces the log whatever the block
            # defers: the put's record hardens with its bit.  Its
            # phase-two COMMIT does not force, so the crash takes it and
            # leaves gtid 41 in doubt, for the coordinator to commit.
            other = db.begin()
            write(db, db.tree(1), other, model, 50)
            db.prepare(other, gtid=41)
            db.commit_prepared(other)
            assert record.lsn < db.log.durable_lsn
            model[key_of(3)] = value_of(3, 1)
            assert shape_of(db, record.txn_id) == [(UPDATE, True)]
        db.crash()


@pytest.mark.parametrize("recovery", ["eager", "on_demand", "media"])
@pytest.mark.parametrize("hardened", [False, True],
                         ids=["appended-not-forced", "hardened-by-another"])
def test_an_autocommit_put_is_as_durable_as_its_record(hardened, recovery):
    db, _tree, model = prepared(with_backup=True)
    backup_id = db.backup_store.full_backup_ids()[-1]
    put_inside_a_group_commit(db, model, hardened)
    tree = recovered(db, recovery, backup_id).tree(1)
    assert dict(tree.range_scan()) == model
    assert verify_tree(tree).ok
    assert db.locks.held_keys() == [] and not db.tm.active


@pytest.mark.parametrize("hardened", [False, True],
                         ids=["appended-not-forced", "hardened-by-another"])
def test_an_autocommit_put_recovers_identically_in_both_modes(hardened):
    db, _tree, model = prepared()
    put_inside_a_group_commit(db, model, hardened)
    eager_db, lazy_db = clone_crashed(db), clone_crashed(db)
    eager_db.restart(mode="eager")
    lazy_db.restart(mode="on_demand")
    assert resolve_as_coordinator(eager_db) == ([41] if hardened else [])
    assert resolve_as_coordinator(lazy_db) == ([41] if hardened else [])
    lazy_db.finish_restart()
    assert_identical_recovery(eager_db, lazy_db)
    assert dict(eager_db.tree(1).range_scan()) == model


def test_a_loser_whose_last_record_is_durable_still_rolls_back():
    """The bit, not durability of the last record, is what commits."""
    db, tree, model = prepared()
    loser = db.begin()
    write(db, tree, loser, None, 3, 50)
    db.log.force()
    db.crash()
    report = db.restart(mode="eager")
    assert report.loser_txn_ids == [loser.txn_id]
    assert dict(db.tree(1).range_scan()) == model


def test_log_commit_takes_the_bit_only_where_it_may():
    """``LogManager.commit`` sets the bit on the named transaction's own
    chain record while it is volatile, else appends a COMMIT record:
    for another transaction's record, an LSN naming no record, a
    durable record, a PREPARE."""
    db, tree, _model = prepared()
    log = db.log
    txn = db.begin()
    write(db, tree, txn, None, 3)
    lsn = txn.last_lsn
    for stranger, at in ((txn.txn_id + 100, lsn),     # not its record
                         (txn.txn_id + 101, lsn + 1)):  # no record there
        commit = log.commit(stranger, at, force=False)
        assert commit > lsn and record_at(log, commit).kind == COMMIT
    assert not record_at(log, lsn).commits
    # No longer the tail, still volatile: the bit, and no force.
    durable = log.durable_lsn
    assert log.commit(txn.txn_id, lsn, force=False) == lsn
    assert record_at(log, lsn).commits and log.durable_lsn == durable
    db.abort_quietly(txn)
    # A durable record is immutable; a PREPARE is not a chain record.
    other = db.begin()
    write(db, tree, other, None, 50)
    log.force()
    commit = log.commit(other.txn_id, other.last_lsn, force=False)
    assert record_at(log, commit).kind == COMMIT
    assert not record_at(log, other.last_lsn).commits
    prepare = db.prepare(db.begin(), gtid=5)
    commit = log.commit(record_at(log, prepare).txn_id, prepare)
    assert record_at(log, commit).kind == COMMIT
    assert not record_at(log, prepare).commits
    assert log.durable_lsn == log.end_lsn    # force=True forced it


# ----------------------------------------------------------------------
# Where the commit lands: the bit on the transaction's last record while
# that record is still volatile, whoever appended after it, else a
# COMMIT / SYS_COMMIT record of its own
# ----------------------------------------------------------------------
def shape_of(db: Database, txn_id: int) -> list[tuple]:
    return [(r.kind, r.commits) for r in records_of(db, txn_id)]


UPDATE, COMMIT = LogRecordKind.UPDATE, LogRecordKind.COMMIT


@pytest.mark.parametrize("hardener", ["log.force", "checkpoint", "write-back"])
def test_a_force_between_append_and_commit_leaves_a_commit_record(hardener):
    db, tree, _model = prepared()
    txn = db.begin()
    write(db, tree, txn, None, 3)
    if hardener == "log.force":
        db.log.force()
    elif hardener == "checkpoint":
        db.checkpoint()
    else:
        # The WAL rule: writing the page back forces the log through it.
        db.pool.flush_page(leaf_of(db, tree, 3))
    assert txn.last_lsn < db.log.durable_lsn
    forces = db.stats.get("log_forces")
    lsn = db.commit(txn)
    assert shape_of(db, txn.txn_id) == [(UPDATE, False), (COMMIT, False)]
    # a COMMIT record is a bare narrow header
    assert lsn == db.log.end_lsn - 21 < db.log.durable_lsn
    assert db.stats.get("log_forces") == forces + 1


@pytest.mark.parametrize("other_commits", [False, True])
def test_the_bit_lands_on_a_volatile_record_that_is_not_the_tail(other_commits):
    """Another transaction appended after ours; ours is still volatile,
    so it takes the bit wherever it sits (inside a group_commit block,
    even when the other transaction committed first)."""
    db, tree, _model = prepared()
    mine, other = db.begin(), db.begin()
    write(db, tree, mine, None, 3)
    write(db, tree, other, None, 50)
    assert mine.last_lsn < other.last_lsn
    with db.group_commit():
        if other_commits:
            db.commit(other)
        durable = db.log.durable_lsn
        lsn = db.commit(mine)
        assert db.log.durable_lsn == durable     # the block's force is later
    assert lsn == mine.last_lsn
    assert shape_of(db, mine.txn_id) == [(UPDATE, True)]
    if not other_commits:
        db.abort(other)
    assert db.log.durable_lsn > lsn


@pytest.mark.parametrize("reused", [False, True],
                         ids=["lsn-vacant", "lsn-reused"])
def test_the_bit_never_lands_on_a_record_a_crash_discarded(reused):
    """A handle that outlived a crash commits with a record of its own:
    its last record is gone, and its LSN names no record or another
    transaction's — which, still volatile behind that COMMIT record,
    takes its own transaction's bit."""
    db, tree, _model = prepared()
    stale = db.begin()
    write(db, tree, stale, None, 3)
    lost_lsn = stale.last_lsn
    db.crash()
    db.restart(mode="eager")
    assert db.log.end_lsn == lost_lsn
    fresh = db.begin()
    if reused:
        write(db, db.tree(1), fresh, None, 50)
        assert fresh.last_lsn == lost_lsn
    db.tm.commit(stale, defer_force=True)
    assert shape_of(db, stale.txn_id) == [(COMMIT, False)]
    assert not reused or not record_at(db.log, lost_lsn).commits
    db.commit(fresh)
    assert shape_of(db, fresh.txn_id) == (
        [(UPDATE, True)] if reused else [(COMMIT, False)])


def test_a_truncated_log_still_takes_the_bit_on_its_new_tail():
    db, tree, _model = prepared()
    db.take_full_backup()
    db.truncate_log()
    assert db.log.truncated_below > 0
    txn = db.begin()
    write(db, tree, txn, None, 3)
    lsn = db.commit(txn)
    assert shape_of(db, txn.txn_id) == [(UPDATE, True)] and lsn < db.log.durable_lsn


def test_a_promoted_standby_commits_by_the_same_rule():
    """The standby's log adopts shipped records as durable; once
    promoted, its first commit takes the bit on its own new record, and
    an empty transaction still writes a COMMIT record."""
    db, tree, model = prepared()
    standby = db.attach_standby()
    write_txn = db.begin()
    write(db, tree, write_txn, model, 3)
    db.commit(write_txn)
    promoted = standby.promote()
    assert promoted.log.durable_lsn == promoted.log.end_lsn
    tree = promoted.tree(1)
    txn = promoted.begin()
    write(promoted, tree, txn, model, 50)
    lsn = promoted.commit(txn)
    assert shape_of(promoted, txn.txn_id) == [(UPDATE, True)]
    assert lsn < promoted.log.durable_lsn
    empty = promoted.begin()
    assert record_at(promoted.log, promoted.commit(empty)).kind == COMMIT
    assert dict(tree.range_scan()) == model


def test_a_group_commit_sets_every_bit_and_forces_once():
    db, tree, _model = prepared()
    forces = db.stats.get("log_forces")
    txns = []
    with db.group_commit():
        for i in (3, 50, 97):
            txn = db.begin()
            write(db, tree, txn, None, i)
            db.commit(txn)
            txns.append(txn)
        assert db.stats.get("log_forces") == forces
        assert db.log.durable_lsn <= txns[0].last_lsn
    assert db.stats.get("log_forces") == forces + 1
    for txn in txns:
        assert shape_of(db, txn.txn_id) == [(UPDATE, True)]
    assert db.log.durable_lsn == db.log.end_lsn


def test_a_session_commit_sets_the_bit_and_forces_on_the_barrier():
    db, tree, _model = prepared()
    session = db.session()
    session.begin()
    session.update(tree, key_of(3), value_of(3, 1))
    txn = session.txn
    forces = db.stats.get("log_forces")
    lsn = session.commit()
    assert shape_of(db, txn.txn_id) == [(UPDATE, True)]
    assert db.stats.get("log_forces") == forces + 1
    assert db.stats.get("group_commit_leads") == 1
    assert lsn < db.log.durable_lsn == db.log.end_lsn


def test_a_system_transaction_commits_by_the_bit_without_a_force():
    db, tree, _model = prepared()
    forces, durable = db.stats.get("log_forces"), db.log.durable_lsn
    end = db.log.end_lsn
    tree._split(leaf_of(db, tree, 10))
    (split_txn,) = {r.txn_id for r in records_from(db.log, end)}
    shape = shape_of(db, split_txn)
    assert shape[-1] == (UPDATE, True)
    assert not any(commits for _kind, commits in shape[:-1])
    empty = db.tm.begin(system=True)
    lsn = db.tm.commit(empty)
    assert shape_of(db, empty.txn_id) == [(LogRecordKind.SYS_COMMIT, False)]
    assert lsn == empty.last_lsn
    assert (db.stats.get("log_forces"), db.log.durable_lsn) == (forces, durable)


def test_an_empty_transaction_still_writes_a_commit_record():
    """Nothing logged: no record to carry the bit (and the router's
    retry probe tells a delete of an absent key by exactly this)."""
    db, _tree, _model = prepared()
    txn = db.begin()
    lsn = db.commit(txn)
    record = record_at(db.log, lsn)
    assert record.kind == LogRecordKind.COMMIT and not record.commits


# ----------------------------------------------------------------------
# The other readers of "committed"
# ----------------------------------------------------------------------
def test_a_put_logs_one_record_and_forces_once():
    db, tree, _model = prepared()
    client_key, value = key_of(5), value_of(5, 1)
    before = db.stats.snapshot()
    db.update(tree, client_key, value)
    delta = db.stats.delta(before)
    assert delta["log_records"] == 1 and delta["log_forces"] == 1
    assert delta["user_txns_committed"] == 1


@pytest.fixture
def router():
    router = ShardRouter(ShardConfig(n_shards=2, transport="inproc"))
    yield router
    router.close()


def test_outcome_since_reads_the_bit_past_a_system_commit(router):
    """The retry probe wants the *user* commit: a put that splits its
    leaf commits a system transaction (also by the bit) first."""
    worker = router.shards[0].worker
    *keys, absent = keys_on(router, 0, 401)
    splits = worker.db.stats.get("btree_splits")
    for key in keys:
        mark = worker.db.log.durable_lsn
        worker.execute(("put", key, b"v" * 120))
        if worker.db.stats.get("btree_splits") > splits:
            break
    else:
        pytest.fail("no put split a leaf")
    records = records_from(worker.db.log, mark)
    committed = [r for r in records if r.commits_txn]
    assert len(committed) >= 2 and not user_commit(committed[0])
    lsn, n_updates = worker.execute(("outcome_since", mark))
    assert user_commit(record_at(worker.db.log, lsn)) and n_updates == 1
    # A delete of an absent key commits with a record and no update;
    # a delete that found its key, with the bit on its one update.
    mark = worker.db.log.durable_lsn
    assert worker.execute(("delete", absent)) is False
    assert worker.execute(("outcome_since", mark))[1] == 0
    mark = worker.db.log.durable_lsn
    assert worker.execute(("delete", keys[0])) is True
    assert worker.execute(("outcome_since", mark))[1] == 1
    assert worker.execute(("outcome_since", worker.db.log.durable_lsn)) is None


def test_slot_delta_counts_bit_carried_commits_only(router):
    worker = router.shards[0].worker
    key, other = keys_on(router, 0, 2)
    slot = worker._slot_of(key)
    since, _items = worker.execute(("export_slot", slot))
    worker.execute(("put", key, b"committed"))          # redo-only
    worker.execute(("txn_put", 9, other, b"in flight", True))   # no commit
    if worker._slot_of(other) != slot:  # else: locked, not quiescent
        delta = worker.execute(("slot_delta", slot, since))
        assert delta == [(key, b"committed")]
    worker.execute(("txn_abort", 9))
    assert dict(worker.execute(("slot_delta", slot, since))) == {
        key: b"committed"}


def test_durability_oracle_resolves_an_uncertain_bit_carried_commit():
    db, tree, _model = prepared()
    oracle = DurabilityOracle()
    txn = db.begin()
    write(db, tree, txn, None, 3)
    db.commit(txn)                      # the acknowledgement is "lost"
    lost = db.begin()
    write(db, tree, lost, None, 50)
    db.tm.commit(lost, defer_force=True)    # never forced: dies in the crash
    oracle.record_uncertain(txn.txn_id, {key_of(3): value_of(3, 1)})
    oracle.record_uncertain(lost.txn_id, {key_of(50): value_of(50, 1)})
    db.crash()
    db.restart(mode="eager")
    oracle.resolve_uncertain(db)
    assert oracle.model == {key_of(3): value_of(3, 1)}
    assert oracle.rebase_to_log(db, "test") == []
    assert oracle.model == {key_of(3): value_of(3, 1)}


def test_a_standby_never_sees_a_record_before_its_bit():
    """Only durable records ship, and the bit is set before the force."""
    db, tree, model = prepared()
    standby = db.attach_standby()
    txn = db.begin()
    write(db, tree, txn, model, 3, 50)
    shipped_before = standby.log.end_lsn
    assert txn.last_lsn >= shipped_before           # still volatile
    lsn = db.commit(txn)
    assert record_at(standby.log, lsn).commits
    promoted = standby.promote()
    assert dict(promoted.tree(1).range_scan()) == model
