"""Wide log records end to end.

A record takes the 21-byte narrow header while its fields fit and the
45-byte wide one otherwise (:mod:`repro.wal.records`).  Here the
transaction ids of a stream of commits start at 2**32 - 8, so the log
crosses from narrow to wide in the middle of the stream, and every
recovery path reads both forms: eager and on-demand restart (byte-
identical to each other), a single-page repair replaying a leaf chain
that mixes the two, and a media restore.
"""

from __future__ import annotations

from repro.btree.verify import verify_tree
from repro.core.backup import BackupPolicy
from repro.engine.database import Database
from repro.wal.records import LogRecord
from tests.conftest import (
    assert_identical_recovery,
    clone_crashed,
    fast_config,
    key_of,
    value_of,
)

#: the first transaction id of the stream: 8 ids below the wide form
TXN_START = 2**32 - 8
KEYS = 80


def _is_wide(record: LogRecord) -> bool:
    return bool(record.encode()[0] & 0x40)


def prepared():  # noqa: ANN201
    """Committed keys and a full backup under small ids, then rounds of
    autocommit rewrites whose ids cross 2**32 in the first round."""
    db = Database(fast_config(capacity_pages=1024, buffer_capacity=48,
                              backup_policy=BackupPolicy.disabled()))
    tree = db.create_index()
    model = {}
    txn = db.begin()
    for i in range(KEYS):
        tree.insert(txn, key_of(i), value_of(i, 0))
        model[key_of(i)] = value_of(i, 0)
    db.commit(txn)
    backup_id = db.take_full_backup()
    stream_start = db.log.end_lsn
    db.tm.restore_txn_id_floor(TXN_START - 1)
    for version in (1, 2, 3):
        for i in range(0, KEYS, 5):
            db.update(tree, key_of(i), value_of(i, version))
            model[key_of(i)] = value_of(i, version)
    return db, tree, model, backup_id, stream_start


def test_the_stream_crosses_from_narrow_to_wide_and_round_trips():
    db, _tree, _model, _backup, stream_start = prepared()
    stream = db.log.records_from(stream_start)
    first_txn = next(r.txn_id for r in stream if r.txn_id)
    assert first_txn == TXN_START
    forms = [_is_wide(r) for r in stream if r.txn_id]
    crossing = forms.index(True)
    assert 0 < crossing and not any(forms[:crossing]) and all(forms[crossing:])
    for record in db.log.all_records():
        decoded = LogRecord.decode(record.encode())
        decoded.lsn = record.lsn
        assert decoded == record
        # every other field of this small log fits the narrow form
        assert _is_wide(record) is (record.txn_id >= 2**32)


def test_eager_and_on_demand_restart_recover_identically():
    db, tree, model, _backup, _start = prepared()
    loser = db.begin()
    for i in (1, 2, 3):
        db.update(tree, key_of(i), b"DOOMED", txn=loser)
    rider = db.begin()  # its force hardens the loser's wide records
    db.update(tree, key_of(KEYS - 1), b"rider", txn=rider)
    db.commit(rider)
    model[key_of(KEYS - 1)] = b"rider"
    db.crash()
    eager_db, lazy_db = clone_crashed(db), clone_crashed(db)
    eager_db.restart(mode="eager")
    lazy_db.restart(mode="on_demand")
    lazy_db.finish_restart()
    assert_identical_recovery(eager_db, lazy_db)
    assert dict(eager_db.tree(1).range_scan()) == model
    assert verify_tree(eager_db.tree(1)).ok
    # New transactions keep wide ids: restart never reuses one.
    txn = eager_db.begin()
    assert txn.txn_id > loser.txn_id >= 2**32
    eager_db.abort(txn)


def test_a_leaf_is_repaired_through_a_chain_of_both_forms():
    db, tree, model, _backup, _start = prepared()
    page, _node = tree._descend(key_of(0), for_write=False)
    leaf = page.page_id
    db.unfix(leaf)
    db.flush_everything()
    db.evict_everything()
    db.device.inject_bit_rot(leaf)
    assert dict(tree.range_scan()) == model
    event = db.recent_failures()[-1]
    assert event.page_id == leaf and event.records_replayed > 0
    # The replayed records are the last ones of the leaf's chain.
    page, _node = tree._descend(key_of(0), for_write=False)
    lsn = page.page_lsn
    db.unfix(leaf)
    replayed = []
    for _ in range(event.records_replayed):
        record = db.log.record_at(lsn)
        assert record.page_id == leaf
        replayed.append(_is_wide(record))
        lsn = record.page_prev_lsn
    assert True in replayed and False in replayed


def test_a_media_restore_replays_both_forms():
    db, _tree, model, backup_id, _start = prepared()
    db.device.fail_device("injected media failure")
    db.recover_media(backup_id)
    tree = db.tree(1)
    assert dict(tree.range_scan()) == model
    assert verify_tree(tree).ok
