"""Every field the engine reads from a log record is what the format's
reference decoder reads there.

Two engine-written logs: the seeded write stream of
``tests/test_golden_write_path.py``, and a recovery stream that logs
checkpoints, a full backup, page backups and in-log page images, a
PREPARE left in doubt across a crash and then rolled back, a rolled-back
leaf run and a split cut by a crash and undone by restart.  For every
record, each field a site under ``src/`` reads in place
(:func:`tests.record_reference.engine_fields`: the header, a
transaction's undo and op, a CLR's ``undo_next_lsn``, a PRI update's
writes, a backup's reference, a checkpoint's tables, an image, a backup
or global transaction id) equals what the reference decoder
(:meth:`tests.record_reference.LogRecord.decode`) returns for it.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.shard.router import check_batch_op
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import SEQUENCE
from repro.wal.records import LogRecordKind
from tests.record_reference import LogRecord, engine_fields, reference_fields
from tests.test_golden_write_path import CASES, write_stream
from tests.test_structure_records import (_PUTS, _arm, _Cut, _key, _loaded,
                                          _put)

_KIND = LogRecordKind


def _recovery_stream(monkeypatch) -> Database:  # noqa: ANN001
    """A log of every record kind recovery reads: see the module
    docstring."""
    db, tree = _loaded()
    db.checkpoint()
    db.take_full_backup()
    # A leaf run past the preload's last key, rolled back.
    txn = db.begin()
    tree.apply_batch(txn, [("put", _key(i), b"run" * 10)
                           for i in range(400, 440)], check_batch_op)
    db.abort(txn)
    # A prepared branch, in doubt across a crash, then rolled back.
    txn = db.begin()
    db.locks.acquire(txn.txn_id, _key(3))
    tree.upsert(txn, _key(3), b"prepared")
    db.prepare(txn, 77)
    db.flush_everything()
    db.crash()
    db.restart("eager")
    assert 77 in db.indoubt
    db.resolve_indoubt(77, commit=False)
    tree = db.tree(tree.index_id)
    # A prepared branch committed, its COMMIT a record of its own; a key
    # rewritten until its page's write-back takes a page copy.
    txn = db.begin()
    db.locks.acquire(txn.txn_id, _key(6))
    tree.upsert(txn, _key(6), b"committed")
    db.prepare(txn, 78)
    db.commit_prepared(txn)
    for n in range(70):
        db.update(tree, _key(9), b"rewrite %d" % n)
    db.flush_everything()
    # A split cut before its commit, undone by restart.
    _arm(db, tree, monkeypatch, "split, before the commit")
    with pytest.raises(_Cut):
        for i in _PUTS:
            _put(db, tree, [i])
    db.crash()
    monkeypatch.undo()
    db.restart("eager")
    tree = db.tree(tree.index_id)
    db.take_log_image(db.catalog.get_root(tree.index_id))
    db.checkpoint()
    db.flush_everything()
    return db


def _check(log) -> list[dict]:  # noqa: ANN001
    """The engine's fields of every record of ``log``, each checked
    against the reference decoder's."""
    read = []
    for lsn, encoding in log.encodings_from(NULL_LSN):
        fields = engine_fields(encoding)
        assert fields == reference_fields(LogRecord.decode(encoding)), lsn
        read.append(fields)
    return read


def test_the_write_streams_fields_are_the_reference_decoders():
    kinds = {fields["kind"]
             for fields in _check(write_stream(*CASES["stream"]).db.log)}
    assert {_KIND.UPDATE, _KIND.COMPENSATION, _KIND.FORMAT_PAGE,
            _KIND.PRI_UPDATE, _KIND.CHECKPOINT_END} <= kinds


def test_the_recovery_streams_fields_are_the_reference_decoders(monkeypatch):
    db = _recovery_stream(monkeypatch)
    # Every kind but a system transaction's commit record, which only a
    # system transaction whose last record hardened before its commit
    # logs: a bare header, read by read_header alone.
    read = _check(db.log)
    assert {fields["kind"] for fields in read} == (
        set(_KIND) - {_KIND.SYS_COMMIT})
    # The leaf run's undo, and the CLR restart logged for the cut
    # split's source page: a sequence of the link's inverses and the
    # moved rows.
    assert any(fields.get("undo") is not None and fields["undo"].keys
               for fields in read)
    assert any(fields["kind"] == _KIND.COMPENSATION
               and fields["op"][0] == SEQUENCE for fields in read)
