"""Every record builder writes the bytes of the one format.

:mod:`tests.record_reference` keeps the encoder the log records had as
objects.  For every record the round-trip property draws
(:mod:`tests.test_wal_roundtrip_property`: every kind, narrow and wide
headers, every op and undo shape, PRI updates of u32 and i64 entries),
the builder of the record's kind in :mod:`repro.wal.records`, given the
record's fields, writes exactly the bytes the reference writes for it —
a header field the builder does not take at its builder's value, and
the commit bit, which the log sets in place, only on a redo-only UPDATE.

The hex vectors pin one record of every kind but UPDATE — whose shapes
``tests/test_op_builders.py`` pins — plus a PRI update and a checkpoint
whose entries need i64 and a compensation whose header is wide, as the
builders, the reference and the object encoder before the builders all
wrote them, but the narrow checkpoint: its tables became u32 fields
after that encoder (the i64 layout it wrote is the wide one's, around
one entry that needs it).  :meth:`LogRecord.decode` reads each back as
the record it was built from.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings

from repro.page.page import PageType
from repro.wal import ops
from repro.wal import records
from repro.wal.records import BackupRef, CheckpointData, LogRecordKind
from tests import record_reference as reference
from tests.test_wal_roundtrip_property import _record_strategy
from tests.record_reference import LogRecord

_KIND = LogRecordKind
_CLR_OP = ops.compensation(ops.insert(7, b"key-2", b"value"))

VECTORS = {
    "commit": LogRecord(_KIND.COMMIT, 21, 1200),
    "sys commit": LogRecord(_KIND.SYS_COMMIT, 22, 1300),
    "abort": LogRecord(_KIND.ABORT, 23, 1400),
    "prepare": LogRecord(_KIND.PREPARE, 24, 1500, gtid=2**40 + 7),
    "checkpoint begin": LogRecord(_KIND.CHECKPOINT_BEGIN),
    "checkpoint end": LogRecord(_KIND.CHECKPOINT_END, checkpoint=CheckpointData(
        {43: 1100, 42: 1000}, [(9, 500, False), (15, 800, True)],
        {2: 1500})),
    "wide checkpoint end": LogRecord(
        _KIND.CHECKPOINT_END, checkpoint=CheckpointData(
            {43: 1100, 42: 2**32}, [(9, 500, False), (15, 800, True)],
            {2: 1500})),
    "format": LogRecord(_KIND.FORMAT_PAGE, 16, 0, 43, 0, 3,
                        op=ops.init_slotted(PageType.BTREE_LEAF)),
    "compensation": LogRecord(_KIND.COMPENSATION, 17, 900, 42, 1100, 3,
                              op=_CLR_OP, undo_next_lsn=600),
    "wide compensation": LogRecord(_KIND.COMPENSATION, 2**33, 2**32 + 5, 42,
                                   1100, 3, op=_CLR_OP, undo_next_lsn=600),
    "full page image": LogRecord(_KIND.FULL_PAGE_IMAGE, page_id=44,
                                 page_lsn=1600, image=b"compressed image"),
    "backup page": LogRecord(_KIND.BACKUP_PAGE, page_id=45, page_lsn=1700,
                             backup_ref=BackupRef.page_copy(3)),
    "backup full": LogRecord(_KIND.BACKUP_FULL, backup_id=4),
    "pri update": LogRecord(_KIND.PRI_UPDATE, writes=((42, 1000), (43, 1100))),
    "wide pri update": LogRecord(_KIND.PRI_UPDATE,
                                 writes=((42, 2**32), (43, 1100))),
}

HEX = {
    "commit": "03150015000000b0040000ffffffff000000000000",
    "sys commit": "0615001600000014050000ffffffff000000000000",
    "abort": "0415001700000078050000ffffffff000000000000",
    "prepare": "0e1d0018000000dc050000ffffffff0000000000000700000000010000",
    "checkpoint begin": "0a15000000000000000000ffffffff000000000000",
    "checkpoint end": (
        "0b4f000000000000000000ffffffff000000000000360000000200000002"
        "000000010000002a000000e80300002b0000004c04000009000000f40100"
        "00000f000000200300000102000000dc050000"),
    "wide checkpoint end": (
        "4b8f00000000000000000000000000000000000000ffffffffffffffff00"
        "0000000000000000000000000000005e0000000200000002000000010000"
        "002a0000000000000000000000010000002b000000000000004c04000000"
        "0000000900000000000000f401000000000000000f000000000000002003"
        "000000000000010200000000000000dc05000000000000"),
    "format": "07190010000000000000002b00000000000000030002000603",
    "compensation": (
        "02320011000000840300002a0000004c0400000300580200000000000013"
        "00630107000005006b65792d32050076616c7565"),
    "wide compensation": (
        "424a000000000000000200000005000000010000002a000000000000004c"
        "040000000000000300000000000000580200000000000013006301070000"
        "05006b65792d32050076616c7565"),
    "full page image": (
        "08310000000000000000002c000000000000000000400600000000000010"
        "000000636f6d7072657373656420696d616765"),
    "backup page": (
        "0c260000000000000000002d000000000000000000a40600000000000001"
        "0300000000000000"),
    "backup full": "0d1d000000000000000000ffffffff0000000000000400000000000000",
    "pri update": (
        "0927000000000000000000ffffffff00000000000002002a000000e80300"
        "002b0000004c040000"),
    "wide pri update": (
        "494f00000000000000000000000000000000000000ffffffffffffffff00"
        "00000000000000000000000000000002002a000000000000000000000001"
        "0000002b000000000000004c04000000000000"),
}


#: each kind's builder, given a record's fields, and the header fields
#: it does not take
_BUILDERS = {
    _KIND.UPDATE: (lambda r: records.encode_update(
        r.txn_id, r.prev_lsn, r.page_id, r.page_prev_lsn, r.index_id, r.op,
        r.undo, r.redo_only), ()),
    _KIND.COMPENSATION: (lambda r: records.clr(
        r.txn_id, r.prev_lsn, r.page_id, r.page_prev_lsn, r.index_id,
        r.op or b"", r.undo_next_lsn), ()),
    _KIND.FORMAT_PAGE: (lambda r: records.format_page(
        r.txn_id, r.prev_lsn, r.page_id, r.index_id, r.op or b""),
        ("page_prev_lsn",)),
    **{kind: (lambda r: records.txn_end(r.kind, r.txn_id, r.prev_lsn),
              ("page_id", "page_prev_lsn", "index_id"))
       for kind in (_KIND.COMMIT, _KIND.SYS_COMMIT, _KIND.ABORT)},
    _KIND.PREPARE: (lambda r: records.prepare(r.txn_id, r.prev_lsn, r.gtid),
                    ("page_id", "page_prev_lsn", "index_id")),
    _KIND.CHECKPOINT_BEGIN: (lambda r: records.checkpoint_begin(),
                             ("txn_id", "prev_lsn", "page_id",
                              "page_prev_lsn", "index_id")),
    _KIND.CHECKPOINT_END: (lambda r: records.checkpoint_end(
        r.checkpoint or CheckpointData()),
        ("txn_id", "prev_lsn", "page_id", "page_prev_lsn", "index_id")),
    _KIND.FULL_PAGE_IMAGE: (lambda r: records.full_page_image(
        r.page_id, r.page_lsn, r.image or b""),
        ("txn_id", "prev_lsn", "page_prev_lsn", "index_id")),
    _KIND.BACKUP_PAGE: (lambda r: records.backup_page(
        r.page_id, r.page_lsn, r.backup_ref or BackupRef.none()),
        ("txn_id", "prev_lsn", "page_prev_lsn", "index_id")),
    _KIND.BACKUP_FULL: (lambda r: records.backup_full(r.backup_id),
                        ("txn_id", "prev_lsn", "page_id", "page_prev_lsn",
                         "index_id")),
    _KIND.PRI_UPDATE: (lambda r: records.pri_update(r.writes),
                       ("txn_id", "prev_lsn", "page_id", "page_prev_lsn",
                        "index_id")),
}
#: a header field's value where a record has none
_UNSET = dict(txn_id=0, prev_lsn=0, page_id=-1, page_prev_lsn=0, index_id=0)


def _case(record: LogRecord) -> tuple[bytes, bytes]:
    """``(reference bytes, builder bytes)`` of ``record``'s fields."""
    build, untaken = _BUILDERS[record.kind]
    expected = dataclasses.replace(record, commits=record.redo_only,
                                   **{name: _UNSET[name] for name in untaken})
    return reference.encode(expected), build(record)


def test_every_kind_has_one_builder():
    assert set(_BUILDERS) == set(LogRecordKind)


@settings(max_examples=400, deadline=None)
@given(record=_record_strategy())
def test_every_builder_writes_the_reference_bytes(record):
    expected, built = _case(record)
    assert type(built) is bytes
    assert built == expected


def test_every_kind_writes_its_pinned_bytes():
    assert {record.kind for record in VECTORS.values()} == (
        set(LogRecordKind) - {LogRecordKind.UPDATE})
    for name, record in VECTORS.items():
        expected, built = _case(record)
        assert built.hex() == expected.hex() == HEX[name], name
        assert LogRecord.decode(built) == record, name
