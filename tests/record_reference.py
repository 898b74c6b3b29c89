"""The log records' encoder as it was, over the record object: the
reference the byte builders of :mod:`repro.wal.records` are checked
against.

A copy of ``LogRecord.encode`` (with its ``_payload`` and
``_fits_narrow``, and the UPDATE encoder it called) from before each
record kind had a builder of its own that returns the record's bytes.
:func:`encode` writes the record a :class:`repro.wal.records.LogRecord`
describes — the object :meth:`LogRecord.decode` returns, or one a test
builds field by field — so a test can write any record shape, and
``tests/test_record_builders.py`` checks every builder against it.  It
follows the format where the format moved since: a checkpoint's tables
take u32 fields under the narrow header, as a PRI update's entries do.
The byte format is the engine's: a record this module encodes is one
:meth:`LogRecord.decode` reads back, and the other way round.
"""

from __future__ import annotations

import struct

from repro.errors import LogError
from repro.wal.records import (CHAIN_KINDS, BackupRef, CheckpointData,
                               LogicalUndo, LogRecord, LogRecordKind,
                               UndoAction)
from tests import op_reference

_NARROW = struct.Struct("<BHIIIIH")
_WIDE = struct.Struct("<BIqqqqq")
NARROW_HEADER_SIZE = _NARROW.size
WIDE_HEADER_SIZE = _WIDE.size
_NO_PAGE = 0xFFFFFFFF
_WIDE_BIT = 0x40
_COMMITS_BIT = 0x80

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_BH = struct.Struct("<BH")
_I64 = struct.Struct("<q")
_II = struct.Struct("<II")
_QI = struct.Struct("<qI")
_QH = struct.Struct("<qH")
_QQ = struct.Struct("<qq")
_IIB = struct.Struct("<IIB")
_QQB = struct.Struct("<qqB")
_III = struct.Struct("<III")
_QBQ = struct.Struct("<qBq")

#: UPDATE flags byte
_HAS_OP = 1
_HAS_UNDO = 2
_SHARED_BEFORE_IMAGE = 4
_REDO_ONLY = 8
_UPDATE = LogRecordKind.UPDATE


def _fits_narrow(record: LogRecord, total: int) -> bool:
    """Does the narrow header hold every field of ``record``, at a
    narrow ``total``?  (``page_id + 1`` maps -1 .. 2**32 - 2 onto
    u32.)"""
    return not ((record.txn_id | record.prev_lsn | record.page_prev_lsn
                 | record.page_id + 1) >> 32
                | (record.index_id | total) >> 16
                or _wide_entries(record))


def _wide_entries(record: LogRecord) -> bool:
    """Does an id or LSN of a PRI update's or a checkpoint's entries
    need more than u32?"""
    values = [value for entry in record.writes for value in entry]
    checkpoint = record.checkpoint
    if checkpoint is not None:
        values += [value for entry in checkpoint.dirty_pages.items()
                   for value in entry]
        values += [value for entry in checkpoint.active_txns
                   for value in entry[:2]]
        values += [value for entry in checkpoint.pri_images.items()
                   for value in entry]
    return any(value >> 32 for value in values)


def encode(record: LogRecord) -> bytes:
    """The record's one encoding: the narrow header when every field
    fits it, the wide one otherwise, then the payload.  A redo-only
    record carries its commit bit."""
    kind = record.kind
    commits = record.commits or record.redo_only
    if commits and kind not in CHAIN_KINDS:
        raise LogError(f"a {kind.name} record cannot carry a commit")
    if record.redo_only and not (kind is _UPDATE and record.op
                                 and record.undo is None):
        raise LogError("a redo-only record is an UPDATE with an op and no "
                       "undo")
    if kind is _UPDATE:
        encoding = _encode_update(record)
        if commits and not record.redo_only:
            return bytes((encoding[0] | _COMMITS_BIT,)) + encoding[1:]
        return encoding
    kind_byte = kind | _COMMITS_BIT if commits else kind
    # A PRI update's pages and a checkpoint's entries are u32 fields
    # unless one needs more.
    entries = _QQ if _wide_entries(record) else _II
    payload = _payload(record, entries)
    total = NARROW_HEADER_SIZE + len(payload)
    if entries is _II and _fits_narrow(record, total):
        return _NARROW.pack(kind_byte, total, record.txn_id, record.prev_lsn,
                            record.page_id & _NO_PAGE, record.page_prev_lsn,
                            record.index_id) + payload
    if entries is _II and kind in (LogRecordKind.PRI_UPDATE,
                                   LogRecordKind.CHECKPOINT_END):
        payload = _payload(record, _QQ)
    return _WIDE.pack(kind_byte | _WIDE_BIT, WIDE_HEADER_SIZE + len(payload),
                      record.txn_id, record.prev_lsn, record.page_id,
                      record.page_prev_lsn, record.index_id) + payload


def _payload(record: LogRecord, entry: struct.Struct) -> bytes:
    """The payload's bytes, but an UPDATE's; ``entry`` packs a PRI
    update's pages and a checkpoint's pairs (``_II`` or ``_QQ``)."""
    kind = record.kind
    body = record.op or b""
    if kind == LogRecordKind.COMPENSATION:
        return _QH.pack(record.undo_next_lsn, len(body)) + body
    if kind == LogRecordKind.FORMAT_PAGE:
        return _U16.pack(len(body)) + body
    if kind == LogRecordKind.FULL_PAGE_IMAGE:
        image = record.image or b""
        return _QI.pack(record.page_lsn, len(image)) + image
    if kind == LogRecordKind.PRI_UPDATE:
        return _U16.pack(len(record.writes)) + b"".join(
            entry.pack(page_id, page_lsn)
            for page_id, page_lsn in record.writes)
    if kind == LogRecordKind.BACKUP_PAGE:
        ref = record.backup_ref or BackupRef.none()
        return _QBQ.pack(record.page_lsn, int(ref.kind), ref.value)
    if kind == LogRecordKind.CHECKPOINT_END:
        checkpoint = record.checkpoint or CheckpointData()
        txn = _IIB if entry is _II else _QQB
        body = b"".join([
            _III.pack(len(checkpoint.dirty_pages),
                      len(checkpoint.active_txns),
                      len(checkpoint.pri_images)),
            *(entry.pack(*pair)
              for pair in sorted(checkpoint.dirty_pages.items())),
            *(txn.pack(txn_id, last_lsn, int(is_system))
              for txn_id, last_lsn, is_system in checkpoint.active_txns),
            *(entry.pack(*pair)
              for pair in sorted(checkpoint.pri_images.items()))])
        return _U32.pack(len(body)) + body
    if kind == LogRecordKind.BACKUP_FULL:
        return _I64.pack(record.backup_id)
    if kind == LogRecordKind.PREPARE:
        return _I64.pack(record.gtid)
    return b""


def _before_image(op: bytes) -> tuple[bytes, int, int] | None:
    """``(old, prefix, suffix)`` of the value rewrite ``op`` encodes,
    or None when it is no rewrite that keeps a before-image."""
    decoded = op_reference.decode(op)
    if (type(decoded) is op_reference.OpUpdateValue
            and decoded.old_value is not None):
        return decoded.old_value, decoded.prefix, decoded.suffix
    return None


def _encode_update(record: LogRecord) -> bytes:
    """An UPDATE's encoding (the commit bit set only on a redo-only
    record): the header, the flags byte, the op's length and bytes, the
    undo."""
    op, undo, redo_only = record.op, record.undo, record.redo_only
    flags = _REDO_ONLY if redo_only else 0
    if undo is None:
        tail = b""
    elif (undo.action is UndoAction.RESTORE_VALUE and op
          and _before_image(op) == (undo.value, undo.prefix, undo.suffix)):
        # The undo's value is the op's before-image, under the same
        # span: stored once.
        flags |= _HAS_UNDO | _SHARED_BEFORE_IMAGE
        tail = _BH.pack(UndoAction.RESTORE_VALUE, len(undo.key)) + undo.key
    else:
        flags |= _HAS_UNDO
        tail = undo.encode()
    size = (3 + len(op) if op else 1) + len(tail)
    kind = _UPDATE | _COMMITS_BIT if redo_only else _UPDATE
    if _fits_narrow(record, NARROW_HEADER_SIZE + size):
        header = _NARROW.pack(kind, NARROW_HEADER_SIZE + size, record.txn_id,
                              record.prev_lsn, record.page_id & _NO_PAGE,
                              record.page_prev_lsn, record.index_id)
    else:
        header = _WIDE.pack(kind | _WIDE_BIT, WIDE_HEADER_SIZE + size,
                            record.txn_id, record.prev_lsn, record.page_id,
                            record.page_prev_lsn, record.index_id)
    if not op:
        return b"".join((header, bytes((flags,)), tail))
    return b"".join((header, _BH.pack(flags | _HAS_OP, len(op)), op, tail))


def update(txn_id: int, prev_lsn: int, page_id: int, page_prev_lsn: int,
           index_id: int, op: bytes | None, undo: LogicalUndo | None = None,
           redo_only: bool = False) -> bytes:
    """The UPDATE of these fields, as :func:`encode` writes it."""
    return encode(LogRecord(_UPDATE, txn_id, prev_lsn, page_id,
                            page_prev_lsn, index_id, op=op, undo=undo,
                            commits=redo_only, redo_only=redo_only))
