"""The log records' reference encoder and decoder, over the record
object: what the engine's byte builders and in-place readers of
:mod:`repro.wal.records` are checked against.

:class:`LogRecord` is one record, every field of every kind.
:meth:`LogRecord.decode` is the decoder the engine read records with
before each reader read its field in place, with the record-level checks
it made: it refuses, with :class:`repro.errors.LogError`, anything but
exactly what the record kind's builder writes.  :func:`encode` is the
encoder the engine wrote records with before each kind had a builder of
its own that returns the record's bytes; it follows the format where
the format moved since: a checkpoint's tables take u32 fields under the
narrow header, as a PRI update's entries do.  A record :func:`encode`
writes is one :meth:`LogRecord.decode` reads back, and the other way
round; ``tests/test_record_builders.py`` checks every builder against
:func:`encode`.

:func:`engine_fields` reads what the engine's sites read of a record's
bytes, through the readers of :mod:`repro.wal.records`;
:func:`reference_fields` reads the same fields through
:meth:`LogRecord.decode`; :func:`agreed` is the differential of the two.
:func:`record_at`, :func:`records_from` and :func:`all_records` decode
an engine log's records for a test.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import pytest

from repro.errors import LogError
from repro.wal import records as engine
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import (BULK_INSERT, MALFORMED, REDO_VALUE,
                           SPANNED_REDO_VALUE, _unpack_bytes, bulk_rows,
                           rewrite_before_image)
from repro.wal.records import (CHAIN_KINDS, BackupRef, BackupRefKind,
                               CheckpointData, LogicalUndo, LogRecordKind,
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

_KIND_BITS = 0x3F
#: UPDATE flags byte
_HAS_OP = 1
_HAS_UNDO = 2
_SHARED_BEFORE_IMAGE = 4
_REDO_ONLY = 8
_UPDATE = LogRecordKind.UPDATE
_COMMIT_KINDS = (LogRecordKind.COMMIT, LogRecordKind.SYS_COMMIT)
_KINDS = frozenset(LogRecordKind)
_DELETE_KEYS = UndoAction.DELETE_KEYS
_RESTORE_VALUE = UndoAction.RESTORE_VALUE


@dataclass(slots=True)
class LogRecord:
    """One recovery-log record, as :meth:`decode` reads it from its
    bytes, or as a test builds it for :func:`encode`.

    ``lsn`` is where the record lies in the log.  Fields that do not
    apply to a given kind are left at their defaults.
    """

    kind: LogRecordKind
    txn_id: int = 0
    prev_lsn: int = 0
    page_id: int = -1
    page_prev_lsn: int = 0
    index_id: int = 0
    lsn: int = 0

    # Kind-specific payloads.
    #: UPDATE / COMPENSATION / FORMAT: the page op's encoding
    op: bytes | None = None
    undo: LogicalUndo | None = None          #: UPDATE by user transactions
    undo_next_lsn: int = 0                   #: COMPENSATION
    image: bytes | None = None               #: FULL_PAGE_IMAGE (compressed)
    page_lsn: int = 0                        #: FULL_PAGE_IMAGE / BACKUP_PAGE
    backup_ref: BackupRef | None = None      #: BACKUP_PAGE
    #: PRI_UPDATE: ``(page_id, PageLSN)`` of every page a run wrote
    writes: tuple[tuple[int, int], ...] = ()
    checkpoint: CheckpointData | None = None #: CHECKPOINT_END
    backup_id: int = 0                       #: BACKUP_FULL
    gtid: int = 0                            #: PREPARE (global txn id)
    #: this record is the last of its transaction, which committed
    #: (``CHAIN_KINDS`` only)
    commits: bool = False
    #: an UPDATE that is its user transaction's only record: it commits
    #: at append and logs no undo
    redo_only: bool = False

    @classmethod
    def decode(cls, data, lsn: int = 0) -> "LogRecord":
        """The record ``data`` encodes, placed at ``lsn``, or
        :class:`LogError`: anything but exactly what its kind's builder
        writes for it is refused.  The page op stays encoded."""
        kind, commits = _read_header(data)
        wide = data[0] & _WIDE_BIT
        _, total, txn_id, prev_lsn, page_id, page_prev_lsn, index_id = (
            _WIDE if wide else _NARROW).unpack_from(data)
        if page_id == _NO_PAGE and not wide:
            page_id = -1
        kind = LogRecordKind(kind)
        record = cls(kind, txn_id, prev_lsn, page_id, page_prev_lsn, index_id,
                     lsn, commits=commits and kind in CHAIN_KINDS)
        try:
            end = record._decode_payload(
                data, WIDE_HEADER_SIZE if wide else NARROW_HEADER_SIZE, wide)
        except MALFORMED as exc:
            raise LogError(f"malformed {kind.name} record: {exc}") from None
        if end != total:
            raise LogError(f"{kind.name} payload ends at byte {end} of a "
                           f"{total}-byte record")
        # A wide header the one header rule would not write — the fields
        # and a PRI update's or a checkpoint's entries fit the narrow
        # form — is refused.
        if wide and _fits_narrow(record, total - WIDE_HEADER_SIZE
                                 - 8 * _entries(record) + NARROW_HEADER_SIZE):
            raise LogError(f"a {total}-byte wide {kind.name} record (a wide "
                           f"header the narrow one fits)")
        return record

    def _decode_op(self, data) -> int:
        """Take the page op, still encoded; returns its end."""
        start, end = _op_span(data, self.kind)
        if start < end:
            self.op = bytes(data[start:end])
        return end

    def _decode_payload(self, data, pos: int, wide: bool) -> int:
        """Decode the payload reading ``data`` at absolute offsets;
        returns the offset one past it."""
        kind = self.kind
        if kind == LogRecordKind.UPDATE:
            flags = _update_flags(data, pos, self.commits)
            self.redo_only = bool(flags & _REDO_ONLY)
            pos = self._decode_op(data)
            if flags & _SHARED_BEFORE_IMAGE:
                image = self.op and rewrite_before_image(self.op)
                if not flags & _HAS_UNDO or image is None:
                    raise LogError("shared before-image without a value "
                                   "update and its undo")
                action = UndoAction(data[pos])
                if action is not _RESTORE_VALUE:
                    raise LogError(f"shared before-image on a {action.name} "
                                   f"undo")
                key, pos = _unpack_bytes(data, pos + 1)
                self.undo = LogicalUndo(action, key, *image)
            elif flags & _HAS_UNDO:
                undo, pos = LogicalUndo.decode(data, pos)
                self.undo = undo
                if undo.keys:
                    self._check_run_undo()
                elif (undo.action is _RESTORE_VALUE and self.op
                      and rewrite_before_image(self.op)
                      == (undo.value, undo.prefix, undo.suffix)):
                    raise LogError("an UPDATE that spells out its op's "
                                   "before-image again; its own encoding "
                                   "stores it once")
            return pos
        if kind == LogRecordKind.COMPENSATION:
            (self.undo_next_lsn,) = _I64.unpack_from(data, pos)
            return self._decode_op(data)
        if kind == LogRecordKind.FORMAT_PAGE:
            return self._decode_op(data)
        if kind == LogRecordKind.FULL_PAGE_IMAGE:
            self.page_lsn, length = _QI.unpack_from(data, pos)
            if pos + 12 + length != len(data):
                raise LogError(f"page image of {length} bytes in a "
                               f"{len(data)}-byte record")
            self.image = bytes(data[pos + 12:])
            return len(data)
        if kind == LogRecordKind.PRI_UPDATE:
            return self._decode_writes(data, pos, _QQ if wide else _II)
        if kind == LogRecordKind.BACKUP_PAGE:
            page_lsn, ref_kind, ref_value = _QBQ.unpack_from(data, pos)
            self.page_lsn = page_lsn
            self.backup_ref = BackupRef(BackupRefKind(ref_kind), ref_value)
            return pos + 17
        if kind == LogRecordKind.CHECKPOINT_END:
            (size,) = _U32.unpack_from(data, pos)
            pos += 4
            self.checkpoint = checkpoint = CheckpointData.decode(data, pos,
                                                                 wide)
            if checkpoint.encode(wide) != data[pos:pos + size]:
                raise LogError(f"checkpoint tables that are not the {size} "
                               f"bytes their builder writes")
            return pos + size
        if kind == LogRecordKind.BACKUP_FULL:
            (self.backup_id,) = _I64.unpack_from(data, pos)
            return pos + 8
        if kind == LogRecordKind.PREPARE:
            (self.gtid,) = _I64.unpack_from(data, pos)
            return pos + 8
        return pos

    def _check_run_undo(self) -> None:
        """A DELETE_KEYS undo rides on the bulk insert of its leaf run
        and names that op's rows: one key per row, in row order, each the
        row's stored key behind the one prefix the leaf strips."""
        op, keys = self.op, self.undo.keys
        if not op or op[0] != BULK_INSERT:
            raise LogError("a DELETE_KEYS undo under another op")
        rows = bulk_rows(op, 0)[1]
        if len(rows) != len(keys):
            raise LogError(f"a DELETE_KEYS undo of {len(keys)} keys over "
                           f"a run of {len(rows)} rows")
        cut = len(keys[0]) - len(rows[0][0])
        prefix = keys[0][:cut]
        if cut < 0 or any(key[:cut] != prefix or key[cut:] != row[0]
                          for key, row in zip(keys, rows)):
            raise LogError("a DELETE_KEYS undo names keys its run does "
                           "not insert")

    def _decode_writes(self, data, pos: int, entry: struct.Struct) -> int:
        """A PRI_UPDATE's payload at ``pos``, ``entry`` per page;
        returns its end."""
        if self.page_id != -1:
            raise LogError(f"PRI_UPDATE names page {self.page_id} in its "
                           f"header")
        (count,) = _U16.unpack_from(data, pos)
        if not count:
            raise LogError("PRI_UPDATE names no page")
        start = pos + 2
        end = start + entry.size * count
        if end > len(data):
            raise LogError(f"PRI_UPDATE's {count} pages run past the end "
                           f"of the record")
        self.writes = writes = tuple(
            entry.iter_unpack(memoryview(data)[start:end]))
        if min(map(min, writes)) < 0:
            raise LogError("PRI_UPDATE names a negative page id or LSN")
        return end

    @property
    def commits_txn(self) -> bool:
        """Does this record end its transaction as committed: the commit
        bit on its last record, or a COMMIT / SYS_COMMIT record?"""
        return self.commits or self.kind in _COMMIT_KINDS


def _read_header(data) -> tuple[int, bool]:
    """``(kind, commits)`` of the header of ``data``: a header cut short
    or not the record's length, an unknown kind and a misplaced commit
    bit are :class:`LogError`."""
    try:
        kind_byte = data[0]
        header = _WIDE if kind_byte & _WIDE_BIT else _NARROW
        total = header.unpack_from(data)[1]
    except MALFORMED:
        raise LogError(f"log record header cut short at {len(data)} "
                       f"bytes") from None
    if total != len(data):
        raise LogError(f"log record length mismatch: {total} != {len(data)}")
    kind = kind_byte & _KIND_BITS
    if kind not in _KINDS:
        raise LogError(f"unknown log record kind {kind_byte}")
    if not kind_byte & _COMMITS_BIT:
        return kind, kind in _COMMIT_KINDS
    if kind not in CHAIN_KINDS:
        raise LogError(f"commit bit on a {LogRecordKind(kind).name} record")
    return kind, True


def _update_flags(data, pos: int, commits: bool) -> int:
    """The flags byte at ``pos`` of an UPDATE that ``commits``."""
    flags = data[pos]
    if flags & ~(_HAS_OP | _HAS_UNDO | _SHARED_BEFORE_IMAGE | _REDO_ONLY):
        raise LogError(f"unknown UPDATE flag bits {flags:#x}")
    if flags & _REDO_ONLY:
        if flags != _HAS_OP | _REDO_ONLY:
            raise LogError("a redo-only UPDATE carries its op and no undo")
        if not commits:
            raise LogError("a redo-only UPDATE without the commit bit")
    return flags


def _op_span(data, kind: int) -> tuple[int, int]:
    """``(start, end)`` of the page op of a chain record of ``kind``
    (``start == end``: none)."""
    pos = WIDE_HEADER_SIZE if data[0] & _WIDE_BIT else NARROW_HEADER_SIZE
    flags = _HAS_OP
    if kind == _UPDATE:
        flags = data[pos]
        pos += 1
        if not flags & _HAS_OP:
            return pos, pos
    elif kind == LogRecordKind.COMPENSATION:
        pos += 8
    start = pos + 2
    end = start + _U16.unpack_from(data, pos)[0]
    if end > len(data) or end == start and kind == _UPDATE:
        raise LogError(f"a page op field of {end - start} bytes at byte "
                       f"{start} of a {len(data)}-byte record")
    if (start < end and not flags & _REDO_ONLY
            and data[start] in (REDO_VALUE, SPANNED_REDO_VALUE)):
        raise LogError("a redo-only op in a record that is not a redo-only "
                       "UPDATE")
    return start, end


def _entries(record: LogRecord) -> int:
    """How many entries a PRI update or checkpoint ``record`` holds."""
    checkpoint = record.checkpoint or CheckpointData()
    return (len(record.writes) + len(checkpoint.dirty_pages)
            + len(checkpoint.active_txns) + len(checkpoint.pri_images))


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


# ----------------------------------------------------------------------
# The engine's readers against the reference decoder
# ----------------------------------------------------------------------
def engine_fields(data) -> dict:
    """What the engine's sites read of the record ``data``: its header,
    and by kind an UPDATE's undo and op (and whether it commits a user
    transaction), a CLR's ``undo_next_lsn`` and op, a format's op, an
    image, a PRI update's writes, a backup's reference, a checkpoint's
    tables, a backup or global transaction id — each through its reader
    in :mod:`repro.wal.records`."""
    kind, commits, txn_id, page_id, page_prev_lsn = engine.read_header(data)
    fields = dict(kind=kind, commits=commits, txn_id=txn_id, page_id=page_id,
                  page_prev_lsn=page_prev_lsn,
                  prev_lsn=engine.prev_lsn_of(data),
                  index_id=engine.index_id_of(data))
    if kind == _UPDATE:
        undo, start, end = engine.read_update(data)
        fields.update(undo=undo, op=bytes(data[start:end]) or None,
                      commits_user=engine.commits_user_txn(data, kind,
                                                           commits))
    elif kind in CHAIN_KINDS:
        start, end, _rows = engine.op_span(data, kind)
        fields.update(op=bytes(data[start:end]) or None)
        if kind == LogRecordKind.COMPENSATION:
            fields.update(undo_next_lsn=engine.undo_next_lsn(data))
    elif kind == LogRecordKind.FULL_PAGE_IMAGE:
        page_lsn, image = engine.page_image(data)
        fields.update(page_lsn=page_lsn, image=image)
    elif kind == LogRecordKind.PRI_UPDATE:
        fields.update(writes=engine.pri_writes(data))
    elif kind == LogRecordKind.BACKUP_PAGE:
        page_lsn, ref = engine.page_backup(data)
        fields.update(page_lsn=page_lsn, backup_ref=ref)
    elif kind == LogRecordKind.CHECKPOINT_END:
        fields.update(checkpoint=engine.checkpoint_tables(data))
    elif kind == LogRecordKind.BACKUP_FULL:
        fields.update(backup_id=engine.full_backup_id(data))
    elif kind == LogRecordKind.PREPARE:
        fields.update(gtid=engine.prepare_gtid(data))
    return fields


def reference_fields(record: LogRecord) -> dict:
    """The fields :func:`engine_fields` reads, of the decoded
    ``record``."""
    kind = record.kind
    fields = dict(kind=kind, commits=record.commits_txn, txn_id=record.txn_id,
                  page_id=record.page_id, page_prev_lsn=record.page_prev_lsn,
                  prev_lsn=record.prev_lsn, index_id=record.index_id)
    if kind == _UPDATE:
        fields.update(undo=record.undo, op=record.op, commits_user=(
            record.commits and (record.undo is not None or record.redo_only)))
    elif kind in CHAIN_KINDS:
        fields.update(op=record.op)
        if kind == LogRecordKind.COMPENSATION:
            fields.update(undo_next_lsn=record.undo_next_lsn)
    elif kind == LogRecordKind.FULL_PAGE_IMAGE:
        fields.update(page_lsn=record.page_lsn, image=record.image)
    elif kind == LogRecordKind.PRI_UPDATE:
        fields.update(writes=record.writes)
    elif kind == LogRecordKind.BACKUP_PAGE:
        fields.update(page_lsn=record.page_lsn, backup_ref=record.backup_ref)
    elif kind == LogRecordKind.CHECKPOINT_END:
        fields.update(checkpoint=record.checkpoint)
    elif kind == LogRecordKind.BACKUP_FULL:
        fields.update(backup_id=record.backup_id)
    elif kind == LogRecordKind.PREPARE:
        fields.update(gtid=record.gtid)
    return fields


def agreed(data, lsn: int = 0) -> LogRecord:
    """The record ``data`` encodes, placed at ``lsn``, once the engine's
    readers have read every field of it that the reference decoder
    reads; where the reference refuses it with :class:`LogError`, the
    engine's readers must refuse it with :class:`LogError` too, and the
    reference's error is raised."""
    try:
        record = LogRecord.decode(data, lsn)
    except LogError:
        with pytest.raises(LogError):
            engine_fields(data)
        raise
    assert engine_fields(data) == reference_fields(record)
    return record


def record_at(log, lsn: int) -> LogRecord:  # noqa: ANN001
    """The record at ``lsn`` in the engine log ``log``, decoded
    (:func:`agreed`)."""
    return agreed(log.encoding_at(lsn), lsn)


def records_from(log, start_lsn: int) -> list[LogRecord]:  # noqa: ANN001
    """Every record of ``log`` from ``start_lsn`` on, in log order,
    decoded (:func:`agreed`)."""
    return [agreed(bytes(encoding), lsn)
            for lsn, encoding in log.encodings_from(start_lsn)]


def all_records(log) -> list[LogRecord]:  # noqa: ANN001
    """Every record of ``log``, decoded."""
    return records_from(log, NULL_LSN)
