"""Typed log records with explicit byte serialization.

A record is a header followed by a kind-specific payload.  The header
comes in two forms, told apart by its first byte, the kind byte::

    kind byte      u8    bits 0-5 LogRecordKind, 0x40 wide, 0x80 commits

    narrow (21 B)                  wide (45 B)
    kind byte      u8              kind byte      u8
    total_len      u16             total_len      u32
    txn_id         u32             txn_id         i64
    prev_lsn       u32             prev_lsn       i64
    page_id        u32             page_id        i64
    page_prev_lsn  u32             page_prev_lsn  i64
    index_id       u16             index_id       i64

``total_len`` is the length of the whole serialized record, ``txn_id``
the owning transaction (0 = none), ``prev_lsn`` its per-transaction
chain (Section 5.1.1), ``page_id`` the affected page (-1 = none,
``0xFFFFFFFF`` in a narrow header), ``page_prev_lsn`` the per-page
chain (Section 5.1.4) and ``index_id`` the owning index or table
(0 = none).  A record takes the narrow form whenever every field fits
it — a total below 64 KiB, ids and LSNs below 2**32 (page ids below
2**32 - 1), an index id below 2**16, and, in a PRI update, every entry
below 2**32 — and the wide form otherwise; :meth:`LogRecord.decode`
refuses a wide header on a record the narrow one fits, so every record
has exactly one encoding.  :meth:`LogRecord.encoded_size` makes the
choice in one expression, without a call.  The ``page_prev_lsn`` field
is the heart of the paper's recovery design: it lets single-page
recovery walk backwards from the current PageLSN to the last backup
without scanning the log.

**Lengths are u16.**  Every byte string a payload frames — keys,
values, middles, bulk records, an undo's key and value — and the op
length of an UPDATE / COMPENSATION / FORMAT_PAGE lie within one page,
and a page is at most 32 KiB
(:data:`repro.engine.config.MAX_PAGE_SIZE`).  Two lengths stay u32: a
FULL_PAGE_IMAGE's compressed image (zlib can grow a page) and a
CHECKPOINT_END's tables.

**The commit bit.**  A transaction's commit is one bit of information
about its last record, so it is stored there: the high bit of the kind
byte of an UPDATE / COMPENSATION / FORMAT_PAGE record (``commits``)
says "this record is the last of its transaction, which committed".
The bit never changes a record's length, hence no LSN.  It is set while
the record is still in the log's volatile tail
(:meth:`repro.wal.log_manager.LogManager.commit`); a
transaction whose last record has already hardened — or that logged
nothing — gets a COMMIT / SYS_COMMIT record instead.  Readers ask
:attr:`LogRecord.commits_txn`, never the kind.

**The before-image is logged once.**  An UPDATE payload is a flags
byte (bit 0: a page op follows, u16-length-prefixed; bit 1: a
:class:`LogicalUndo` follows; bit 2: that undo's value is the op's
``old_value`` and is not written again), the op, the undo.  Undo is
logical (Section 5.1.2), so the old value of a rewritten record belongs
to the key-level undo; the physical op carries the same bytes, and the
encoding stores them one time.  Decoding hands both fields the same
``bytes`` object.

**A rewrite logs what it changes.**  A value rewrite whose old and new
value share their first and last bytes is *spanned*
(:func:`repro.wal.ops.value_rewrite`): the op stores the lengths of the
shared prefix and suffix and only the two middles between them, and
the RESTORE_VALUE undo carries the same span, so the shared
before-image is the old middle.  The spanned UPDATE of a rewrite, after
its header::

    flags          u8    _HAS_OP | _HAS_UNDO | _SHARED_BEFORE_IMAGE
    op length      u16
      kind         u8    9 (spanned OpUpdateValue; unspanned is 3)
      slot         u16
      prefix       u16   bytes shared at the start ...
      suffix       u16   ... and at the end of old and new value
      old middle   u16 length + bytes   (the undo's value too)
      new middle   u16 length + bytes
    undo action    u8    RESTORE_VALUE
    key            u16 length + bytes

An unspanned put of a 100-byte value under a 16-byte key — every
``kv_hot`` write — is 250 bytes: 21 of header, 1 + 2 of flags and op
length, 3 + 2 + 100 + 2 + 100 of op, 1 + 2 + 16 of undo.

A :class:`LogicalUndo` written on its own marks a span with the high
bit of its action byte, followed by the two u16 lengths.  Redo and
undo splice the middle into the record's current value; compensation
restores the before-image by the inverse splice, wherever the key
lives by then.  An unspanned rewrite encodes exactly as before spans
existed.

**One PRI update per write-back run.**  The buffer pool writes dirty
pages back in runs (:mod:`repro.buffer.buffer_pool`), and one
PRI_UPDATE (Figures 11 and 12) tells the page recovery index every
page's new on-device PageLSN.  Its header's ``page_id`` is -1 — the
record joins no page chain — and its payload is::

    count          u16   pages written, at least one
    page_id        u32   } count times, in the run's write order;
    page_lsn       u32   } each i64 under a wide header

:func:`pri_update` is the one builder.

Every decode boundary here and in :mod:`repro.wal.ops` returns a value
or raises :class:`repro.errors.LogError` — for truncated input, an
unknown kind, an unknown flag bit, a length that runs past the record,
a span that is empty or longer than any record, a PRI update that names
no page, a page in its header or a negative page id or LSN, a commit
bit on a kind that cannot carry one, or any encoding but the one
:meth:`LogRecord.encode` writes (a wide header the narrow one fits).
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import LogError, RecoveryError
from repro.wal.ops import (MALFORMED, SPAN_SIZE, UPDATE_VALUE_FIXED,
                           OpUpdateValue, PageOp, _put_bytes, _unpack_bytes,
                           check_span)

_NARROW = struct.Struct("<BHIIIIH")
_WIDE = struct.Struct("<BIqqqqq")
NARROW_HEADER_SIZE = _NARROW.size
WIDE_HEADER_SIZE = _WIDE.size
#: what a wide header adds to a record; a wide PRI update's entries add
#: 8 bytes each besides
_WIDENING = WIDE_HEADER_SIZE - NARROW_HEADER_SIZE
#: a narrow header's page_id -1
_NO_PAGE = 0xFFFFFFFF
#: a shared-before-image UPDATE besides its op's values and its key:
#: narrow header, flags, op length, the op's fixed part, undo action,
#: key length
_SHARED_UPDATE_FIXED = NARROW_HEADER_SIZE + 3 + UPDATE_VALUE_FIXED + 3

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_BHH = struct.Struct("<BHH")
_I64 = struct.Struct("<q")
_II = struct.Struct("<II")
_QI = struct.Struct("<qI")
_QH = struct.Struct("<qH")
_QQ = struct.Struct("<qq")
_QQB = struct.Struct("<qqB")
_QBQ = struct.Struct("<qBq")
_III = struct.Struct("<III")

#: the header's kind byte (see the module docstring)
_KIND_BITS = 0x3F
_WIDE_BIT = 0x40
_COMMITS_BIT = 0x80
#: UPDATE flags byte
_HAS_OP = 1
_HAS_UNDO = 2
_SHARED_BEFORE_IMAGE = 4
#: high bit of a standalone LogicalUndo's action byte: a span follows
_SPANNED_UNDO = 0x80
#: most pages one PRI_UPDATE names (its u16 count)
PRI_UPDATE_MAX = 0xFFFF


class LogRecordKind(enum.IntEnum):
    """All record kinds written by the engine."""

    UPDATE = 1              #: page update by a user or system transaction
    COMPENSATION = 2        #: CLR written during rollback
    COMMIT = 3              #: user-transaction commit (forces the log)
    ABORT = 4               #: transaction rollback finished
    SYS_COMMIT = 6          #: system-transaction commit (no log force)
    FORMAT_PAGE = 7         #: page (re)formatted after allocation
    FULL_PAGE_IMAGE = 8     #: compressed full image (in-log page backup)
    PRI_UPDATE = 9          #: page-recovery-index update == completed writes
    CHECKPOINT_BEGIN = 10
    CHECKPOINT_END = 11
    BACKUP_PAGE = 12        #: an explicit per-page backup copy was taken
    BACKUP_FULL = 13        #: a full database backup completed
    PREPARE = 14            #: 2PC participant vote: txn is in doubt


#: Kinds that advance a page's PageLSN and so form the per-page chain
#: (Section 5.1.4) — also the only kinds a transaction logs about its
#: own work, hence the only ones that can carry its commit bit.
CHAIN_KINDS = frozenset({
    LogRecordKind.UPDATE,
    LogRecordKind.COMPENSATION,
    LogRecordKind.FORMAT_PAGE,
})

_COMMIT_KINDS = (LogRecordKind.COMMIT, LogRecordKind.SYS_COMMIT)
_UPDATE = LogRecordKind.UPDATE


class BackupRefKind(enum.IntEnum):
    """Where a page's most recent backup image lives (Figure 7)."""

    NONE = 0
    PAGE_COPY = 1      #: explicit page copy; value = backup-store location
    LOG_IMAGE = 2      #: full page image in the log; value = its LSN
    FULL_BACKUP = 3    #: member of a full database backup; value = backup id
    FORMAT_RECORD = 4  #: formatting log record; value = its LSN


@dataclass(frozen=True, slots=True)
class BackupRef:
    """Reference to a page backup image (one of Figure 7's alternatives)."""

    kind: BackupRefKind
    value: int

    @classmethod
    def none(cls) -> "BackupRef":
        return cls(BackupRefKind.NONE, 0)

    @classmethod
    def page_copy(cls, location: int) -> "BackupRef":
        return cls(BackupRefKind.PAGE_COPY, location)

    @classmethod
    def log_image(cls, lsn: int) -> "BackupRef":
        return cls(BackupRefKind.LOG_IMAGE, lsn)

    @classmethod
    def full_backup(cls, backup_id: int) -> "BackupRef":
        return cls(BackupRefKind.FULL_BACKUP, backup_id)

    @classmethod
    def format_record(cls, lsn: int) -> "BackupRef":
        return cls(BackupRefKind.FORMAT_RECORD, lsn)


class UndoAction(enum.IntEnum):
    """Logical undo actions (compensation, Section 5.1.2: 'undo' is
    logical, i.e., applies to the same key values)."""

    NONE = 0
    DELETE_KEY = 1     #: compensate an insert
    INSERT_KEY = 2     #: compensate a delete
    RESTORE_VALUE = 3  #: compensate an update


_RESTORE_VALUE = UndoAction.RESTORE_VALUE


@dataclass(slots=True)
class LogicalUndo:
    """Key-level undo information carried by user-transaction updates.

    A RESTORE_VALUE undo may carry its rewrite's span (see the module
    docstring): ``value`` is then the old middle, restored between the
    first ``prefix`` and the last ``suffix`` bytes of whatever value the
    key holds when it is compensated (:meth:`restored`).  Not frozen,
    for the reason :class:`repro.wal.ops.OpUpdateValue` is not.
    """

    action: UndoAction
    key: bytes
    value: bytes = b""
    prefix: int = 0
    suffix: int = 0

    def restored(self, current: bytes) -> bytes:
        """The value compensation writes over ``current``."""
        if not (self.prefix or self.suffix):
            return self.value
        end = len(current) - self.suffix
        if end < self.prefix:
            raise RecoveryError(
                f"undo span of {self.prefix} + {self.suffix} bytes does not "
                f"fit the {len(current)}-byte value of {self.key!r}")
        return current[:self.prefix] + self.value + current[end:]

    def encoded_size(self) -> int:
        size = 5 + len(self.key) + len(self.value)
        return size + SPAN_SIZE if self.prefix or self.suffix else size

    def encode_into(self, buf: bytearray, pos: int) -> int:
        if self.prefix or self.suffix:
            _BHH.pack_into(buf, pos, int(self.action) | _SPANNED_UNDO,
                           self.prefix, self.suffix)
            pos += 5
        else:
            buf[pos] = int(self.action)
            pos += 1
        pos = _put_bytes(buf, pos, self.key)
        return _put_bytes(buf, pos, self.value)

    def encode(self) -> bytes:
        buf = bytearray(self.encoded_size())
        self.encode_into(buf, 0)
        return bytes(buf)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["LogicalUndo", int]:
        try:
            if not data[offset] & _SPANNED_UNDO:
                action = UndoAction(data[offset])
                key, pos = _unpack_bytes(data, offset + 1)
                value, pos = _unpack_bytes(data, pos)
                return cls(action, key, value), pos
            raw, prefix, suffix = _BHH.unpack_from(data, offset)
            action = UndoAction(raw & ~_SPANNED_UNDO)
            if action is not _RESTORE_VALUE:
                raise LogError(f"span on a {action.name} undo")
            key, pos = _unpack_bytes(data, offset + 5)
            value, pos = _unpack_bytes(data, pos)
            check_span(prefix, suffix, len(value))
        except MALFORMED as exc:
            raise LogError(f"malformed logical undo: {exc}") from None
        return cls(action, key, value, prefix, suffix), pos


@dataclass(slots=True)
class CheckpointData:
    """Payload of a CHECKPOINT_END record.

    The two ARIES checkpoint tables (dirty pages, active transactions)
    plus ``pri_images``: the LSNs of the full-page-image records the
    checkpoint wrote for each page-recovery-index region page — restart
    uses them to locate (and if necessary repair) the persisted PRI
    (Section 5.2.6).
    """

    dirty_pages: dict[int, int] = field(default_factory=dict)
    active_txns: list[tuple[int, int, bool]] = field(default_factory=list)
    pri_images: dict[int, int] = field(default_factory=dict)

    def encoded_size(self) -> int:
        return (12 + 16 * len(self.dirty_pages)
                + 17 * len(self.active_txns) + 16 * len(self.pri_images))

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _III.pack_into(buf, pos, len(self.dirty_pages),
                       len(self.active_txns), len(self.pri_images))
        pos += 12
        for page_id, rec_lsn in sorted(self.dirty_pages.items()):
            _QQ.pack_into(buf, pos, page_id, rec_lsn)
            pos += 16
        for txn_id, last_lsn, is_system in self.active_txns:
            _QQB.pack_into(buf, pos, txn_id, last_lsn, int(is_system))
            pos += 17
        for page_id, lsn in sorted(self.pri_images.items()):
            _QQ.pack_into(buf, pos, page_id, lsn)
            pos += 16
        return pos

    def encode(self) -> bytes:
        buf = bytearray(self.encoded_size())
        self.encode_into(buf, 0)
        return bytes(buf)

    @classmethod
    def decode(cls, data, offset: int = 0) -> "CheckpointData":
        try:
            return cls._decode(data, offset)
        except MALFORMED as exc:
            raise LogError(f"malformed checkpoint payload: {exc}") from None

    @classmethod
    def _decode(cls, data, offset: int) -> "CheckpointData":
        n_dirty, n_txns, n_images = _III.unpack_from(data, offset)
        if (offset + 12 + 16 * n_dirty + 17 * n_txns + 16 * n_images
                > len(data)):
            raise LogError("checkpoint tables run past the end of the record")
        pos = offset + 12
        dirty = {}
        for _ in range(n_dirty):
            page_id, rec_lsn = _QQ.unpack_from(data, pos)
            dirty[page_id] = rec_lsn
            pos += 16
        txns = []
        for _ in range(n_txns):
            txn_id, last_lsn, is_system = _QQB.unpack_from(data, pos)
            txns.append((txn_id, last_lsn, bool(is_system)))
            pos += 17
        images = {}
        for _ in range(n_images):
            page_id, lsn = _QQ.unpack_from(data, pos)
            images[page_id] = lsn
            pos += 16
        return cls(dirty, txns, images)


@dataclass(slots=True)
class LogRecord:
    """One recovery-log record.

    ``lsn`` is assigned by the log manager at append time.  Fields that
    do not apply to a given kind are left at their defaults.
    """

    kind: LogRecordKind
    txn_id: int = 0
    prev_lsn: int = 0
    page_id: int = -1
    page_prev_lsn: int = 0
    index_id: int = 0
    lsn: int = 0

    # Kind-specific payloads.
    op: PageOp | None = None                 #: UPDATE / COMPENSATION / FORMAT
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
    #: (``CHAIN_KINDS`` only; see the module docstring)
    commits: bool = False

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def encoded_size(self) -> int:
        """Exact serialized length, computed without materializing bytes.

        The append hot path only needs the length (LSNs are byte
        offsets) — a put's UPDATE, sharing its before-image, without a
        call.  This is also where a record's header form is chosen: the
        narrow size, unless one expression finds a field the narrow
        header cannot hold (see the module docstring).  Keeping this in
        sync with :meth:`encode` (and its :meth:`_shares_before_image`)
        is guarded by the serialization round-trip property tests.
        """
        op, undo = self.op, self.undo
        if self.kind is _UPDATE:
            if (undo and undo.action is _RESTORE_VALUE
                    and type(op) is OpUpdateValue
                    and (undo.value is op.old_value
                         or undo.value == op.old_value)
                    and undo.prefix == op.prefix and undo.suffix == op.suffix):
                size = (_SHARED_UPDATE_FIXED + len(op.old_value)
                        + len(op.new_value) + len(undo.key))
                if op.prefix or op.suffix:
                    size += SPAN_SIZE
            else:
                size = (NARROW_HEADER_SIZE + 1
                        + (2 + op.encoded_size() if op else 0)
                        + (undo.encoded_size() if undo else 0))
        else:
            size = NARROW_HEADER_SIZE + self._payload_size()
        # The fits test.  ``page_id + 1`` maps -1 .. 2**32 - 2 onto the
        # u32 range, and a negative value sets the high bits.
        if ((self.txn_id | self.prev_lsn | self.page_prev_lsn
                | self.page_id + 1) >> 32 | (self.index_id | size) >> 16
                or self.writes and max(map(max, self.writes)) >> 32):
            return size + _WIDENING + 8 * len(self.writes)
        return size

    def _payload_size(self) -> int:
        """The payload's length under a narrow header (for an UPDATE,
        what :meth:`encoded_size` computes inline)."""
        kind = self.kind
        op = self.op
        if kind is _UPDATE:
            undo = self.undo
            if undo and self._shares_before_image():
                return 6 + op.encoded_size() + len(undo.key)
            return (1 + (2 + op.encoded_size() if op else 0)
                    + (undo.encoded_size() if undo else 0))
        if kind == LogRecordKind.COMPENSATION:
            return 10 + (op.encoded_size() if op else 0)
        if kind == LogRecordKind.FORMAT_PAGE:
            return 2 + (op.encoded_size() if op else 0)
        if kind == LogRecordKind.FULL_PAGE_IMAGE:
            return 12 + len(self.image or b"")
        if kind == LogRecordKind.PRI_UPDATE:
            return 2 + 8 * len(self.writes)
        if kind == LogRecordKind.BACKUP_PAGE:
            return 17
        if kind == LogRecordKind.CHECKPOINT_END:
            return 4 + (self.checkpoint or CheckpointData()).encoded_size()
        if kind in (LogRecordKind.BACKUP_FULL, LogRecordKind.PREPARE):
            return 8
        # COMMIT, ABORT, SYS_COMMIT, CHECKPOINT_BEGIN
        return 0

    def _shares_before_image(self) -> bool:
        """Is the undo's value the op's ``old_value``, under the same
        span (an in-place rewrite of one key's value)?  Then it is
        encoded once."""
        undo = self.undo
        op = self.op
        return (undo.action is _RESTORE_VALUE
                and type(op) is OpUpdateValue
                and (undo.value is op.old_value
                     or undo.value == op.old_value)
                and undo.prefix == op.prefix and undo.suffix == op.suffix)

    def encode(self) -> bytes:
        """Serialize into one preallocated buffer (no join of pieces)."""
        kind = self.kind
        if self.commits and kind not in CHAIN_KINDS:
            raise LogError(f"a {kind.name} record cannot carry a commit")
        total = self.encoded_size()
        buf = bytearray(total)
        kind_byte = kind | _COMMITS_BIT if self.commits else kind
        # encoded_size chose the form: any size but the narrow one is wide
        wide = total != NARROW_HEADER_SIZE + self._payload_size()
        if wide:
            _WIDE.pack_into(buf, 0, kind_byte | _WIDE_BIT, total, self.txn_id,
                            self.prev_lsn, self.page_id, self.page_prev_lsn,
                            self.index_id)
        else:
            _NARROW.pack_into(buf, 0, kind_byte, total, self.txn_id,
                              self.prev_lsn, self.page_id & _NO_PAGE,
                              self.page_prev_lsn, self.index_id)
        self._encode_payload_into(
            buf, WIDE_HEADER_SIZE if wide else NARROW_HEADER_SIZE, wide)
        return bytes(buf)

    def _encode_payload_into(self, buf: bytearray, pos: int, wide: bool) -> int:
        kind = self.kind
        if kind == LogRecordKind.UPDATE:
            op = self.op
            undo = self.undo
            shared = bool(undo) and self._shares_before_image()
            buf[pos] = ((_HAS_OP if op else 0) | (_HAS_UNDO if undo else 0)
                        | (_SHARED_BEFORE_IMAGE if shared else 0))
            pos += 1
            if op:
                _U16.pack_into(buf, pos, op.encoded_size())
                pos = op.encode_into(buf, pos + 2)
            if shared:
                buf[pos] = int(undo.action)
                pos = _put_bytes(buf, pos + 1, undo.key)
            elif undo:
                pos = undo.encode_into(buf, pos)
            return pos
        if kind == LogRecordKind.COMPENSATION:
            _QH.pack_into(buf, pos, self.undo_next_lsn,
                          self.op.encoded_size() if self.op else 0)
            pos += 10
            return self.op.encode_into(buf, pos) if self.op else pos
        if kind == LogRecordKind.FORMAT_PAGE:
            _U16.pack_into(buf, pos, self.op.encoded_size() if self.op else 0)
            pos += 2
            return self.op.encode_into(buf, pos) if self.op else pos
        if kind == LogRecordKind.FULL_PAGE_IMAGE:
            image = self.image or b""
            _QI.pack_into(buf, pos, self.page_lsn, len(image))
            pos += 12
            buf[pos:pos + len(image)] = image
            return pos + len(image)
        if kind == LogRecordKind.PRI_UPDATE:
            _U16.pack_into(buf, pos, len(self.writes))
            pos += 2
            entry = _QQ if wide else _II
            for page_id, page_lsn in self.writes:
                entry.pack_into(buf, pos, page_id, page_lsn)
                pos += entry.size
            return pos
        if kind == LogRecordKind.BACKUP_PAGE:
            ref = self.backup_ref or BackupRef.none()
            _QBQ.pack_into(buf, pos, self.page_lsn, int(ref.kind), ref.value)
            return pos + 17
        if kind == LogRecordKind.CHECKPOINT_END:
            checkpoint = self.checkpoint or CheckpointData()
            _U32.pack_into(buf, pos, checkpoint.encoded_size())
            return checkpoint.encode_into(buf, pos + 4)
        if kind == LogRecordKind.BACKUP_FULL:
            _I64.pack_into(buf, pos, self.backup_id)
            return pos + 8
        if kind == LogRecordKind.PREPARE:
            _I64.pack_into(buf, pos, self.gtid)
            return pos + 8
        return pos

    @classmethod
    def decode(cls, data) -> "LogRecord":
        """The record ``data`` encodes, or :class:`LogError`: anything
        but exactly what :meth:`encode` writes for it is refused."""
        if not data:
            raise LogError("empty log record")
        kind_raw = data[0]
        wide = bool(kind_raw & _WIDE_BIT)
        header = _WIDE if wide else _NARROW
        if len(data) < header.size:
            raise LogError("truncated log record header")
        _, total, txn_id, prev_lsn, page_id, page_prev_lsn, index_id = (
            header.unpack_from(data, 0))
        if total != len(data):
            raise LogError(f"log record length mismatch: {total} != {len(data)}")
        if not wide and page_id == _NO_PAGE:
            page_id = -1
        try:
            kind = LogRecordKind(kind_raw & _KIND_BITS)
        except ValueError:
            raise LogError(f"unknown log record kind {kind_raw}") from None
        record = cls(kind, txn_id, prev_lsn, page_id, page_prev_lsn, index_id)
        if kind_raw & _COMMITS_BIT:
            if kind not in CHAIN_KINDS:
                raise LogError(f"commit bit on a {kind.name} record")
            record.commits = True
        try:
            end = record._decode_payload(data, header.size, wide)
        except MALFORMED as exc:
            raise LogError(f"malformed {kind.name} record: {exc}") from None
        if end != total:
            raise LogError(f"{kind.name} payload ends at byte {end} of a "
                           f"{total}-byte record")
        size = record.encoded_size()
        if size != total:
            raise LogError(
                f"a {total}-byte {'wide' if wide else 'narrow'} {kind.name} "
                f"record whose own encoding is {size} bytes"
                + (" (a wide header the narrow one fits)" if size < total
                   and wide else ""))
        return record

    def _decode_op(self, data, pos: int) -> int:
        """Decode a u16-length-prefixed page op at ``pos``; returns its
        end.  The op must fill its declared length exactly."""
        (op_size,) = _U16.unpack_from(data, pos)
        pos += 2
        self.op = op = PageOp.decode(data, pos)
        if op.encoded_size() != op_size:
            raise LogError(f"page op of {op.encoded_size()} bytes in a "
                           f"{op_size}-byte field")
        return pos + op_size

    def _decode_payload(self, data, pos: int, wide: bool) -> int:
        """Decode the payload reading ``data`` at absolute offsets;
        returns the offset one past it.

        No intermediate payload slice is materialized; only the actual
        byte fields (keys, values, images) are copied out.
        """
        kind = self.kind
        if kind == LogRecordKind.UPDATE:
            flags = data[pos]
            pos += 1
            if flags & ~(_HAS_OP | _HAS_UNDO | _SHARED_BEFORE_IMAGE):
                raise LogError(f"unknown UPDATE flag bits {flags:#x}")
            if flags & _HAS_OP:
                pos = self._decode_op(data, pos)
            if flags & _SHARED_BEFORE_IMAGE:
                op = self.op
                if not flags & _HAS_UNDO or type(op) is not OpUpdateValue:
                    raise LogError("shared before-image without a value "
                                   "update and its undo")
                action = UndoAction(data[pos])
                if action is not _RESTORE_VALUE:
                    raise LogError(f"shared before-image on a {action.name} undo")
                key, pos = _unpack_bytes(data, pos + 1)
                self.undo = LogicalUndo(action, key, op.old_value,
                                        op.prefix, op.suffix)
            elif flags & _HAS_UNDO:
                self.undo, pos = LogicalUndo.decode(data, pos)
            return pos
        if kind == LogRecordKind.COMPENSATION:
            self.undo_next_lsn, op_size = _QH.unpack_from(data, pos)
            if op_size:
                return self._decode_op(data, pos + 8)
            return pos + 10
        if kind == LogRecordKind.FORMAT_PAGE:
            if _U16.unpack_from(data, pos)[0]:
                return self._decode_op(data, pos)
            return pos + 2
        if kind == LogRecordKind.FULL_PAGE_IMAGE:
            self.page_lsn, length = _QI.unpack_from(data, pos)
            pos += 12
            if pos + length > len(data):
                raise LogError(f"page image of {length} bytes runs past the "
                               f"end of the record")
            self.image = bytes(data[pos:pos + length])
            return pos + length
        if kind == LogRecordKind.PRI_UPDATE:
            return self._decode_writes(data, pos, _QQ if wide else _II)
        if kind == LogRecordKind.BACKUP_PAGE:
            page_lsn, ref_kind, ref_value = _QBQ.unpack_from(data, pos)
            self.page_lsn = page_lsn
            self.backup_ref = BackupRef(BackupRefKind(ref_kind), ref_value)
            return pos + 17
        if kind == LogRecordKind.CHECKPOINT_END:
            (size,) = _U32.unpack_from(data, pos)
            self.checkpoint = checkpoint = CheckpointData.decode(data, pos + 4)
            if checkpoint.encoded_size() != size:
                raise LogError(f"checkpoint of {checkpoint.encoded_size()} "
                               f"bytes in a {size}-byte field")
            return pos + 4 + size
        if kind == LogRecordKind.BACKUP_FULL:
            (self.backup_id,) = _I64.unpack_from(data, pos)
            return pos + 8
        if kind == LogRecordKind.PREPARE:
            (self.gtid,) = _I64.unpack_from(data, pos)
            return pos + 8
        return pos

    def _decode_writes(self, data, pos: int, entry: struct.Struct) -> int:
        """A PRI_UPDATE's payload at ``pos``, ``entry`` per page;
        returns its end."""
        if self.page_id != -1:
            raise LogError(f"PRI_UPDATE names page {self.page_id} in its "
                           f"header; its pages are in the payload")
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

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def is_page_update(self) -> bool:
        """Does this record change page contents (i.e. has redo work)?"""
        return self.kind in (LogRecordKind.UPDATE, LogRecordKind.COMPENSATION,
                             LogRecordKind.FORMAT_PAGE,
                             LogRecordKind.FULL_PAGE_IMAGE)

    @property
    def commits_txn(self) -> bool:
        """Does this record end its transaction as committed?

        The one definition of "committed" every log reader shares:
        the commit bit on the transaction's last record, or the
        COMMIT / SYS_COMMIT record written when no record could take
        the bit."""
        return self.commits or self.kind in _COMMIT_KINDS

    @property
    def commits_user_txn(self) -> bool:
        """:attr:`commits_txn`, for a *user* transaction only.

        A COMMIT record names its kind of transaction; a commit bit
        does not, but the record under it does: user updates carry
        key-level undo (B-tree and heap alike), structural updates by
        system transactions never do."""
        return (self.kind == LogRecordKind.COMMIT
                or (self.commits and self.undo is not None))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = [f"lsn={self.lsn}",
                self.kind.name + ("+commit" if self.commits else "")]
        if self.txn_id:
            bits.append(f"txn={self.txn_id}")
        if self.page_id >= 0:
            bits.append(f"page={self.page_id}<-{self.page_prev_lsn}")
        return f"LogRecord({', '.join(bits)})"


def pri_update(writes: Sequence[tuple[int, int]]) -> LogRecord:
    """The PRI_UPDATE that records completed writes (Figures 11 and 12):
    ``writes`` is ``(page_id, PageLSN)`` of each page, 1 to
    :data:`PRI_UPDATE_MAX` of them."""
    if not 0 < len(writes) <= PRI_UPDATE_MAX:
        raise LogError(f"a PRI_UPDATE names 1 to {PRI_UPDATE_MAX} pages, "
                       f"not {len(writes)}")
    if min(map(min, writes)) < 0:
        raise LogError("a PRI_UPDATE names a negative page id or LSN")
    return LogRecord(LogRecordKind.PRI_UPDATE, writes=tuple(writes))


def compress_image(data: bytes | bytearray) -> bytes:
    """Compress a full page image for in-log storage (Section 5.2.1:
    'presumably compressed')."""
    return zlib.compress(bytes(data), level=1)


def decompress_image(blob: bytes, page_size: int) -> bytes:
    """The page image ``blob`` compresses, or :class:`LogError` — for
    bytes zlib cannot inflate, and for a stream that does not inflate to
    exactly one ``page_size`` page (inflating stops one byte past it)."""
    inflater = zlib.decompressobj()
    try:
        image = inflater.decompress(blob, page_size + 1)
    except zlib.error as exc:
        raise LogError(f"page image does not inflate: {exc}") from None
    if len(image) != page_size or not inflater.eof or inflater.unused_data:
        raise LogError(f"page image is not one {page_size}-byte page "
                       f"({len(image)} bytes inflated, stream "
                       f"{'complete' if inflater.eof else 'incomplete'})")
    return image
