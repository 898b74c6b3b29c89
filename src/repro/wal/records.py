"""Log records: what the log holds, built as bytes.

A log record is its bytes: the one builder of its kind returns them,
around a page op's bytes (:mod:`repro.wal.ops`), and the log keeps them
and nothing else.  A reader reads the field it needs in place — the
header (:func:`read_header`), an op's span (:func:`op_span`), an
UPDATE's undo (:func:`read_update`), a checkpoint's tables
(:func:`checkpoint_tables`) and so on: no record object is built.

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

``total_len`` is the length of the whole record, ``txn_id`` the owning
transaction (0 = none), ``prev_lsn`` its per-transaction chain (Section
5.1.1), ``page_id`` the affected page (-1 = none, ``0xFFFFFFFF`` in a
narrow header), ``page_prev_lsn`` the per-page chain (Section 5.1.4) —
the field that lets single-page recovery walk back from the current
PageLSN to the last backup without scanning the log — and ``index_id``
the owning index or table (0 = none).  :func:`_header` is the one header
rule, and every builder writes its header with it: a record takes the
narrow form whenever every field fits it (a total below 64 KiB, ids and
LSNs below 2**32, page ids below 2**32 - 1, an index id below 2**16 and,
in a PRI update or a checkpoint's tables, every entry below 2**32) and
the wide form otherwise; the readers ask the same rule and refuse a
wide header the narrow one fits, so every record has exactly one
encoding.

The payloads, by kind (a header field a builder does not take is 0, a
page id -1; lengths are u16 — a byte string and a page op lie within one
page, at most 32 KiB — but where marked)::

    kind                 builder           payload
    1   UPDATE           encode_update     flags u8; op len, op; the undo
    2   COMPENSATION     clr               undo_next_lsn i64; op len, op
    3   COMMIT           txn_end           —
    4   ABORT            txn_end           —
    6   SYS_COMMIT       txn_end           —
    7   FORMAT_PAGE      format_page       op len, op
    8   FULL_PAGE_IMAGE  full_page_image   page_lsn i64; image len u32,
                                           the compressed image
    9   PRI_UPDATE       pri_update        count (at least 1); per page:
                                           page_id, page_lsn (u32, i64
                                           under a wide header)
    10  CHECKPOINT_BEGIN checkpoint_begin  —
    11  CHECKPOINT_END   checkpoint_end    tables len u32, the tables
                                           (:class:`CheckpointData`: u32
                                           fields, i64 under a wide
                                           header)
    12  BACKUP_PAGE      backup_page       page_lsn i64, ref kind u8,
                                           ref value i64
    13  BACKUP_FULL      backup_full       backup_id i64
    14  PREPARE          prepare           gtid i64

**The commit bit.**  A transaction's commit is one bit about its last
record, so it is stored there: the high bit of the kind byte of an
UPDATE / COMPENSATION / FORMAT_PAGE record says "this record is the last
of its transaction, which committed".  It changes no length, hence no
LSN, and is set — the buffered kind byte flipped in place — while the
record is still in the log's volatile tail
(:meth:`repro.wal.log_manager.LogManager.commit`); a transaction whose
last record has hardened, or that logged nothing, gets a COMMIT /
SYS_COMMIT record instead.  No builder sets it but a redo-only
UPDATE's.  Readers ask :func:`read_header` and, for a user
transaction's, :func:`commits_user_txn`.

**The UPDATE payload** is a flags byte, the op (a u16 length, then the
op's encoding), the undo::

    bit 0  _HAS_OP                a page op follows
    bit 1  _HAS_UNDO              a LogicalUndo follows
    bit 2  _SHARED_BEFORE_IMAGE   that undo's value is the op's old value
    bit 3  _REDO_ONLY             the record is its transaction's only one

Undo is logical (Section 5.1.2), so a rewrite's old value belongs to
the key-level undo; the op carries the same bytes, and with bit 2 they
are stored once: a RESTORE_VALUE undo of just its action byte and key,
its value and span read from the op.  An autocommit write that logs one
record can never roll back, so its record is *redo-only*: flags
``_HAS_OP | _REDO_ONLY`` exactly, no undo, the commit bit set from its
encoding on; its value rewrite keeps no before-image (op kinds 10 and
11), which appears nowhere else.  A :class:`LogicalUndo` written on its
own marks a span with the high bit of its action byte, then the two u16
lengths.  An unspanned rewrite of a 100-byte value under a 16-byte key
is 129 bytes as an autocommit put and 250 in a multi-record transaction.

**A leaf run is one record** (:meth:`repro.btree.tree.FosterBTree.
apply_batch`): a bulk insert (op kind 7) of every row and a DELETE_KEYS
undo naming every key, in row order, each its row's stored key behind
the one prefix the leaf strips — action byte 4, a u16 count of at least
one, then the keys.  Rollback and the update counter treat the run as
the per-key records it stands for.

**One PRI update per write-back run** (Figures 11 and 12) names every
page the run wrote, in write order; it joins no page chain.

Every reader here returns a value or raises :class:`repro.errors.
LogError` — for bytes cut short, an unknown kind or flag bit, a length
past the record, a misplaced commit bit or redo-only op, an undo its op
does not bear out, any encoding but the one its builder writes — and so
does every kernel on the op's bytes.
"""
from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain, starmap
from typing import Sequence

from repro.errors import LogError, RecoveryError
from repro.wal.ops import (BULK_INSERT, MALFORMED, REDO_VALUE,
                           SPANNED_REDO_VALUE, _unpack_bytes, bulk_rows,
                           check_span, rewrite_before_image)

_NARROW = struct.Struct("<BHIIIIH")
_WIDE = struct.Struct("<BIqqqqq")
#: the two header forms, for a reader of headers in place
#: (:meth:`repro.wal.log_manager.LogManager.append`); see the module
#: docstring
NARROW_HEADER, WIDE_HEADER = _NARROW, _WIDE
NARROW_HEADER_SIZE = _NARROW.size
WIDE_HEADER_SIZE = _WIDE.size
#: what a wide header adds to a record; a wide PRI update's entries add
#: 8 bytes each besides
_WIDENING = WIDE_HEADER_SIZE - NARROW_HEADER_SIZE
#: a narrow header's page_id -1
NO_PAGE = _NO_PAGE = 0xFFFFFFFF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_BHHH = struct.Struct("<BHHH")
_BH = struct.Struct("<BH")
_I64 = struct.Struct("<q")
_II = struct.Struct("<II")
_QI = struct.Struct("<qI")
_QH = struct.Struct("<qH")
_QQ = struct.Struct("<qq")
_QQB = struct.Struct("<qqB")
_IIB = struct.Struct("<IIB")
_QBQ = struct.Struct("<qBq")
_III = struct.Struct("<III")

#: the header's kind byte (see the module docstring)
KIND_BITS = _KIND_BITS = 0x3F
WIDE_BIT = _WIDE_BIT = 0x40
COMMITS_BIT = _COMMITS_BIT = 0x80
#: UPDATE flags byte
_HAS_OP = 1
_HAS_UNDO = 2
_SHARED_BEFORE_IMAGE = 4
_REDO_ONLY = 8
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

#: Kinds that change a page's contents: what redo applies.
PAGE_UPDATE_KINDS = CHAIN_KINDS | {LogRecordKind.FULL_PAGE_IMAGE}

_COMMIT_KINDS = (LogRecordKind.COMMIT, LogRecordKind.SYS_COMMIT)
_UPDATE = LogRecordKind.UPDATE
_COMPENSATION = LogRecordKind.COMPENSATION
_PRI_UPDATE = LogRecordKind.PRI_UPDATE
_CHECKPOINT_END = LogRecordKind.CHECKPOINT_END


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
    DELETE_KEYS = 4    #: compensate a leaf run: ghost every key it names


_RESTORE_VALUE = UndoAction.RESTORE_VALUE
_DELETE_KEYS = UndoAction.DELETE_KEYS
#: a redo-only UPDATE's kind byte: it carries its commit bit
_REDO_UPDATE_KIND = _UPDATE | _COMMITS_BIT


@dataclass(slots=True)
class LogicalUndo:
    """Key-level undo information carried by user-transaction updates.

    A RESTORE_VALUE undo may carry its rewrite's span (see the module
    docstring): ``value`` is then the old middle, restored between the
    first ``prefix`` and the last ``suffix`` bytes of whatever value the
    key holds when it is compensated (:meth:`restored`).  Not frozen: a
    frozen dataclass's ``__init__`` pays a call per field, and every
    listed write builds one.

    A DELETE_KEYS undo — a leaf run's — names every key of the run in
    ``keys``, in row order; its ``key`` is the first of them.
    """

    action: UndoAction
    key: bytes
    value: bytes = b""
    prefix: int = 0
    suffix: int = 0
    #: a DELETE_KEYS undo's keys (empty for every other action)
    keys: tuple[bytes, ...] = field(default=(), repr=False)

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

    def encode(self) -> bytes:
        if self.action is _DELETE_KEYS:
            keys = self.keys
            # The keys joined in C: no Python step per key.
            return _BH.pack(_DELETE_KEYS, len(keys)) + b"".join(
                chain.from_iterable(zip(map(_U16.pack, map(len, keys)), keys)))
        key, value = self.key, self.value
        if self.prefix or self.suffix:
            head = _BHHH.pack(self.action | _SPANNED_UNDO, self.prefix,
                              self.suffix, len(key))
        else:
            head = _BH.pack(self.action, len(key))
        return b"".join((head, key, _U16.pack(len(value)), value))

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["LogicalUndo", int]:
        try:
            if not data[offset] & _SPANNED_UNDO:
                action = UndoAction(data[offset])
                if action is _DELETE_KEYS:
                    return cls._decode_keys(data, offset)
                key, pos = _unpack_bytes(data, offset + 1)
                value, pos = _unpack_bytes(data, pos)
                return cls(action, key, value), pos
            raw, prefix, suffix, _length = _BHHH.unpack_from(data, offset)
            action = UndoAction(raw & ~_SPANNED_UNDO)
            if action is not _RESTORE_VALUE:
                raise LogError(f"span on a {action.name} undo")
            key, pos = _unpack_bytes(data, offset + 5)
            value, pos = _unpack_bytes(data, pos)
            check_span(prefix, suffix, len(value))
        except MALFORMED as exc:
            raise LogError(f"malformed logical undo: {exc}") from None
        return cls(action, key, value, prefix, suffix), pos

    @classmethod
    def _decode_keys(cls, data: bytes, offset: int) -> tuple["LogicalUndo", int]:
        """A DELETE_KEYS undo at ``offset``: its u16 count, then that
        many u16-length-prefixed keys."""
        _action, count = _BH.unpack_from(data, offset)
        if not count:
            raise LogError("a DELETE_KEYS undo names no key")
        pos = offset + 3
        keys = []
        for _ in range(count):
            key, pos = _unpack_bytes(data, pos)
            keys.append(key)
        return cls(_DELETE_KEYS, keys[0], keys=tuple(keys)), pos


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

    def fits_narrow(self) -> bool:
        """Is every entry's every id and LSN below 2**32 (and not
        negative), so that u32 fields hold it?"""
        return not any(value >> 32 for value in chain(
            chain.from_iterable(self.dirty_pages.items()),
            chain.from_iterable(entry[:2] for entry in self.active_txns),
            chain.from_iterable(self.pri_images.items())))

    def encode(self, wide: bool) -> bytes:
        """The tables: the three counts (u32), then per dirty page its
        id and ``rec_lsn``, per active transaction its id, last LSN and
        system flag (u8), per region page its id and image LSN — u32
        fields, or i64 ones under a ``wide`` header."""
        pair, txn = (_QQ, _QQB) if wide else (_II, _IIB)
        return b"".join([
            _III.pack(len(self.dirty_pages), len(self.active_txns),
                      len(self.pri_images)),
            *(pair.pack(*entry) for entry in sorted(self.dirty_pages.items())),
            *(txn.pack(txn_id, last_lsn, int(is_system))
              for txn_id, last_lsn, is_system in self.active_txns),
            *(pair.pack(*entry) for entry in sorted(self.pri_images.items()))])

    @classmethod
    def decode(cls, data, offset: int, wide: bool) -> "CheckpointData":
        """The tables encoded at ``offset`` (i64 fields if ``wide``), or
        :class:`LogError`."""
        pair, txn = (_QQ, _QQB) if wide else (_II, _IIB)
        try:
            n_dirty, n_txns, n_images = _III.unpack_from(data, offset)
            txns_at = offset + 12 + pair.size * n_dirty
            images_at = txns_at + txn.size * n_txns
            end = images_at + pair.size * n_images
            if end > len(data):
                raise LogError("checkpoint tables run past the end of the "
                               "record")
            return cls(dict(pair.iter_unpack(data[offset + 12:txns_at])),
                       [(txn_id, last_lsn, bool(is_system))
                        for txn_id, last_lsn, is_system
                        in txn.iter_unpack(data[txns_at:images_at])],
                       dict(pair.iter_unpack(data[images_at:end])))
        except MALFORMED as exc:
            raise LogError(f"malformed checkpoint payload: {exc}") from None


#: every kind byte's low six bits a record may carry
_KINDS = frozenset(LogRecordKind)
#: the backup reference kinds; the kinds whose header is the whole record
_REF_KINDS = frozenset(BackupRefKind)
_BARE_KINDS = frozenset({*_COMMIT_KINDS, LogRecordKind.ABORT,
                         LogRecordKind.CHECKPOINT_BEGIN})


# ----------------------------------------------------------------------
# The readers: each reads its field of a record's bytes in place
# ----------------------------------------------------------------------
def read_header(raw, start: int = 0,
                end: int | None = None) -> tuple[int, bool, int, int, int]:
    """``(kind, commits, txn_id, page_id, page_prev_lsn)`` of the record
    ``raw[start:end]`` encodes (``raw`` up to its end by default), its
    header read in place — ``raw`` may be a whole log segment — and its
    payload left encoded; ``commits`` (the commit bit, or a COMMIT /
    SYS_COMMIT record) is what "committed" means to every log reader.
    A header cut short or not the record's length, an unknown kind, a
    misplaced commit bit, a payload on a kind that has none and a wide
    header the narrow one fits (a PRI update's or checkpoint's entries
    weigh in: see their readers) are :class:`LogError`."""
    size = (len(raw) if end is None else end) - start
    try:
        kind_byte = raw[start]
        wide = kind_byte & _WIDE_BIT
        header = _WIDE if wide else _NARROW
        _, total, txn_id, _, page_id, page_prev_lsn, _ = header.unpack_from(
            raw, start)
    except MALFORMED:
        raise LogError(f"log record header cut short at {size} "
                       f"bytes") from None
    if total != size:
        raise LogError(f"log record length mismatch: {total} != {size}")
    if size < header.size:  # in place, the header read the next record
        raise LogError(f"log record header cut short at {size} bytes")
    kind = kind_byte & _KIND_BITS
    if kind not in _KINDS:
        raise LogError(f"unknown log record kind {kind_byte}")
    if size != header.size and kind in _BARE_KINDS:
        raise LogError(f"a {size}-byte {LogRecordKind(kind).name} record")
    if not wide:
        if page_id == _NO_PAGE:
            page_id = -1
    elif kind != _PRI_UPDATE and kind != _CHECKPOINT_END:
        _one_encoding(raw, start, size - WIDE_HEADER_SIZE)
    if not kind_byte & _COMMITS_BIT:
        return kind, kind in _COMMIT_KINDS, txn_id, page_id, page_prev_lsn
    if kind not in CHAIN_KINDS:
        raise LogError(f"commit bit on a {LogRecordKind(kind).name} record")
    return kind, True, txn_id, page_id, page_prev_lsn


def _one_encoding(raw, start: int, payload: int) -> None:
    """Refuse the wide header at ``start`` when the one header rule
    (:func:`_header`) writes its fields narrow around ``payload`` bytes."""
    kind, total, *fields = _WIDE.unpack_from(raw, start)
    kind &= _KIND_BITS
    if not _header(kind, payload, *fields)[0] & _WIDE_BIT:
        raise LogError(f"a {total}-byte wide {LogRecordKind(kind).name} "
                       f"record (a wide header the narrow one fits)")


def prev_lsn_of(data) -> int:
    """The ``prev_lsn`` (the transaction's previous record) in the
    header of the record ``data``, which :func:`read_header` checks."""
    return (_WIDE if data[0] & _WIDE_BIT else _NARROW).unpack_from(data)[3]


def index_id_of(data) -> int:
    """The ``index_id`` in the header of the record ``data``."""
    return (_WIDE if data[0] & _WIDE_BIT else _NARROW).unpack_from(data)[6]


def _update_flags(data, pos: int, commits: bool) -> int:
    """The flags byte at ``pos`` of the UPDATE ``data`` that ``commits``:
    an unknown bit, and a redo-only record with undo, without its op or
    without the commit bit, are :class:`LogError`."""
    flags = data[pos]
    if flags & ~(_HAS_OP | _HAS_UNDO | _SHARED_BEFORE_IMAGE | _REDO_ONLY):
        raise LogError(f"unknown UPDATE flag bits {flags:#x}")
    if flags & _REDO_ONLY:
        if flags != _HAS_OP | _REDO_ONLY:
            raise LogError("a redo-only UPDATE carries its op and no undo")
        if not commits:
            raise LogError("a redo-only UPDATE without the commit bit")
    return flags


def commits_user_txn(data, kind: int, commits: bool) -> bool:
    """Does the record ``data``, whose header :func:`read_header` read
    as ``kind`` and ``commits``, end a *user* transaction as committed?

    A COMMIT record names its kind of transaction; a commit bit does
    not, but the record under it does: user updates carry key-level
    undo or are redo-only, structural updates by system transactions
    are neither.  That is the UPDATE's flags byte, read in place and
    checked as :func:`read_update` checks it."""
    if kind != _UPDATE or not commits:
        return kind == LogRecordKind.COMMIT
    pos = WIDE_HEADER_SIZE if data[0] & _WIDE_BIT else NARROW_HEADER_SIZE
    if pos >= len(data):
        raise LogError(f"an UPDATE of {len(data)} bytes has no flags byte")
    return bool(_update_flags(data, pos, commits) & (_HAS_UNDO | _REDO_ONLY))


def op_span(data, kind: int) -> tuple[int, int, int]:
    """``(start, end)`` of the page op in the bytes ``data`` of a chain
    record of ``kind`` — ``start == end`` where it carries none, both
    then where its field ends — and the updates its leaf run counts past
    its first (one per key of its DELETE_KEYS undo).  The op is left to
    the kernel that applies it; a field past the record, an UPDATE's
    empty one, a CLR's or format's that does not end the record and a
    redo-only rewrite but in a redo-only UPDATE are :class:`LogError`."""
    try:
        pos = WIDE_HEADER_SIZE if data[0] & _WIDE_BIT else NARROW_HEADER_SIZE
        flags = _HAS_OP
        if kind == _UPDATE:
            flags = data[pos]
            pos += 1
            if not flags & _HAS_OP:
                return pos, pos, 0
        elif kind == _COMPENSATION:
            pos += 8
        start = pos + 2
        end = start + _U16.unpack_from(data, pos)[0]
        if end > len(data) or (end == start if kind == _UPDATE
                               else end != len(data)):
            raise LogError(f"a page op field of {end - start} bytes at byte "
                           f"{start} of a {len(data)}-byte record")
        if (start < end and not flags & _REDO_ONLY
                and data[start] in (REDO_VALUE, SPANNED_REDO_VALUE)):
            raise LogError("a redo-only op in a record that is not a "
                           "redo-only UPDATE")
        if (flags & (_HAS_UNDO | _SHARED_BEFORE_IMAGE) == _HAS_UNDO
                and data[end] == _DELETE_KEYS):
            return start, end, _U16.unpack_from(data, end + 1)[0] - 1
        return start, end, 0
    except MALFORMED as exc:
        raise LogError(f"malformed {LogRecordKind(kind).name} record: "
                       f"{exc}") from None


def read_update(data) -> tuple[LogicalUndo | None, int, int]:
    """``(undo, start, end)`` of the UPDATE ``data``, whose header
    :func:`read_header` read: its key-level undo (None: it logs none)
    and its op's span (:func:`op_span`).  Any payload but what
    :func:`encode_update` writes — a flag out of place, an undo its op
    does not bear out, a before-image the op holds spelled out again,
    bytes past the undo — is :class:`LogError`."""
    try:
        pos = WIDE_HEADER_SIZE if data[0] & _WIDE_BIT else NARROW_HEADER_SIZE
        flags = _update_flags(data, pos, bool(data[0] & _COMMITS_BIT))
        start, end, _rows = op_span(data, _UPDATE)
        op = bytes(data[start:end]) if start < end else None
        pos, undo = end, None
        if flags & _SHARED_BEFORE_IMAGE:
            image = op and rewrite_before_image(op)
            if not flags & _HAS_UNDO or image is None:
                raise LogError("shared before-image without a value update "
                               "and its undo")
            action = UndoAction(data[pos])
            if action is not _RESTORE_VALUE:
                raise LogError(f"shared before-image on a {action.name} undo")
            key, pos = _unpack_bytes(data, pos + 1)
            undo = LogicalUndo(action, key, *image)
        elif flags & _HAS_UNDO:
            undo, pos = LogicalUndo.decode(data, pos)
            if undo.keys:
                _check_run_undo(op, undo.keys)
            elif (undo.action is _RESTORE_VALUE and op
                  and rewrite_before_image(op)
                  == (undo.value, undo.prefix, undo.suffix)):
                raise LogError("an UPDATE that spells out its op's "
                               "before-image again; its own encoding "
                               "stores it once")
    except MALFORMED as exc:
        raise LogError(f"malformed UPDATE record: {exc}") from None
    if pos != len(data):
        raise LogError(f"UPDATE payload ends at byte {pos} of a "
                       f"{len(data)}-byte record")
    return undo, start, end


def _check_run_undo(op: bytes | None, keys: tuple[bytes, ...]) -> None:
    """A DELETE_KEYS undo rides on the bulk insert of its leaf run and
    names that op's rows: one key per row, in row order, each the row's
    stored key behind the one prefix the leaf strips."""
    if not op or op[0] != BULK_INSERT:
        raise LogError(f"a DELETE_KEYS undo under "
                       f"{f'an op of kind {op[0]}' if op else 'no op'}")
    rows = bulk_rows(op, 0)[1]
    if len(rows) != len(keys):
        raise LogError(f"a DELETE_KEYS undo of {len(keys)} keys over a run "
                       f"of {len(rows)} rows")
    cut = len(keys[0]) - len(rows[0][0])
    prefix = keys[0][:cut]
    if cut < 0 or any(key[:cut] != prefix or key[cut:] != row[0]
                      for key, row in zip(keys, rows)):
        raise LogError("a DELETE_KEYS undo names keys its run does not "
                       "insert")


def undo_next_lsn(data) -> int:
    """The ``undo_next_lsn`` of the COMPENSATION ``data``, whose header
    :func:`read_header` read: the i64 before its op field, which
    :func:`op_span` checks and finds 10 bytes on."""
    return _I64.unpack_from(data, op_span(data, _COMPENSATION)[0] - 10)[0]


def pri_writes(data) -> tuple[tuple[int, int], ...]:
    """``(page_id, page_lsn)`` of every page the PRI_UPDATE ``data``
    names, whose header :func:`read_header` read; a page in its header,
    no page, a negative id or LSN, bytes past its pages and i64 entries
    the narrow form holds are :class:`LogError`."""
    wide = data[0] & _WIDE_BIT
    header, entry = (_WIDE, _QQ) if wide else (_NARROW, _II)
    page_id = header.unpack_from(data)[4]
    if page_id != (-1 if wide else _NO_PAGE):
        raise LogError(f"PRI_UPDATE names page {page_id} in its header")
    start = header.size + 2
    count = _U16.unpack_from(data, header.size)[0] if start <= len(data) else 0
    end = start + entry.size * count
    if not count or end != len(data):
        raise LogError(f"PRI_UPDATE's {count} pages in a {len(data)}-byte "
                       f"record")
    writes = tuple(entry.iter_unpack(memoryview(data)[start:end]))
    if min(map(min, writes)) < 0:
        raise LogError("PRI_UPDATE names a negative page id or LSN")
    if wide and not max(map(max, writes)) >> 32:
        # Each entry's two ids or LSNs take 8 bytes fewer as u32.
        _one_encoding(data, 0, end - WIDE_HEADER_SIZE - 8 * count)
    return writes


def checkpoint_tables(data) -> CheckpointData | None:
    """The tables of the CHECKPOINT_END record ``data``, its header read
    here (:func:`read_header`); None for a record of another kind.
    Tables that are not the bytes :func:`checkpoint_end` writes, bytes
    past them and i64 fields the narrow form holds are
    :class:`LogError`."""
    if read_header(data)[0] != _CHECKPOINT_END:
        return None
    wide = data[0] & _WIDE_BIT
    pos = (WIDE_HEADER_SIZE if wide else NARROW_HEADER_SIZE) + 4
    size = _U32.unpack_from(data, pos - 4)[0] if pos <= len(data) else -1
    checkpoint = CheckpointData.decode(data, pos, wide)
    if (pos + size != len(data)
            or checkpoint.encode(wide) != data[pos:pos + size]):
        raise LogError(f"checkpoint tables that are not the {size} bytes "
                       f"their builder writes")
    if wide and checkpoint.fits_narrow():
        entries = (len(checkpoint.dirty_pages) + len(checkpoint.active_txns)
                   + len(checkpoint.pri_images))
        _one_encoding(data, 0, len(data) - WIDE_HEADER_SIZE - 8 * entries)
    return checkpoint


def page_backup(data) -> tuple[int, BackupRef]:
    """``(page_lsn, backup reference)`` of the BACKUP_PAGE ``data``,
    whose header :func:`read_header` read, or :class:`LogError`."""
    pos = WIDE_HEADER_SIZE if data[0] & _WIDE_BIT else NARROW_HEADER_SIZE
    if pos + 17 != len(data) or data[pos + 8] not in _REF_KINDS:
        raise LogError(f"a {len(data)}-byte BACKUP_PAGE record")
    page_lsn, ref_kind, ref_value = _QBQ.unpack_from(data, pos)
    return page_lsn, BackupRef(BackupRefKind(ref_kind), ref_value)


def full_backup_id(raw, start: int = 0, end: int | None = None) -> int:
    """The backup id of the BACKUP_FULL record ``raw[start:end]`` (or a
    PREPARE's global transaction id): the one i64 of its payload, read
    in place (``raw`` may be a whole log segment), or :class:`LogError`."""
    pos = start + (WIDE_HEADER_SIZE if raw[start] & _WIDE_BIT
                   else NARROW_HEADER_SIZE)
    size = (len(raw) if end is None else end) - start
    if start + size - pos != 8:
        raise LogError(f"a {size}-byte record whose payload is not one i64")
    return _I64.unpack_from(raw, pos)[0]


prepare_gtid = full_backup_id


def page_image(data) -> tuple[int, bytes]:
    """``(page_lsn, compressed image)`` of the bytes ``data`` of a
    FULL_PAGE_IMAGE record, or :class:`LogError`."""
    pos = WIDE_HEADER_SIZE if data[0] & _WIDE_BIT else NARROW_HEADER_SIZE
    page_lsn, length = (_QI.unpack_from(data, pos) if pos + 12 <= len(data)
                        else (0, len(data)))
    if pos + 12 + length != len(data):
        raise LogError(f"page image of {length} bytes in a {len(data)}-byte "
                       f"record")
    return page_lsn, bytes(data[pos + 12:])


# ----------------------------------------------------------------------
# The builders: one per record kind, each returns the record's bytes
# ----------------------------------------------------------------------
def _header(kind: int, size: int, txn_id: int, prev_lsn: int, page_id: int,
            page_prev_lsn: int, index_id: int) -> bytes:
    """The header of a ``kind`` record (its kind byte, commit bit
    included) around a ``size``-byte payload — the one header rule:
    narrow when every field fits it (``page_id + 1`` maps -1 ..
    2**32 - 2 onto u32) and ``kind`` does not carry the wide bit, which
    a PRI update's or a checkpoint's i64 entries set; wide otherwise."""
    total = NARROW_HEADER_SIZE + size
    if not (kind & _WIDE_BIT
            or (txn_id | prev_lsn | page_prev_lsn | page_id + 1) >> 32
            | (index_id | total) >> 16):
        return _NARROW.pack(kind, total, txn_id, prev_lsn, page_id & _NO_PAGE,
                            page_prev_lsn, index_id)
    return _WIDE.pack(kind | _WIDE_BIT, total + _WIDENING, txn_id, prev_lsn,
                      page_id, page_prev_lsn, index_id)


def encode_update(txn_id: int, prev_lsn: int, page_id: int,
                  page_prev_lsn: int, index_id: int, op: bytes | None,
                  undo: LogicalUndo | None, redo_only: bool) -> bytes:
    """An UPDATE of the page op ``op`` (its bytes) with ``undo``: the
    header, the flags byte, the op's length and bytes, the undo, in one
    write.  A ``redo_only`` record — an op and no undo — carries its
    commit bit from here on."""
    flags = _REDO_ONLY if redo_only else 0
    if undo is None:
        tail = b""
    elif (undo.action is _RESTORE_VALUE and op
          and rewrite_before_image(op) == (undo.value, undo.prefix,
                                           undo.suffix)):
        # The undo's value is the op's before-image, under the same
        # span (an in-place rewrite of one key's value): stored once.
        flags |= _HAS_UNDO | _SHARED_BEFORE_IMAGE
        tail = _BH.pack(_RESTORE_VALUE, len(undo.key)) + undo.key
    else:
        flags |= _HAS_UNDO
        tail = undo.encode()
    header = _header(_REDO_UPDATE_KIND if redo_only else _UPDATE,
                     (3 + len(op) if op else 1) + len(tail), txn_id, prev_lsn,
                     page_id, page_prev_lsn, index_id)
    if not op:
        return b"".join((header, bytes((flags,)), tail))
    return b"".join((header, _BH.pack(flags | _HAS_OP, len(op)), op, tail))


def clr(txn_id: int, prev_lsn: int, page_id: int, page_prev_lsn: int,
        index_id: int, op: bytes, undo_next_lsn: int) -> bytes:
    """A COMPENSATION record (CLR) of the compensation op ``op`` (its
    bytes); ``undo_next_lsn`` is the next record rollback undoes."""
    return b"".join((_header(_COMPENSATION, 10 + len(op), txn_id, prev_lsn,
                             page_id, page_prev_lsn, index_id),
                     _QH.pack(undo_next_lsn, len(op)), op))


def format_page(txn_id: int, prev_lsn: int, page_id: int, index_id: int,
                op: bytes) -> bytes:
    """A FORMAT_PAGE record of the op ``op`` (its bytes): the first of
    its page's chain, so no ``page_prev_lsn``."""
    return b"".join((_header(LogRecordKind.FORMAT_PAGE, 2 + len(op), txn_id,
                             prev_lsn, page_id, 0, index_id),
                     _U16.pack(len(op)), op))


def txn_end(kind: LogRecordKind, txn_id: int, prev_lsn: int) -> bytes:
    """The COMMIT, SYS_COMMIT or ABORT record (``kind``) that ends
    transaction ``txn_id``, whose last record is at ``prev_lsn``."""
    return _header(kind, 0, txn_id, prev_lsn, -1, 0, 0)


def prepare(txn_id: int, prev_lsn: int, gtid: int) -> bytes:
    """The PREPARE record of a 2PC participant's yes vote on the global
    transaction ``gtid``."""
    return (_header(LogRecordKind.PREPARE, 8, txn_id, prev_lsn, -1, 0, 0)
            + _I64.pack(gtid))


def checkpoint_begin() -> bytes:
    """The CHECKPOINT_BEGIN record."""
    return _header(LogRecordKind.CHECKPOINT_BEGIN, 0, 0, 0, -1, 0, 0)


def checkpoint_end(checkpoint: CheckpointData) -> bytes:
    """The CHECKPOINT_END record of ``checkpoint``'s tables: u32 fields
    under the narrow header when each entry fits and the header does,
    i64 fields under the wide one otherwise."""
    if checkpoint.fits_narrow():
        body = checkpoint.encode(False)
        header = _header(_CHECKPOINT_END, 4 + len(body), 0, 0, -1, 0, 0)
        if not header[0] & _WIDE_BIT:
            return b"".join((header, _U32.pack(len(body)), body))
    body = checkpoint.encode(True)
    return b"".join((_header(_CHECKPOINT_END | _WIDE_BIT, 4 + len(body), 0,
                             0, -1, 0, 0), _U32.pack(len(body)), body))


def full_page_image(page_id: int, page_lsn: int, image: bytes) -> bytes:
    """The FULL_PAGE_IMAGE record of page ``page_id`` at ``page_lsn``:
    ``image`` is the page compressed (:func:`compress_image`)."""
    return b"".join((_header(LogRecordKind.FULL_PAGE_IMAGE, 12 + len(image),
                             0, 0, page_id, 0, 0),
                     _QI.pack(page_lsn, len(image)), image))


def backup_page(page_id: int, page_lsn: int, ref: BackupRef) -> bytes:
    """The BACKUP_PAGE record: page ``page_id`` at ``page_lsn`` has a
    backup where ``ref`` says."""
    return (_header(LogRecordKind.BACKUP_PAGE, 17, 0, 0, page_id, 0, 0)
            + _QBQ.pack(page_lsn, ref.kind, ref.value))


def backup_full(backup_id: int) -> bytes:
    """The BACKUP_FULL record of full backup ``backup_id``."""
    return (_header(LogRecordKind.BACKUP_FULL, 8, 0, 0, -1, 0, 0)
            + _I64.pack(backup_id))


def pri_update(writes: Sequence[tuple[int, int]]) -> bytes:
    """The PRI_UPDATE that records completed writes (Figures 11 and 12):
    ``writes`` is ``(page_id, PageLSN)`` of each page, 1 to
    :data:`PRI_UPDATE_MAX` of them, u32 pairs under the narrow header
    when each fits and the header does, i64 pairs under the wide one
    otherwise."""
    count = len(writes)
    if not 0 < count <= PRI_UPDATE_MAX:
        raise LogError(f"a PRI_UPDATE names 1 to {PRI_UPDATE_MAX} pages, "
                       f"not {count}")
    if min(map(min, writes)) < 0:
        raise LogError("a PRI_UPDATE names a negative page id or LSN")
    if not max(map(max, writes)) >> 32:
        header = _header(_PRI_UPDATE, 2 + 8 * count, 0, 0, -1, 0, 0)
        if not header[0] & _WIDE_BIT:
            return b"".join((header, _U16.pack(count),
                             *starmap(_II.pack, writes)))
    return b"".join((_header(_PRI_UPDATE | _WIDE_BIT, 2 + 16 * count, 0, 0,
                             -1, 0, 0), _U16.pack(count),
                     *starmap(_QQ.pack, writes)))


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
