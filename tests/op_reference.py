"""The page ops as objects that decode and apply themselves: the
reference the byte kernels of :mod:`repro.wal.ops` are checked against.

A copy of ``repro.wal.ops`` from before its ops were applied from their
bytes: each op class decodes itself from an encoding (``_decode_body``,
:meth:`PageOp.decode`) and applies itself to a page (``apply_redo``,
``apply_undo``).  ``tests/test_op_kernels.py`` runs every op the
round-trip property draws through both and compares the pages, and
``tests/test_golden_write_path.py`` decodes the log's ops with
:func:`decode` to hash what they say.  The byte format is the engine's:
an op this module decodes is one :mod:`repro.wal.ops` encodes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain

from repro.errors import LogError, RecoveryError
from repro.page.page import Page, PageType
from repro.page.slotted import (LENGTH_MASK, SlottedPage, mark_ghost,
                                update_value)


_U16 = struct.Struct("<H")
_BHB = struct.Struct("<BHB")
_BH = struct.Struct("<BH")
_BHH = struct.Struct("<BHH")
_BHHH = struct.Struct("<BHHH")
_BHHHH = struct.Struct("<BHHHH")
_BHBB = struct.Struct("<BHBB")
_BB = struct.Struct("<BB")
_BHI = struct.Struct("<BHI")


#: What a decoder can raise on bytes that are not an encoding: every
#: decode boundary turns these into :class:`LogError`.
MALFORMED = (struct.error, IndexError, ValueError, OverflowError)

#: :class:`OpUpdateValue`'s bytes besides its values: kind, slot, lengths
UPDATE_VALUE_FIXED = 7
#: what a span adds to a value rewrite: its prefix and suffix lengths
SPAN_SIZE = 4
#: the kind byte of a spanned :class:`OpUpdateValue`
_SPANNED_UPDATE_VALUE = 9
#: the kind bytes of a redo-only :class:`OpUpdateValue`, unspanned and
#: spanned
_REDO_VALUE = 10
_SPANNED_REDO_VALUE = 11
#: a redo-only rewrite's bytes besides its new value: kind, slot, length
REDO_VALUE_FIXED = 5
#: what a span adds to a redo-only rewrite: prefix, suffix, old length
REDO_SPAN_SIZE = 6


def check_span(prefix: int, suffix: int, middle: int) -> None:
    """A decoded span is one an encoder writes: not empty, and no
    value it splices — ``middle`` is the longer middle's length — is
    longer than a record can be."""
    if not prefix + suffix:
        raise LogError("empty span")
    if prefix + suffix + middle > LENGTH_MASK:
        raise LogError(f"span of {prefix} + {suffix} bytes around a "
                       f"{middle}-byte middle is longer than any record")


def _unpack_bytes(data, offset: int) -> tuple[bytes, int]:
    (length,) = _U16.unpack_from(data, offset)
    start = offset + 2
    end = start + length
    if end > len(data):
        # A slice would silently come back short.
        raise LogError(f"byte string of {length} bytes at offset {offset} "
                       f"runs past the end of the record")
    return bytes(data[start:end]), end


def _put_bytes(buf: bytearray, pos: int, payload: bytes) -> int:
    """Write a u16-length-prefixed byte string into ``buf`` at ``pos``."""
    _U16.pack_into(buf, pos, len(payload))
    pos += 2
    end = pos + len(payload)
    buf[pos:end] = payload
    return end


class PageOp:
    """Base class for operations applied to a single page.

    Serialization is allocation-light: every op knows its exact
    ``encoded_size()`` up front (so the log manager never materializes
    bytes just to measure a record) and writes itself into a caller-
    provided buffer via ``encode_into`` (so a whole log record encodes
    into one preallocated buffer).  Decoding reads at explicit offsets
    and never slices intermediate copies.
    """

    kind: int = -1

    def apply_redo(self, page: Page) -> None:
        raise NotImplementedError

    def apply_undo(self, page: Page) -> None:
        raise NotImplementedError

    def encoded_size(self) -> int:
        raise NotImplementedError

    def encode_into(self, buf: bytearray, pos: int) -> int:
        """Serialize into ``buf`` at ``pos``; returns the end offset."""
        raise NotImplementedError

    def encode(self) -> bytes:
        buf = bytearray(self.encoded_size())
        self.encode_into(buf, 0)
        return bytes(buf)

    @staticmethod
    def decode(data, offset: int = 0) -> "PageOp":
        """The op encoded at ``offset``, or :class:`LogError`: bytes
        that are not an op encoding never surface as anything else."""
        if not 0 <= offset < len(data):
            raise LogError("empty page-op payload")
        kind = data[offset]
        try:
            cls = _OP_REGISTRY[kind]
        except KeyError:
            raise LogError(f"unknown page-op kind {kind}") from None
        try:
            return cls._decode_body(data, offset)
        except MALFORMED as exc:
            raise LogError(
                f"malformed {cls.__name__} payload: {exc}") from None

    @classmethod
    def _decode_body(cls, data, offset: int) -> "PageOp":
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class OpInsert(PageOp):
    """Insert a record at a slot position."""

    slot: int
    key: bytes
    value: bytes
    ghost: bool = False

    kind = 1

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).insert(self.slot, (self.key, self.value, self.ghost))

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).remove(self.slot)

    def encoded_size(self) -> int:
        return 8 + len(self.key) + len(self.value)

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHB.pack_into(buf, pos, self.kind, self.slot, int(self.ghost))
        pos = _put_bytes(buf, pos + 4, self.key)
        return _put_bytes(buf, pos, self.value)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpInsert":
        _kind, slot, ghost = _BHB.unpack_from(data, offset)
        key, pos = _unpack_bytes(data, offset + 4)
        value, _pos = _unpack_bytes(data, pos)
        return cls(slot, key, value, bool(ghost))


@dataclass(frozen=True, slots=True)
class OpDelete(PageOp):
    """Physically remove the record at a slot (stores it for undo)."""

    slot: int
    key: bytes
    value: bytes
    ghost: bool = False

    kind = 2

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).remove(self.slot)

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).insert(self.slot, (self.key, self.value, self.ghost))

    def encoded_size(self) -> int:
        return 8 + len(self.key) + len(self.value)

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHB.pack_into(buf, pos, self.kind, self.slot, int(self.ghost))
        pos = _put_bytes(buf, pos + 4, self.key)
        return _put_bytes(buf, pos, self.value)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpDelete":
        _kind, slot, ghost = _BHB.unpack_from(data, offset)
        key, pos = _unpack_bytes(data, offset + 4)
        value, _pos = _unpack_bytes(data, pos)
        return cls(slot, key, value, bool(ghost))


@dataclass(slots=True)
class OpUpdateValue(PageOp):
    """Replace the value of the record at a slot.

    With a *span* (``prefix`` or ``suffix`` nonzero) the old and new
    value share their first ``prefix`` and last ``suffix`` bytes, and
    ``old_value`` / ``new_value`` hold only the middles between them: a
    rewrite logs the bytes it changes, as PostgreSQL's heap UPDATE
    records do with ``PREFIX_FROM_OLD`` / ``SUFFIX_FROM_OLD``.  Redo
    and undo then splice one middle in place of the other in the
    record's current value (:func:`repro.page.slotted.update_value`), which
    refuses — before a byte is written, as a redo chain mismatch is
    refused — a value whose span does not hold the middle it replaces.
    Build rewrites with :func:`repro.wal.ops.value_rewrite`.

    A *redo-only* rewrite (``old_value`` None) is the op of a
    transaction that can never roll back (see
    :mod:`repro.wal.records`): it carries no before-image, only, when
    spanned, the old middle's length ``old_length`` — redo checks that
    the span leaves exactly that many bytes between prefix and suffix.
    It cannot be undone.

    Not frozen, unlike the other ops: every user rewrite builds one, and
    a frozen dataclass's ``__init__`` pays a call per field; nothing
    assigns to an op once built.
    """

    slot: int
    old_value: bytes | None
    new_value: bytes
    prefix: int = 0
    suffix: int = 0
    #: a redo-only op's old middle length (0 when unspanned); an op with
    #: an ``old_value`` leaves it 0
    old_length: int = field(default=0, repr=False)

    kind = 3

    def apply_redo(self, page: Page) -> None:
        old = self.old_value
        update_value(page, self.slot, self.new_value, self.prefix, self.suffix,
                     self.old_length if old is None else old)

    def apply_undo(self, page: Page) -> None:
        if self.old_value is None:
            raise LogError("a redo-only value rewrite cannot be undone")
        update_value(page, self.slot, self.old_value, self.prefix, self.suffix,
                     self.new_value)

    def encoded_size(self) -> int:
        old = self.old_value
        if old is None:
            size = REDO_VALUE_FIXED + len(self.new_value)
            return size + REDO_SPAN_SIZE if self.prefix or self.suffix else size
        size = UPDATE_VALUE_FIXED + len(old) + len(self.new_value)
        return size + SPAN_SIZE if self.prefix or self.suffix else size

    def encode_into(self, buf: bytearray, pos: int) -> int:
        old = self.old_value
        if old is None:
            if self.prefix or self.suffix:
                _BHHHH.pack_into(buf, pos, _SPANNED_REDO_VALUE, self.slot,
                                 self.prefix, self.suffix, self.old_length)
                pos += 9
            else:
                _BH.pack_into(buf, pos, _REDO_VALUE, self.slot)
                pos += 3
            return _put_bytes(buf, pos, self.new_value)
        if self.prefix or self.suffix:
            _BHHH.pack_into(buf, pos, _SPANNED_UPDATE_VALUE, self.slot,
                            self.prefix, self.suffix)
            pos += 7
        else:
            _BH.pack_into(buf, pos, self.kind, self.slot)
            pos += 3
        pos = _put_bytes(buf, pos, old)
        return _put_bytes(buf, pos, self.new_value)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpUpdateValue":
        kind = data[offset]
        if kind == _REDO_VALUE:
            _kind, slot = _BH.unpack_from(data, offset)
            new, _pos = _unpack_bytes(data, offset + 3)
            return cls(slot, None, new)
        if kind == _SPANNED_REDO_VALUE:
            _kind, slot, prefix, suffix, old_length = _BHHHH.unpack_from(
                data, offset)
            new, _pos = _unpack_bytes(data, offset + 9)
            check_span(prefix, suffix, max(old_length, len(new)))
            return cls(slot, None, new, prefix, suffix, old_length)
        if kind == _SPANNED_UPDATE_VALUE:
            _kind, slot, prefix, suffix = _BHHH.unpack_from(data, offset)
            old, pos = _unpack_bytes(data, offset + 7)
            new, _pos = _unpack_bytes(data, pos)
            check_span(prefix, suffix, max(len(old), len(new)))
            return cls(slot, old, new, prefix, suffix)
        _kind, slot = _BH.unpack_from(data, offset)
        old, pos = _unpack_bytes(data, offset + 3)
        new, _pos = _unpack_bytes(data, pos)
        return cls(slot, old, new)


def is_redo_only(op: PageOp | None) -> bool:
    """Is ``op`` a redo-only value rewrite (no before-image)?"""
    return type(op) is OpUpdateValue and op.old_value is None


@dataclass(frozen=True, slots=True)
class OpSetGhost(PageOp):
    """Toggle the ghost bit of the record at a slot.

    Logical deletion turns a record into a ghost; ghost removal (a
    system transaction) later reclaims the space with :class:`OpDelete`.
    """

    slot: int
    old_ghost: bool
    new_ghost: bool

    kind = 4

    def apply_redo(self, page: Page) -> None:
        mark_ghost(page, self.slot, self.new_ghost)

    def apply_undo(self, page: Page) -> None:
        mark_ghost(page, self.slot, self.old_ghost)

    def encoded_size(self) -> int:
        return 5

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHBB.pack_into(buf, pos, self.kind, self.slot,
                        int(self.old_ghost), int(self.new_ghost))
        return pos + 5

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpSetGhost":
        _kind, slot, old, new = _BHBB.unpack_from(data, offset)
        return cls(slot, bool(old), bool(new))


@dataclass(frozen=True, slots=True)
class OpWriteBytes(PageOp):
    """Raw byte-range write within a page (header fields, fences...).

    Used for structural metadata that is not record-shaped, e.g. a
    B-tree node's fence keys or foster pointer.
    """

    offset: int
    old_bytes: bytes
    new_bytes: bytes

    kind = 5

    def __post_init__(self) -> None:
        if len(self.old_bytes) != len(self.new_bytes):
            raise ValueError("byte-range op must preserve length")

    def _write(self, page: Page, payload: bytes) -> None:
        page.data[self.offset:self.offset + len(payload)] = payload
        page.invalidate_view()

    def apply_redo(self, page: Page) -> None:
        self._write(page, self.new_bytes)

    def apply_undo(self, page: Page) -> None:
        self._write(page, self.old_bytes)

    def encoded_size(self) -> int:
        return 7 + len(self.old_bytes) + len(self.new_bytes)

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BH.pack_into(buf, pos, self.kind, self.offset)
        pos = _put_bytes(buf, pos + 3, self.old_bytes)
        return _put_bytes(buf, pos, self.new_bytes)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpWriteBytes":
        _kind, byte_offset = _BH.unpack_from(data, offset)
        old, pos = _unpack_bytes(data, offset + 3)
        new, _pos = _unpack_bytes(data, pos)
        return cls(byte_offset, old, new)


@dataclass(frozen=True, slots=True)
class OpInitSlotted(PageOp):
    """Format a page as an empty slotted page of a given type.

    "When a data page is reformatted ... it has the same effect as a
    successful write operation: 'redo' for all prior log records is not
    required" (Section 5.1.2).  The formatting log record can also
    serve as the page's backup image (Section 5.2.1).
    """

    page_type: PageType

    kind = 6

    def apply_redo(self, page: Page) -> None:
        page.page_type = self.page_type
        slotted = SlottedPage(page)
        slotted.initialize()

    def apply_undo(self, page: Page) -> None:
        # Formatting runs in system transactions, which never undo
        # individual operations: they roll forward or vanish entirely.
        raise LogError("page formatting cannot be undone")

    def encoded_size(self) -> int:
        return 2

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BB.pack_into(buf, pos, self.kind, int(self.page_type))
        return pos + 2

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpInitSlotted":
        _kind, ptype = _BB.unpack_from(data, offset)
        return cls(PageType(ptype))


@dataclass(frozen=True, slots=True)
class OpBulkInsert(PageOp):
    """Insert a run of records at consecutive slots.

    A split's moved half and a leaf run of a sorted batch move dozens
    of records at once; carrying the run in a single operation keeps the
    log-record count proportional to structural events rather than to
    records moved, and applies with one slot-directory shift.
    """

    slot: int
    records: tuple[tuple[bytes, bytes, bool], ...]  #: (key, value, ghost)

    kind = 7

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).insert_run(self.slot, self.records)

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).remove_run(self.slot, len(self.records))

    def encoded_size(self) -> int:
        keys, values, _ghosts = tuple(zip(*self.records)) or ((), (), ())
        return 7 + 5 * len(keys) + sum(map(len, keys)) + sum(map(len, values))

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHI.pack_into(buf, pos, self.kind, self.slot, len(self.records))
        # The rows joined in C: no Python step per row.
        keys, values, ghosts = tuple(zip(*self.records)) or ((), (), ())
        rows = b"".join(chain.from_iterable(zip(
            map(_BH.pack, ghosts, map(len, keys)), keys,
            map(_U16.pack, map(len, values)), values)))
        buf[pos + 7:pos + 7 + len(rows)] = rows
        return pos + 7 + len(rows)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpBulkInsert":
        _kind, slot, count = _BHI.unpack_from(data, offset)
        pos = offset + 7
        records = []
        for _ in range(count):
            ghost = bool(data[pos])
            key, pos = _unpack_bytes(data, pos + 1)
            value, pos = _unpack_bytes(data, pos)
            records.append((key, value, ghost))
        return cls(slot, tuple(records))


@dataclass(frozen=True, slots=True)
class OpBulkDelete(PageOp):
    """Remove ``count`` consecutive slots from ``slot`` up, naming no row.

    A split's removal from its source page, the first op of that page's
    record: the rows it removes are the ones the split logs once, as
    the :class:`OpBulkInsert` that ends its foster child's record — the
    source record's ``prev_lsn`` in the same system transaction — so the
    removal logs a range and redo needs no more.  Only the rollback of
    a split that a crash left uncommitted needs the rows:
    :meth:`repro.txn.manager.TransactionManager.rollback_work` takes
    them from that insert and logs them in its compensation record, so
    the op itself cannot be undone in place.
    """

    slot: int
    count: int

    kind = 8

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).remove_run(self.slot, self.count)

    def apply_undo(self, page: Page) -> None:
        raise LogError("a row-free removal is undone from its split's "
                       "moved rows, not in place")

    def restoring(self, rows: tuple[tuple[bytes, bytes, bool], ...]
                  ) -> "OpBulkInsert":
        """The compensation of this removal: an insert of ``rows`` —
        the ``count`` rows it removed, as this page stores them — at
        its slot."""
        if len(rows) != self.count:
            raise RecoveryError(f"a removal of {self.count} rows restored "
                                f"from {len(rows)}")
        return OpBulkInsert(self.slot, rows)

    def encoded_size(self) -> int:
        return 5

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHH.pack_into(buf, pos, self.kind, self.slot, self.count)
        return pos + 5

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpBulkDelete":
        _kind, slot, count = _BHH.unpack_from(data, offset)
        if not count:
            raise LogError("a removal of no row")
        return cls(slot, count)


@dataclass(frozen=True, slots=True)
class OpExtendPrefix(PageOp):
    """Strip ``stripped`` from the stored key of each of ``count``
    consecutive slots from ``slot`` up.

    A B-tree node's prefix extension: an adoption that tightens a
    node's fences may lengthen the prefix its keys are stored under
    (:meth:`repro.btree.node.BTreeNode.ops_reencode_prefix`), and this
    op re-encodes every row where it lies, so the log carries the range
    and the stripped bytes, not the rows.  Undo prepends the bytes
    again.  A key that does not start with them is refused before a
    byte is written, as :class:`repro.errors.RecoveryError`
    (:meth:`repro.page.slotted.SlottedPage.reprefix_run`).

    The page comes out as removing and re-inserting the re-keyed rows
    leaves it, byte for byte, and an application — forward, in redo
    and in undo alike — counts one update towards the page's update
    counter beside the one setting the PageLSN counts
    (:meth:`repro.page.page.Page.count_updates`): two, as many as the
    removal and the re-insertion would, so Section 6's copy policy
    fires where it would.
    """

    slot: int
    count: int
    stripped: bytes

    kind = 12

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).reprefix_run(self.slot, self.count, self.stripped,
                                       b"")
        page.count_updates(1)

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).reprefix_run(self.slot, self.count, b"",
                                       self.stripped)
        page.count_updates(1)

    def encoded_size(self) -> int:
        return 7 + len(self.stripped)

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHH.pack_into(buf, pos, self.kind, self.slot, self.count)
        return _put_bytes(buf, pos + 5, self.stripped)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpExtendPrefix":
        _kind, slot, count = _BHH.unpack_from(data, offset)
        stripped, _pos = _unpack_bytes(data, offset + 5)
        if not count:
            raise LogError("a prefix extension of no row")
        if not stripped:
            raise LogError("a prefix extension that strips no byte")
        if len(stripped) > LENGTH_MASK:
            raise LogError(f"a prefix extension strips {len(stripped)} "
                           f"bytes, more than any key holds")
        return cls(slot, count, stripped)


@dataclass(frozen=True, slots=True)
class OpSequence(PageOp):
    """Two or more ops on one page, applied in order: what one
    structure change does to one page, as one record carries it.

    A split, an adoption and a root growth change each page they touch
    by several bookkeeping edits — a fence or foster record re-keyed as
    a removal and an insertion, the metadata rewritten, the moved rows
    inserted or removed, a prefix extended.  Logged per edit, they cost
    a record header each; here they are one UPDATE per page (Graefe,
    "A survey of B-tree logging and recovery techniques", TODS 2012),
    and the page comes out byte for byte as the per-edit records left
    it.  Redo applies the ops in order, undo their inverses in reverse,
    and either counts one update per op towards the page's update
    counter (:meth:`repro.page.page.Page.count_updates`) — setting the
    PageLSN counts the first — so Section 6's copy policy fires where
    the per-edit records made it fire.

    A member is any other op: decoding refuses a sequence inside a
    sequence, a redo-only rewrite and a count below two.
    """

    ops: tuple[PageOp, ...]

    kind = 13

    def apply_redo(self, page: Page) -> None:
        for op in self.ops:
            op.apply_redo(page)
        page.count_updates(len(self.ops) - 1)

    def apply_undo(self, page: Page) -> None:
        for op in reversed(self.ops):
            op.apply_undo(page)
        page.count_updates(len(self.ops) - 1)

    def encoded_size(self) -> int:
        size = 3
        for op in self.ops:
            size += op.encoded_size()
        return size

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BH.pack_into(buf, pos, self.kind, len(self.ops))
        pos += 3
        for op in self.ops:
            pos = op.encode_into(buf, pos)
        return pos

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpSequence":
        _kind, count = _BH.unpack_from(data, offset)
        if count < 2:
            raise LogError(f"a sequence of {count} ops")
        pos = offset + 3
        ops = []
        for _ in range(count):
            # Refused from its kind bytes, before it is decoded: a run
            # of 13s must not recurse once per byte.
            if data[pos] == cls.kind or (data[pos] == OpInverse.kind
                                         and data[pos + 1] == cls.kind):
                raise LogError("nested op sequence")
            op = PageOp.decode(data, pos)
            if is_redo_only(op):
                raise LogError("a redo-only rewrite in an op sequence")
            ops.append(op)
            pos += op.encoded_size()
        return cls(tuple(ops))


@dataclass(frozen=True, slots=True)
class OpInverse(PageOp):
    """The inverse of another operation, as a redo-only op.

    Compensation log records (CLRs) are redo-only: replaying a CLR must
    re-apply the *undo* of the original operation.  Wrapping the
    original op keeps CLRs in the same serialization scheme.
    """

    original: PageOp

    kind = 99

    def apply_redo(self, page: Page) -> None:
        self.original.apply_undo(page)

    def apply_undo(self, page: Page) -> None:
        raise LogError("compensation operations are never undone")

    def encoded_size(self) -> int:
        return 1 + self.original.encoded_size()

    def encode_into(self, buf: bytearray, pos: int) -> int:
        buf[pos] = self.kind
        return self.original.encode_into(buf, pos + 1)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpInverse":
        if data[offset + 1] == cls.kind:
            # Rollback never compensates a CLR, so no writer nests these;
            # a run of 99s must not recurse once per byte.
            raise LogError("nested compensation op")
        original = PageOp.decode(data, offset + 1)
        for op in (original.ops if type(original) is OpSequence
                   else (original,)):
            if type(op) is cls:
                raise LogError("nested compensation op")
            if is_redo_only(op):
                raise LogError("compensation of a redo-only op")
            if type(op) is OpBulkDelete:
                raise LogError("compensation of a row-free removal")
        return cls(original)


_OP_REGISTRY: dict[int, type[PageOp]] = {
    cls.kind: cls
    for cls in (OpInsert, OpDelete, OpUpdateValue, OpSetGhost,
                OpWriteBytes, OpInitSlotted, OpBulkInsert, OpBulkDelete,
                OpExtendPrefix, OpSequence, OpInverse)
}
for _kind in (_SPANNED_UPDATE_VALUE, _REDO_VALUE, _SPANNED_REDO_VALUE):
    _OP_REGISTRY[_kind] = OpUpdateValue

#: the op an encoding holds, as an object of this module
decode = PageOp.decode
