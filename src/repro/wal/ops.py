"""Page operations: the redo/undo units carried by update log records.

Each operation knows how to apply itself to a page ("redo" is physical,
Section 5.1.2) and how to physically reverse itself ("undo" for pages
that have not structurally changed; logical undo through the index is
handled one level up, in the transaction manager).

Operations serialize to explicit byte formats — no pickling — so log
volume is measured honestly and the log could in principle be read by
another implementation.  Every byte string an op carries (a key, a
value, a middle, a bulk record's key and value) lies within one page,
and a page is at most 32 KiB (:data:`repro.engine.config.MAX_PAGE_SIZE`),
so its length prefix is a u16.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import LogError
from repro.page.page import Page, PageType
from repro.page.slotted import LENGTH_MASK, Record, SlottedPage


_U16 = struct.Struct("<H")
_BHB = struct.Struct("<BHB")
_BH = struct.Struct("<BH")
_BHHH = struct.Struct("<BHHH")
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
_from_bytes = int.from_bytes


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
        SlottedPage(page).insert(self.slot, Record(self.key, self.value, self.ghost))

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
        SlottedPage(page).insert(self.slot, Record(self.key, self.value, self.ghost))

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
    record's current value (:meth:`SlottedPage.update_value`), which
    refuses — before a byte is written, as a redo chain mismatch is
    refused — a value whose span does not hold the middle it replaces.
    Build rewrites with :func:`value_rewrite`.

    Not frozen, unlike the other ops: every user rewrite builds one, and
    a frozen dataclass's ``__init__`` pays a call per field; nothing
    assigns to an op once built.
    """

    slot: int
    old_value: bytes
    new_value: bytes
    prefix: int = 0
    suffix: int = 0

    kind = 3

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).update_value(self.slot, self.new_value, self.prefix,
                                       self.suffix, self.old_value)

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).update_value(self.slot, self.old_value, self.prefix,
                                       self.suffix, self.new_value)

    def encoded_size(self) -> int:
        size = UPDATE_VALUE_FIXED + len(self.old_value) + len(self.new_value)
        return size + SPAN_SIZE if self.prefix or self.suffix else size

    def encode_into(self, buf: bytearray, pos: int) -> int:
        if self.prefix or self.suffix:
            _BHHH.pack_into(buf, pos, _SPANNED_UPDATE_VALUE, self.slot,
                            self.prefix, self.suffix)
            pos += 7
        else:
            _BH.pack_into(buf, pos, self.kind, self.slot)
            pos += 3
        pos = _put_bytes(buf, pos, self.old_value)
        return _put_bytes(buf, pos, self.new_value)

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpUpdateValue":
        if data[offset] == _SPANNED_UPDATE_VALUE:
            _kind, slot, prefix, suffix = _BHHH.unpack_from(data, offset)
            old, pos = _unpack_bytes(data, offset + 7)
            new, _pos = _unpack_bytes(data, pos)
            check_span(prefix, suffix, max(len(old), len(new)))
            return cls(slot, old, new, prefix, suffix)
        _kind, slot = _BH.unpack_from(data, offset)
        old, pos = _unpack_bytes(data, offset + 3)
        new, _pos = _unpack_bytes(data, pos)
        return cls(slot, old, new)


def value_rewrite(slot: int, old: bytes, new: bytes) -> OpUpdateValue:
    """The one builder of value rewrites: ``old`` becomes ``new`` at
    ``slot``, spanned when the span makes the encoding smaller.

    Values that share neither their first nor their last byte cannot
    share a prefix or a suffix, so that test comes first: a random
    value keeps the unspanned encoding at the cost of two comparisons.
    Otherwise the XOR of the values read as big-endian integers gives
    both without a per-byte loop: its leading zero bytes are the shared
    prefix and, when the lengths are equal, its trailing zero bytes the
    shared suffix; values of different lengths take a second XOR of
    what remains, aligned at the end.
    """
    if old and new and (old[0] == new[0] or old[-1] == new[-1]):
        old_end, new_end = len(old), len(new)
        n = old_end if old_end < new_end else new_end
        diff = _from_bytes(old[:n], "big") ^ _from_bytes(new[:n], "big")
        prefix = n - ((diff.bit_length() + 7) >> 3)
        if not diff:
            suffix = 0
        elif old_end == new_end:
            suffix = ((diff & -diff).bit_length() - 1) >> 3
        else:
            rest = n - prefix
            diff = (_from_bytes(old[old_end - rest:], "little")
                    ^ _from_bytes(new[new_end - rest:], "little"))
            suffix = rest - ((diff.bit_length() + 7) >> 3)
        if prefix + suffix > SPAN_SIZE:
            return OpUpdateValue(slot, old[prefix:old_end - suffix],
                                 new[prefix:new_end - suffix], prefix, suffix)
    return OpUpdateValue(slot, old, new)


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
        SlottedPage(page).mark_ghost(self.slot, self.new_ghost)

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).mark_ghost(self.slot, self.old_ghost)

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

    Structural maintenance (splits, prefix re-encoding) moves dozens of
    records in one system transaction; carrying the run in a single
    operation keeps the log-record count proportional to structural
    events rather than to records moved, and applies with one slot-
    directory shift.
    """

    slot: int
    records: tuple[tuple[bytes, bytes, bool], ...]  #: (key, value, ghost)

    kind = 7

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).insert_run(
            self.slot, [Record(k, v, g) for k, v, g in self.records])

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).remove_run(self.slot, len(self.records))

    def encoded_size(self) -> int:
        return 7 + sum(5 + len(k) + len(v) for k, v, _g in self.records)

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHI.pack_into(buf, pos, self.kind, self.slot, len(self.records))
        pos += 7
        for key, value, ghost in self.records:
            buf[pos] = int(ghost)
            pos = _put_bytes(buf, pos + 1, key)
            pos = _put_bytes(buf, pos, value)
        return pos

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
    """Remove a run of consecutive slots (stores the records for undo)."""

    slot: int
    records: tuple[tuple[bytes, bytes, bool], ...]  #: (key, value, ghost)

    kind = 8

    def apply_redo(self, page: Page) -> None:
        SlottedPage(page).remove_run(self.slot, len(self.records))

    def apply_undo(self, page: Page) -> None:
        SlottedPage(page).insert_run(
            self.slot, [Record(k, v, g) for k, v, g in self.records])

    def encoded_size(self) -> int:
        return 7 + sum(5 + len(k) + len(v) for k, v, _g in self.records)

    def encode_into(self, buf: bytearray, pos: int) -> int:
        _BHI.pack_into(buf, pos, self.kind, self.slot, len(self.records))
        pos += 7
        for key, value, ghost in self.records:
            buf[pos] = int(ghost)
            pos = _put_bytes(buf, pos + 1, key)
            pos = _put_bytes(buf, pos, value)
        return pos

    @classmethod
    def _decode_body(cls, data, offset: int) -> "OpBulkDelete":
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
        return cls(PageOp.decode(data, offset + 1))


_OP_REGISTRY: dict[int, type[PageOp]] = {
    cls.kind: cls
    for cls in (OpInsert, OpDelete, OpUpdateValue, OpSetGhost,
                OpWriteBytes, OpInitSlotted, OpBulkInsert, OpBulkDelete,
                OpInverse)
}
_OP_REGISTRY[_SPANNED_UPDATE_VALUE] = OpUpdateValue
