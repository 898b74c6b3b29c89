"""Page operations: what an update log record does to one page.

A page op is its bytes.  The classes below are *builders*: the B-tree,
the catalog and the allocator build an op from its fields, and the log
record carries the op's encoding (``encoded_size`` / ``encode_into``,
explicit byte formats — no pickling — so log volume is measured
honestly).  Nothing turns those bytes back into an object.  Every change
an op makes to a page — the write itself, a compensation, restart and
media redo, single-page repair, the standby's apply — runs one *kernel*
per op kind on the bytes that were logged, as ARIES redo repeats
history: :data:`REDO` and :data:`UNDO` map a kind byte to a kernel
``(page, data, pos) -> end`` — ``data`` the record's ``bytes``, the op
at ``pos`` — and :func:`redo` is their one entry.  A
kernel reads its fields in place with a precompiled ``Struct``, refuses
bytes no builder writes as :class:`repro.errors.LogError` before it
changes the page, and calls the slotted-page kernel (redo is physical,
Section 5.1.2).  A compensation (CLR) op is byte 99 followed by the
compensated op's bytes, and its redo is that kind's undo kernel.

Layouts (every byte string is a u16 length and its bytes: it lies
within one page, at most 32 KiB, :data:`repro.engine.config.
MAX_PAGE_SIZE`)::

    1   OpInsert        kind u8, slot u16, ghost u8, key, value
    2   OpDelete        the same: the removed row, for undo
    3   OpUpdateValue   kind u8, slot u16, old value, new value
    9     spanned       kind u8, slot u16, prefix u16, suffix u16,
                        old middle, new middle
    10    redo-only     kind u8, slot u16, new value
    11    spanned       kind u8, slot u16, prefix u16, suffix u16,
          redo-only     old middle length u16, new middle
    4   OpSetGhost      kind u8, slot u16, old ghost u8, new ghost u8
    5   OpWriteBytes    kind u8, offset u16, old bytes, new bytes
    6   OpInitSlotted   kind u8, page type u8
    7   OpBulkInsert    kind u8, slot u16, count u32, then per row:
                        ghost u8, key, value
    8   OpBulkDelete    kind u8, slot u16, count u16 — no row
    12  OpExtendPrefix  kind u8, slot u16, count u16, stripped bytes
    13  OpSequence      kind u8, count u16 (at least 2), then each
                        member's encoding, in the order redo applies them
    99  compensation    99, then the compensated op's encoding
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

from repro.errors import LogError, RecoveryError
from repro.page.page import Page, PageType
from repro.page.slotted import (LENGTH_MASK, SlottedPage, mark_ghost,
                                update_value)

_U16 = struct.Struct("<H")
_BHB = struct.Struct("<BHB")
_BHBH = struct.Struct("<BHBH")
_BH = struct.Struct("<BH")
_BHH = struct.Struct("<BHH")
_BHHH = struct.Struct("<BHHH")
_BHHHH = struct.Struct("<BHHHH")
_BHHHHH = struct.Struct("<BHHHHH")
_BHBB = struct.Struct("<BHBB")
_BB = struct.Struct("<BB")
_BHI = struct.Struct("<BHI")


#: What a kernel can raise on bytes that are not an encoding: every
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
#: the kind byte of a compensation: the compensated op's bytes follow
COMPENSATION = 99
_from_bytes = int.from_bytes


def check_span(prefix: int, suffix: int, middle: int) -> None:
    """A span read from bytes is one an encoder writes: not empty, and
    no value it splices — ``middle`` is the longer middle's length — is
    longer than a record can be."""
    if not prefix + suffix:
        raise LogError("empty span")
    if prefix + suffix + middle > LENGTH_MASK:
        raise LogError(f"span of {prefix} + {suffix} bytes around a "
                       f"{middle}-byte middle is longer than any record")


def _unpack_bytes(data: bytes, offset: int) -> tuple[bytes, int]:
    """The u16-length-prefixed byte string at ``offset`` and its end."""
    start = offset + 2
    end = start + _U16.unpack_from(data, offset)[0]
    if end > len(data):
        # A slice would silently come back short.
        raise LogError(f"byte string of {end - start} bytes at offset "
                       f"{offset} runs past the end of the record")
    return data[start:end], end


def _put_bytes(buf: bytearray, pos: int, payload: bytes) -> int:
    """Write a u16-length-prefixed byte string into ``buf`` at ``pos``."""
    _U16.pack_into(buf, pos, len(payload))
    pos += 2
    end = pos + len(payload)
    buf[pos:end] = payload
    return end


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
class PageOp:
    """Base class of the op builders.

    Serialization is allocation-light: every op knows its exact
    ``encoded_size()`` up front (so the log manager never materializes
    bytes just to measure a record) and writes itself into a caller-
    provided buffer via ``encode_into`` (so a whole log record encodes
    into one preallocated buffer).  An op of fixed fields and byte
    strings names them: ``_head`` packs the kind byte and the fields
    ``_fixed`` names, and each field ``_strings`` names follows.
    """

    kind = -1
    _fixed: tuple[str, ...] = ()
    _strings: tuple[str, ...] = ()

    def encoded_size(self) -> int:
        size = self._head.size
        for name in self._strings:
            size += 2 + len(getattr(self, name))
        return size

    def encode_into(self, buf: bytearray, pos: int) -> int:
        """Serialize into ``buf`` at ``pos``; returns the end offset."""
        head = self._head
        head.pack_into(buf, pos, self.kind,
                       *map(self.__getattribute__, self._fixed))
        pos += head.size
        for name in self._strings:
            pos = _put_bytes(buf, pos, getattr(self, name))
        return pos

    def encode(self) -> bytes:
        buf = bytearray(self.encoded_size())
        self.encode_into(buf, 0)
        return bytes(buf)


@dataclass(frozen=True, slots=True)
class OpInsert(PageOp):
    """Insert a record at a slot position; undo removes it."""

    slot: int
    key: bytes
    value: bytes
    ghost: bool = False

    kind = 1
    _head, _fixed, _strings = _BHB, ("slot", "ghost"), ("key", "value")


@dataclass(frozen=True, slots=True)
class OpDelete(OpInsert):
    """Physically remove the record at a slot; it is logged whole, so
    undo inserts it again."""

    kind = 2


@dataclass(slots=True)
class OpUpdateValue(PageOp):
    """Replace the value of the record at a slot; build it with
    :func:`value_rewrite`.

    With a *span* (``prefix`` or ``suffix`` nonzero) the old and new
    value share their first ``prefix`` and last ``suffix`` bytes, and
    ``old_value`` / ``new_value`` hold only the middles between them, as
    PostgreSQL's heap UPDATE records do with ``PREFIX_FROM_OLD`` /
    ``SUFFIX_FROM_OLD``: redo and undo splice one middle in place of the
    other (:func:`repro.page.slotted.update_value`, which refuses a value
    whose span does not hold the middle it replaces before a byte is
    written).  A *redo-only* rewrite (``old_value`` None, see
    :mod:`repro.wal.records`) keeps no before-image, only, when spanned,
    the old middle's length ``old_length``, and cannot be undone.

    Not frozen, unlike the other ops: a frozen dataclass's ``__init__``
    pays a call per field, and every user rewrite builds one.
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


def value_rewrite(slot: int, old: bytes, new: bytes,
                  redo_only: bool = False) -> OpUpdateValue:
    """The one builder of value rewrites: ``old`` becomes ``new`` at
    ``slot``, spanned when the span makes the encoding smaller.  With
    ``redo_only`` the op keeps no before-image (see
    :class:`OpUpdateValue`); the span is chosen by the same rule, so a
    redo-only rewrite redoes exactly what the full one would.

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
            if redo_only:
                return OpUpdateValue(slot, None, new[prefix:new_end - suffix],
                                     prefix, suffix,
                                     old_end - suffix - prefix)
            return OpUpdateValue(slot, old[prefix:old_end - suffix],
                                 new[prefix:new_end - suffix], prefix, suffix)
    return OpUpdateValue(slot, None, new) if redo_only else OpUpdateValue(
        slot, old, new)


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
    _head, _fixed = _BHBB, ("slot", "old_ghost", "new_ghost")


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
    _head, _fixed, _strings = _BH, ("offset",), ("old_bytes", "new_bytes")

    def __post_init__(self) -> None:
        if len(self.old_bytes) != len(self.new_bytes):
            raise ValueError("byte-range op must preserve length")


@dataclass(frozen=True, slots=True)
class OpInitSlotted(PageOp):
    """Format a page as an empty slotted page of a given type.

    "When a data page is reformatted ... it has the same effect as a
    successful write operation: 'redo' for all prior log records is not
    required" (Section 5.1.2).  The formatting log record can also
    serve as the page's backup image (Section 5.2.1).  Formatting runs
    in system transactions, which never undo individual operations, so
    it cannot be undone.
    """

    page_type: PageType

    kind = 6
    _head, _fixed = _BB, ("page_type",)


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


@dataclass(frozen=True, slots=True)
class OpBulkDelete(PageOp):
    """Remove ``count`` consecutive slots from ``slot`` up, naming no row.

    A split's removal from its source page, the first op of that page's
    record: the split logs the rows it moves once, in the
    :class:`OpBulkInsert` that ends its foster child's record (the
    source record's ``prev_lsn``).  The op cannot be undone in place;
    rollback takes the rows from that insert (:func:`split_compensation`).
    """

    slot: int
    count: int

    kind = 8
    _head, _fixed = _BHH, ("slot", "count")


@dataclass(frozen=True, slots=True)
class OpExtendPrefix(PageOp):
    """Strip ``stripped`` from the stored key of each of ``count``
    consecutive slots from ``slot`` up.

    A B-tree node's prefix extension
    (:meth:`repro.btree.node.BTreeNode.ops_reencode_prefix`): the log
    carries the range and the stripped bytes, not the rows, and undo
    prepends the bytes again.  A key that does not start with them is
    refused before a byte is written
    (:meth:`repro.page.slotted.SlottedPage.reprefix_run`).  The page
    comes out as removing and re-inserting the re-keyed rows leaves it,
    byte for byte, and each application counts one update beside the one
    the PageLSN counts (:meth:`repro.page.page.Page.count_updates`), as
    the removal and re-insertion would.
    """

    slot: int
    count: int
    stripped: bytes

    kind = 12
    _head, _fixed, _strings = _BHH, ("slot", "count"), ("stripped",)


@dataclass(frozen=True, slots=True)
class OpSequence(PageOp):
    """Two or more ops on one page, applied in order: what one
    structure change does to one page, as one record carries it.

    A split, an adoption and a root growth change each page they touch
    by several bookkeeping edits; logged per edit they cost a record
    header each, here one UPDATE per page (Graefe, "A survey of B-tree
    logging and recovery techniques", TODS 2012).  Redo applies the ops
    in order, undo their inverses in reverse, and either counts one
    update per op (:meth:`repro.page.page.Page.count_updates`; the
    PageLSN counts the first), as the per-edit records would.  A member
    is any other op but a redo-only rewrite.
    """

    ops: tuple[PageOp, ...]

    kind = 13

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


# ----------------------------------------------------------------------
# Readers the kernels and rollback share
# ----------------------------------------------------------------------
def bulk_rows(data: bytes, pos: int) -> tuple[int, list, int]:
    """``(slot, rows, end)`` of the :class:`OpBulkInsert` encoded at
    ``pos``: its rows as ``(key, value, ghost)`` tuples."""
    _kind, slot, count = _BHI.unpack_from(data, pos)
    pos += 7
    rows = []
    append, head, length = rows.append, _BH.unpack_from, _U16.unpack_from
    for _ in range(count):
        ghost, key_length = head(data, pos)
        key_end = pos + 3 + key_length
        end = key_end + 2 + length(data, key_end)[0]
        append((data[pos + 3:key_end], data[key_end + 2:end], ghost != 0))
        pos = end
    if pos > len(data):
        raise LogError(f"a run of {count} rows runs past the end of the "
                       f"record")
    return slot, rows, pos


#: every kind's fixed bytes and the byte strings that follow them, for
#: :func:`_op_end` (runs, sequences and compensations are walked)
_SHAPES = {cls.kind: (cls._head.size, len(cls._strings))
           for cls in (OpInsert, OpDelete, OpSetGhost, OpWriteBytes,
                       OpInitSlotted, OpBulkDelete, OpExtendPrefix)}
_SHAPES.update({OpUpdateValue.kind: (3, 2), _SPANNED_UPDATE_VALUE: (7, 2),
                _REDO_VALUE: (3, 1), _SPANNED_REDO_VALUE: (9, 1)})


def _op_end(data: bytes, pos: int) -> int:
    """The end of the op encoded at ``pos``, its fields left unread."""
    kind = data[pos]
    if kind == COMPENSATION:
        if data[pos + 1] == COMPENSATION:
            # Rollback never compensates a CLR, so no writer nests
            # these; a run of 99s must not recurse once per byte.
            raise LogError("nested compensation op")
        return _op_end(data, pos + 1)
    if kind == OpBulkInsert.kind:
        return bulk_rows(data, pos)[2]
    if kind == OpSequence.kind:
        return _members(data, pos)[1]
    shape = _SHAPES.get(kind)
    if shape is None:
        raise LogError(f"unknown page-op kind {kind}")
    end = pos + shape[0]
    for _ in range(shape[1]):
        end += 2 + _U16.unpack_from(data, end)[0]
    if end > len(data):
        raise LogError(f"page op of kind {kind} runs past the end of the "
                       f"record")
    return end


def _check_member(data: bytes, pos: int) -> None:
    """Refuse a sequence member that is a sequence (compensated or not)
    or a redo-only rewrite, from its kind bytes, before it is read: a
    run of 13s must not recurse once per byte."""
    kind = data[pos]
    if kind == OpSequence.kind or (kind == COMPENSATION
                                   and data[pos + 1] == OpSequence.kind):
        raise LogError("nested op sequence")
    if kind == _REDO_VALUE or kind == _SPANNED_REDO_VALUE:
        raise LogError("a redo-only rewrite in an op sequence")


def _members(data: bytes, pos: int) -> tuple[list[int], int]:
    """``(starts, end)`` of the :class:`OpSequence` encoded at ``pos``:
    where each member begins, and where the sequence ends."""
    _kind, count = _BH.unpack_from(data, pos)
    if count < 2:
        raise LogError(f"a sequence of {count} ops")
    starts = []
    pos += 3
    for _ in range(count):
        _check_member(data, pos)
        starts.append(pos)
        pos = _op_end(data, pos)
    return starts, pos


def sequence_members(op: bytes) -> list[bytes]:
    """The encodings of the members of the sequence ``op`` encodes."""
    starts, end = _members(op, 0)
    return [op[start:stop] for start, stop in zip(starts, starts[1:] + [end])]


def rewrite_before_image(op: bytes) -> tuple[bytes, int, int] | None:
    """``(old, prefix, suffix)`` of the value rewrite ``op`` encodes —
    its before-image, or the old middle under its span — or None when
    ``op`` is no rewrite that keeps one."""
    kind = op[0]
    if kind == OpUpdateValue.kind:
        return _unpack_bytes(op, 3)[0], 0, 0
    if kind == _SPANNED_UPDATE_VALUE:
        _kind, _slot, prefix, suffix = _BHHH.unpack_from(op)
        old, at = _unpack_bytes(op, 7)
        check_span(prefix, suffix, max(len(old), len(_unpack_bytes(op, at)[0])))
        return old, prefix, suffix
    return None


def compensation(op: bytes) -> bytes:
    """The op of the CLR that compensates ``op``: redone, it runs
    ``op``'s undo kernel."""
    return bytes((COMPENSATION,)) + op


def split_compensation(source: bytes, rows: list | tuple) -> bytes:
    """The compensation of a split's op on its source page — a row-free
    removal, then the foster link — given ``rows``, the rows the removal
    took as this page stores them: one sequence of the link's
    compensations, newest first, then an insert of the rows at the
    removal's slot."""
    removal, *link = sequence_members(source)
    _kind, slot, count = _BHH.unpack_from(removal)
    if len(rows) != count:
        raise RecoveryError(f"a removal of {count} rows restored from "
                            f"{len(rows)}")
    members = [compensation(op) for op in reversed(link)]
    members.append(OpBulkInsert(slot, tuple(rows)).encode())
    return _BH.pack(OpSequence.kind, len(members)) + b"".join(members)


# ----------------------------------------------------------------------
# The kernels: (page, data, pos) -> end, one per kind and direction
# ----------------------------------------------------------------------
def _row(page: Page, data: bytes, pos: int, remove: bool = False) -> int:
    """An insert (a delete, with ``remove``) of the row encoded at
    ``pos``: kind 1's redo and kind 2's undo, or the other way round."""
    _kind, slot, ghost, key_length = _BHBH.unpack_from(data, pos)
    key_end = pos + 6 + key_length
    end = key_end + 2 + _U16.unpack_from(data, key_end)[0]
    if end > len(data):
        raise LogError(f"a row of {end - pos - 8} bytes runs past the end "
                       f"of the record")
    if remove:
        SlottedPage(page).remove_run(slot, 1)
    else:
        SlottedPage(page).insert_run(slot, ((
            data[pos + 6:key_end], data[key_end + 2:end], ghost != 0),))
    return end


def _rewrite(page: Page, data: bytes, pos: int, undo: bool = False) -> int:
    """A value rewrite that keeps its before-image, kind 3 or (spanned)
    9: its new value spliced in, or its old one with ``undo``."""
    if data[pos] == _SPANNED_UPDATE_VALUE:
        _kind, slot, prefix, suffix, old_length = _BHHHH.unpack_from(data, pos)
        at = pos + 7
    else:
        _kind, slot, old_length = _BHH.unpack_from(data, pos)
        prefix = suffix = 0
        at = pos + 3
    old_end = at + 2 + old_length
    end = old_end + 2 + _U16.unpack_from(data, old_end)[0]
    if end > len(data):
        raise LogError(f"a value rewrite of {end - pos} bytes runs past the "
                       f"end of the record")
    old, new = data[at + 2:old_end], data[old_end + 2:end]
    middle = max(len(old), len(new))
    if at > pos + 3 and not 0 < prefix + suffix <= LENGTH_MASK - middle:
        check_span(prefix, suffix, middle)  # refuses, saying why
    if undo:
        update_value(page, slot, old, prefix, suffix, new)
    else:
        update_value(page, slot, new, prefix, suffix, old)
    return end


def _redo_only_rewrite(page: Page, data: bytes, pos: int) -> int:
    """A value rewrite with no before-image, kind 10 or (spanned) 11:
    the span must leave exactly the old middle's length to replace."""
    if data[pos] == _REDO_VALUE:
        _kind, slot, length = _BHH.unpack_from(data, pos)
        at, prefix, suffix, old_length = pos + 5, 0, 0, 0
    else:
        _kind, slot, prefix, suffix, old_length, length = (
            _BHHHHH.unpack_from(data, pos))
        at = pos + 11
        middle = max(old_length, length)
        if not 0 < prefix + suffix <= LENGTH_MASK - middle:
            check_span(prefix, suffix, middle)  # refuses, saying why
    end = at + length
    if end > len(data):
        raise LogError(f"a value rewrite of {end - pos} bytes runs past the "
                       f"end of the record")
    update_value(page, slot, data[at:end], prefix, suffix, old_length)
    return end


def _ghost(page: Page, data: bytes, pos: int, undo: bool = False) -> int:
    _kind, slot, old, new = _BHBB.unpack_from(data, pos)
    mark_ghost(page, slot, (old if undo else new) != 0)
    return pos + 5


def _write_bytes(page: Page, data: bytes, pos: int, undo: bool = False) -> int:
    _kind, offset = _BH.unpack_from(data, pos)
    old, at = _unpack_bytes(data, pos + 3)
    new, end = _unpack_bytes(data, at)
    if len(old) != len(new):
        raise LogError("byte-range op must preserve length")
    payload = old if undo else new
    page.data[offset:offset + len(payload)] = payload
    page.invalidate_view()
    return end


def _init_slotted(page: Page, data: bytes, pos: int) -> int:
    page.page_type = PageType(data[pos + 1])
    SlottedPage(page).initialize()
    return pos + 2


def _bulk(page: Page, data: bytes, pos: int, remove: bool = False) -> int:
    """A run's insert, or with ``remove`` its undo: a removal of its
    rows."""
    slot, rows, end = bulk_rows(data, pos)
    if remove:
        SlottedPage(page).remove_run(slot, len(rows))
    else:
        SlottedPage(page).insert_run(slot, rows)
    return end


def _bulk_delete(page: Page, data: bytes, pos: int) -> int:
    _kind, slot, count = _BHH.unpack_from(data, pos)
    if not count:
        raise LogError("a removal of no row")
    SlottedPage(page).remove_run(slot, count)
    return pos + 5


def _extend_prefix(page: Page, data: bytes, pos: int, undo: bool = False) -> int:
    _kind, slot, count, length = _BHHH.unpack_from(data, pos)
    end = pos + 7 + length
    if end > len(data):
        raise LogError(f"{length} stripped bytes run past the end of the "
                       f"record")
    if not count or not 0 < length <= LENGTH_MASK:  # no key holds more
        raise LogError(f"a prefix extension of {count} rows stripping "
                       f"{length} bytes")
    stripped = data[pos + 7:end]
    if undo:
        SlottedPage(page).reprefix_run(slot, count, b"", stripped)
    else:
        SlottedPage(page).reprefix_run(slot, count, stripped, b"")
    page.count_updates(1)
    return end


def _redo_sequence(page: Page, data: bytes, pos: int) -> int:
    _kind, count = _BH.unpack_from(data, pos)
    if count < 2:
        raise LogError(f"a sequence of {count} ops")
    pos += 3
    for _ in range(count):
        kind = data[pos]
        if kind in _NOT_MEMBERS:
            _check_member(data, pos)
        pos = (REDO.get(kind) or _unknown(kind))(page, data, pos)
    page.count_updates(count - 1)
    return pos


def _undo_sequence(page: Page, data: bytes, pos: int) -> int:
    starts, end = _members(data, pos)
    for start in starts:
        # A member that cannot be undone is refused before any is.
        if data[start] not in UNDO:
            _irreversible(data[start])
    for start in reversed(starts):
        UNDO[data[start]](page, data, start)
    page.count_updates(len(starts) - 1)
    return end


def _redo_compensation(page: Page, data: bytes, pos: int) -> int:
    kind = data[pos + 1]
    return (UNDO.get(kind) or _irreversible(kind))(page, data, pos + 1)


def _unknown(kind: int):  # noqa: ANN202
    raise LogError(f"unknown page-op kind {kind}")


def _irreversible(kind: int):  # noqa: ANN202
    """Refuse to undo an op of ``kind``: a redo-only rewrite, a format, a
    row-free removal (rollback restores its rows from the split's moved
    copy) and a compensation have no undo."""
    if kind not in REDO:
        _unknown(kind)
    raise LogError(f"a page op of kind {kind} cannot be undone")


#: redo kernel per kind byte
REDO = {
    OpInsert.kind: _row,
    OpDelete.kind: partial(_row, remove=True),
    OpUpdateValue.kind: _rewrite,
    _SPANNED_UPDATE_VALUE: _rewrite,
    _REDO_VALUE: _redo_only_rewrite,
    _SPANNED_REDO_VALUE: _redo_only_rewrite,
    OpSetGhost.kind: _ghost,
    OpWriteBytes.kind: _write_bytes,
    OpInitSlotted.kind: _init_slotted,
    OpBulkInsert.kind: _bulk,
    OpBulkDelete.kind: _bulk_delete,
    OpExtendPrefix.kind: _extend_prefix,
    OpSequence.kind: _redo_sequence,
    COMPENSATION: _redo_compensation,
}

#: undo kernel per kind byte — what a compensation of that kind redoes;
#: the kinds missing have none (:func:`_irreversible`)
UNDO = {
    OpInsert.kind: partial(_row, remove=True),
    OpDelete.kind: _row,
    OpUpdateValue.kind: partial(_rewrite, undo=True),
    _SPANNED_UPDATE_VALUE: partial(_rewrite, undo=True),
    OpSetGhost.kind: partial(_ghost, undo=True),
    OpWriteBytes.kind: partial(_write_bytes, undo=True),
    OpBulkInsert.kind: partial(_bulk, remove=True),
    OpExtendPrefix.kind: partial(_extend_prefix, undo=True),
    OpSequence.kind: _undo_sequence,
}
#: the kind bytes :func:`_check_member` looks at twice
_NOT_MEMBERS = frozenset({OpSequence.kind, COMPENSATION, _REDO_VALUE,
                          _SPANNED_REDO_VALUE})


def redo(page: Page, data: bytes, start: int, end: int) -> None:
    """Apply the op encoded in ``data[start:end]`` to ``page``: the one
    entry to :data:`REDO`.  Bytes that are no op encoding — an unknown
    kind, a field past the record, a check a kernel makes, an op that
    does not end at ``end`` — are :class:`LogError`.  A kernel checks
    its own fields before it writes, but a sequence may have applied its
    first members when a later one is refused: a caller drops a page
    whose redo raised."""
    try:
        kind = data[start]
        stop = (REDO.get(kind) or _unknown(kind))(page, data, start)
    except MALFORMED as exc:
        raise LogError(f"malformed page op: {exc}") from None
    if stop != end:
        raise LogError(f"page op ends at byte {stop}, its field at {end}")
