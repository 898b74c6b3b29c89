"""Page operations: what an update log record does to one page.

A page op is its bytes.  The B-tree, the catalog and the allocator build
an op with the one builder of its kind, a function that returns the
op's encoding (explicit byte formats — no pickling — so log volume is
measured honestly), and the log record carries those bytes.  Nothing
turns them into an object.  Every change an op makes to a page — the
write itself, a compensation, restart and media redo, single-page
repair, the standby's apply — runs one *kernel* per op kind on the bytes
that were logged, as ARIES redo repeats history: :data:`REDO` and
:data:`UNDO` map a kind byte to a kernel ``(page, data, pos) -> end`` —
``data`` the record's ``bytes``, the op at ``pos`` — and :func:`redo` is
their one entry.  A kernel refuses bytes no builder writes as
:class:`repro.errors.LogError` before it changes the page, and calls the
slotted-page kernel (redo is physical, Section 5.1.2).

The layouts.  Each kind's *head* — its kind byte, its fixed fields and,
where byte strings follow, the first one's u16 length — is one
precompiled ``Struct``: the kind's builder packs it, its kernel unpacks
it and :func:`_op_end` sizes the op by it.  Every later byte string is a
u16 length and its bytes; each lies within one page, at most 32 KiB
(:data:`repro.engine.config.MAX_PAGE_SIZE`)::

    kind builder        head (u16 unless marked)          then
    1    insert         kind u8, slot, ghost u8, key len  key, value
    2    delete         as 1: the removed row, for undo
    3    value_rewrite  kind u8, slot, old len            old, new value
    9      spanned      kind u8, slot, prefix, suffix,    old middle,
                        old len                           new middle
    10     redo-only    kind u8, slot, new len            new value
    11     spanned,     kind u8, slot, prefix, suffix,    new middle
           redo-only    old middle len, new len
    4    set_ghost      kind u8, slot, old u8, new u8
    6    init_slotted   kind u8, page type u8
    7    bulk_insert    kind u8, slot, count u32          per row: ghost u8,
                                                          key len, key, value
    8    bulk_delete    kind u8, slot, count              — no row
    12   extend_prefix  kind u8, slot, count, stripped    stripped bytes
                        len
    13   sequence       kind u8, count (at least 2)       each member's op,
                                                          in redo's order
    99   compensation   kind u8                           the compensated op

A value rewrite (:func:`value_rewrite`) is spanned — kinds 9 and 11 —
when its old and new value share their first ``prefix`` and last
``suffix`` bytes and the op logs only the middles between them, as
PostgreSQL's heap UPDATE records do with ``PREFIX_FROM_OLD`` /
``SUFFIX_FROM_OLD``: redo and undo splice one middle in place of the
other (:func:`repro.page.slotted.update_value`).  A *redo-only* rewrite
(kinds 10 and 11, see :mod:`repro.wal.records`) keeps no before-image,
only, when spanned, the old middle's length, and cannot be undone.

A compensation (CLR) op is byte 99 followed by the compensated op's
bytes, and its redo is that kind's undo kernel.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import chain

from repro.errors import LogError, RecoveryError
from repro.page.page import Page, PageType
from repro.page.slotted import (LENGTH_MASK, SlottedPage, mark_ghost,
                                update_value)

#: the kind bytes (see the module docstring)
INSERT = 1
DELETE = 2
UPDATE_VALUE = 3
SET_GHOST = 4
INIT_SLOTTED = 6
BULK_INSERT = 7
BULK_DELETE = 8
SPANNED_UPDATE_VALUE = 9
REDO_VALUE = 10
SPANNED_REDO_VALUE = 11
EXTEND_PREFIX = 12
SEQUENCE = 13
COMPENSATION = 99

#: each kind's head (see the module docstring)
_ROW_HEAD = struct.Struct("<BHBH")                   # INSERT, DELETE
_UPDATE_VALUE_HEAD = struct.Struct("<BHH")
_SPANNED_UPDATE_VALUE_HEAD = struct.Struct("<BHHHH")
_REDO_VALUE_HEAD = struct.Struct("<BHH")
_SPANNED_REDO_VALUE_HEAD = struct.Struct("<BHHHHH")
_SET_GHOST_HEAD = struct.Struct("<BHBB")
_INIT_SLOTTED_HEAD = struct.Struct("<BB")
_BULK_INSERT_HEAD = struct.Struct("<BHI")
_BULK_DELETE_HEAD = struct.Struct("<BHH")
_EXTEND_PREFIX_HEAD = struct.Struct("<BHHH")
_SEQUENCE_HEAD = struct.Struct("<BH")
#: a bulk insert's row: its ghost bit and its key's length
_RUN_ROW_HEAD = struct.Struct("<BH")
_U16 = struct.Struct("<H")

#: every kind's head and how many byte strings it holds, for
#: :func:`_op_end` (a bulk insert, a sequence and a compensation are
#: walked instead)
_SHAPES = {
    INSERT: (_ROW_HEAD, 2),
    DELETE: (_ROW_HEAD, 2),
    UPDATE_VALUE: (_UPDATE_VALUE_HEAD, 2),
    SPANNED_UPDATE_VALUE: (_SPANNED_UPDATE_VALUE_HEAD, 2),
    REDO_VALUE: (_REDO_VALUE_HEAD, 1),
    SPANNED_REDO_VALUE: (_SPANNED_REDO_VALUE_HEAD, 1),
    SET_GHOST: (_SET_GHOST_HEAD, 0),
    INIT_SLOTTED: (_INIT_SLOTTED_HEAD, 0),
    BULK_DELETE: (_BULK_DELETE_HEAD, 0),
    EXTEND_PREFIX: (_EXTEND_PREFIX_HEAD, 1),
}

#: What a kernel can raise on bytes that are not an encoding: every
#: decode boundary turns these into :class:`LogError`.
MALFORMED = (struct.error, IndexError, ValueError, OverflowError)

#: what a span adds to a value rewrite: its prefix and suffix lengths
SPAN_SIZE = 4
_COMPENSATION = bytes((COMPENSATION,))
_from_bytes = int.from_bytes


def check_span(prefix: int, suffix: int, middle: int) -> None:
    """A span read from bytes is one a builder writes: not empty, and no
    value it splices — ``middle`` is the longer middle's length — is
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


# ----------------------------------------------------------------------
# Builders: one per kind, each returning the op's bytes
# ----------------------------------------------------------------------
def insert(slot: int, key: bytes, value: bytes, ghost: bool = False) -> bytes:
    """Insert a record at a slot position; undo removes it."""
    return b"".join((_ROW_HEAD.pack(INSERT, slot, ghost, len(key)), key,
                     _U16.pack(len(value)), value))


def delete(slot: int, key: bytes, value: bytes, ghost: bool = False) -> bytes:
    """Physically remove the record at a slot; it is logged whole, so
    undo inserts it again."""
    return b"".join((_ROW_HEAD.pack(DELETE, slot, ghost, len(key)), key,
                     _U16.pack(len(value)), value))


def value_rewrite(slot: int, old: bytes, new: bytes, redo_only: bool = False
                  ) -> tuple[bytes, bytes | None, int, int]:
    """The one builder of value rewrites: ``old`` becomes ``new`` at
    ``slot``, spanned when the span makes the encoding smaller.  Returns
    ``(op, before, prefix, suffix)``: the op's bytes and the
    before-image it keeps under its span — what a listed write's
    RESTORE_VALUE undo is, stored once (:mod:`repro.wal.records`).  With
    ``redo_only`` the op keeps none (``before`` is None); the span is
    chosen by the same rule, so a redo-only rewrite redoes exactly what
    the full one would.

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
            middle = new[prefix:new_end - suffix]
            if redo_only:
                return _SPANNED_REDO_VALUE_HEAD.pack(
                    SPANNED_REDO_VALUE, slot, prefix, suffix,
                    old_end - suffix - prefix, len(middle)
                ) + middle, None, prefix, suffix
            before = old[prefix:old_end - suffix]
            return b"".join((_SPANNED_UPDATE_VALUE_HEAD.pack(
                SPANNED_UPDATE_VALUE, slot, prefix, suffix, len(before)),
                before, _U16.pack(len(middle)), middle)), before, prefix, suffix
    if redo_only:
        return _REDO_VALUE_HEAD.pack(REDO_VALUE, slot, len(new)) + new, None, 0, 0
    return b"".join((_UPDATE_VALUE_HEAD.pack(UPDATE_VALUE, slot, len(old)),
                     old, _U16.pack(len(new)), new)), old, 0, 0


def set_ghost(slot: int, old: bool, new: bool) -> bytes:
    """Toggle the ghost bit of the record at a slot: logical deletion
    turns a record into a ghost, and ghost removal (a system
    transaction) later reclaims the space with :func:`delete`."""
    return _SET_GHOST_HEAD.pack(SET_GHOST, slot, old, new)


def init_slotted(page_type: PageType) -> bytes:
    """Format a page as an empty slotted page of a given type.

    "When a data page is reformatted ... it has the same effect as a
    successful write operation: 'redo' for all prior log records is not
    required" (Section 5.1.2).  The formatting log record can also
    serve as the page's backup image (Section 5.2.1).  Formatting runs
    in system transactions, which never undo individual operations, so
    it cannot be undone.
    """
    return _INIT_SLOTTED_HEAD.pack(INIT_SLOTTED, page_type)


def bulk_insert(slot: int, rows: list | tuple) -> bytes:
    """Insert a run of ``(key, value, ghost)`` rows at consecutive slots.

    A split's moved half and a leaf run of a sorted batch move dozens
    of records at once; carrying the run in a single operation keeps the
    log-record count proportional to structural events rather than to
    records moved, and applies with one slot-directory shift.
    """
    keys, values, ghosts = tuple(zip(*rows)) or ((), (), ())
    # The rows joined in C: no Python step per row.
    return _BULK_INSERT_HEAD.pack(BULK_INSERT, slot, len(keys)) + b"".join(
        chain.from_iterable(zip(map(_RUN_ROW_HEAD.pack, ghosts, map(len, keys)),
                                keys, map(_U16.pack, map(len, values)),
                                values)))


def bulk_delete(slot: int, count: int) -> bytes:
    """Remove ``count`` consecutive slots from ``slot`` up, naming no row.

    A split's removal from its source page, the first op of that page's
    record: the split logs the rows it moves once, in the
    :func:`bulk_insert` that ends its foster child's record (the source
    record's ``prev_lsn``).  The op cannot be undone in place; rollback
    takes the rows from that insert (:func:`split_compensation`).
    """
    return _BULK_DELETE_HEAD.pack(BULK_DELETE, slot, count)


def extend_prefix(slot: int, count: int, stripped: bytes) -> bytes:
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
    return _EXTEND_PREFIX_HEAD.pack(EXTEND_PREFIX, slot, count,
                                    len(stripped)) + stripped


def sequence(ops: list[bytes] | tuple[bytes, ...]) -> bytes:
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
    return _SEQUENCE_HEAD.pack(SEQUENCE, len(ops)) + b"".join(ops)


def compensation(op: bytes) -> bytes:
    """The op of the CLR that compensates ``op``: redone, it runs
    ``op``'s undo kernel."""
    return _COMPENSATION + op


def split_compensation(source: bytes, rows: list | tuple) -> bytes:
    """The compensation of a split's op on its source page — a row-free
    removal, then the foster link — given ``rows``, the rows the removal
    took as this page stores them: one sequence of the link's
    compensations, newest first, then an insert of the rows at the
    removal's slot."""
    removal, *link = sequence_members(source)
    _kind, slot, count = _BULK_DELETE_HEAD.unpack_from(removal)
    if len(rows) != count:
        raise RecoveryError(f"a removal of {count} rows restored from "
                            f"{len(rows)}")
    members = [compensation(op) for op in reversed(link)]
    members.append(bulk_insert(slot, rows))
    return sequence(members)


# ----------------------------------------------------------------------
# Readers the kernels and rollback share
# ----------------------------------------------------------------------
def bulk_rows(data: bytes, pos: int) -> tuple[int, list, int]:
    """``(slot, rows, end)`` of the bulk insert encoded at ``pos``: its
    rows as ``(key, value, ghost)`` tuples."""
    _kind, slot, count = _BULK_INSERT_HEAD.unpack_from(data, pos)
    pos += 7
    rows = []
    append, head, length = rows.append, _RUN_ROW_HEAD.unpack_from, _U16.unpack_from
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


def _op_end(data: bytes, pos: int) -> int:
    """The end of the op encoded at ``pos``, its fields left unread."""
    kind = data[pos]
    shape = _SHAPES.get(kind)
    if shape is None:
        if kind == COMPENSATION:
            if data[pos + 1] == COMPENSATION:
                # Rollback never compensates a CLR, so no writer nests
                # these; a run of 99s must not recurse once per byte.
                raise LogError("nested compensation op")
            return _op_end(data, pos + 1)
        if kind == BULK_INSERT:
            return bulk_rows(data, pos)[2]
        if kind == SEQUENCE:
            return _members(data, pos)[1]
        _unknown(kind)
    head, strings = shape
    end = pos + head.size
    if strings:
        end += head.unpack_from(data, pos)[-1]
        for _ in range(strings - 1):
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
    if kind == SEQUENCE or (kind == COMPENSATION and data[pos + 1] == SEQUENCE):
        raise LogError("nested op sequence")
    if kind == REDO_VALUE or kind == SPANNED_REDO_VALUE:
        raise LogError("a redo-only rewrite in an op sequence")


def _members(data: bytes, pos: int) -> tuple[list[int], int]:
    """``(starts, end)`` of the sequence encoded at ``pos``: where each
    member begins, and where the sequence ends."""
    _kind, count = _SEQUENCE_HEAD.unpack_from(data, pos)
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
    if kind == UPDATE_VALUE:
        end = 5 + _UPDATE_VALUE_HEAD.unpack_from(op)[2]
        if end > len(op):
            raise LogError(f"a before-image of {end - 5} bytes runs past the "
                           f"end of the record")
        return op[5:end], 0, 0
    if kind == SPANNED_UPDATE_VALUE:
        _kind, _slot, prefix, suffix, _length = (
            _SPANNED_UPDATE_VALUE_HEAD.unpack_from(op))
        old, at = _unpack_bytes(op, 7)
        check_span(prefix, suffix, max(len(old), len(_unpack_bytes(op, at)[0])))
        return old, prefix, suffix
    return None


# ----------------------------------------------------------------------
# The kernels: (page, data, pos) -> end, one per kind and direction
# ----------------------------------------------------------------------
def _row(page: Page, data: bytes, pos: int, remove: bool = False) -> int:
    """An insert (a delete, with ``remove``) of the row encoded at
    ``pos``: kind 1's redo and kind 2's undo, or the other way round."""
    _kind, slot, ghost, key_length = _ROW_HEAD.unpack_from(data, pos)
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
    if data[pos] == SPANNED_UPDATE_VALUE:
        _kind, slot, prefix, suffix, old_length = (
            _SPANNED_UPDATE_VALUE_HEAD.unpack_from(data, pos))
        at = pos + 7
    else:
        _kind, slot, old_length = _UPDATE_VALUE_HEAD.unpack_from(data, pos)
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
    if data[pos] == REDO_VALUE:
        _kind, slot, length = _REDO_VALUE_HEAD.unpack_from(data, pos)
        at, prefix, suffix, old_length = pos + 5, 0, 0, 0
    else:
        _kind, slot, prefix, suffix, old_length, length = (
            _SPANNED_REDO_VALUE_HEAD.unpack_from(data, pos))
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
    _kind, slot, old, new = _SET_GHOST_HEAD.unpack_from(data, pos)
    mark_ghost(page, slot, (old if undo else new) != 0)
    return pos + 5


def _init_slotted(page: Page, data: bytes, pos: int) -> int:
    _kind, page_type = _INIT_SLOTTED_HEAD.unpack_from(data, pos)
    page.page_type = PageType(page_type)
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
    _kind, slot, count = _BULK_DELETE_HEAD.unpack_from(data, pos)
    if not count:
        raise LogError("a removal of no row")
    SlottedPage(page).remove_run(slot, count)
    return pos + 5


def _extend_prefix(page: Page, data: bytes, pos: int, undo: bool = False) -> int:
    _kind, slot, count, length = _EXTEND_PREFIX_HEAD.unpack_from(data, pos)
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
    _kind, count = _SEQUENCE_HEAD.unpack_from(data, pos)
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
    INSERT: _row,
    DELETE: partial(_row, remove=True),
    UPDATE_VALUE: _rewrite,
    SPANNED_UPDATE_VALUE: _rewrite,
    REDO_VALUE: _redo_only_rewrite,
    SPANNED_REDO_VALUE: _redo_only_rewrite,
    SET_GHOST: _ghost,
    INIT_SLOTTED: _init_slotted,
    BULK_INSERT: _bulk,
    BULK_DELETE: _bulk_delete,
    EXTEND_PREFIX: _extend_prefix,
    SEQUENCE: _redo_sequence,
    COMPENSATION: _redo_compensation,
}

#: undo kernel per kind byte — what a compensation of that kind redoes;
#: the kinds missing have none (:func:`_irreversible`)
UNDO = {
    INSERT: partial(_row, remove=True),
    DELETE: _row,
    UPDATE_VALUE: partial(_rewrite, undo=True),
    SPANNED_UPDATE_VALUE: partial(_rewrite, undo=True),
    SET_GHOST: partial(_ghost, undo=True),
    BULK_INSERT: partial(_bulk, remove=True),
    EXTEND_PREFIX: partial(_extend_prefix, undo=True),
    SEQUENCE: _undo_sequence,
}
#: the kind bytes :func:`_check_member` looks at twice
_NOT_MEMBERS = frozenset({SEQUENCE, COMPENSATION, REDO_VALUE,
                          SPANNED_REDO_VALUE})


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
