"""Slotted page layout with an indirection vector and ghost records.

Layout within the page body (after the 32-byte page header)::

    +------------------+---------------------------+--------------+
    | slotted header   | record heap (grows right) | free | slots |
    +------------------+---------------------------+--------------+

    slotted header (8 bytes):
        slot_count   u16   number of slots (including ghosts)
        heap_end     u16   offset (page-relative) of first free heap byte
        frag_bytes   u16   reclaimable bytes from deleted records
        reserved     u16

    slot entry (4 bytes, stored from the end of the page backwards):
        offset       u16   page-relative offset of the record, 0 = dead
        length_flags u16   low 15 bits record length, high bit = ghost

    record:
        key_len      u16
        key          bytes
        value        bytes (length = record length - 2 - key_len)

Ghost records (pseudo-deleted records, Section 5.1.5) keep their slot
and bytes but are invisible to logical reads; ghost removal is a
contents-neutral structural change performed by a system transaction.

The indirection vector is exactly the structure the paper's in-page
plausibility analysis inspects ("analysis of all byte offsets and
lengths in the page header and in the indirection vector").
:func:`check_slot_directory` implements that analysis, and
:func:`inspect_page` is the single in-page inspection every device
read runs: the header tests (:func:`repro.page.page.check_header`),
then, for slotted page types, the directory analysis — precedence
magic, checksum, type, PageLSN, page id, heap end, slot count, heap /
directory overlap, then per slot in slot order: outside the heap, too
short, key length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.errors import (PageFailureKind, RecoveryError, ReproError,
                          SinglePageFailure)
from repro.page.page import HEADER_SIZE, Page, PageType, check_header

_SLOTTED_HEADER = struct.Struct("<HHHH")
SLOTTED_HEADER_SIZE = _SLOTTED_HEADER.size
SLOT_SIZE = 4
_GHOST_BIT = 0x8000
LENGTH_MASK = 0x7FFF

# Precompiled field structs: these accessors run tens of times per
# engine operation; skipping struct's format-string lookup is free
# speed.
_U16 = struct.Struct("<H")
_SLOT = struct.Struct("<HH")


#: Page types whose body is a slotted area (eligible for indirection-
#: vector plausibility analysis), as header type bytes.  Recovery-index
#: pages hold raw serialized chunks, not slotted records, so they get
#: only the header-level checks.
SLOTTED_TYPES = frozenset({
    int(PageType.METADATA), int(PageType.BTREE_BRANCH),
    int(PageType.BTREE_LEAF), int(PageType.HEAP),
})

_HEAP_START = HEADER_SIZE + SLOTTED_HEADER_SIZE

#: ``slot count -> Struct`` unpacking a whole directory of that many
#: slots in one call; a memo, filled as counts are first seen.
_DIRECTORY_STRUCTS: dict[int, struct.Struct] = {}


def _slot_words(count: int) -> struct.Struct:
    words = _DIRECTORY_STRUCTS.get(count)
    if words is None:
        words = _DIRECTORY_STRUCTS[count] = struct.Struct(f"<{2 * count}H")
    return words


def _implausible(page_id: int, detail: str) -> SinglePageFailure:
    return SinglePageFailure(page_id, PageFailureKind.HEADER_IMPLAUSIBLE,
                             detail)


def check_slot_directory(data: bytes | bytearray, page_id: int) -> None:
    """Analyze all byte offsets and lengths; raise on implausibility.

    Three bounds tests on the slotted header make one unpack of the
    whole directory safe; one loop over its words then tests every slot
    in slot order, the bounds before the key-length bytes are read.
    """
    size = len(data)
    count, heap_end, _frag, _reserved = _SLOTTED_HEADER.unpack_from(
        data, HEADER_SIZE)
    if heap_end < _HEAP_START or heap_end > size:
        raise _implausible(page_id, f"heap_end {heap_end} out of range")
    if count * SLOT_SIZE > size - _HEAP_START:
        raise _implausible(page_id, f"slot count {count} impossible")
    slots_start = size - count * SLOT_SIZE
    if heap_end > slots_start:
        raise _implausible(page_id, "heap overlaps slot directory")
    # The directory grows downwards, so its words read backwards are
    # (length_flags, offset) of slot 0, slot 1, ...
    words = iter(_slot_words(count).unpack_from(data, slots_start)[::-1])
    for index, (length_flags, offset) in enumerate(zip(words, words)):
        length = length_flags & LENGTH_MASK
        if (_HEAP_START <= offset <= heap_end - length and 2 <= length
                and data[offset] + (data[offset + 1] << 8) + 2 <= length):
            continue
        if offset < _HEAP_START or offset + length > heap_end:
            raise _implausible(
                page_id,
                f"slot {index} points outside heap ({offset}, len {length})")
        if length < 2:
            raise _implausible(page_id, f"slot {index} record too short")
        key_len = _U16.unpack_from(data, offset)[0]
        raise _implausible(
            page_id, f"slot {index} key length {key_len} exceeds record")


def inspect_page(data: bytes | bytearray,
                 expected_page_id: int | None = None) -> int:
    """The single in-page inspection (Section 4.2); returns the PageLSN.

    Step 2 of Figure 8; callers holding a device image reach it through
    :meth:`repro.core.recovery_manager.RecoveryManager.inspect`, which
    adds step 3, the PageLSN cross-check.
    """
    page_id, page_lsn, page_type = check_header(data, expected_page_id)
    if page_type in SLOTTED_TYPES:
        check_slot_directory(data, page_id)
    return page_lsn


class PageFullError(ReproError):
    """Not enough contiguous or reclaimable space for an insertion."""


@dataclass(frozen=True, slots=True)
class Record:
    """A logical record: key, value, and ghost flag."""

    key: bytes
    value: bytes
    ghost: bool = False

    @property
    def stored_length(self) -> int:
        return 2 + len(self.key) + len(self.value)


class SlottedPage:
    """Record-level view over a :class:`Page`.

    The class never allocates; it reads and writes the page buffer in
    place so that the byte image is always the single source of truth
    (a requirement for checksums, logging full-page images, and fault
    injection on the raw bytes).
    """

    __slots__ = ("page",)

    def __init__(self, page: Page) -> None:
        self.page = page

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Format the body as an empty slotted area."""
        heap_start = HEADER_SIZE + SLOTTED_HEADER_SIZE
        _SLOTTED_HEADER.pack_into(self.page.data, HEADER_SIZE, 0, heap_start, 0, 0)
        self.page.invalidate_view()

    # ------------------------------------------------------------------
    # Header fields
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        return _U16.unpack_from(self.page.data, HEADER_SIZE)[0]

    def _set_slot_count(self, n: int) -> None:
        _U16.pack_into(self.page.data, HEADER_SIZE, n)

    @property
    def heap_end(self) -> int:
        return _U16.unpack_from(self.page.data, HEADER_SIZE + 2)[0]

    def _set_heap_end(self, off: int) -> None:
        _U16.pack_into(self.page.data, HEADER_SIZE + 2, off)

    @property
    def frag_bytes(self) -> int:
        return _U16.unpack_from(self.page.data, HEADER_SIZE + 4)[0]

    def _set_frag_bytes(self, n: int) -> None:
        _U16.pack_into(self.page.data, HEADER_SIZE + 4, n)

    # ------------------------------------------------------------------
    # Slot directory
    # ------------------------------------------------------------------
    def _slot_pos(self, index: int) -> int:
        """Byte position of slot ``index`` (slots grow from page end)."""
        return self.page.size - (index + 1) * SLOT_SIZE

    def _read_slot(self, index: int) -> tuple[int, int, bool]:
        pos = self.page.size - (index + 1) * SLOT_SIZE
        offset, length_flags = _SLOT.unpack_from(self.page.data, pos)
        return offset, length_flags & LENGTH_MASK, bool(length_flags & _GHOST_BIT)

    def _write_slot(self, index: int, offset: int, length: int, ghost: bool) -> None:
        if length > LENGTH_MASK:
            raise ValueError(f"record length {length} exceeds slot encoding")
        length_flags = length | (_GHOST_BIT if ghost else 0)
        _SLOT.pack_into(self.page.data, self._slot_pos(index),
                        offset, length_flags)

    @property
    def slots_start(self) -> int:
        """Lowest byte position used by the slot directory."""
        return self.page.size - self.slot_count * SLOT_SIZE

    @property
    def free_space(self) -> int:
        """Contiguous free bytes between the heap and the slot directory."""
        return self.slots_start - self.heap_end

    def room_for(self, record: Record) -> bool:
        """Can ``record`` be inserted, possibly after compaction?"""
        needed = record.stored_length + SLOT_SIZE
        return self.free_space + self.frag_bytes >= needed

    def room_for_value(self, index: int, value: bytes) -> bool:
        """Can :meth:`update_value` store ``value`` in slot ``index``,
        possibly after compaction?  Callers that log the update first
        must ask this *before* logging."""
        data = self.page.data
        offset, length_flags = _SLOT.unpack_from(
            data, self.page.size - (index + 1) * SLOT_SIZE)
        needed = 2 + _U16.unpack_from(data, offset)[0] + len(value)
        return (self.free_space + self.frag_bytes
                + (length_flags & LENGTH_MASK) >= needed)

    def probe_value(self, index: int) -> tuple[bool, bytes, int]:
        """``(ghost, value, room)`` of slot ``index`` from one read of
        its slot word — what a value rewrite decides on: whether the
        record is a ghost, the value it replaces, and the longest value
        :meth:`update_value` can store there, possibly after compaction
        (:meth:`room_for_value` is ``len(value) <= room``)."""
        data = self.page.data
        size = self.page.size
        offset, length_flags = _SLOT.unpack_from(
            data, size - (index + 1) * SLOT_SIZE)
        end = offset + (length_flags & LENGTH_MASK)
        key_end = offset + 2 + _U16.unpack_from(data, offset)[0]
        count, heap_end, frag_bytes, _reserved = _SLOTTED_HEADER.unpack_from(
            data, HEADER_SIZE)
        return (bool(length_flags & _GHOST_BIT), bytes(data[key_end:end]),
                size - count * SLOT_SIZE - heap_end + frag_bytes
                + end - key_end)

    def read_value(self, index: int) -> tuple[bool, bytes]:
        """``(ghost, value)`` of slot ``index`` from one read of its
        slot word — what a point read needs of the record it found."""
        data = self.page.data
        offset, length_flags = _SLOT.unpack_from(
            data, self.page.size - (index + 1) * SLOT_SIZE)
        return (bool(length_flags & _GHOST_BIT),
                bytes(data[offset + 2 + _U16.unpack_from(data, offset)[0]:
                           offset + (length_flags & LENGTH_MASK)]))

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def read_record(self, index: int) -> Record:
        """The record in slot ``index`` (ghosts included)."""
        if not 0 <= index < self.slot_count:
            raise IndexError(f"slot {index} out of range")
        data = self.page.data
        offset, length_flags = _SLOT.unpack_from(
            data, self.page.size - (index + 1) * SLOT_SIZE)
        length = length_flags & LENGTH_MASK
        key_end = offset + 2 + _U16.unpack_from(data, offset)[0]
        return Record(bytes(data[offset + 2:key_end]),
                      bytes(data[key_end:offset + length]),
                      bool(length_flags & _GHOST_BIT))

    def record_key(self, index: int) -> bytes:
        """The key in slot ``index`` without materializing the value."""
        data = self.page.data
        offset = _SLOT.unpack_from(
            data, self.page.size - (index + 1) * SLOT_SIZE)[0]
        key_len = _U16.unpack_from(data, offset)[0]
        return bytes(data[offset + 2:offset + 2 + key_len])

    def key_bisect_left(self, target: bytes, start: int) -> int:
        """First slot in ``[start, slot_count)`` whose key >= ``target``.

        The innermost loop of every B-tree descent: raw buffer reads
        only, no slot tuples or Record objects per probe.
        """
        data = self.page.data
        size = self.page.size
        lo = start
        hi = _U16.unpack_from(data, HEADER_SIZE)[0]
        while lo < hi:
            mid = (lo + hi) >> 1
            offset = _U16.unpack_from(data, size - (mid + 1) * SLOT_SIZE)[0]
            key_len = _U16.unpack_from(data, offset)[0]
            if data[offset + 2:offset + 2 + key_len] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def is_ghost(self, index: int) -> bool:
        _offset, _length, ghost = self._read_slot(index)
        return ghost

    def records(self, include_ghosts: bool = False) -> list[Record]:
        """All records in slot order."""
        out = []
        for i in range(self.slot_count):
            rec = self.read_record(i)
            if rec.ghost and not include_ghosts:
                continue
            out.append(rec)
        return out

    def _words_from(self, start: int) -> tuple[int, ...]:
        """One unpack of the slot words of ``[start, slot_count)``:
        ``offset, length_flags`` per slot, the highest slot first."""
        data = self.page.data
        count = _U16.unpack_from(data, HEADER_SIZE)[0]
        if start >= count:
            return ()
        return _slot_words(count - start).unpack_from(
            data, self.page.size - count * SLOT_SIZE)

    def keys(self, start: int, prefix: bytes = b"") -> list[bytes]:
        """The keys of the slots from ``start`` up, ``prefix`` prepended
        to each (for callers that store keys truncated)."""
        data = self.page.data
        return [prefix + data[at + 2:at + 2 + data[at] + (data[at + 1] << 8)]
                for at in self._words_from(start)[-2::-2]]

    def rows(self, start: int,
             prefix: bytes = b"") -> Iterator[tuple[bytes, bytes, bool]]:
        """``(prefix + key, value, ghost)`` of the slots from ``start``
        up, in slot order, each row decoded as it is consumed — a reader
        that stops early never parses the rest."""
        data = self.page.data
        words = self._words_from(start)
        for i in range(len(words) - 2, -1, -2):
            at = words[i]
            length_flags = words[i + 1]
            key_end = at + 2 + data[at] + (data[at + 1] << 8)
            yield (prefix + data[at + 2:key_end],
                   bytes(data[key_end:at + (length_flags & LENGTH_MASK)]),
                   bool(length_flags & _GHOST_BIT))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, index: int, record: Record) -> None:
        """Insert ``record`` at slot position ``index``, shifting slots up."""
        if not 0 <= index <= self.slot_count:
            raise IndexError(f"insert position {index} out of range")
        needed = record.stored_length + SLOT_SIZE
        if self.free_space < needed:
            if self.free_space + self.frag_bytes >= needed:
                self.compact()
            if self.free_space < needed:
                raise PageFullError(
                    f"need {needed} bytes, have {self.free_space} "
                    f"(+{self.frag_bytes} fragmented)")
        self.page.invalidate_view(index, 0, (record,))
        offset = self._append_to_heap(record)
        # Shift slot entries [index, slot_count) one position outward —
        # they are contiguous, so this is a single 4-byte-down block
        # move (bytearray slice assignment copies the source first, so
        # the overlap is safe).
        count = self.slot_count
        if count > index:
            data = self.page.data
            start = self.page.size - count * SLOT_SIZE
            end = self.page.size - index * SLOT_SIZE
            data[start - SLOT_SIZE:end - SLOT_SIZE] = data[start:end]
        self._set_slot_count(count + 1)
        self._write_slot(index, offset, record.stored_length, record.ghost)

    def _append_to_heap(self, record: Record) -> int:
        offset = self.heap_end
        data = self.page.data
        struct.pack_into("<H", data, offset, len(record.key))
        body_start = offset + 2
        data[body_start:body_start + len(record.key)] = record.key
        value_start = body_start + len(record.key)
        data[value_start:value_start + len(record.value)] = record.value
        self._set_heap_end(offset + record.stored_length)
        return offset

    def update_value(self, index: int, value: bytes, prefix: int = 0,
                     suffix: int = 0, replaced: bytes = b"") -> None:
        """Replace the value of the record in slot ``index``.

        A *spliced* rewrite (``prefix`` or ``suffix`` nonzero, see
        :class:`repro.wal.ops.OpUpdateValue`) replaces only the middle
        between the value's first ``prefix`` and last ``suffix`` bytes,
        which must be ``replaced``: a value that does not hold it is
        refused before a byte is written, as :class:`RecoveryError`.
        """
        page = self.page
        data = page.data
        if not 0 <= index < _U16.unpack_from(data, HEADER_SIZE)[0]:
            raise IndexError(f"slot {index} out of range")
        offset, length_flags = _SLOT.unpack_from(
            data, page.size - (index + 1) * SLOT_SIZE)
        length = length_flags & LENGTH_MASK
        key_end = offset + 2 + _U16.unpack_from(data, offset)[0]
        if prefix or suffix:
            start = key_end + prefix
            end = offset + length - suffix
            if end - start != len(replaced) or data[start:end] != replaced:
                raise RecoveryError(
                    f"spliced rewrite of slot {index} on page "
                    f"{page.page_id}: its {offset + length - key_end}-byte "
                    f"value does not hold the {len(replaced)}-byte middle it "
                    f"replaces at byte {prefix}")
            value = (bytes(data[key_end:start]) + value
                     + bytes(data[end:offset + length]))
        needed = key_end - offset + len(value)
        if needed > length and not self.room_for_value(index, value):
            raise PageFullError(f"cannot grow record to {needed} bytes")
        page.invalidate_view(index, 0, (), value)
        if needed == length:
            # Same length — most rewrites: the bytes change, the slot
            # word and the fragmentation count do not.
            data[key_end:offset + length] = value
            return
        ghost = bool(length_flags & _GHOST_BIT)
        if needed <= length:
            # Overwrite in place; excess bytes become fragmentation.
            data[key_end:key_end + len(value)] = value
            self._write_slot(index, offset, needed, ghost)
            self._set_frag_bytes(self.frag_bytes + (length - needed))
            return
        # Relocate within the heap.
        new = Record(bytes(data[offset + 2:key_end]), value, ghost)
        # Retire the old bytes so compaction can reclaim them.
        self._set_frag_bytes(self.frag_bytes + length)
        self._write_slot(index, 0, 0, ghost)
        if self.free_space < needed:
            self.compact()
        new_offset = self._append_to_heap(new)
        self._write_slot(index, new_offset, needed, ghost)

    def mark_ghost(self, index: int, ghost: bool = True) -> None:
        """Toggle the ghost (pseudo-deleted) bit of slot ``index``."""
        self.page.invalidate_view(index, 0)
        offset, length, _old = self._read_slot(index)
        self._write_slot(index, offset, length, ghost)

    def remove(self, index: int) -> None:
        """Physically remove slot ``index`` (ghost removal / compaction)."""
        if not 0 <= index < self.slot_count:
            raise IndexError(f"slot {index} out of range")
        self.page.invalidate_view(index, 1)
        _offset, length, _ghost = self._read_slot(index)
        self._set_frag_bytes(self.frag_bytes + length)
        # Shift slot entries [index + 1, slot_count) one position in —
        # a single 4-byte-up block move of the contiguous directory.
        count = self.slot_count
        if index < count - 1:
            data = self.page.data
            start = self.page.size - count * SLOT_SIZE
            end = self.page.size - (index + 1) * SLOT_SIZE
            data[start + SLOT_SIZE:end + SLOT_SIZE] = data[start:end]
        self._set_slot_count(count - 1)

    def insert_run(self, index: int, records: list[Record]) -> None:
        """Insert ``records`` at consecutive slots starting at ``index``.

        One directory shift covers the whole run, so structural moves
        (splits, prefix re-encoding) cost one block move instead of one
        per record.
        """
        n = len(records)
        if n == 0:
            return
        if n == 1:
            self.insert(index, records[0])
            return
        count = self.slot_count
        if not 0 <= index <= count:
            raise IndexError(f"insert position {index} out of range")
        needed = sum(r.stored_length for r in records) + SLOT_SIZE * n
        if self.free_space < needed:
            if self.free_space + self.frag_bytes >= needed:
                self.compact()
            if self.free_space < needed:
                raise PageFullError(
                    f"need {needed} bytes, have {self.free_space} "
                    f"(+{self.frag_bytes} fragmented)")
        self.page.invalidate_view(index, 0, records)
        if count > index:
            data = self.page.data
            size = self.page.size
            start = size - count * SLOT_SIZE
            end = size - index * SLOT_SIZE
            shift = n * SLOT_SIZE
            data[start - shift:end - shift] = data[start:end]
        self._set_slot_count(count + n)
        for i, record in enumerate(records):
            offset = self._append_to_heap(record)
            self._write_slot(index + i, offset, record.stored_length,
                             record.ghost)

    def remove_run(self, index: int, n: int) -> None:
        """Remove ``n`` consecutive slots starting at ``index``."""
        if n == 0:
            return
        count = self.slot_count
        if n < 0 or not 0 <= index <= count - n:
            raise IndexError(
                f"slot run [{index}, {index + n}) out of range")
        self.page.invalidate_view(index, n)
        freed = 0
        for i in range(index, index + n):
            _offset, length, _ghost = self._read_slot(i)
            freed += length
        self._set_frag_bytes(self.frag_bytes + freed)
        if index + n < count:
            data = self.page.data
            size = self.page.size
            start = size - count * SLOT_SIZE
            end = size - (index + n) * SLOT_SIZE
            shift = n * SLOT_SIZE
            data[start + shift:end + shift] = data[start:end]
        self._set_slot_count(count - n)

    def compact(self) -> None:
        """Rewrite the heap to reclaim fragmented free space.

        This is a contents-neutral structural change — in the engine it
        runs under a system transaction (Section 5.1.5: "compacting a
        page (to reclaim fragmented free space)").  Slot order, keys and
        values are unchanged, so decoded views (which hold copies, not
        offsets) stay valid.
        """
        live: list[tuple[int, Record]] = []
        dead: list[int] = []
        for i in range(self.slot_count):
            offset, length, ghost = self._read_slot(i)
            if offset == 0 and length == 0:
                dead.append(i)  # slot temporarily retired by update_value
            else:
                live.append((i, self.read_record(i)))
        heap_start = HEADER_SIZE + SLOTTED_HEADER_SIZE
        self._set_heap_end(heap_start)
        self._set_frag_bytes(0)
        for index, record in live:
            offset = self._append_to_heap(record)
            self._write_slot(index, offset, record.stored_length, record.ghost)

    # ------------------------------------------------------------------
    # Plausibility analysis (failure detection, Section 4.2)
    # ------------------------------------------------------------------
    def check_plausible(self) -> None:
        """Analyze all byte offsets and lengths; raise on implausibility
        (:func:`check_slot_directory`, the same code a device read runs)."""
        check_slot_directory(self.page.data, self.page.page_id)

    def __len__(self) -> int:
        return self.slot_count
