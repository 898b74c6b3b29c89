"""B-tree node format over slotted pages.

A node is a slotted page with three bookkeeping records at fixed slots
followed by the data records::

    slot 0  (low fence)   key = low fence key,  value = metadata blob
    slot 1  (high fence)  key = high fence key, value = b""
    slot 2  (foster)      key = foster key,     value = foster child pid
    slot 3+ (data)        sorted records; keys stored prefix-truncated

Metadata blob (value of slot 0)::

    level   u16   0 = leaf
    flags   u16   bit 0: the high fence is +infinity
    prefix  rest  the prefix stripped from all stored data keys

Storing the fences and the foster pointer as ordinary records means
every structural change is expressible as ordinary record operations —
so the generic redo machinery replays node splits and adoptions with no
special cases, and the in-page plausibility checks cover the fences
too.  This mirrors the paper's Figure 2, where the fence keys are
records within the page (one of them possibly a ghost).

The symmetric-fence-key invariants (Section 4.2):

* every data key k satisfies ``low_fence <= k < high_fence``;
* in a branch, each record is ``(child low boundary, child pid)`` and
  the first record's key equals the node's low fence — hence the two
  key values adjacent to any child pointer are exactly the child's
  fence keys;
* a foster parent's own records are all ``< foster_key``; the foster
  child covers ``[foster_key, high_fence)``; every node of a foster
  chain carries the high fence of the *entire chain* (Figure 3).

Prefix truncation: the prefix is fixed when the node is initialized
(from the fences at that time) and remains *valid* — a prefix of every
data key — for the node's lifetime, even if later fence tightening
(adoption) would permit a longer one.

Decoded views: the bytes are the truth, but the bookkeeping records and
the node's *key directory* — the full keys of its data records in slot
order, plus the child pids on a branch — are decoded once into a
:class:`NodeView` kept on the :class:`~repro.page.page.Page` object and
searched with a C ``bisect`` (:meth:`BTreeNode.find`,
:meth:`NodeView.route`).  The bookkeeping fields are sliced straight
out of the buffer from one unpack of the three slot words (a cold page
pays this decode on its first fix).  The directory is built by
observation: a branch builds it on its first ``route``; a leaf that is
fetched, searched once and evicted never pays for it — its first search
runs in the raw bytes (:meth:`SlottedPage.key_bisect_left`) and leaves a
mark, and only the second search of the same decode, which proves the
leaf resident and re-touched, builds it.  From then on the slot
mutators keep it current (:meth:`NodeView.after_mutation`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator

from repro.errors import BTreeError
from repro.page.page import TYPE_OFFSET, Page, PageType
from repro.page.slotted import (LENGTH_MASK, SLOT_SIZE, Record, SlotReader,
                                SlottedPage)
from repro.wal.ops import (OpBulkDelete, OpBulkInsert, OpDelete,
                           OpExtendPrefix, OpInsert, OpSetGhost, PageOp,
                           value_rewrite)

SLOT_LOW = 0
SLOT_HIGH = 1
SLOT_FOSTER = 2
DATA_START = 3

_META = struct.Struct("<HH")
_PID = struct.Struct("<q")
#: Slots 2, 1, 0 — the directory grows downwards from the page end.
_BOOKKEEPING_SLOTS = struct.Struct("<HHHHHH")
_NODE_TYPES = (int(PageType.BTREE_BRANCH), int(PageType.BTREE_LEAF))
FLAG_HIGH_INF = 1

#: pid value meaning "no foster child"
NO_FOSTER = 0


def encode_meta(level: int, high_inf: bool, prefix: bytes) -> bytes:
    flags = FLAG_HIGH_INF if high_inf else 0
    return _META.pack(level, flags) + prefix


def decode_meta(meta: bytes) -> tuple[int, int, bytes]:
    """``(level, flags, prefix)`` of a metadata blob."""
    level, flags = _META.unpack_from(meta, 0)
    return level, flags, meta[_META.size:]


def encode_pid(pid: int) -> bytes:
    return _PID.pack(pid)


def decode_pid(value: bytes) -> int:
    return _PID.unpack(value)[0]


class NodeView:
    """Decode of one node page, cached on the page as ``page.view``.

    The bookkeeping fields come from slots below ``DATA_START``.
    ``keys`` is the key directory — the full key (prefix + stored) of
    every data record, list index = slot - ``DATA_START`` — or ``None``
    until built; ``pids`` is the child pid beside each key on a branch,
    ``None`` on a leaf; ``searched`` marks that the raw bytes have been
    searched once since this decode.
    """

    __slots__ = ("level", "flags", "prefix", "low_fence", "high_fence",
                 "foster_pid", "foster_key", "keys", "pids", "searched")

    def route(self, key: bytes) -> tuple[int, bytes, bytes, bool]:
        """``(child pid, low, high, high_is_inf)`` of the child
        responsible for ``key`` — one hop of a descent, for a branch
        whose key directory is built (:meth:`BTreeNode.route` builds it).

        Same answer as :meth:`BTreeNode.branch_child_index` +
        :meth:`~BTreeNode.child_pid` + :meth:`~BTreeNode.child_boundaries`,
        but from the directory: a C ``bisect`` over full keys instead of
        re-parsing separators from the raw bytes on every hop.
        """
        keys = self.keys
        i = bisect_right(keys, key) - 1
        if i < 0:
            raise BTreeError(f"key {key!r} below the branch's first child")
        pid = self.pids[i]
        if i + 1 < len(keys):
            return pid, keys[i], keys[i + 1], False
        if self.foster_pid != NO_FOSTER:
            return pid, keys[i], self.foster_key, False
        return pid, keys[i], self.high_fence, bool(self.flags & FLAG_HIGH_INF)

    def after_mutation(self, slot: int, removed: int | None,
                       records: tuple | list,
                       value: bytes | None) -> "NodeView | None":
        """What survives a mutator's report
        (:meth:`repro.page.page.Page.invalidate_view`): nothing if a
        bookkeeping record changed or the report does not say what
        moved; else everything, the directory spliced to match — slot
        shifts never move slots below the mutation index.  Runs under
        the exclusive latch, like the mutator itself."""
        if slot < DATA_START or removed is None:
            return None
        keys, pids = self.keys, self.pids
        if keys is not None:
            i = slot - DATA_START
            if value is not None:
                if pids is not None:
                    pids[i] = decode_pid(value)
            elif removed or records:
                prefix = self.prefix
                keys[i:i + removed] = [prefix + rec.key for rec in records]
                if pids is not None:
                    pids[i:i + removed] = [decode_pid(rec.value)
                                           for rec in records]
        return self


class BTreeNode(SlotReader):
    """Read-mostly view of a B-tree node page.

    Mutations are *not* performed here: the tree constructs page
    operations (returned by the ``op_*`` helpers) and logs them through
    the transaction manager, which applies them — keeping every
    structural byte change in the recovery log.

    Decodes are cached on the *page* (:class:`NodeView`), so they
    survive across node constructions while the page sits in the buffer
    pool.  A warm decode can never outlive its bytes: every device
    read, backup fetch and frame copy builds a new :class:`Page` object
    (which starts without a view), and every in-place byte mutator —
    the slotted-page mutation methods, ``OpWriteBytes`` and
    ``Page.load_image`` — reports through ``Page.invalidate_view``,
    saying what it moved or forfeiting the decode.
    Readers under the shared engine latch may both build the same
    decode; the build is idempotent and published with a single
    attribute store, and mutators run only under the exclusive latch.
    """

    __slots__ = ("_slotted",)

    #: data record ``i`` is slot ``DATA_START + i``: the point reads
    #: :meth:`read_value` and :meth:`probe_value` (one slot read each,
    #: inherited from :class:`~repro.page.slotted.SlotReader`) take ``i``
    first_slot = DATA_START

    def __init__(self, page: Page) -> None:
        self.page = page
        self._slotted = None
        if page.view is not None:
            # A cached decode proves the page validated as a B-tree node
            # since its last byte mutation, so the structural checks and
            # the decode below can be skipped.
            return
        if page.data[TYPE_OFFSET] not in _NODE_TYPES:
            raise BTreeError(
                f"page {page.page_id} has type {page.data[TYPE_OFFSET]}, "
                f"not a B-tree node")
        # A cold page's first search runs in the raw bytes: its
        # record-level view is built here, with the check.
        slotted = self._slotted = SlottedPage(page)
        if slotted.slot_count < DATA_START:
            raise BTreeError(f"page {page.page_id} lacks bookkeeping records")
        self._decode()

    @property
    def slotted(self) -> SlottedPage:
        """The page's record-level view, built on first use: a point
        access needs none."""
        slotted = self._slotted
        if slotted is None:
            slotted = self._slotted = SlottedPage(self.page)
        return slotted

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def view(self) -> NodeView:
        """The page's decode (built on first use); for callers that
        read several fields of one node, e.g. every hop of a descent."""
        return self.page.view or self._decode()

    def _decode(self) -> NodeView:
        """Decode the bookkeeping records and cache them on the page.

        One unpack of the three slot words, then the fences, prefix,
        level/flags and foster pid are sliced where those words point.
        A bookkeeping record that cannot hold its fields is a
        :class:`BTreeError` (the tree repairs it as an invariant
        failure), never a ``struct.error``.
        """
        page = self.page
        data = page.data
        try:
            (foster_at, foster_len, high_at, _high_len,
             low_at, low_len) = _BOOKKEEPING_SLOTS.unpack_from(
                data, page.size - DATA_START * SLOT_SIZE)
            low_key_end = low_at + 2 + data[low_at] + (data[low_at + 1] << 8)
            low_end = low_at + (low_len & LENGTH_MASK)
            foster_key_end = (foster_at + 2 + data[foster_at]
                              + (data[foster_at + 1] << 8))
            if (low_end - low_key_end < _META.size
                    or foster_at + (foster_len & LENGTH_MASK)
                    - foster_key_end != _PID.size):
                raise BTreeError(
                    f"page {page.page_id}: implausible bookkeeping records")
            view = NodeView()
            view.level, view.flags = _META.unpack_from(data, low_key_end)
            view.prefix = bytes(data[low_key_end + _META.size:low_end])
            view.low_fence = bytes(data[low_at + 2:low_key_end])
            view.high_fence = bytes(
                data[high_at + 2:
                     high_at + 2 + data[high_at] + (data[high_at + 1] << 8)])
            view.foster_pid = _PID.unpack_from(data, foster_key_end)[0]
            view.foster_key = bytes(data[foster_at + 2:foster_key_end])
        except (struct.error, IndexError) as exc:
            raise BTreeError(
                f"page {page.page_id}: bookkeeping records out of bounds "
                f"({exc})") from None
        view.keys = view.pids = None
        view.searched = False
        page.view = view
        return view

    @property
    def level(self) -> int:
        return (self.page.view or self._decode()).level

    @property
    def is_leaf(self) -> bool:
        return (self.page.view or self._decode()).level == 0

    @property
    def high_inf(self) -> bool:
        return bool((self.page.view or self._decode()).flags
                    & FLAG_HIGH_INF)

    @property
    def prefix(self) -> bytes:
        return (self.page.view or self._decode()).prefix

    @property
    def low_fence(self) -> bytes:
        """Low fence key; ``b""`` doubles as minus infinity."""
        return (self.page.view or self._decode()).low_fence

    @property
    def high_fence(self) -> bytes:
        """High fence key; meaningless when :attr:`high_inf` is set."""
        return (self.page.view or self._decode()).high_fence

    @property
    def foster_pid(self) -> int:
        return (self.page.view or self._decode()).foster_pid

    @property
    def foster_key(self) -> bytes:
        return (self.page.view or self._decode()).foster_key

    @property
    def has_foster(self) -> bool:
        return (self.page.view or self._decode()).foster_pid != NO_FOSTER

    # ------------------------------------------------------------------
    # Data records
    # ------------------------------------------------------------------
    @property
    def nrecs(self) -> int:
        return self.slotted.slot_count - DATA_START

    def stored_key(self, i: int) -> bytes:
        return self.slotted.record_key(DATA_START + i)

    def full_key(self, i: int) -> bytes:
        return self.prefix + self.stored_key(i)

    def value(self, i: int) -> bytes:
        return self.read_value(i)[1]

    def is_ghost(self, i: int) -> bool:
        return self.slotted.is_ghost(DATA_START + i)

    def child_pid(self, i: int) -> int:
        return decode_pid(self.value(i))

    def keys(self, include_ghosts: bool = False) -> list[bytes]:
        return [self.full_key(i) for i in range(self.nrecs)
                if include_ghosts or not self.is_ghost(i)]

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------
    def _strip(self, key: bytes) -> bytes:
        prefix = self.prefix
        if not key.startswith(prefix):
            raise BTreeError(
                f"key {key!r} outside node prefix {prefix!r} "
                f"(page {self.page.page_id})")
        return key[len(prefix):]

    def find(self, key: bytes) -> tuple[int, bool]:
        """Binary search for ``key`` among data records.

        Returns ``(index, found)`` where ``index`` is the insert
        position if not found — the innermost loop of every descent.
        A C ``bisect`` over the key directory once it is there; the
        first search of a decode runs inside the slotted page instead
        (one pass over the raw buffer, no per-probe record
        materialization), the second builds the directory.
        """
        view = self.page.view or self._decode()
        prefix = view.prefix
        if prefix and not key.startswith(prefix):
            raise BTreeError(
                f"key {key!r} outside node prefix {prefix!r} "
                f"(page {self.page.page_id})")
        keys = view.keys
        if keys is None:
            if not view.searched:
                view.searched = True
                target = key[len(prefix):]
                slotted = self.slotted
                slot = slotted.key_bisect_left(target, DATA_START)
                return slot - DATA_START, (slot < slotted.slot_count and
                                           slotted.record_key(slot) == target)
            keys = self._decode_directory(view)
        i = bisect_left(keys, key)
        return i, i < len(keys) and keys[i] == key

    def covers(self, key: bytes) -> bool:
        """Is ``key`` within this node's [low, high) fence range?

        With a foster child, the range still extends to the chain high
        fence; use :attr:`foster_key` to decide whether to follow the
        foster pointer.
        """
        if key < self.low_fence:
            return False
        return self.high_inf or key < self.high_fence

    def branch_child_index(self, key: bytes) -> int:
        """Index of the child record responsible for ``key``.

        Branch records hold each child's *low boundary*; the
        responsible child is the rightmost record with key <= ``key``.
        """
        if self.is_leaf:
            raise BTreeError("branch_child_index on a leaf")
        index, found = self.find(key)
        if not found:
            index -= 1
        if index < 0:
            raise BTreeError(
                f"key {key!r} below first child of page {self.page.page_id}")
        return index

    def route(self, key: bytes) -> tuple[int, bytes, bytes, bool]:
        """:meth:`NodeView.route` of this node, its key directory built
        here on first use."""
        view = self.page.view or self._decode()
        if view.level == 0:
            raise BTreeError("route on a leaf")
        if view.keys is None:
            self._decode_directory(view)
        return view.route(key)

    def _decode_directory(self, view: NodeView) -> list[bytes]:
        """Build the key directory from the raw records.  Idempotent;
        ``keys`` is stored last, so a reader that sees it sees ``pids``."""
        if view.level:
            view.pids = [decode_pid(value)
                         for _key, value, _ghost in self.rows()]
        view.keys = keys = self.slotted.keys(DATA_START, view.prefix)
        return keys

    def child_boundaries(self, i: int) -> tuple[bytes, bytes, bool]:
        """(low, high, high_is_inf) boundaries of child ``i``.

        These are "the key values next to the pointer in the parent"
        that must equal the child's fence keys (Section 4.2).  The
        last child's high boundary is the foster key if a foster child
        exists (the foster chain covers the rest), else this node's
        high fence.
        """
        low = self.full_key(i)
        if i + 1 < self.nrecs:
            return low, self.full_key(i + 1), False
        if self.has_foster:
            return low, self.foster_key, False
        return low, self.high_fence, self.high_inf

    def foster_boundaries(self) -> tuple[bytes, bytes, bool]:
        """Expected fences of the foster child: [foster key, chain high)."""
        if not self.has_foster:
            raise BTreeError("node has no foster child")
        return self.foster_key, self.high_fence, self.high_inf

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def room_for(self, key: bytes, value: bytes) -> bool:
        record = Record(self._strip(key), value)
        return self.slotted.room_for(record)

    def room_for_value(self, i: int, value: bytes) -> bool:
        """Can data record ``i`` take ``value`` without a split?"""
        return self.slotted.room_for_value(DATA_START + i, value)

    def room_for_branch_record(self, key: bytes) -> bool:
        if not key.startswith(self.prefix):
            # An adoption may post a key outside the stale prefix; the
            # caller must split first.
            return False
        record = Record(key[len(self.prefix):], encode_pid(0))
        return self.slotted.room_for(record)

    # ------------------------------------------------------------------
    # Operation builders (logged and applied by the tree)
    # ------------------------------------------------------------------
    def op_insert(self, index: int, key: bytes, value: bytes,
                  ghost: bool = False) -> PageOp:
        return OpInsert(DATA_START + index, self._strip(key), value, ghost)

    def op_delete(self, index: int) -> PageOp:
        rec = self.slotted.read_record(DATA_START + index)
        return OpDelete(DATA_START + index, rec.key, rec.value, rec.ghost)

    def rows(self, start: int = 0) -> Iterator[tuple[bytes, bytes, bool]]:
        """(full_key, value, ghost) of the data records from ``start``
        up, each decoded once, as it is consumed
        (:meth:`repro.page.slotted.SlottedPage.rows`)."""
        return self.slotted.rows(DATA_START + start, self.prefix)

    def record_entries(self, start: int, end: int) -> list[tuple[bytes, bytes, bool]]:
        """(full_key, value, ghost) for data records [start, end)."""
        return list(islice(self.rows(start), end - start))

    def op_bulk_insert(self, index: int,
                       entries: list[tuple[bytes, bytes, bool]]) -> PageOp:
        """One op inserting ``entries`` (full keys) at data slot ``index``."""
        prefix = self.prefix
        plen = len(prefix)
        recs = []
        for key, value, ghost in entries:
            if plen and not key.startswith(prefix):
                raise BTreeError(
                    f"key {key!r} outside node prefix {prefix!r} "
                    f"(page {self.page.page_id})")
            recs.append((key[plen:], value, ghost))
        return OpBulkInsert(DATA_START + index, tuple(recs))

    def op_bulk_delete(self, start: int, end: int) -> PageOp:
        """One op removing this node's data records [start, end), naming
        no row: a split's removal, whose rows its foster child's insert
        logs (:class:`repro.wal.ops.OpBulkDelete`)."""
        return OpBulkDelete(DATA_START + start, end - start)

    def op_update_value(self, index: int, new_value: bytes,
                        old: bytes | None = None) -> PageOp:
        """``old``: the current value, if the caller has read it."""
        if old is None:
            old = self.value(index)
        return value_rewrite(DATA_START + index, old, new_value)

    def op_set_ghost(self, index: int, ghost: bool,
                     old: bool | None = None) -> PageOp:
        """``old``: the current ghost bit, if the caller has read it."""
        if old is None:
            old = self.is_ghost(index)
        return OpSetGhost(DATA_START + index, old, ghost)

    def ops_set_foster(self, foster_key: bytes, foster_pid: int) -> list[PageOp]:
        """Replace the foster record (re-keying = delete + insert)."""
        old = self.slotted.read_record(SLOT_FOSTER)
        return [OpDelete(SLOT_FOSTER, old.key, old.value, old.ghost),
                OpInsert(SLOT_FOSTER, foster_key, encode_pid(foster_pid), True)]

    def ops_set_high_fence(self, high: bytes, high_inf: bool) -> list[PageOp]:
        """Replace the high fence and the flag bit in the metadata."""
        ops: list[PageOp] = []
        old_high = self.slotted.read_record(SLOT_HIGH)
        ops.append(OpDelete(SLOT_HIGH, old_high.key, old_high.value, old_high.ghost))
        ops.append(OpInsert(SLOT_HIGH, high, b"", True))
        view = self.view
        flags = view.flags
        new_flags = (flags | FLAG_HIGH_INF) if high_inf else (flags & ~FLAG_HIGH_INF)
        if new_flags != flags:
            old_meta = self.slotted.read_record(SLOT_LOW).value
            new_meta = _META.pack(view.level, new_flags) + view.prefix
            ops.append(value_rewrite(SLOT_LOW, old_meta, new_meta))
        return ops

    def ops_reencode_prefix(self, new_prefix: bytes) -> list[PageOp]:
        """Re-encode stored keys under a longer truncation prefix.

        Adoption tightens a node's high fence, which usually permits a
        longer common prefix; re-encoding is contents-neutral and runs
        inside the same system transaction as the adoption.  The
        metadata's prefix is rewritten, then one
        :class:`repro.wal.ops.OpExtendPrefix` strips the new bytes from
        every data key where it lies.  Returns an empty list when
        nothing would change.
        """
        old_prefix = self.prefix
        if new_prefix == old_prefix:
            return []
        if not new_prefix.startswith(old_prefix):
            raise BTreeError("prefix can only be extended")
        stripped = new_prefix[len(old_prefix):]
        view = self.view
        old_meta = self.slotted.read_record(SLOT_LOW).value
        ops = [value_rewrite(
            SLOT_LOW, old_meta, _META.pack(view.level, view.flags) + new_prefix)]
        keys = self.slotted.keys(DATA_START)
        if keys:
            for key in keys:
                if not key.startswith(stripped):
                    raise BTreeError(
                        f"key {old_prefix + key!r} outside new prefix")
            ops.append(OpExtendPrefix(DATA_START, len(keys), stripped))
        return ops

    @staticmethod
    def ops_initialize(level: int, low: bytes, high: bytes, high_inf: bool,
                       foster_key: bytes = b"",
                       foster_pid: int = NO_FOSTER) -> list[PageOp]:
        """Bookkeeping-record inserts for a freshly formatted node.

        The prefix is fixed here: the common prefix of the fences (or
        empty when the high fence is infinite).
        """
        from repro.btree.keys import common_prefix
        prefix = b"" if high_inf else common_prefix(low, high)
        meta = encode_meta(level, high_inf, prefix)
        return [OpInsert(SLOT_LOW, low, meta, True),
                OpInsert(SLOT_HIGH, high, b"", True),
                OpInsert(SLOT_FOSTER, foster_key, encode_pid(foster_pid), True)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        high = "inf" if self.high_inf else repr(self.high_fence)
        foster = f", foster={self.foster_pid}@{self.foster_key!r}" if self.has_foster else ""
        return (f"BTreeNode(page={self.page.page_id}, level={self.level}, "
                f"[{self.low_fence!r}, {high}), {self.nrecs} recs{foster})")
