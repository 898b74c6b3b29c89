"""The Foster B-tree.

Structure-modifying operations (node split, adoption, root growth,
ghost removal) run as *system transactions*: contents-neutral, logged,
committed without forcing the log (Section 5.1.5).  User operations
(insert / delete / update) are logged with key-level logical undo so
that rollback works even after the touched page has split.

Every pointer traversal — parent to child *and* foster parent to foster
child — verifies that the child's fence keys equal the two adjacent key
values in the parent (Section 4.2).  A mismatch is a detected
single-page failure: the tree hands the page to the context's
``handle_invariant_failure``, which in the full engine performs
single-page recovery and returns the repaired page, letting the
traversal continue — the paper's "very early detection of page
corruptions" made operational.

Each piece of work is done once.  There is one user-write path
(:meth:`FosterBTree._write`): ``insert``, ``update``, ``upsert``,
``delete`` and ``remove`` all descend once and decide at the pinned
leaf, under the caller's key lock (or its check), whether to update,
revive a ghost, insert, ghost, or split and retry; they differ only in
which states of the key they accept.  A batch (:meth:`FosterBTree.apply_batch`) writes
through it too: a put of a new key may take the sorted new keys after
it that land in its leaf into the same record, a *leaf run*.  A
descent is a pure read — the structural maintenance a write passes
(root growth, adoption) is noted on the way down and performed only
once the operation is known to write.  It is one
loop over the decoded views the resident pages carry
(:meth:`FosterBTree._descend`): a hop routes in the parent's key
directory (:meth:`repro.btree.node.NodeView.route`, as the leaf search
that ends the descent uses the leaf's,
:meth:`~repro.btree.node.BTreeNode.find`), fixes the child — the pool
hands the parent's pin back in the same entry — and compares the
child's fences with the parent's adjacent keys in place; no node object
is built above the leaf.  That shortens the bookkeeping, never the path:
every child is still fixed through the normal read path and checked on
every hop, a page without a view is still validated and decoded before
it is trusted, and a hop that fails for good leaves no pin behind.  A
read takes what it needs of a found record from one read of its slot,
and a scan decodes each row of a leaf once.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from repro.btree.keys import shortest_separator
from repro.btree.node import (DATA_START, FLAG_HIGH_INF, NO_FOSTER, BTreeNode,
                              encode_pid)
from repro.errors import (
    BTreeError,
    DuplicateKey,
    KeyNotFound,
    PageFailureKind,
    SinglePageFailure,
)
from repro.page.page import Page, PageType
from repro.page.slotted import SLOT_SIZE
from repro.sim.stats import Stats
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.ops import sequence, value_rewrite
from repro.wal.records import LogicalUndo, UndoAction

if TYPE_CHECKING:
    from repro.buffer.buffer_pool import BufferPool
    from repro.engine.catalog import Catalog

_RESTORE_VALUE = UndoAction.RESTORE_VALUE
#: what a data record takes of a leaf besides its stored key and value:
#: the key's length prefix and its slot
_ROW_OVERHEAD = 2 + SLOT_SIZE


def not_bytes(key: object, value: object) -> BTreeError:
    """The refusal of a write whose key or value is not ``bytes``: a
    ``str`` would fail only once its record is logged, and a ``None``
    value would read as a delete — which is what it means to
    :meth:`repro.engine.database.Database.autocommit_write`, so a put
    refuses one before it calls that."""
    return BTreeError(f"a write takes bytes -> bytes, not "
                      f"{type(key).__name__} -> {type(value).__name__}")


class _Batch:
    """One :meth:`FosterBTree.apply_batch`: its ops and the index of the
    next one to write, which a leaf run moves past the puts it takes."""

    __slots__ = ("ops", "next")

    def __init__(self, ops: list[tuple]) -> None:
        self.ops = ops
        self.next = 0


class TreeContext(Protocol):
    """Engine services the tree depends on."""

    #: every node is pinned through it: ``fix(page_id, release)`` (hand
    #: over hand) and ``unfix(page_id, dirty_lsn)``
    pool: BufferPool
    #: the index registry: ``roots`` caches each index's root page id,
    #: ``get_root`` fills it from the metadata page
    catalog: Catalog

    def allocate_page(self, txn: Transaction, page_type: PageType,
                      index_id: int) -> Page:
        """Allocate, format, and log a new pinned page."""
        ...
    def set_root(self, txn: Transaction, index_id: int, root_pid: int) -> None: ...
    def handle_invariant_failure(self, failure: SinglePageFailure) -> Page:
        """Recover a page that failed cross-page verification.

        Returns the repaired page, re-fixed.  Raises (escalates) if
        recovery is impossible.
        """
        ...


class FosterBTree:
    """A Foster B-tree bound to one index id within an engine."""

    def __init__(self, index_id: int, ctx: TreeContext,
                 tm: TransactionManager, stats: Stats,
                 adopt_every: int = 4) -> None:
        self.index_id = index_id
        self.ctx = ctx
        self.tm = tm
        self.stats = stats
        counter = stats.counter
        self._btree_lookups = counter("btree_lookups")
        self._btree_inserts = counter("btree_inserts")
        self._btree_updates = counter("btree_updates")
        self._btree_deletes = counter("btree_deletes")
        self._btree_hops_verified = counter("btree_hops_verified")
        self._btree_invariant_failures = counter("btree_invariant_failures")
        self._btree_splits = counter("btree_splits")
        self._btree_adoptions = counter("btree_adoptions")
        self._btree_root_growths = counter("btree_root_growths")
        self._btree_compensations = counter("btree_compensations")
        self._btree_ghosts_removed = counter("btree_ghosts_removed")
        #: Adoption is opportunistic and amortized: only every N-th
        #: write that passes a foster chain performs the adoption.
        #: Chains are therefore short-lived but *observable* between
        #: operations, as in Figure 3 ("temporary!").  Set to 1 for
        #: fully eager adoption.
        self.adopt_every = max(1, adopt_every)
        self._adopt_opportunities = 0
        #: ``(parent pid, child pid)`` of every foster parent the latest
        #: write descent stepped onto (parent ``None``: the root itself);
        #: see :meth:`_maintain`.  Writes hold the exclusive engine
        #: latch, and read descents never touch it.
        self._owed: list[tuple[int | None, int]] = []

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, index_id: int, ctx: TreeContext, tm: TransactionManager,
               stats: Stats) -> "FosterBTree":
        """Create an empty tree: a single leaf covering (-inf, +inf)."""
        tree = cls(index_id, ctx, tm, stats)
        sys_txn = tm.begin(system=True)
        root = ctx.allocate_page(sys_txn, PageType.BTREE_LEAF, index_id)
        # Creation, not a structure change of a tree that holds rows:
        # the empty root's bookkeeping is one record per insert, so every
        # log starts at the LSNs the golden chaos traces and wire
        # traffic pin across commits.
        for op in BTreeNode.ops_initialize(level=0, low=b"", high=b"",
                                           high_inf=True):
            tree._log(sys_txn, root, op)
        ctx.set_root(sys_txn, index_id, root.page_id)
        ctx.pool.unfix(root.page_id)
        tm.commit(sys_txn)
        return tree

    # ------------------------------------------------------------------
    # Logging helper
    # ------------------------------------------------------------------
    def _log(self, txn: Transaction, page: Page, op: bytes,
             dirty: int | None = None) -> int:
        """Log and apply ``op``; returns ``dirty``, else (the page's first
        record) its LSN for ``pool.unfix``, which a fresh page needs not."""
        lsn = self.tm.log_update(txn, page.page_id, page, self.index_id, op)
        return lsn if dirty is None else dirty

    # ------------------------------------------------------------------
    # Verified traversal
    # ------------------------------------------------------------------
    def _fix_node(self, page_id: int) -> tuple[Page, BTreeNode]:
        return self._as_node(self.ctx.pool.fix(page_id))

    def _as_node(self, page: Page) -> tuple[Page, BTreeNode]:
        """A pinned page as a node: one without a decoded view is
        type-checked and decoded in place before it is trusted, one that
        fails is repaired as a single-page failure."""
        try:
            return page, BTreeNode(page)
        except BTreeError as exc:
            return self._repaired(page.page_id, str(exc))

    def _verify(self, page: Page, *expected) -> tuple[Page, BTreeNode, bool]:  # noqa: ANN002
        """A hop the descent's inline check did not pass: the pinned
        child cannot be decoded, or differs from the parent's
        ``(low, high, high is +inf, level)``.  Returns it pinned,
        decoded and matching, and whether it matched as found."""
        page, node = self._as_node(page)
        problem = self._fence_mismatch(node, *expected)
        if problem is None:
            return page, node, True
        # Cross-page invariant violated: treat as a single-page failure
        # of the child and ask the engine to repair it (Figure 8 path).
        self._btree_invariant_failures.inc()
        return *self._repaired(page.page_id, problem, expected), False

    def _repaired(self, page_id: int, problem: str,
                  expected: tuple | None = None) -> tuple[Page, BTreeNode]:
        """Unpin a page that failed a check, have the engine repair it
        and check the re-fixed page again.  Raises — the engine's
        escalation, or ``unrepaired`` — with nothing pinned."""
        self.ctx.pool.unfix(page_id)
        page = self.ctx.handle_invariant_failure(SinglePageFailure(
            page_id, PageFailureKind.BTREE_INVARIANT, problem))
        try:
            node = BTreeNode(page)
            problem = expected and self._fence_mismatch(node, *expected)
        except BTreeError as exc:
            problem = str(exc)
        if problem:
            self.ctx.pool.unfix(page_id)
            raise SinglePageFailure(page_id, PageFailureKind.BTREE_INVARIANT,
                                    f"unrepaired: {problem}")
        return page, node

    @staticmethod
    def _fence_mismatch(node: BTreeNode, exp_low: bytes, exp_high: bytes,
                        exp_inf: bool, exp_level: int) -> str | None:
        view = node.view
        high_inf = bool(view.flags & FLAG_HIGH_INF)
        if view.level != exp_level:
            return f"level {view.level} != expected {exp_level}"
        if view.low_fence != exp_low:
            return f"low fence {view.low_fence!r} != parent key {exp_low!r}"
        if high_inf != exp_inf:
            return f"high-inf flag {high_inf} != expected {exp_inf}"
        if not exp_inf and view.high_fence != exp_high:
            return f"high fence {view.high_fence!r} != parent key {exp_high!r}"
        return None

    def _descend(self, key: bytes,
                 for_write: bool) -> tuple[Page, BTreeNode, int]:
        """Root-to-leaf pass with continuous verification.

        Returns the pinned leaf whose range contains ``key``: its page,
        node and page id (the caller unpins by that id, reading no
        header for it).  The root's id comes from the catalogue's cache,
        and every node is pinned through the pool itself.  Every hop
        — to a child or along a foster chain — takes the pointer and the
        two keys beside it from the parent's view, fixes the child
        through the normal read path (which hands the parent's pin back)
        and compares the child's level, fences and ``+inf`` flag with
        them right here; a child not decoded yet is decoded in place
        first, and one that cannot be, or that differs, goes to
        :meth:`_verify`.  The descent holds one pin at a time,
        and a raise out of it leaves none.

        The descent never changes the tree.  With ``for_write`` it notes
        in ``self._owed`` the foster parents it stepped onto, for the
        caller to settle through :meth:`_maintain` once it knows it
        will write.
        """
        ctx = self.ctx
        pid = ctx.catalog.roots.get(self.index_id)
        if pid is None:
            pid = ctx.catalog.get_root(self.index_id)
        pool = ctx.pool
        fix = pool.fix
        page = fix(pid)
        view, node = page.view, None
        if view is None:
            page, node = self._as_node(page)
            view = node.view
        if for_write:
            self._owed = owed = []
            if view.foster_pid != NO_FOSTER:
                owed.append((None, pid))
        hops = 0
        try:
            while True:
                if view.foster_pid != NO_FOSTER and key >= view.foster_key:
                    # Along the foster chain to the responsible node.
                    parent, child_pid = None, view.foster_pid
                    low, high = view.foster_key, view.high_fence
                    inf = bool(view.flags & FLAG_HIGH_INF)
                    level = view.level
                elif view.level == 0:
                    return page, BTreeNode(page) if node is None else node, pid
                else:
                    parent, level = pid, view.level - 1
                    try:
                        child_pid, low, high, inf = view.route(key)
                    except BTreeError:
                        pool.unfix(pid)
                        raise
                page = fix(child_pid, pid)
                view, node = page.view, None
                if view is None:
                    # A cold child is decoded in place; the compare below
                    # is its check.  A decode that fails goes to _verify,
                    # which decodes again to repair it.
                    try:
                        node = BTreeNode(page)
                        view = page.view
                    except BTreeError:
                        pass
                if (view is not None and view.level == level
                        and view.low_fence == low
                        and bool(view.flags & FLAG_HIGH_INF) == inf
                        and (inf or view.high_fence == high)):
                    hops += 1
                else:
                    page, node, clean = self._verify(page, low, high, inf, level)
                    view = node.view
                    hops += clean
                if (for_write and parent is not None
                        and view.foster_pid != NO_FOSTER):
                    owed.append((parent, child_pid))
                pid = child_pid
        finally:
            if hops:
                self._btree_hops_verified.inc(hops)

    def _maintain(self) -> bool:
        """Opportunistic maintenance for the latest write descent.

        A root with a foster child grows the tree; each other foster
        parent passed is one adoption opportunity, and every
        ``adopt_every``-th opportunity is taken.  Returns True after a
        structural change (a system transaction): the caller restarts
        its descent.  An operation that turns out not to write skips
        this, so it leaves the structure — and the log — alone.
        """
        for parent_pid, child_pid in self._owed:
            if parent_pid is None:
                self._grow_root(child_pid)
                return True
            self._adopt_opportunities += 1
            if self._adopt_opportunities % self.adopt_every == 0:
                if not self._adopt(parent_pid, child_pid):
                    self._split(parent_pid)
                return True
        return False

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def insert(self, txn: Transaction, key: bytes, value: bytes, *,
               replace: bool = False, batch: _Batch | None = None) -> None:
        """Insert ``key`` -> ``value``; a live duplicate is rejected
        (:class:`DuplicateKey`) unless ``replace``, which updates it.
        ``batch``: the :meth:`apply_batch` this put belongs to."""
        if key.__class__ is not bytes or value.__class__ is not bytes:
            raise not_bytes(key, value)
        self._write(txn, key, value, None if replace else False, batch)

    def update(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Replace the value stored under ``key`` (:class:`KeyNotFound`
        if there is none)."""
        if key.__class__ is not bytes or value.__class__ is not bytes:
            raise not_bytes(key, value)
        self._write(txn, key, value, True)

    def upsert(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Insert or update, decided at the leaf in one descent."""
        # Through insert(), not straight to _write(): code that wraps
        # insert/update/delete from outside (bench/trace.py's spans)
        # then sees every user write.  remove() likewise.
        self.insert(txn, key, value, replace=True)

    def delete(self, txn: Transaction, key: bytes, *,
               missing_ok: bool = False) -> bool:
        """Logical deletion: turn the record into a ghost.  An absent
        key raises :class:`KeyNotFound` unless ``missing_ok``, which
        returns False instead."""
        return self._write(txn, key, None, None if missing_ok else True)

    def remove(self, txn: Transaction, key: bytes) -> bool:
        """Delete if present, in one descent; True if a record went."""
        return self.delete(txn, key, missing_ok=True)

    def apply_batch(self, txn: Transaction, ops: list[tuple],
                    check: Callable[[tuple], None]) -> None:
        """Apply ``[("put", k, v) | ("delete", k), ...]`` in ``txn``, in
        order: each op passes ``check`` (which raises the caller's error
        for a malformed one), its key is locked, and it is written
        through :meth:`insert` / :meth:`delete` — the one batch loop of
        the embedded client and the shard worker.

        A put of a new key takes the well-formed puts after it that
        extend a *leaf run* — sorted new keys its leaf takes as they
        come — into its own write: one UPDATE for the run
        (:meth:`_take_run`), and the loop resumes after its last op.
        """
        acquire, insert, delete = self.tm.locks.acquire, self.insert, self.delete
        txn_id = txn.txn_id
        batch = _Batch(ops)
        n = len(ops)
        while batch.next < n:
            op = ops[batch.next]
            check(op)
            acquire(txn_id, op[1])
            batch.next += 1
            if op[0] == "put":
                insert(txn, op[1], op[2], replace=True, batch=batch)
            else:
                delete(txn, op[1], missing_ok=True)

    def _write(self, txn: Transaction, key: bytes, value: bytes | None,
               expect_live: bool | None, batch: _Batch | None = None) -> bool:
        """The one user-write path: descend once, decide at the leaf.

        ``value`` of ``None`` deletes.  ``expect_live`` states what the
        caller requires of the key — ``True`` a live record
        (:class:`KeyNotFound` otherwise), ``False`` none
        (:class:`DuplicateKey` otherwise), ``None`` either — and the
        return value says which it was.  The caller holds the key lock —
        or, for an unlisted write, checked it free, and its record
        commits as it is appended — so the decision made at the pinned
        leaf stays true until commit.

        Room is tested *before* anything is logged: a logged operation
        that then fails to apply would leave a record redo cannot
        replay.  A leaf without room is split (system transaction) and
        the descent repeated, for a growing value exactly as for a new
        key.

        A new key of a ``batch`` may start a leaf run (:meth:`_take_run`).
        """
        if not key:
            raise BTreeError("empty keys are reserved for -infinity fences")
        log, index_id, pool = self.tm.log_update, self.index_id, self.ctx.pool
        while True:
            page, node, pid = self._descend(key, for_write=True)
            dirty = None  # see _log
            try:
                i, found = node.find(key)
                if found:
                    # One read of the record's slot serves every decision
                    # below: live or ghost, the before-image, the room.
                    ghost, old, room = node.probe_value(i)
                    live = not ghost
                else:
                    live = False
                if value is None:
                    if expect_live is None and not live:
                        return False  # nothing to write: a pure read
                elif len(key) + len(value) > page.size // 8:
                    # Guarantee splittability: any two data records plus
                    # the bookkeeping records must fit a page.
                    raise BTreeError(
                        f"entry of {len(key) + len(value)} bytes exceeds "
                        f"limit {page.size // 8}")
                if self._owed and self._maintain():
                    continue
                if expect_live is not None and live != expect_live:
                    raise KeyNotFound(key) if expect_live else DuplicateKey(key)
                # An unlisted write (Database.autocommit_write) of one
                # record logs neither undo nor before-image: the record
                # commits as it is appended (TransactionManager.log_update),
                # and every check that may refuse it is behind us.
                if value is None:
                    dirty = log(txn, pid, page, index_id,
                                node.op_set_ghost(i, True, old=False),
                                None if txn.redo_only
                                else LogicalUndo(UndoAction.INSERT_KEY, key, old))
                    self._btree_deletes.inc()
                    return True
                if live:
                    if len(value) <= room:
                        if txn.redo_only:
                            dirty = log(txn, pid, page, index_id, value_rewrite(
                                DATA_START + i, old, value, True)[0])
                        else:
                            # The before-image is the undo's and the op's
                            # at once, under the op's span, logged once.
                            op, before, prefix, suffix = value_rewrite(
                                DATA_START + i, old, value)
                            dirty = log(txn, pid, page, index_id, op, LogicalUndo(
                                _RESTORE_VALUE, key, before, prefix, suffix))
                        self._btree_updates.inc()
                        return True
                elif found:
                    if len(value) <= room:
                        # Revive the ghost: restore value, then clear the
                        # bit — two records, so both log their undo, and
                        # an unlisted write enlists before the first.  The
                        # value write carries a *no-op logical undo*:
                        # rolling back the revive only needs to re-ghost
                        # the record (the DELETE_KEY below); a physical
                        # slot-indexed undo would be unsafe once later
                        # inserts have shifted the slots.
                        if txn.redo_only:
                            self.tm.enlist(txn, key)
                        dirty = log(txn, pid, page, index_id,
                                    value_rewrite(DATA_START + i, old, value)[0],
                                    LogicalUndo(UndoAction.NONE, key))
                        log(txn, pid, page, index_id, node.op_set_ghost(i, False, old=True),
                            LogicalUndo(UndoAction.DELETE_KEY, key))
                        self._btree_inserts.inc()
                        return False
                elif node.room_for(key, value):
                    run = batch and self._take_run(txn, node, i, key, value,
                                                   batch)
                    if run:
                        dirty = log(txn, pid, page, index_id,
                                    node.op_bulk_insert(i, run), LogicalUndo(
                                        UndoAction.DELETE_KEYS, key,
                                        keys=tuple(row[0] for row in run)))
                        self._btree_inserts.inc(len(run))
                        return False
                    dirty = log(txn, pid, page, index_id, node.op_insert(i, key, value),
                                None if txn.redo_only
                                else LogicalUndo(UndoAction.DELETE_KEY, key))
                    self._btree_inserts.inc()
                    return False
            finally:
                pool.unfix(pid, dirty)
            # No room: split (system transaction) and try again.
            self._split(pid)

    def _take_run(self, txn: Transaction, node: BTreeNode, i: int,
                  key: bytes, value: bytes, batch: _Batch
                  ) -> list[tuple[bytes, bytes, bool]] | None:
        """The rows of a leaf run that the insert of ``key`` at data slot
        ``i`` of the pinned leaf starts: ``(key, value, False)`` of it and
        of the puts ``batch`` holds next, each advancing ``batch.next``;
        ``None`` when not even one more put joins (a lone insert is
        logged as it always is).

        A put joins only while its own write — descend, maintain, decide
        at the leaf — would insert it at the next slot of this leaf with
        no structural change between: its key is bytes, strictly above
        the previous one and below the leaf's next record, its foster key
        and its high fence; its entry is within the size limit; the run
        fits the contiguous free space, or — when the first row needs it,
        as its own insert would — the space compaction frees, so no row
        but the first compacts; no adoption falls due, as each row takes
        one adoption opportunity per foster parent the descent noted;
        and its key lock is free or already ours (the leaf is pinned: no
        waiting, no loser rolled back here).  So the pages come out as
        the per-key writes leave them, byte for byte (the page's update
        counter, too, advances by the row count:
        :meth:`repro.txn.manager.TransactionManager.log_update`).
        """
        ops, at = batch.ops, batch.next
        view = node.view
        cut = len(view.prefix)  # every key between the fences has it
        bound = None if view.flags & FLAG_HIGH_INF else view.high_fence
        if view.foster_pid != NO_FOSTER:
            bound = view.foster_key
        if i < node.nrecs:
            bound = node.full_key(i)
        slotted = node.slotted
        free = slotted.free_space
        used = _ROW_OVERHEAD + len(key) - cut + len(value)
        room = free if used <= free else free + slotted.frag_bytes
        owed = len(self._owed)
        every = self.adopt_every
        seen = self._adopt_opportunities
        limit = node.page.size // 8
        run = [(key, value, False)]
        keys = []
        prev = key
        for op in islice(ops, at, None):
            if len(op) < 3 or op[0] != "put":
                break
            k, v = op[1], op[2]
            if (k.__class__ is not bytes or v.__class__ is not bytes
                    or not prev < k or bound is not None and not k < bound
                    or len(k) + len(v) > limit):
                break
            used += _ROW_OVERHEAD + len(k) - cut + len(v)
            if used > room or owed and seen % every + owed >= every:
                break
            seen += owed
            run.append((k, v, False))
            keys.append(k)
            prev = k
        # The locks, in key order up to the first another transaction
        # holds: the run ends before that key, as if its turn had come.
        taken = self.tm.locks.try_acquire_run(txn.txn_id, keys) if keys else 0
        if not taken:
            return None
        del run[1 + taken:]
        self._adopt_opportunities = seen - owed * (len(keys) - taken)
        batch.next = at + taken
        return run

    def lookup(self, key: bytes) -> bytes:
        """Value stored under ``key``; raises :class:`KeyNotFound`."""
        _page, node, pid = self._descend(key, for_write=False)
        try:
            i, found = node.find(key)
            if found:
                ghost, value = node.read_value(i)
                if not ghost:
                    self._btree_lookups.inc()
                    return value
            raise KeyNotFound(key)
        finally:
            self.ctx.pool.unfix(pid)

    def contains(self, key: bytes) -> bool:
        try:
            self.lookup(key)
            return True
        except KeyNotFound:
            return False

    def range_scan(self, low: bytes = b"", high: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) pairs with ``low <= key`` and ``key < high``.

        Fence-key trees have no sibling pointers; the scan follows
        foster pointers within a chain and re-descends with the chain's
        high fence to reach the next leaf — each re-descent is another
        verified root-to-leaf pass.
        """
        key = low
        while True:
            _page, node, pid = self._descend(key, for_write=False)
            batch, next_key = self._scan_leaf(pid, node, key, high)
            yield from batch
            if next_key is None:
                return
            key = next_key

    def _scan_leaf(self, pid: int, node: BTreeNode, key: bytes,
                   high: bytes | None) -> tuple[list[tuple[bytes, bytes]], bytes | None]:
        try:
            out: list[tuple[bytes, bytes]] = []
            i, _found = node.find(key)
            # One pass over the leaf from there: each row decoded once,
            # none past ``high``.
            for full, value, ghost in node.rows(i):
                if high is not None and full >= high:
                    return out, None
                if not ghost:
                    out.append((full, value))
            if node.has_foster:
                next_key = node.foster_key
            elif node.high_inf:
                next_key = None
            else:
                next_key = node.high_fence
            if next_key is not None and high is not None and next_key >= high:
                next_key = None
            return out, next_key
        finally:
            self.ctx.pool.unfix(pid)

    def compensate(self, txn: Transaction, undo: LogicalUndo,
                   undo_next_lsn: int) -> None:
        """Key-level compensation during rollback (logged as CLRs)."""
        if undo.action == UndoAction.NONE:
            return  # value write whose effect the re-ghosting covers
        key, clr, index_id = undo.key, self.tm.log_compensation, self.index_id
        while True:
            page, node, pid = self._descend(key, for_write=True)
            dirty = None  # see _log
            try:
                if self._owed and self._maintain():
                    continue
                i, found = node.find(key)
                if undo.action == UndoAction.DELETE_KEY:
                    # Undo an insert: ghost the record.
                    if found and not node.is_ghost(i):
                        dirty = clr(txn, page, index_id, node.op_set_ghost(i, True),
                                    undo_next_lsn)
                    fits = True
                elif found:
                    # Undo an update, or a delete whose ghost is still
                    # there: put the old value back — a spanned update's
                    # old middle by the inverse splice.  It may be larger
                    # than what is stored now, and the leaf may since
                    # have given the room to other records.
                    _ghost, current, room = node.probe_value(i)
                    before = undo.restored(current)
                    fits = len(before) <= room
                    if fits:
                        dirty = clr(txn, page, index_id,
                                    value_rewrite(DATA_START + i, current,
                                                  before)[0],
                                    undo_next_lsn)
                        if undo.action == UndoAction.INSERT_KEY:
                            clr(txn, page, index_id, node.op_set_ghost(i, False),
                                undo_next_lsn)
                elif undo.action == UndoAction.RESTORE_VALUE:
                    raise BTreeError(
                        f"compensation target {key!r} disappeared")
                else:
                    # Undo a delete whose ghost was reclaimed: re-insert.
                    fits = node.room_for(key, undo.value)
                    if fits:
                        dirty = clr(txn, page, index_id,
                                    node.op_insert(i, key, undo.value), undo_next_lsn)
                if fits:
                    self._btree_compensations.inc()
                    return
            finally:
                self.ctx.pool.unfix(pid, dirty)
            self._split(pid)

    # ------------------------------------------------------------------
    # Structural maintenance (system transactions)
    # ------------------------------------------------------------------
    def _split(self, page_id: int) -> None:
        """Split a node: the upper half becomes its foster child."""
        sys_txn = self.tm.begin(system=True)
        page = self.ctx.pool.fix(page_id)
        dirty = None
        try:
            node = BTreeNode(page)
            n = node.nrecs
            if n < 2:
                raise BTreeError(
                    f"page {page_id} cannot split with {n} records")
            mid = n // 2
            if node.is_leaf:
                separator = shortest_separator(node.full_key(mid - 1),
                                               node.full_key(mid))
            else:
                # Branch separators must equal a child's low boundary.
                separator = node.full_key(mid)
            foster_page = self.ctx.allocate_page(
                sys_txn,
                PageType.BTREE_LEAF if node.is_leaf else PageType.BTREE_BRANCH,
                self.index_id)
            try:
                # One record per page, however many rows move: the
                # foster child's bookkeeping and the upper half, which
                # the split logs once — the removal from this node
                # names only its slot range — then the removal and the
                # chain's link: this node becomes the foster parent,
                # keeping the chain-high fence (Figure 3).
                high_key = b"" if node.high_inf else node.high_fence
                self._log(sys_txn, foster_page, sequence(
                    BTreeNode.ops_initialize(
                        node.level, separator, high_key, node.high_inf,
                        node.foster_key if node.has_foster else b"",
                        node.foster_pid if node.has_foster else NO_FOSTER,
                        islice(node.rows(mid), n - mid))))
                dirty = self._log(sys_txn, page, sequence(
                    (node.op_bulk_delete(mid, n),
                     *node.ops_set_foster(separator, foster_page.page_id))))
            finally:
                self.ctx.pool.unfix(foster_page.page_id)
            self.tm.commit(sys_txn)
            self._btree_splits.inc()
        except BaseException:
            if sys_txn.active:
                self.tm.commit(sys_txn)  # contents-neutral; safe to keep
            raise
        finally:
            self.ctx.pool.unfix(page_id, dirty)

    def _adopt(self, parent_pid: int, child_pid: int) -> bool:
        """Move the child's foster child up into the permanent parent.

        Returns False, having changed nothing, when the parent lacks
        room for the separator (the caller splits the parent instead).
        """
        parent_page, parent = self._fix_node(parent_pid)
        try:
            child_page, child = self._fix_node(child_pid)
        except BaseException:
            self.ctx.pool.unfix(parent_pid)
            raise
        parent_dirty = child_dirty = None
        try:
            separator = child.foster_key
            if not parent.room_for_branch_record(separator):
                return False
            i, found = parent.find(separator)
            if found:
                raise BTreeError(f"separator {separator!r} already in parent")
            # Every op is built and sized before the first is logged: an
            # op that failed to apply after its record was appended
            # would leave a record redo cannot replay.
            child_op = sequence(child.ops_end_chain(separator))
            sys_txn = self.tm.begin(system=True)
            parent_dirty = self._log(sys_txn, parent_page, parent.op_insert(
                i, separator, encode_pid(child.foster_pid)))
            child_dirty = self._log(sys_txn, child_page, child_op)
            self.tm.commit(sys_txn)
            self._btree_adoptions.inc()
            return True
        finally:
            self.ctx.pool.unfix(child_pid, child_dirty)
            self.ctx.pool.unfix(parent_pid, parent_dirty)

    def _grow_root(self, old_root_pid: int) -> None:
        """The root has a foster child: grow the tree by one level."""
        old_root_page = self.ctx.pool.fix(old_root_pid)
        dirty = None
        try:
            old_root = BTreeNode(old_root_page)
            separator = old_root.foster_key
            foster_pid = old_root.foster_pid
            # One record per page: the new root's bookkeeping and its two
            # children, then the old root's end of chain — built and
            # sized, as an adoption's, before anything is logged.
            old_root_op = sequence(old_root.ops_end_chain(separator))
            sys_txn = self.tm.begin(system=True)
            new_root_page = self.ctx.allocate_page(
                sys_txn, PageType.BTREE_BRANCH, self.index_id)
            try:
                self._log(sys_txn, new_root_page, sequence(
                    BTreeNode.ops_new_root(old_root.level + 1, old_root_pid,
                                           separator, foster_pid)))
                dirty = self._log(sys_txn, old_root_page, old_root_op)
                self.ctx.set_root(sys_txn, self.index_id, new_root_page.page_id)
            finally:
                self.ctx.pool.unfix(new_root_page.page_id)
            self.tm.commit(sys_txn)
            self._btree_root_growths.inc()
        finally:
            self.ctx.pool.unfix(old_root_pid, dirty)

    def remove_ghosts(self, page_id: int) -> int:
        """Physically remove ghost records from a leaf (system txn).

        Contents-neutral space reclamation (Section 5.1.5).  Returns
        the number of ghosts removed.
        """
        sys_txn = self.tm.begin(system=True)
        page = self.ctx.pool.fix(page_id)
        removed = 0
        dirty = None
        try:
            node = BTreeNode(page)
            if not node.is_leaf:
                raise BTreeError("ghost removal applies to leaves")
            j = 0
            while j < node.nrecs:
                if node.is_ghost(j):
                    dirty = self._log(sys_txn, page, node.op_delete(j), dirty)
                    removed += 1
                else:
                    j += 1
            self.tm.commit(sys_txn)
            if removed:
                self._btree_ghosts_removed.inc(removed)
            return removed
        finally:
            self.ctx.pool.unfix(page_id, dirty)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Number of levels (1 = a single leaf)."""
        pid = self.ctx.catalog.get_root(self.index_id)
        page, node = self._fix_node(pid)
        levels = node.level + 1
        self.ctx.pool.unfix(pid)
        return levels

    def count(self) -> int:
        """Number of live (non-ghost) records."""
        return sum(1 for _ in self.range_scan())
