"""B-tree verification: in-node checks and whole-tree structural checks.

Two flavours, mirroring the paper's Section 4:

* :func:`verify_node` — everything checkable from one node plus the
  expectations propagated from its parent (the checks that run as a
  side effect of every root-to-leaf pass).  "The fence keys contain
  all information required for all structural verification of the
  B-tree."
* :func:`verify_tree` — an exhaustive offline pass: every seam, every
  foster chain, level consistency, and completeness of the key-space
  partition from -infinity to +infinity.  This is what a traditional
  offline utility (DBCC, db2dart, ...) would do; here it reads each
  node exactly once.

Verification failures are reported, not raised, so scrubbing can
enumerate all damage before recovery decides what to repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.btree.node import (SLOT_FOSTER, SLOT_HIGH, SLOT_LOW, BTreeNode,
                              decode_meta, decode_pid)
from repro.errors import BTreeError


@dataclass
class VerificationReport:
    """Outcome of a structural verification pass."""

    nodes_verified: int = 0
    records_verified: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def complain(self, page_id: int, message: str) -> None:
        self.problems.append(f"page {page_id}: {message}")


def verify_node(node: BTreeNode, exp_low: bytes, exp_high: bytes,
                exp_inf: bool, exp_level: int,
                report: VerificationReport) -> None:
    """All checks local to one node given parent expectations."""
    pid = node.page.page_id
    report.nodes_verified += 1
    # The decoded bookkeeping fields (sliced from the slot words) must
    # say what the three records say, read as ordinary records.
    slotted = node.slotted
    low, high, foster = (slotted.read_record(slot)
                         for slot in (SLOT_LOW, SLOT_HIGH, SLOT_FOSTER))
    view = node.view
    if ((view.level, view.flags, view.prefix) != decode_meta(low.value)
            or (view.low_fence, view.high_fence) != (low.key, high.key)
            or (view.foster_key, view.foster_pid)
            != (foster.key, decode_pid(foster.value))):
        report.complain(pid, "decoded bookkeeping fields disagree with "
                             "the bookkeeping records")
    if node.level != exp_level:
        report.complain(pid, f"level {node.level}, expected {exp_level}")
    if node.low_fence != exp_low:
        report.complain(pid, f"low fence {node.low_fence!r} != {exp_low!r}")
    if node.high_inf != exp_inf:
        report.complain(pid, f"high-inf {node.high_inf} != {exp_inf}")
    if not exp_inf and node.high_fence != exp_high:
        report.complain(pid, f"high fence {node.high_fence!r} != {exp_high!r}")
    if not node.high_inf and not node.low_fence <= node.high_fence:
        report.complain(pid, "fences out of order")
    # Keys sorted, unique, and within the fences.
    previous: bytes | None = None
    upper = node.foster_key if node.has_foster else node.high_fence
    upper_inf = node.high_inf and not node.has_foster
    raw_keys = []
    for i in range(node.nrecs):
        key = node.full_key(i)
        raw_keys.append(key)
        report.records_verified += 1
        if previous is not None and key <= previous:
            report.complain(pid, f"keys out of order at slot {i}")
        previous = key
        if key < node.low_fence:
            report.complain(pid, f"key {key!r} below low fence")
        if not upper_inf and key >= upper:
            bound = "foster key" if node.has_foster else "high fence"
            report.complain(pid, f"key {key!r} at/above {bound}")
    if not node.is_leaf and node.nrecs > 0 and raw_keys[0] != node.low_fence:
        report.complain(pid, f"first branch key {raw_keys[0]!r} != low fence")
    # A key directory cached on the page must say what the raw bytes say
    # (searches go by it without re-parsing them).
    if view.keys is not None:
        raw_pids = (None if node.is_leaf else
                    [node.child_pid(i) for i in range(node.nrecs)])
        if (view.keys, view.pids) != (raw_keys, raw_pids):
            report.complain(pid, "cached key directory is stale")
    if node.has_foster:
        fkey = node.foster_key
        if fkey < node.low_fence or (not node.high_inf and fkey > node.high_fence):
            report.complain(pid, f"foster key {fkey!r} outside fences")


def verify_tree(tree, report: VerificationReport | None = None) -> VerificationReport:  # noqa: ANN001
    """Exhaustive structural verification; reads each node once.

    ``tree`` is a :class:`~repro.btree.tree.FosterBTree`; the traversal
    uses its context's buffer pool for page access.
    """
    from repro.btree.tree import FosterBTree

    assert isinstance(tree, FosterBTree)
    report = report or VerificationReport()
    pool = tree.ctx.pool
    root_pid = tree.ctx.catalog.get_root(tree.index_id)

    def visit(pid: int, exp_low: bytes, exp_high: bytes, exp_inf: bool,
              exp_level: int) -> None:
        page = pool.fix(pid)
        try:
            try:
                node = BTreeNode(page)
            except BTreeError as exc:
                report.complain(pid, f"not a B-tree node: {exc}")
                return
            verify_node(node, exp_low, exp_high, exp_inf, exp_level, report)
            # Children: each child's expected fences are the adjacent
            # key values in this node (the seam invariant).
            if not node.is_leaf:
                for i in range(node.nrecs):
                    low, high, inf = node.child_boundaries(i)
                    visit(node.child_pid(i), low, high, inf, node.level - 1)
            # The foster chain: same level, low = foster key, high =
            # the chain high fence carried by this foster parent.
            if node.has_foster:
                low, high, inf = node.foster_boundaries()
                visit(node.foster_pid, low, high, inf, node.level)
        finally:
            pool.unfix(pid)

    visit(root_pid, b"", b"", True, _root_level(tree, root_pid))
    return report


def _root_level(tree, root_pid: int) -> int:  # noqa: ANN001
    page = tree.ctx.pool.fix(root_pid)
    try:
        try:
            return BTreeNode(page).level
        except BTreeError:
            return 0
    finally:
        tree.ctx.pool.unfix(root_pid)
