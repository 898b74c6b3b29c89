"""The descent's bookkeeping: what one root-to-leaf pass costs, that its
inline fence check is the diagnosing one, and that pins always balance.

* a warm three-level ``lookup`` is exactly three ``BufferPool.fix`` calls
  (the parent's pin handed back inside the child's), one ``unfix`` and
  one ``BTreeNode`` — every hop still goes through the pool;
* the loop's inline compare sends a hop to :meth:`FosterBTree._verify`
  exactly when :meth:`FosterBTree._fence_mismatch` has something to say
  (hypothesis, branch and foster hops);
* a rule-based machine over a 12-frame pool — every client op kind,
  cold-page faults and a forged resident fence in between: after every
  step no page is pinned, the tree verifies and answers match a dict.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro
from repro.btree import tree as tree_module
from repro.btree.node import FLAG_HIGH_INF, NO_FOSTER, BTreeNode, NodeView
from repro.btree.tree import FosterBTree
from repro.btree.verify import verify_tree
from repro.buffer.buffer_pool import BufferPool
from repro.engine.database import Database
from repro.errors import BTreeError
from repro.page.page import Page, PageType
from repro.sim.stats import Stats
from tests.conftest import assert_no_pins, fast_config, key_of


# ----------------------------------------------------------------------
# What a warm lookup costs
# ----------------------------------------------------------------------
def test_warm_lookup_is_three_fixes_one_unfix_one_node(monkeypatch):
    db = Database(fast_config(page_size=512, buffer_capacity=256))
    client = repro.connect(db)
    client.apply_batch([("put", key_of(i), b"v%d" % i) for i in range(400)])
    tree = db.tree(client.index_id)
    assert tree.depth() == 3
    key = key_of(123)
    assert tree.lookup(key) == b"v123"  # every view on the path is built
    calls = {"fix": [], "unfix": [], "node": 0}
    fix, unfix = BufferPool.fix, BufferPool.unfix

    def counted_fix(pool, page_id, release=None):
        calls["fix"].append((page_id, release))
        return fix(pool, page_id, release)

    def counted_unfix(pool, page_id, dirty_lsn=None):
        calls["unfix"].append(page_id)
        return unfix(pool, page_id, dirty_lsn)

    class CountedNode(BTreeNode):
        __slots__ = ()

        def __init__(self, page):
            calls["node"] += 1
            super().__init__(page)

    monkeypatch.setattr(BufferPool, "fix", counted_fix)
    monkeypatch.setattr(BufferPool, "unfix", counted_unfix)
    monkeypatch.setattr(tree_module, "BTreeNode", CountedNode)
    before = db.stats.snapshot()
    assert tree.lookup(key) == b"v123"
    (root, none), (inner, from_root), (leaf, from_inner) = calls["fix"]
    assert (none, from_root, from_inner) == (None, root, inner)
    assert calls["unfix"] == [leaf]
    assert calls["node"] == 1
    assert db.stats.delta(before) == {
        "buffer_hits": 3, "btree_hops_verified": 2, "btree_lookups": 1}
    assert_no_pins(db)


# ----------------------------------------------------------------------
# The inline compare is _fence_mismatch's boolean
# ----------------------------------------------------------------------
def page_with(view: NodeView, page_id: int) -> Page:
    page = Page.format(512, page_id, PageType.BTREE_LEAF)
    page.view = view
    return page


def make_view(level, low, high, flags, foster_pid=NO_FOSTER, foster_key=b"",
              keys=None, pids=None) -> NodeView:
    view = NodeView()
    view.level, view.flags, view.prefix = level, flags, b""
    view.low_fence, view.high_fence = low, high
    view.foster_pid, view.foster_key = foster_pid, foster_key
    view.keys, view.pids, view.searched = keys, pids, False
    return view


class Repaired(Exception):
    """The stub engine was asked to repair a page."""


class StubPool:
    """Pages by id, no frames: ``fix`` hands the page out."""

    def __init__(self, pages: dict[int, Page]) -> None:
        self.pages = pages

    def fix(self, page_id: int, release: int | None = None) -> Page:
        return self.pages[page_id]

    def unfix(self, page_id: int, dirty_lsn: int | None = None) -> None:
        pass


class StubCatalog:
    """Every index's root is page 1."""

    roots: dict[int, int] = {}

    def get_root(self, index_id: int) -> int:
        return 1


class StubContext:
    """A stub pool and catalogue, and a repair that only reports."""

    def __init__(self, pages: dict[int, Page]) -> None:
        self.pool = StubPool(pages)
        self.catalog = StubCatalog()

    def handle_invariant_failure(self, failure):
        raise Repaired(failure.page_id)


fences = st.sampled_from([b"", b"g", b"m", b"t"])


@settings(max_examples=300, deadline=None)
@given(hop=st.sampled_from(["branch", "last_branch", "foster"]),
       root_inf=st.booleans(), level=st.integers(0, 2), low=fences,
       high=fences, inf=st.booleans())
def test_inline_compare_is_the_boolean_of_fence_mismatch(
        hop, root_inf, level, low, high, inf):
    """The root is the parent of a generated child: reached through its
    first pointer (both neighbours are separators), its last (the high
    side is the root's own fence or ``+inf``) or its foster pointer."""
    if hop == "foster":
        root = make_view(1, b"", b"t", int(root_inf), foster_pid=2,
                         foster_key=b"m")
        key, expected = b"p", (b"m", b"t", root_inf, 1)
    else:
        root = make_view(1, b"", b"t", int(root_inf),
                         keys=[b"", b"m"], pids=[2, 3])
        if hop == "branch":
            key, expected = b"c", (b"", b"m", False, 0)
        else:
            key, expected = b"p", (b"m", b"t", root_inf, 0)
    child = page_with(make_view(level, low, high, FLAG_HIGH_INF * inf,
                                keys=[], pids=[]), 2)
    pages = {1: page_with(root, 1), 2: child, 3: child}
    tree = FosterBTree(1, StubContext(pages), tm=None, stats=Stats())
    slow = []
    verify = tree._verify
    tree._verify = lambda *args: slow.append(args) or verify(*args)
    problem = FosterBTree._fence_mismatch(BTreeNode(child), *expected)
    if problem is None:
        if level:
            with pytest.raises(BTreeError):  # the child routes nothing
                tree._descend(key, for_write=False)
        else:
            page, _node, _pid = tree._descend(key, for_write=False)
            assert page is child
        assert not slow
        assert tree.stats.get("btree_hops_verified") == 1
    else:
        with pytest.raises(Repaired):
            tree._descend(key, for_write=False)
        assert len(slow) == 1 and slow[0][1:] == expected
        assert tree.stats.get("btree_hops_verified") == 0
        assert tree.stats.get("btree_invariant_failures") == 1


# ----------------------------------------------------------------------
# Pins balance, always
# ----------------------------------------------------------------------
class _Rollback(Exception):
    pass


class PinsBalance(RuleBasedStateMachine):
    """Every kind of client op over a pool far smaller than the tree,
    with the faults the read path repairs in between."""

    numbers = st.integers(0, 599)

    def __init__(self) -> None:
        super().__init__()
        self.db = db = Database(fast_config(page_size=512, capacity_pages=2048,
                                            buffer_capacity=12))
        self.client = client = repro.connect(db)
        self.model = {key_of(2 * i): b"v%d" % i for i in range(300)}
        client.apply_batch([("put", k, v) for k, v in self.model.items()])
        self.tree = db.tree(client.index_id)
        assert self.tree.depth() == 3

    def value(self, n: int, size: int) -> bytes:
        return bytes([65 + n % 26]) * size

    def leaf_of(self, n: int) -> int:
        page, _node, _pid = self.tree._descend(key_of(n), for_write=False)
        self.db.pool.unfix(page.page_id)
        return page.page_id

    @rule(n=numbers)
    def get(self, n: int) -> None:
        assert self.client.get(key_of(n)) == self.model.get(key_of(n))

    @rule(n=numbers, size=st.sampled_from([3, 3, 20, 45]))
    def put(self, n: int, size: int) -> None:
        """Same size, growing and shrinking; absent keys insert."""
        self.client.put(key_of(n), self.value(n, size))
        self.model[key_of(n)] = self.value(n, size)

    @rule(n=numbers)
    def delete(self, n: int) -> None:
        assert self.client.delete(key_of(n)) == (key_of(n) in self.model)
        self.model.pop(key_of(n), None)

    @rule(n=numbers, span=st.integers(1, 60))
    def scan(self, n: int, span: int) -> None:
        low, high = key_of(n), key_of(n + span)
        assert self.client.scan(low, high) == sorted(
            (k, v) for k, v in self.model.items() if low <= k < high)

    @rule(a=numbers, b=numbers, abort=st.booleans())
    def txn(self, a: int, b: int, abort: bool) -> None:
        writes = {key_of(a): self.value(a, 30), key_of(b): self.value(b, 8)}
        try:
            with self.client.txn() as txn:
                for key, value in writes.items():
                    txn.put(key, value)
                if abort:
                    raise _Rollback
        except _Rollback:
            return
        self.model.update(writes)

    @rule(n=numbers, fault=st.sampled_from(
        ["inject_bit_rot", "inject_read_error", "inject_lost_write"]))
    def fault_on_a_cold_page(self, n: int, fault: str) -> None:
        pid = self.leaf_of(n)
        self.db.pool.flush_page(pid)
        self.db.pool.evict(pid)
        getattr(self.db.device, fault)(pid)

    @rule(n=numbers, op=st.sampled_from(["get", "put", "delete", "scan"]))
    def forge_a_resident_fence(self, n: int, op: str) -> None:
        """The next op through that hop detects and repairs it."""
        pid = self.leaf_of(n)
        self.db.pool.page_if_resident(pid).view.low_fence = b"forged"
        detected = self.db.stats.get("btree_invariant_failures")
        if op == "put":
            self.put(n, 20)
        elif op == "scan":
            self.scan(n, 5)
        else:
            getattr(self, op)(n)
        assert self.db.stats.get("btree_invariant_failures") == detected + 1

    @invariant()
    def nothing_pinned_and_tree_sound(self) -> None:
        assert_no_pins(self.db)
        report = verify_tree(self.tree)
        assert report.ok, report.problems
        assert_no_pins(self.db)  # the audit's own descents included

    def teardown(self) -> None:
        assert dict(self.tree.range_scan()) == self.model
        assert self.db.stats.get("escalations_to_media") == 0


TestPinsBalance = PinsBalance.TestCase
TestPinsBalance.settings = settings(
    max_examples=12, stateful_step_count=20, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
