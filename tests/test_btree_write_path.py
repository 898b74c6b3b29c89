"""The single write path and the decoded key directory.

* a growing value on a full leaf splits instead of poisoning the log
  (regression: the UPDATE record used to be appended before
  ``SlottedPage.update_value`` raised ``PageFullError``);
* ``upsert``/``remove`` are byte-for-byte the ``lookup`` +
  ``insert|update|delete`` sequence they replaced — same log records,
  same page images;
* a cached key directory — branch or leaf — never disagrees with the
  page's bytes, whatever mutated them, and a mutator that refuses
  (``PageFullError``) leaves it alone;
* a warm directory in the parent does not weaken the fence check on
  the child, and a warm leaf does not outlive its bytes;
* the leaf write reads its slot once: ``SlottedPage.probe_value`` agrees
  with the three accessors it replaced, and the ``update_value`` with a
  same-length fast path leaves the page bytes the parent commit's
  implementation (kept below as the reference) leaves — redo and the
  forward path are that one method;
* an update's before-image, logged once, still rolls the update back
  after the record went through encode -> decode;
* a spanned rewrite (only the changed middle logged) — rolled back,
  after a split, across a crash in either restart mode, repaired from
  a backup older than it, applied on a standby — leaves the key and its
  leaf bytes where the whole-value rewrite leaves them, and a spliced
  redo whose span does not hold its old middle writes nothing.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

import repro
from repro.btree.node import DATA_START, BTreeNode, encode_pid
from repro.btree.verify import VerificationReport, verify_node, verify_tree
from repro.engine.database import Database
from repro.core.single_page import replay_records
from repro.errors import BTreeError, DuplicateKey, KeyNotFound, RecoveryError
from repro.page.page import Page, PageType
from repro.page.slotted import PageFullError, Record, SlottedPage
from repro.wal.ops import value_rewrite
from repro.wal.records import LogRecord, LogRecordKind, UndoAction
from tests.conftest import device_images, fast_config


def small_page_db(**overrides) -> Database:  # noqa: ANN003
    """1 KiB pages: a few hundred keys already give three levels."""
    config = dict(page_size=1024, capacity_pages=4096, buffer_capacity=1024)
    config.update(overrides)
    return Database(fast_config(**config))


def key_of(i: int) -> bytes:
    return b"user/%06d" % i


# ----------------------------------------------------------------------
# Growing values
# ----------------------------------------------------------------------
class TestGrowingValues:
    def test_growing_put_survives_crash_and_restart(self):
        client = repro.connect(fast_config())
        keys = [b"k%05d" % i for i in range(400)]
        for key in keys:
            client.put(key, b"a" * 100)
        for key in keys:
            client.put(key, b"b" * 400)
        client.put(b"one-more", b"x")
        db = client.db
        db.crash()
        db.restart()
        for key in keys:
            assert client.get(key) == b"b" * 400
        assert client.get(b"one-more") == b"x"
        assert verify_tree(db.tree(client.index_id)).ok

    def test_growing_ghost_revival_splits(self):
        db = small_page_db()
        tree = db.create_index()
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, key_of(i), b"s")
        for i in range(40):
            tree.delete(txn, key_of(i))
        db.commit(txn)
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, key_of(i), b"L" * 100)  # revives, 100x larger
        db.commit(txn)
        db.crash()
        db.restart()
        tree = db.tree(tree.index_id)
        assert dict(tree.range_scan()) == {key_of(i): b"L" * 100
                                           for i in range(40)}

    def test_abort_grows_a_shrunk_value_back_on_a_full_leaf(self):
        db = small_page_db()
        tree = db.create_index()
        txn = db.begin()
        tree.insert(txn, b"m", b"B" * 100)
        db.commit(txn)
        loser = db.begin()
        tree.update(loser, b"m", b"s")
        # Fill the leaf until the old value no longer fits; undoing
        # these inserts only ghosts them, so the space stays taken when
        # "m" has to grow back.
        def old_value_fits() -> bool:
            page, node = tree._descend(b"m", for_write=False)
            fits = node.room_for_value(node.find(b"m")[0], b"B" * 100)
            db.unfix(page.page_id)
            return fits

        filler = 0
        while old_value_fits():
            tree.insert(loser, b"m%04d" % filler, b"f" * 20)
            filler += 1
        assert db.stats.get("btree_splits") == 0
        db.abort(loser)
        assert db.stats.get("btree_splits") == 1
        assert tree.lookup(b"m") == b"B" * 100
        assert tree.count() == 1
        assert verify_tree(tree).ok
        db.crash()
        db.restart()
        assert dict(db.tree(tree.index_id).range_scan()) == {b"m": b"B" * 100}


# ----------------------------------------------------------------------
# Contracts of the five entry points
# ----------------------------------------------------------------------
def test_entry_point_contracts():
    db = small_page_db()
    tree = db.create_index()
    txn = db.begin()
    with pytest.raises(KeyNotFound):
        tree.update(txn, b"a", b"1")
    with pytest.raises(KeyNotFound):
        tree.delete(txn, b"a")
    assert tree.remove(txn, b"a") is False
    tree.upsert(txn, b"a", b"1")
    with pytest.raises(DuplicateKey):
        tree.insert(txn, b"a", b"2")
    tree.upsert(txn, b"a", b"2")
    assert tree.lookup(b"a") == b"2"
    assert tree.remove(txn, b"a") is True
    assert tree.remove(txn, b"a") is False
    tree.upsert(txn, b"a", b"3")  # revives the ghost
    db.commit(txn)
    assert tree.lookup(b"a") == b"3"
    stats = db.stats
    assert (stats.get("btree_inserts"), stats.get("btree_updates"),
            stats.get("btree_deletes")) == (2, 1, 1)


# ----------------------------------------------------------------------
# (a) upsert/remove against the lookup-then-write sequence
# ----------------------------------------------------------------------
def _apply_single(tree, txn, op, key, value) -> None:  # noqa: ANN001
    if op == "put":
        tree.upsert(txn, key, value)
    else:
        tree.remove(txn, key)


def _apply_reference(tree, txn, op, key, value) -> None:  # noqa: ANN001
    try:
        tree.lookup(key)
        present = True
    except KeyNotFound:
        present = False
    if op == "put":
        (tree.update if present else tree.insert)(txn, key, value)
    elif present:
        tree.delete(txn, key)


def _run_intents(apply, intents) -> Database:  # noqa: ANN001
    db = small_page_db()
    tree = db.create_index()
    txn = None
    for n, (op, key_no, size) in enumerate(intents):
        if txn is None:
            txn = db.begin()
        apply(tree, txn, op, key_of(key_no), bytes([65 + n % 26]) * size)
        if n % 7 == 6:
            # Every third transaction rolls back, so compensation runs
            # through both write paths too.
            (db.abort if n % 21 == 20 else db.commit)(txn)
            txn = None
    if txn is not None:
        db.commit(txn)
    return db


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(["put", "put", "put", "delete"]),
                          st.integers(0, 80), st.integers(0, 110)),
                min_size=1, max_size=250))
def test_upsert_remove_log_and_pages_identical_to_lookup_then_write(intents):
    single = _run_intents(_apply_single, intents)
    reference = _run_intents(_apply_reference, intents)
    assert ([r.encode() for r in single.log.all_records()]
            == [r.encode() for r in reference.log.all_records()])
    assert device_images(single) == device_images(reference)


# ----------------------------------------------------------------------
# (b) directory coherence
# ----------------------------------------------------------------------
def raw_find(node: BTreeNode, key: bytes) -> tuple[int, bool]:
    """``BTreeNode.find`` in the raw bytes, whatever the view holds: the
    reference the directory's answers are compared against."""
    target = key[len(node.prefix):]
    slotted = node.slotted
    slot = slotted.key_bisect_left(target, DATA_START)
    return slot - DATA_START, (slot < slotted.slot_count
                               and slotted.record_key(slot) == target)


def raw_child_index(node: BTreeNode, key: bytes) -> int:
    """``BTreeNode.branch_child_index`` in the raw bytes."""
    index, found = raw_find(node, key)
    return index if found else index - 1


def assert_directories_coherent(db: Database, tree, keys) -> None:  # noqa: ANN001
    """On every hop towards every key, and in the leaf it ends at, the
    (possibly cached) directory answers exactly what the page's raw
    bytes answer; a directory left warm by an earlier call and missed
    or mis-spliced by a mutator's report fails here.  Searching each
    leaf twice leaves its directory warm for the mutations that follow."""
    for key in keys:
        pid = db.get_root(tree.index_id)
        while True:
            page = db.fix(pid)
            try:
                node = BTreeNode(page)
                if node.has_foster and key >= node.foster_key:
                    next_pid = node.foster_pid
                elif node.is_leaf:
                    assert node.find(key) == node.find(key) == raw_find(node, key)
                    assert page.view.keys is not None
                    break
                else:
                    i = raw_child_index(node, key)
                    next_pid = node.child_pid(i)
                    assert node.route(key) == (next_pid,
                                               *node.child_boundaries(i))
                    assert node.find(key) == raw_find(node, key)
            finally:
                db.unfix(pid)
            pid = next_pid
    report = verify_tree(tree)
    assert report.ok, report.problems


def _branches(db: Database, tree) -> dict[int, bytes]:  # noqa: ANN001
    """pid -> truncation prefix of every branch page."""
    out, todo = {}, [db.get_root(tree.index_id)]
    while todo:
        pid = todo.pop()
        node = BTreeNode(db.fix(pid))
        if not node.is_leaf:
            out[pid] = node.prefix
            todo.extend(node.child_pid(i) for i in range(node.nrecs))
        if node.has_foster:
            todo.append(node.foster_pid)
        db.unfix(pid)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_directory_coherent_across_every_mutation(seed: int) -> None:
    rng = random.Random(seed)
    db = small_page_db(restart_mode="on_demand")
    tree = db.create_index()
    universe = list(range(3000))
    rng.shuffle(universe)
    probes = [key_of(i) for i in range(0, 3000, 37)]
    present: dict[bytes, bytes] = {}

    def check() -> None:
        assert_directories_coherent(db, tree, probes)
        assert dict(tree.range_scan()) == present

    # Inserts in random order: leaf and branch splits, adoptions (with
    # prefix re-encoding under the shared "user/" prefix), root growth.
    for start in range(0, 1500, 150):
        txn = db.begin()
        for i in universe[start:start + 150]:
            present[key_of(i)] = (b"v%d" % i).ljust(60, b".")
            tree.upsert(txn, key_of(i), present[key_of(i)])
        db.commit(txn)
        check()
    stats = db.stats
    assert stats.get("btree_root_growths") >= 2
    assert stats.get("btree_adoptions") > 100
    branches = _branches(db, tree)
    assert len(branches) > 3  # a branch level split, too
    assert any(branches.values())

    # Abort: a transaction's inserts, updates and deletes compensated.
    loser = db.begin()
    for i in universe[1500:1700]:
        tree.upsert(loser, key_of(i), b"loser" * 10)
    for n in range(100):
        tree.upsert(loser, key_of(universe[n]), b"loser")
        assert tree.remove(loser, key_of(universe[100 + n]))
    db.abort(loser)
    assert stats.get("btree_compensations") >= 400
    check()

    # Deletes, then physical ghost removal on every leaf of some probes.
    txn = db.begin()
    for i in universe[:300]:
        assert tree.remove(txn, key_of(i))
        del present[key_of(i)]
    db.commit(txn)
    for key in probes[::5]:
        page, _node = tree._descend(key, for_write=False)
        db.unfix(page.page_id)
        tree.remove_ghosts(page.page_id)
    assert stats.get("btree_ghosts_removed") > 0
    check()

    # Migration of branch pages and of a (warm) leaf: the parent's
    # child pid changes.
    page, _node = tree._descend(probes[3], for_write=False)
    db.unfix(page.page_id)
    for pid in [*list(_branches(db, tree))[:4], page.page_id]:
        tree.migrate_node(pid)
        check()

    # Crash with a loser in flight, on-demand restart.
    txn = db.begin()
    for i in universe[1700:1800]:
        tree.upsert(txn, key_of(i), b"lost")
    db.log.force()
    db.crash()
    db.restart()
    tree = db.tree(tree.index_id)
    # The loser's writes stay visible until its rollback is drained.
    assert_directories_coherent(db, tree, probes)
    db.finish_restart()
    check()

    # Single-page repair of a branch page other than the root, and of
    # a leaf whose directory was warm.
    db.take_full_backup()
    victim = next(pid for pid in _branches(db, tree)
                  if pid != db.get_root(tree.index_id))
    page, _node = tree._descend(probes[7], for_write=False)
    db.unfix(page.page_id)
    db.flush_everything()
    db.evict_everything()
    db.device.inject_bit_rot(victim)
    db.device.inject_bit_rot(page.page_id)
    check()
    assert stats.get("single_page_recoveries") >= 2


def _standalone_node(level: int, n: int = 12) -> BTreeNode:
    """A node page outside any engine: fences ``user/0000`` ..
    ``user/9999`` (so keys are stored without ``user/``), ``n`` records."""
    page = Page.format(1024, 7, PageType.BTREE_BRANCH if level
                       else PageType.BTREE_LEAF)
    SlottedPage(page).initialize()
    for op in BTreeNode.ops_initialize(level, b"user/0000", b"user/9999",
                                       high_inf=False):
        op.apply_redo(page)
    node = BTreeNode(page)
    for i in range(n):
        value = encode_pid(100 + i) if level else b"v" * (i + 1)
        node.op_insert(i, b"user/%04d" % (i * 500), value).apply_redo(page)
    return node


def _verify_alone(node: BTreeNode) -> list[str]:
    report = VerificationReport()
    verify_node(node, node.low_fence, node.high_fence, node.high_inf,
                node.level, report)
    return report.problems


@pytest.mark.parametrize("level", [0, 1])
def test_a_refused_mutation_leaves_the_directory_alone(level: int):
    """Regression: ``insert``, ``insert_run`` and ``update_value``
    reported the mutation before their ``PageFullError`` checks, so a
    refused call threw a valid directory away — and, once reports
    splice, would leave a phantom key or a wrong pid in it."""
    node = _standalone_node(level)
    page, slotted = node.page, node.slotted
    if level:
        node.route(b"user/2500")
    else:
        assert node.find(b"user/2500") == node.find(b"user/2500") == (5, True)
    view, keys, pids = page.view, page.view.keys, page.view.pids
    assert keys is not None and (pids is not None) == bool(level)
    snapshot = list(keys), pids and list(pids), bytes(page.data)
    huge = Record(b"2600", b"x" * page.size)
    for refused in (lambda: slotted.insert(DATA_START + 6, huge),
                    lambda: slotted.insert_run(
                        DATA_START + 6, [huge, Record(b"2700", b"")]),
                    lambda: slotted.update_value(DATA_START + 5, huge.value)):
        with pytest.raises(PageFullError):
            refused()
        assert page.view is view and view.keys is keys and view.pids is pids
        assert (keys, pids, bytes(page.data)) == snapshot
        assert _verify_alone(node) == []


class DirectoryDifferential(RuleBasedStateMachine):
    """One node page under the slot mutators the tree uses, its key
    directory kept warm: after every step ``find`` / ``route`` through
    the directory answer what the raw bytes answer — for present keys,
    absent keys, ghosts and both fences — and ``verify_node`` finds the
    directory equal to the records.  Mutators that move no key keep the
    identical list objects."""

    level = 0
    numbers = st.integers(min_value=0, max_value=9998)  # below the high fence

    def __init__(self) -> None:
        super().__init__()
        self.node = _standalone_node(self.level)
        self.warm()

    def warm(self) -> None:
        probe = self.node.low_fence
        self.node.find(probe)
        self.node.find(probe)
        if self.level:
            self.node.route(probe)
        assert self.node.page.view.keys is not None

    def apply(self, op, keeps_lists: bool = False) -> None:  # noqa: ANN001
        view = self.node.page.view
        keys, pids = view.keys, view.pids
        op.apply_redo(self.node.page)
        assert self.node.page.view is view and view.keys is keys
        assert view.pids is pids
        if keeps_lists:
            assert (keys, pids) == self.lists_before

    def value(self, n: int, size: int) -> bytes:
        return encode_pid(n) if self.level else bytes([65 + n % 26]) * size

    @rule(n=numbers, size=st.integers(0, 90), ghost=st.booleans())
    def insert(self, n: int, size: int, ghost: bool) -> None:
        node, key = self.node, b"user/%04d" % n
        i, found = raw_find(node, key)
        value = self.value(n, size)
        if found or (self.level and i == 0):
            return
        if not node.room_for(key, value):
            with pytest.raises(PageFullError):
                node.op_insert(i, key, value).apply_redo(node.page)
            return
        self.apply(node.op_insert(i, key, value, ghost and not self.level))

    @precondition(lambda self: self.node.nrecs > 2)
    @rule(data=st.data())
    def remove(self, data) -> None:  # noqa: ANN001
        i = data.draw(st.integers(1, self.node.nrecs - 1))
        self.apply(self.node.op_delete(i))

    @precondition(lambda self: self.node.nrecs > 3)
    @rule(data=st.data())
    def move_a_run_out_and_back(self, data) -> None:  # noqa: ANN001
        """A split's ``remove_run``; its undo's ``insert_run``."""
        node = self.node
        start = data.draw(st.integers(1, node.nrecs - 2))
        end = data.draw(st.integers(start + 1, node.nrecs))
        entries = node.record_entries(start, end)
        self.apply(node.op_bulk_delete(start, end))
        self.check()
        self.apply(node.op_bulk_insert(start, entries))

    @precondition(lambda self: self.node.nrecs > 0)
    @rule(data=st.data(), n=numbers,
          size=st.one_of(st.none(), st.integers(0, 300)))
    def rewrite(self, data, n: int, size: int | None) -> None:  # noqa: ANN001
        """Same length, shrinking, growing (relocation + ``compact``)."""
        node = self.node
        i = data.draw(st.integers(0, node.nrecs - 1))
        old = node.value(i)
        value = self.value(n, len(old) if size is None else size)
        if not node.room_for_value(i, value):
            with pytest.raises(PageFullError):
                node.op_update_value(i, value).apply_redo(node.page)
            return
        view = node.page.view
        self.lists_before = (
            list(view.keys),
            view.pids and [*view.pids[:i], n, *view.pids[i + 1:]])
        self.apply(node.op_update_value(i, value), keeps_lists=True)
        assert node.value(i) == value

    @precondition(lambda self: self.level == 0 and self.node.nrecs > 0)
    @rule(data=st.data())
    def toggle_ghost(self, data) -> None:  # noqa: ANN001
        node = self.node
        i = data.draw(st.integers(0, node.nrecs - 1))
        view = node.page.view
        self.lists_before = list(view.keys), None
        self.apply(node.op_set_ghost(i, not node.is_ghost(i)),
                   keeps_lists=True)

    @rule()
    def refetch(self) -> None:
        """Evict + refetch: a new ``Page`` starts without a view; its
        first search is raw, its second builds the directory."""
        self.node = node = BTreeNode(self.node.page.copy())
        assert node.page.view.keys is None
        probe = node.high_fence
        assert node.find(probe) == raw_find(node, probe)
        assert node.page.view.keys is None
        self.warm()

    @invariant()
    def check(self) -> None:
        node = self.node
        stored = node.keys(include_ghosts=True)
        probes = {node.low_fence, node.high_fence, b"user/0000\x00",
                  *stored, *(key + b"!" for key in stored)}
        for key in probes:
            assert node.find(key) == raw_find(node, key), key
            if self.level and key >= node.low_fence:
                i = raw_child_index(node, key)
                assert node.route(key) == (node.child_pid(i),
                                           *node.child_boundaries(i)), key
        if self.level:
            with pytest.raises(BTreeError):
                node.route(b"user/")   # below the first child
        with pytest.raises(BTreeError):
            node.find(b"other")        # outside the node's prefix
        assert _verify_alone(node) == []


class BranchDirectoryDifferential(DirectoryDifferential):
    level = 1


_stateful = settings(max_examples=25, stateful_step_count=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
TestLeafDirectoryDifferential = DirectoryDifferential.TestCase
TestLeafDirectoryDifferential.settings = _stateful
TestBranchDirectoryDifferential = BranchDirectoryDifferential.TestCase
TestBranchDirectoryDifferential.settings = _stateful


# ----------------------------------------------------------------------
# (c) detection with a warm directory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault", ["forged_fence", "bit_rot", "lost_write"])
def test_warm_directory_still_detects_a_forged_child_fence(fault: str):
    """Warm directories all the way down, then damage on the device: a
    branch's forged fence is caught by the parent's adjacent keys, a
    leaf's bit rot or lost write by the fetch — the refetched ``Page``
    starts without a view, so nothing decoded from the old bytes
    answers for the new ones."""
    db = small_page_db()
    tree = db.create_index()
    txn = db.begin()
    for i in range(1200):
        tree.insert(txn, key_of(i), (b"v%d" % i).ljust(60, b"."))
    db.commit(txn)
    db.flush_everything()
    db.take_full_backup()
    depth = tree.depth()
    assert depth >= 3
    target, expected = key_of(300), b"v300".ljust(60, b".")

    def hops_for_one_lookup() -> int:
        before = db.stats.get("btree_hops_verified")
        assert tree.lookup(target) == expected
        return db.stats.get("btree_hops_verified") - before

    hops = hops_for_one_lookup()   # warms every branch directory on the path
    assert hops >= depth - 1
    assert hops_for_one_lookup() == hops  # and, searched twice, the leaf's
    root = BTreeNode(db.fix(db.get_root(tree.index_id)))
    assert root.page.view.keys is not None
    db.unfix(root.page.page_id)
    leaf, _node = tree._descend(target, for_write=False)
    assert leaf.view.keys is not None
    db.unfix(leaf.page_id)

    if fault == "forged_fence":
        # Forge the child's low fence on the device with a valid
        # checksum: only the comparison with the parent's adjacent key
        # can see it.
        victim = root.route(target)[0]
        db.pool.evict(victim)
        forged = Page(db.config.page_size, db.device.read(victim))
        slotted = SlottedPage(forged)
        meta = slotted.read_record(0)
        slotted.remove(0)
        slotted.insert(0, Record(b"forged-fence", meta.value, meta.ghost))
        forged.seal()
        db.device.write(victim, forged.data)
    elif fault == "bit_rot":
        victim = leaf.page_id
        db.pool.evict(victim)
        db.device.inject_bit_rot(victim)
    else:
        victim = leaf.page_id
        db.device.inject_lost_write(victim)
        expected = b"fresh".ljust(60, b".")
        with db.autocommit() as txn:
            tree.update(txn, target, expected)
        assert leaf.view.keys is not None  # the rewrite kept it warm
        db.flush_everything()
        db.pool.evict(victim)

    failures = db.stats.get("btree_invariant_failures")
    repairs = db.stats.get("single_page_recoveries")
    assert tree.lookup(target) == expected
    refetched = db.fix(leaf.page_id)
    assert (refetched is leaf) == (fault == "forged_fence")
    assert refetched is leaf or refetched.view.keys is None
    db.unfix(leaf.page_id)
    assert hops_for_one_lookup() == hops
    assert (db.stats.get("btree_invariant_failures")
            == failures + (fault == "forged_fence"))
    assert db.stats.get("single_page_recoveries") == repairs + 1
    assert verify_tree(tree).ok


@pytest.mark.parametrize("kind", ["branch", "leaf"])
def test_verify_tree_reports_a_stale_directory(kind: str):
    db = small_page_db()
    tree = db.create_index()
    txn = db.begin()
    for i in range(300):
        tree.insert(txn, key_of(i), b"v")
    db.commit(txn)
    tree.lookup(key_of(0))
    tree.lookup(key_of(0))  # the second search warms the leaf too
    assert verify_tree(tree).ok
    if kind == "branch":
        page = db.fix(db.get_root(tree.index_id))
        page.view.pids.reverse()
    else:
        page, _node = tree._descend(key_of(0), for_write=False)
        keys = page.view.keys
        keys[0], keys[1] = keys[1], keys[0]
    db.unfix(page.page_id)
    report = verify_tree(tree)
    assert [problem for problem in report.problems if "directory" in problem] \
        == [f"page {page.page_id}: cached key directory is stale"]


# ----------------------------------------------------------------------
# The leaf write reads its slot once
# ----------------------------------------------------------------------
def reference_update_value(slotted: SlottedPage, index: int,
                           value: bytes) -> None:
    """``SlottedPage.update_value`` as of the parent commit (no
    same-length case): the reference the fast one must match byte for
    byte."""
    if not 0 <= index < slotted.slot_count:
        raise IndexError(f"slot {index} out of range")
    slotted.page.invalidate_view(index)
    data = slotted.page.data
    offset, length, ghost = slotted._read_slot(index)
    key_end = offset + 2 + int.from_bytes(data[offset:offset + 2], "little")
    needed = key_end - offset + len(value)
    if needed <= length:
        data[key_end:key_end + len(value)] = value
        slotted._write_slot(index, offset, needed, ghost)
        slotted._set_frag_bytes(slotted.frag_bytes + (length - needed))
        return
    if not slotted.room_for_value(index, value):
        raise PageFullError(f"cannot grow record to {needed} bytes")
    new = Record(bytes(data[offset + 2:key_end]), value, ghost)
    slotted._set_frag_bytes(slotted.frag_bytes + length)
    slotted._write_slot(index, 0, 0, ghost)
    if slotted.free_space < needed:
        slotted.compact()
    new_offset = slotted._append_to_heap(new)
    slotted._write_slot(index, new_offset, needed, ghost)


@st.composite
def fragmented_pages(draw):
    """A 1 KiB slotted page with records of random sizes, some ghosts,
    and fragmentation from removals and shrinking rewrites; plus a slot
    to rewrite and the new value's length."""
    page = Page.format(1024, 7, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    sizes = draw(st.lists(st.integers(min_value=0, max_value=90),
                          min_size=2, max_size=9))
    for i, size in enumerate(sizes):
        record = Record(b"key%02d" % i, bytes([65 + i]) * size,
                        ghost=draw(st.booleans()))
        if slotted.room_for(record):
            slotted.insert(slotted.slot_count, record)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if slotted.slot_count > 2:
            slotted.remove(draw(st.integers(
                min_value=0, max_value=slotted.slot_count - 1)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        slot = draw(st.integers(min_value=0, max_value=slotted.slot_count - 1))
        old = slotted.read_record(slot).value
        slotted.update_value(slot, old[:len(old) // 2])
    slot = draw(st.integers(min_value=0, max_value=slotted.slot_count - 1))
    old_len = len(slotted.read_record(slot).value)
    new_len = draw(st.one_of(st.just(old_len),
                             st.integers(min_value=0, max_value=400)))
    return page, slot, new_len


@settings(max_examples=300, deadline=None)
@given(case=fragmented_pages())
def test_update_value_matches_the_reference_byte_for_byte(case):
    page, slot, new_len = case
    value = b"\xee" * new_len
    ours, reference = page.copy(), page.copy()
    fits = SlottedPage(page).room_for_value(slot, value)
    # The one-read probe agrees with the accessors it replaced.
    ghost, old, room = SlottedPage(page).probe_value(slot)
    record = SlottedPage(page).read_record(slot)
    assert (ghost, old) == (record.ghost, record.value)
    assert (new_len <= room) == fits
    if not fits:
        with pytest.raises(PageFullError):
            SlottedPage(ours).update_value(slot, value)
        with pytest.raises(PageFullError):
            reference_update_value(SlottedPage(reference), slot, value)
        return
    SlottedPage(ours).update_value(slot, value)
    reference_update_value(SlottedPage(reference), slot, value)
    assert bytes(ours.data) == bytes(reference.data)
    assert SlottedPage(ours).read_record(slot).value == value
    SlottedPage(ours).check_plausible()


def test_same_length_rewrite_touches_only_the_value_bytes():
    page = Page.format(1024, 7, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    slotted.insert(0, Record(b"a", b"1111"))
    slotted.insert(1, Record(b"b", b"2222", ghost=True))
    before = bytes(page.data)
    slotted.update_value(1, b"3333")
    changed = [i for i, (x, y) in enumerate(zip(before, page.data)) if x != y]
    assert len(changed) == 4 and changed == list(range(changed[0],
                                                       changed[0] + 4))
    assert slotted.read_record(1) == Record(b"b", b"3333", ghost=True)
    assert slotted.frag_bytes == 0
    with pytest.raises(IndexError):
        slotted.update_value(2, b"3333")


def test_a_rewrite_logs_its_before_image_once_and_reads_the_slot_once():
    db = Database(fast_config())
    tree = db.create_index()
    db.insert(tree, b"key", b"v" * 100)
    before = db.log.end_lsn
    with db.autocommit() as txn:
        tree.update(txn, b"key", b"w" * 100)
    (record,) = db.log.records_from(before)
    assert record.undo.value is record.op.old_value == b"v" * 100
    assert record.undo.action is UndoAction.RESTORE_VALUE
    # 21 header + 1 flags + 2 + op (7 + 100 + 100) + undo (1 + 2 + 3)
    assert record.encoded_size() == db.log.end_lsn - before == 237
    assert record.encoded_size() == len(record.encode())


def test_rollback_restores_a_shared_before_image_after_encode_decode():
    """Recovery reads records, not objects: swap the logged update for
    its decoded encoding (where undo and op share one decoded value)
    and roll back through it."""
    db = Database(fast_config())
    tree = db.create_index()
    db.insert(tree, b"key", b"old-value")
    txn = db.begin()
    db.update(tree, b"key", b"new-value", txn=txn)
    logged = db.log.record_at(txn.last_lsn)
    decoded = LogRecord.decode(logged.encode())
    decoded.lsn = logged.lsn
    assert decoded == logged and decoded is not logged
    assert decoded.undo.value is decoded.op.old_value
    for segment in db.log._dir._segments:
        if logged.lsn in segment.records:
            segment.records[logged.lsn] = decoded
    assert db.log.record_at(txn.last_lsn) is decoded
    db.abort(txn)
    assert tree.lookup(b"key") == b"old-value"
    assert db.tm.chain_summary(logged.lsn)[0] == {b"key"}
    # Physical undo of the same decoded op (the CLR path for records
    # without logical undo) sees the same before-image.
    page = db.fix(decoded.page_id)
    try:
        decoded.op.apply_redo(page)
        decoded.op.apply_undo(page)
        assert tree.lookup(b"key") == b"old-value"
    finally:
        db.unfix(decoded.page_id)


# ----------------------------------------------------------------------
# A rewrite logs what it changes: the spliced value update
# ----------------------------------------------------------------------
#: how the rewrite changes a 100-byte value: in its middle, by the
#: same number of bytes, more, fewer, or not at all
SPLICE_SHAPES = {
    "same_length": lambda old: old[:40] + b"0123456789" + old[50:],
    "growing": lambda old: old[:40] + b"0123456789abcdef" + old[50:],
    "shrinking": lambda old: old[:40] + b"0123" + old[50:],
    "identical": lambda old: old,
}
SPLICE_KEY = key_of(30)


def _splice_value(i: int) -> bytes:
    return bytes(33 + (i * 7 + j) % 90 for j in range(100))


def _masked_leaf(data: bytes | bytearray) -> bytes:
    """A page image without the fields that follow from LSNs."""
    image = bytearray(data)
    image[4:8] = bytes(4)
    image[16:24] = bytes(8)
    return bytes(image)


def _rewrite_scenario(scenario: str, shape: str) -> tuple[bytes, bytes, int]:
    """Rewrite SPLICE_KEY, then put it through ``scenario``; returns the
    value the key ends at, the masked bytes of the leaf holding it, and
    the size of the rewrite's UPDATE record."""
    db = small_page_db(buffer_capacity=64)
    tree = db.create_index()
    txn = db.begin()
    for i in range(60):
        tree.insert(txn, key_of(i), _splice_value(i))
    db.commit(txn)
    if scenario == "repair_from_older_backup":
        db.take_full_backup()
    standby = db.attach_standby() if scenario == "standby" else None
    new = SPLICE_SHAPES[shape](_splice_value(30))
    txn = db.begin()
    db.update(tree, SPLICE_KEY, new, txn=txn)
    record = db.log.record_at(txn.last_lsn)
    assert tree.lookup(SPLICE_KEY) == new
    if scenario.startswith("abort"):
        if scenario == "abort_after_split":
            splits = db.stats.get("btree_splits")
            other = db.begin()
            for j in range(12):  # beside the key: its leaf must split
                tree.insert(other, SPLICE_KEY + b"/%02d" % j, b"s" * 90)
            db.commit(other)
            assert db.stats.get("btree_splits") > splits
        db.abort(txn)
    elif scenario.startswith("crash"):
        db.log.force()  # the rewrite is durable, its commit never is
        db.crash()
        db.restart(mode=scenario.removeprefix("crash_"))
        db.drain_pending()
        tree = db.tree(tree.index_id)
    else:
        db.commit(txn)
    if scenario == "repair_from_older_backup":
        page, _node = tree._descend(SPLICE_KEY, for_write=False)
        victim = page.page_id
        db.unfix(victim)
        db.flush_everything()
        db.evict_everything()
        db.device.inject_bit_rot(victim)
        repairs = db.stats.get("single_page_recoveries")
        assert tree.lookup(SPLICE_KEY) == new
        assert db.stats.get("single_page_recoveries") == repairs + 1
        assert db.single_page.history[-1].records_applied >= 1
    value = tree.lookup(SPLICE_KEY)
    page, _node = tree._descend(SPLICE_KEY, for_write=False)
    leaf = _masked_leaf(page.data)
    db.unfix(page.page_id)
    if standby is not None:
        assert _masked_leaf(standby.pages[page.page_id].data) == leaf
    assert verify_tree(tree).ok
    return value, leaf, record.encoded_size()


@pytest.mark.parametrize("shape", sorted(SPLICE_SHAPES))
@pytest.mark.parametrize("scenario", [
    "abort", "abort_after_split", "crash_eager", "crash_on_demand",
    "repair_from_older_backup", "standby"])
def test_a_spliced_rewrite_recovers_like_the_full_value(scenario, shape,
                                                        monkeypatch):
    """Rolled back or redone from the log — after a split moved the
    key, after a crash, from a backup older than the rewrite, on a
    standby — a spanned rewrite leaves the key where the whole-value
    encoding leaves it, in the same leaf bytes, having logged less."""
    old = _splice_value(30)
    new = SPLICE_SHAPES[shape](old)
    value, leaf, spanned_size = _rewrite_scenario(scenario, shape)
    assert value == (old if scenario.startswith(("abort", "crash")) else new)
    # The same run with every rewrite logged whole.
    from repro.btree import node as node_module
    from repro.btree import tree as tree_module
    from repro.engine import catalog as catalog_module
    from repro.wal.ops import OpUpdateValue
    for module in (node_module, tree_module, catalog_module):
        monkeypatch.setattr(module, "value_rewrite", OpUpdateValue)
    full_value, full_leaf, full_size = _rewrite_scenario(scenario, shape)
    assert (full_value, full_leaf) == (value, leaf)
    assert spanned_size < full_size - 80


def test_a_spliced_redo_refuses_a_value_its_span_does_not_hold():
    """Replay checks the bytes a spliced redo replaces before it
    writes, and fails as a chain mismatch does."""
    page = Page.format(1024, 7, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    slotted.insert(0, Record(b"k", b"2019-03-04|the rest of the record"))
    page.page_lsn = 100
    op = value_rewrite(0, b"2011-01-01|the rest of the record",
                       b"2022-02-02|the rest of the record")
    assert (op.prefix, op.suffix) == (2, 23)
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=7,
                       page_prev_lsn=100, lsn=200, op=op)
    before = bytes(page.data)
    with pytest.raises(RecoveryError, match="does not hold"):
        replay_records(page, [record])
    assert bytes(page.data) == before
    # The span past the end of a shorter value is refused the same way.
    slotted.update_value(0, b"2011")
    before = bytes(page.data)
    with pytest.raises(RecoveryError):
        replay_records(page, [record])
    assert bytes(page.data) == before
