"""Splits and prefix extensions: cut by a crash, replayed elsewhere.

A split moves the upper half of a node into its new foster child; an
adoption that tightens a node's high fence may lengthen the prefix its
stored keys are truncated by.  Both are system transactions, which
commit without a force — but another transaction's force, a checkpoint
or a write-back can harden their records before their commit.  A crash
then leaves a loser that restart must undo:

* a split cut after its source's removal has hardened, and one cut just
  before its commit, and an adoption cut just before its commit, after
  its prefix extension has hardened, come back under eager and
  on-demand restart with every page of the tree holding what it held
  before (its bookkeeping and its rows; the heap layout and the header
  fields that follow from LSNs aside) and the key -> value map
  unchanged;
* the page images they come back as are pinned (checksum and PageLSN
  masked), so a change to what those records log must restore the same
  bytes, update counter included.

And replay elsewhere: a standby's pages and a single-page repair of a
page whose chain since its backup holds a split and a prefix extension
are the primary's, byte for byte — a page formatted since the standby's
seed too, as replaying a FORMAT_PAGE record resets the update counter
formatting resets.  A prefix extension's op leaves the bytes removing
and re-inserting the re-keyed rows left, and refuses a key without the
bytes it strips.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.btree.node import BTreeNode
from repro.core.single_page import replay_records
from repro.engine.database import Database
from repro.errors import RecoveryError
from repro.page.page import TYPE_OFFSET, Page, PageType
from repro.page.slotted import Record, SlottedPage, update_value
from repro.wal.ops import OpBulkDelete, OpExtendPrefix
from repro.wal.records import LogRecordKind
from tests.conftest import clone_crashed, fast_config
from tests.test_golden_logical_state import _MASKED, tree_pages


def _key(i: int) -> bytes:
    return b"k%05d" % i


def _value(i: int) -> bytes:
    return bytes([65 + i % 26]) * 40


def _loaded() -> tuple[Database, object]:
    """1 KiB pages holding keys 0, 3, 6 .. 297, committed and flushed:
    ten splits, eight adoptions, every one of them extending a prefix."""
    db = Database(fast_config(page_size=1024, capacity_pages=2048,
                              buffer_capacity=256))
    tree = db.create_index()
    _put(db, tree, range(0, 300, 3))
    db.flush_everything()
    return db, tree


def _put(db: Database, tree, keys) -> None:  # noqa: ANN001
    txn = db.begin()
    for i in keys:
        db.locks.acquire(txn.txn_id, _key(i))
        tree.upsert(txn, _key(i), _value(i))
    db.commit(txn)


def _holds(db: Database, tree) -> dict:  # noqa: ANN001
    """What every page of the tree holds: its bookkeeping and its rows."""
    held = {}
    for pid in tree_pages(db, tree.index_id):
        page = db.pool.fix(pid)
        try:
            node = BTreeNode(page)
            held[pid] = (node.level, node.low_fence, node.high_fence,
                         node.high_inf, node.foster_key, node.foster_pid,
                         node.prefix, list(node.rows()))
        finally:
            db.pool.unfix(pid)
    return held


def _images_sha256(db: Database, tree) -> str:  # noqa: ANN001
    """sha256 of the tree's device images, checksum and PageLSN masked."""
    db.flush_everything()
    digest = hashlib.sha256()
    for pid in tree_pages(db, tree.index_id):
        digest.update(pid.to_bytes(8, "little") + _masked(db.device.raw_image(pid)))
    return digest.hexdigest()


def _masked(data: bytes | bytearray) -> bytes:
    image = bytearray(data)
    for start, end in _MASKED:
        image[start:end] = bytes(end - start)
    return bytes(image)


class _Cut(Exception):
    """Raised where the crash cuts a system transaction."""


def _arm(db: Database, tree, monkeypatch, cut: str) -> dict:  # noqa: ANN001
    """Make the next split or prefix-extending adoption force the log at
    ``cut`` and raise :class:`_Cut` there, its commit not yet logged;
    the dict returned names its transaction as ``"txn"``."""
    state = {"in": None, "fired": False, "txn": None}
    split, extend = tree._split, tree._maybe_extend_prefix
    log_update, commit = db.tm.log_update, db.tm.commit

    def fire(txn) -> None:  # noqa: ANN001
        state["fired"], state["txn"] = True, txn.txn_id
        db.log.force()
        raise _Cut

    def in_split(page_id):  # noqa: ANN001, ANN202
        state["in"] = "split"
        try:
            return split(page_id)
        finally:
            state["in"] = None

    def extending(sys_txn, page, node):  # noqa: ANN001, ANN202
        prefix = node.prefix
        extend(sys_txn, page, node)
        if BTreeNode(page).prefix != prefix:
            state["in"] = "adoption"

    def logging(txn, page_id, page, index_id, op, undo=None):  # noqa: ANN001, ANN202
        lsn = log_update(txn, page_id, page, index_id, op, undo)
        if (cut == "split, after the removal" and not state["fired"]
                and state["in"] == "split" and isinstance(op, OpBulkDelete)):
            fire(txn)
        return lsn

    def committing(txn, *args, **kwargs):  # noqa: ANN001, ANN002, ANN003, ANN202
        if (txn.is_system and not state["fired"]
                and cut == f"{state['in']}, before the commit"):
            fire(txn)
        if state["in"] == "adoption":
            state["in"] = None
        return commit(txn, *args, **kwargs)

    monkeypatch.setattr(tree, "_split", in_split)
    monkeypatch.setattr(tree, "_maybe_extend_prefix", extending)
    monkeypatch.setattr(db.tm, "log_update", logging)
    monkeypatch.setattr(db.tm, "commit", committing)
    return state


#: cut -> sha256 of the tree's images after the loser is undone
PINNED = {
    "adoption, before the commit":
        "fc4293db7a531dd09f46146a672d991bb8df5802c82db9772a6d2d81b69ec758",
    "split, after the removal":
        "e2b7b47be771f98e87dd99fbe7c6cbcdb9aa703ebfa5f34ad8422f0c7c3a1e15",
    "split, before the commit":
        "cafcce76f4d402f5ec15194f3db1619ef5eaab723a4376739422a5566eca9fcd",
}


#: the puts of the tests: every key the preload does not hold
_PUTS = [i for i in range(300) if i % 3]


def _cut_put(cut: str, monkeypatch) -> int:  # noqa: ANN001
    """How many of :data:`_PUTS`, each committed on its own, go before
    the one that reaches ``cut``."""
    db, tree = _loaded()
    _arm(db, tree, monkeypatch, cut)
    for n, i in enumerate(_PUTS):
        try:
            _put(db, tree, [i])
        except _Cut:
            monkeypatch.undo()
            return n
    raise AssertionError(f"no put reached {cut!r}")


@pytest.mark.parametrize("cut", sorted(PINNED))
def test_a_cut_split_or_prefix_extension_is_undone_by_restart(cut,
                                                              monkeypatch):
    n = _cut_put(cut, monkeypatch)
    db, tree = _loaded()
    for i in _PUTS[:n]:
        _put(db, tree, [i])
    before, kv = _holds(db, tree), list(tree.range_scan())
    loser = _arm(db, tree, monkeypatch, cut)
    with pytest.raises(_Cut):
        _put(db, tree, [_PUTS[n]])
    db.crash()
    monkeypatch.undo()
    lazy = clone_crashed(db)
    assert loser["txn"] in db.restart("eager").loser_txn_ids
    lazy.restart("on_demand")
    lazy.drain_pending()
    digests = set()
    for restarted in (db, lazy):
        assert any(record.kind == LogRecordKind.COMPENSATION
                   and record.txn_id == loser["txn"]
                   for record in restarted.log.all_records())
        tree = restarted.tree(tree.index_id)
        assert list(tree.range_scan()) == kv
        assert _holds(restarted, tree) == before
        digests.add(_images_sha256(restarted, tree))
    assert digests == {PINNED[cut]}


def _structure_since_backup(db: Database, tree) -> list[int]:  # noqa: ANN001
    """Put every key the preload lacks, one transaction; returns the
    leaves that were there before and have since split and then
    extended their prefix in an adoption."""
    old = set(tree_pages(db, tree.index_id))
    split, extended = set(), set()
    real_split, real_extend = tree._split, tree._maybe_extend_prefix

    def in_split(page_id):  # noqa: ANN001, ANN202
        split.add(page_id)
        return real_split(page_id)

    def extending(sys_txn, page, node):  # noqa: ANN001, ANN202
        prefix = node.prefix
        real_extend(sys_txn, page, node)
        if BTreeNode(page).prefix != prefix and page.page_id in split:
            extended.add(page.page_id)

    tree._split, tree._maybe_extend_prefix = in_split, extending
    try:
        _put(db, tree, _PUTS)
    finally:
        del tree._split, tree._maybe_extend_prefix
    return sorted(extended & old)


def test_a_standby_replays_splits_and_prefix_extensions_to_the_same_pages():
    db, tree = _loaded()
    standby = db.attach_standby()
    assert _structure_since_backup(db, tree)
    db.log.force()
    assert standby.applied_lsn == db.log.durable_lsn
    for pid in tree_pages(db, tree.index_id):
        page = db.pool.fix(pid)
        try:
            assert _masked(page.data) == _masked(standby.pages[pid].data)
        finally:
            db.pool.unfix(pid)


def test_replaying_a_format_record_counts_no_update():
    """Formatting a page resets its update counter
    (``TransactionManager.log_format``); replaying the FORMAT_PAGE
    record resets it too, whatever the old incarnation counted."""
    db, tree = _loaded()
    txn = db.tm.begin(system=True)
    page = db.allocate_page(txn, PageType.BTREE_LEAF, tree.index_id)
    try:
        assert page.update_count == 0
        formatted = _masked(page.data)
        record = db.log.record_at(page.page_lsn)
    finally:
        db.pool.unfix(page.page_id)
    db.tm.commit(txn)
    assert record.kind == LogRecordKind.FORMAT_PAGE
    old = Page.format(1024, page.page_id)
    old.count_updates(5)
    assert replay_records(old, [record]) == [record]
    assert _masked(old.data) == formatted


def test_repair_replays_splits_and_prefix_extensions_to_the_same_page():
    db, tree = _loaded()
    db.take_full_backup()
    leaves = _structure_since_backup(db, tree)
    assert leaves
    db.flush_everything()
    images = {pid: bytes(db.device.raw_image(pid)) for pid in leaves}
    db.evict_everything()
    for pid in leaves:
        db.device.inject_bit_rot(pid)
    repairs = db.stats.get("single_page_recoveries")
    kv = list(db.tree(tree.index_id).range_scan())
    assert db.stats.get("single_page_recoveries") - repairs == len(leaves)
    assert len(kv) == 300
    for pid in leaves:
        page = db.pool.fix(pid)
        try:
            assert page.data[TYPE_OFFSET] == PageType.BTREE_LEAF
            assert _masked(page.data) == _masked(images[pid])
        finally:
            db.pool.unfix(pid)


def _slotted(keys: list[bytes]) -> Page:
    """A 1 KiB slotted page: two records ahead of ``keys``, one of
    them grown in place (fragmented), the last key a ghost."""
    page = Page.format(1024, 7, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    slotted.insert_run(0, [Record(b"low", b"meta"), Record(b"", b"")])
    slotted.insert_run(2, [Record(key, key * 3, key == keys[-1])
                           for key in keys])
    update_value(slotted.page, 0, b"longer meta")
    return page


def test_a_prefix_extension_leaves_what_removing_and_reinserting_left():
    """Redo strips the bytes from every key of the range, undo prepends
    them: the bytes the two records ``remove_run`` and ``insert_run`` of
    the re-keyed rows leave, the update counter advanced by two either
    way."""
    keys = [b"k0012", b"k0015", b"k0019", b"k001A"]
    op = OpExtendPrefix(2, 4, b"k001")
    page, pair = _slotted(keys), _slotted(keys)
    op.apply_redo(page)
    page.page_lsn = 10
    rows = SlottedPage(pair).records(include_ghosts=True)[2:]
    SlottedPage(pair).remove_run(2, 4)
    pair.page_lsn = 9
    SlottedPage(pair).insert_run(2, [Record(r.key[4:], r.value, r.ghost)
                                     for r in rows])
    pair.page_lsn = 10
    assert page.data == pair.data
    assert [r.key for r in SlottedPage(page).records(True)[2:]] == [
        b"2", b"5", b"9", b"A"]
    op.apply_undo(page)
    page.page_lsn = 11
    back = _slotted(keys)
    assert SlottedPage(page).records(True) == SlottedPage(back).records(True)
    assert page.update_count == back.update_count + 4


def test_a_prefix_extension_refuses_a_key_without_its_bytes():
    page = _slotted([b"k0012", b"k0015", b"k0029"])
    before = bytes(page.data)
    with pytest.raises(RecoveryError):
        OpExtendPrefix(2, 3, b"k001").apply_redo(page)
    with pytest.raises(RecoveryError):
        OpExtendPrefix(2, 4, b"k00").apply_redo(page)
    assert page.data == before
