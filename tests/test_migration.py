"""Integration tests: B-tree page migration and the free-space pool.

Page migration is what the single-incoming-pointer discipline buys
(Sections 2, 5.1.3, 5.2.1): moving a node updates exactly one pointer,
and the move can leave behind a fresh backup image.
"""

import pytest

from repro.btree.node import BTreeNode
from repro.btree.verify import verify_tree
from repro.engine.database import Database
from repro.errors import BTreeError
from repro.wal.records import BackupRefKind
from tests.conftest import fast_config, key_of, value_of


@pytest.fixture
def db() -> Database:
    return Database(fast_config(capacity_pages=1024, buffer_capacity=128))


def load(db, n=500):
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return tree


def leaf_holding(db, tree, i):
    page, _node, _pid = tree._descend(key_of(i), for_write=False)
    pid = page.page_id
    db.pool.unfix(pid)
    return pid


class TestMigration:
    def test_leaf_migrates_and_tree_still_works(self, db):
        tree = load(db)
        victim = leaf_holding(db, tree, 0)
        new_pid = tree.migrate_node(victim)
        assert new_pid != victim
        for i in range(500):
            assert tree.lookup(key_of(i)) == value_of(i, 0)
        assert verify_tree(tree).ok
        assert leaf_holding(db, tree, 0) == new_pid

    def test_migrated_node_contents_identical(self, db):
        tree = load(db)
        victim = leaf_holding(db, tree, 0)
        page = db.pool.fix(victim)
        before = [(n.full_key(i), n.value(i), n.is_ghost(i))
                  for n in [BTreeNode(page)] for i in range(n.nrecs)]
        db.pool.unfix(victim)
        new_pid = tree.migrate_node(victim)
        page = db.pool.fix(new_pid)
        node = BTreeNode(page)
        after = [(node.full_key(i), node.value(i), node.is_ghost(i))
                 for i in range(node.nrecs)]
        db.pool.unfix(new_pid)
        assert before == after

    def test_root_migration_updates_root_pointer(self, db):
        tree = load(db, n=20)  # single-leaf tree: the root is a leaf
        old_root = db.catalog.get_root(tree.index_id)
        new_pid = tree.migrate_node(old_root)
        assert db.catalog.get_root(tree.index_id) == new_pid
        assert tree.lookup(key_of(3)) == value_of(3, 0)
        assert verify_tree(tree).ok

    def test_branch_migration(self):
        # Small pages force a depth-3 tree so an inner branch exists.
        db = Database(fast_config(page_size=1024, capacity_pages=2048,
                                  buffer_capacity=256))
        tree = load(db, n=1600)
        root_pid = db.catalog.get_root(tree.index_id)
        root_page = db.pool.fix(root_pid)
        root = BTreeNode(root_page)
        assert not root.is_leaf
        assert root.level > 1, "expected a depth-3 tree"
        branch_pid = root.child_pid(0)
        db.pool.unfix(root_pid)
        new_pid = tree.migrate_node(branch_pid)
        assert new_pid != branch_pid
        assert verify_tree(tree).ok
        assert tree.count() == 1600

    def test_migration_retains_backup_image(self, db):
        tree = load(db)
        victim = leaf_holding(db, tree, 0)
        new_pid = tree.migrate_node(victim, retain_backup=True)
        entry = db.pri.lookup(new_pid)
        assert entry.backup_ref.kind == BackupRefKind.PAGE_COPY

    def test_migrated_page_recovers_from_retained_image(self, db):
        """The pre/post-move image drives single-page recovery with no
        chain replay at all."""
        tree = load(db)
        victim = leaf_holding(db, tree, 0)
        new_pid = tree.migrate_node(victim, retain_backup=True)
        db.flush_everything()
        db.evict_everything()
        db.device.inject_read_error(new_pid)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        result = db.single_page.history[-1]
        assert result.records_applied == 0  # image was current

    def test_old_page_returns_to_free_pool(self, db):
        tree = load(db)
        victim = leaf_holding(db, tree, 0)
        allocated_before = db.allocated_pages()
        tree.migrate_node(victim)
        # The next allocation reuses the freed page id instead of
        # growing the high-water mark.
        tree2 = db.create_index()
        assert db.catalog.get_root(tree2.index_id) == victim
        assert db.allocated_pages() == allocated_before + 1  # only migration's page

    def test_migration_survives_crash(self, db):
        tree = load(db)
        victim = leaf_holding(db, tree, 0)
        tree.migrate_node(victim)
        # Harden the (unforced) system transaction, then crash.
        db.log.force()
        db.crash()
        db.restart()
        tree = db.tree(1)
        for i in range(500):
            assert tree.lookup(key_of(i)) == value_of(i, 0)
        assert verify_tree(tree).ok

    def test_unreachable_page_rejected(self, db):
        tree = load(db)
        with pytest.raises(BTreeError):
            tree._find_incoming_pointer(999, BTreeNode(db.pool.fix(
                leaf_holding(db, tree, 0))))


class TestWearLeveling:
    def test_hot_page_rotation(self, db):
        """Migrating a hot node spreads writes over sectors — the
        wear-levelling use the paper names in Section 5.2.1."""
        tree = load(db, n=100)
        sectors_seen = set()
        for _round in range(5):
            pid = leaf_holding(db, tree, 0)
            sectors_seen.add(db.device.sector_of(pid))
            txn = db.begin()
            for i in range(20):
                tree.update(txn, key_of(i), value_of(i, _round + 1))
            db.commit(txn)
            db.flush_everything()
            tree.migrate_node(pid)
        db.flush_everything()
        # With a LIFO free list the node alternates between (at least)
        # two physical locations, halving per-sector write pressure.
        assert len(sectors_seen) >= 2
        writes = [db.injector.write_count(s) for s in sectors_seen]
        assert max(writes) < sum(writes)
        assert tree.count() == 100
        assert verify_tree(tree).ok
