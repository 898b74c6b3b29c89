"""Page allocation: the heap grows at ``next_free`` and only a rolled-back
allocation gives an id back.

There is no free list: a page id below the high-water mark is reused
only after the transaction that allocated it rolls back, and the
reformat then drops whatever frame the old incarnation left in the pool.
"""

from __future__ import annotations

import pytest

from repro.btree.verify import verify_tree
from repro.engine.database import Database
from repro.errors import MediaFailure
from repro.page.page import HEADER_SIZE, PageType
from tests.conftest import fast_config, key_of, value_of


def allocate(db: Database, txn) -> int:  # noqa: ANN001 - Transaction
    page_id = db.allocate_page(txn, PageType.BTREE_LEAF, 1).page_id
    db.pool.unfix(page_id)
    return page_id


@pytest.fixture
def db():
    built = Database(fast_config())
    built.create_index()
    return built


class TestHeapGrowth:
    def test_allocation_extends_the_heap_at_next_free(self, db):
        first = db.allocated_pages()
        sys_txn = db.tm.begin(system=True)
        ids = [allocate(db, sys_txn) for _ in range(3)]
        db.commit(sys_txn)
        assert ids == [first, first + 1, first + 2]
        assert db.allocated_pages() == first + 3

    def test_committed_allocation_survives_a_crash(self, db):
        sys_txn = db.tm.begin(system=True)
        page_id = allocate(db, sys_txn)
        db.commit(sys_txn)
        db.log.force()
        db.crash()
        db.restart()
        assert db.allocated_pages() == page_id + 1
        sys_txn = db.tm.begin(system=True)
        assert allocate(db, sys_txn) == page_id + 1

    def test_a_full_device_refuses_without_moving_next_free(self):
        db = Database(fast_config(capacity_pages=64))
        db.create_index()
        sys_txn = db.tm.begin(system=True)
        while db.allocated_pages() < 64:
            allocate(db, sys_txn)
        with pytest.raises(MediaFailure, match="device full"):
            allocate(db, sys_txn)
        assert db.allocated_pages() == 64


class TestRolledBackAllocation:
    def test_abort_gives_the_id_back_and_the_reuse_is_fresh(self, db):
        """The old incarnation's frame is still in the pool after the
        rollback; the reformat drops it, so the reuse starts empty."""
        first = db.allocated_pages()
        sys_txn = db.tm.begin(system=True)
        page = db.allocate_page(sys_txn, PageType.BTREE_LEAF, 1)
        formatted = bytes(page.data[HEADER_SIZE:])
        page.data[-1] ^= 0xFF  # the old incarnation's scribble
        db.pool.unfix(page.page_id)
        db.abort(sys_txn)
        assert db.allocated_pages() == first
        assert db.pool.resident(first)

        sys_txn = db.tm.begin(system=True)
        reused = db.allocate_page(sys_txn, PageType.BTREE_LEAF, 1)
        try:
            assert reused.page_id == first
            assert reused is not page
            assert bytes(reused.data[HEADER_SIZE:]) == formatted
        finally:
            db.pool.unfix(first)
        db.commit(sys_txn)
        assert db.allocated_pages() == first + 1

    def test_tree_growth_after_a_rolled_back_allocation(self, db):
        """A reused id serves the tree like any other page."""
        sys_txn = db.tm.begin(system=True)
        given_back = allocate(db, sys_txn)
        db.abort(sys_txn)
        tree = db.tree(1)
        txn = db.begin()
        for i in range(300):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        assert db.allocated_pages() > given_back  # splits took the id
        assert verify_tree(tree).ok
        for i in range(300):
            assert tree.lookup(key_of(i)) == value_of(i, 0)
