"""Integration tests: engine facade — allocation, metadata, transactions,
auto-commit helpers, multiple indexes, lifecycle guards."""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (
    ConfigError,
    DuplicateKey,
    MediaFailure,
    SystemFailure,
)
from tests.conftest import fast_config, key_of, value_of


class TestConfig:
    def test_spf_forces_write_logging(self):
        cfg = fast_config(spf_enabled=True, log_completed_writes=False)
        assert cfg.log_completed_writes

    def test_layout_regions(self):
        cfg = fast_config(pri_region_pages_per_partition=4)
        assert cfg.pri_region_start == 1
        assert cfg.pri_region_end == 9
        assert cfg.data_start == 9

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            fast_config(capacity_pages=4)


class TestAllocation:
    def test_data_pages_allocated_sequentially(self, db):
        first = db.allocated_pages()
        tree = db.create_index()
        assert db.allocated_pages() == first + 1
        assert db.get_root(tree.index_id) == first

    def test_allocation_exhaustion_is_media_failure(self):
        db = Database(fast_config(capacity_pages=24,
                                  pri_region_pages_per_partition=2))
        tree = db.create_index()
        with pytest.raises(MediaFailure):
            txn = db.begin()
            for i in range(100_000):
                tree.insert(txn, key_of(i), b"v" * 64)

    def test_formatted_page_backed_by_format_record(self, db):
        from repro.wal.records import BackupRefKind

        tree = db.create_index()
        root = db.get_root(tree.index_id)
        entry = db.pri.lookup(root)
        assert entry.backup_ref.kind == BackupRefKind.FORMAT_RECORD


class TestIndexes:
    def test_multiple_independent_indexes(self, db):
        a = db.create_index()
        b = db.create_index()
        txn = db.begin()
        a.insert(txn, b"k", b"in-a")
        b.insert(txn, b"k", b"in-b")
        db.commit(txn)
        assert a.lookup(b"k") == b"in-a"
        assert b.lookup(b"k") == b"in-b"

    def test_index_ids_stable_across_restart(self, db):
        a = db.create_index()
        txn = db.begin()
        a.insert(txn, b"k", b"v")
        db.commit(txn)
        db.crash()
        db.restart()
        assert db.tree(a.index_id).lookup(b"k") == b"v"

    def test_unknown_index_rejected(self, db):
        with pytest.raises(ConfigError):
            db.tree(99).lookup(b"k")


class TestAutoCommitHelpers:
    def test_insert_update_delete(self, db):
        tree = db.create_index()
        db.insert(tree, b"k", b"v1")
        assert tree.lookup(b"k") == b"v1"
        db.update(tree, b"k", b"v2")
        assert tree.lookup(b"k") == b"v2"
        db.delete(tree, b"k")
        assert not tree.contains(b"k")

    def test_failed_auto_op_rolls_back(self, db):
        tree = db.create_index()
        db.insert(tree, b"k", b"v")
        with pytest.raises(DuplicateKey):
            db.insert(tree, b"k", b"other")
        assert tree.lookup(b"k") == b"v"
        assert db.stats.get("txns_aborted") == 1

    def test_any_failure_of_an_auto_op_releases_its_lock(self, db):
        """Regression: the helpers rolled back on ``ReproError`` only —
        a ``TypeError`` out of the tree (a value that is not bytes)
        left the private transaction active and its key locked for the
        life of the engine, and every checkpoint carried it."""
        import repro

        tree = db.create_index()
        db.insert(tree, b"a", b"1")
        for failing in (lambda: db.insert(tree, b"b", 12345),
                        lambda: db.update(tree, b"a", 12345),
                        lambda: repro.connect(db).put(b"b", 12345)):
            with pytest.raises(TypeError):
                failing()
            assert not db.tm.active
            assert db.locks.held_keys() == []
        client = repro.connect(db)
        client.put(b"b", b"2")
        assert client.get(b"b") == b"2" and client.get(b"a") == b"1"
        db.checkpoint()
        assert db.log.record_at(
            db.log.master_checkpoint_lsn).checkpoint.active_txns == []

    def test_autocommit_commits_or_rolls_back(self, db):
        tree = db.create_index()
        with db.autocommit() as txn:
            db.locks.acquire(txn.txn_id, b"k")
            tree.insert(txn, b"k", b"v")
        assert tree.lookup(b"k") == b"v" and not db.tm.active
        with pytest.raises(KeyboardInterrupt):
            with db.autocommit() as txn:
                db.locks.acquire(txn.txn_id, b"k")
                tree.update(txn, b"k", b"doomed")
                raise KeyboardInterrupt
        assert tree.lookup(b"k") == b"v"
        assert not db.tm.active and db.locks.held_keys() == []

    def test_explicit_txn_passthrough(self, db):
        tree = db.create_index()
        txn = db.begin()
        db.insert(tree, b"k", b"v", txn=txn)
        db.abort(txn)
        assert not tree.contains(b"k")


class TestLocks:
    def test_conflicting_writers_blocked(self, db):
        from repro.txn.locks import LockConflict

        tree = db.create_index()
        t1 = db.begin()
        db.insert(tree, b"hot", b"v1", txn=t1)
        t2 = db.begin()
        with pytest.raises(LockConflict):
            db.update(tree, b"hot", b"v2", txn=t2)
        db.commit(t1)
        # t1's locks released; t2 can now proceed.
        db.update(tree, b"hot", b"v2", txn=t2)
        db.commit(t2)
        assert tree.lookup(b"hot") == b"v2"


class TestLifecycleGuards:
    def test_crashed_database_requires_restart(self, db):
        db.crash()
        with pytest.raises(SystemFailure):
            db.begin()
        db.restart()
        db.begin()

    def test_media_failed_database_requires_recovery(self, db):
        tree = db.create_index()
        db.insert(tree, b"k", b"v")
        backup_id = db.take_full_backup()
        db._media_failed = True
        with pytest.raises(MediaFailure):
            db.begin()
        db.recover_media(backup_id)
        db.begin()


class TestInLogImages:
    def test_take_log_image_becomes_backup(self, db):
        from repro.wal.records import BackupRefKind

        tree = db.create_index()
        txn = db.begin()
        for i in range(20):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        root = db.get_root(tree.index_id)
        db.take_log_image(root)
        entry = db.pri.lookup(root)
        assert entry.backup_ref.kind == BackupRefKind.LOG_IMAGE
        # And it actually drives recovery.
        db.flush_everything()
        db.evict_everything()
        db.device.inject_read_error(root)
        assert tree.lookup(key_of(0)) == value_of(0, 0)


class TestStatsAndTime:
    def test_simulated_time_advances_with_real_profiles(self):
        from repro.sim.iomodel import HDD_PROFILE

        db = Database(fast_config(device_profile=HDD_PROFILE,
                                  log_profile=HDD_PROFILE))
        tree = db.create_index()
        db.insert(tree, b"k", b"v")
        db.flush_everything()
        assert db.clock.now > 0

    def test_operation_counters(self, db):
        tree = db.create_index()
        db.insert(tree, b"k", b"v")
        assert db.stats.get("btree_inserts") == 1
        assert db.stats.get("user_txns_committed") == 1
        assert db.stats.get("log_records") > 0
