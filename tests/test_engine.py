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
from repro.shard.routing import slot_of
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
        assert db.catalog.get_root(tree.index_id) == first

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
        root = db.catalog.get_root(tree.index_id)
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

    @pytest.mark.parametrize("error", [TypeError, KeyboardInterrupt])
    def test_any_failure_of_an_auto_op_releases_its_lock(self, db, monkeypatch,
                                                         error):
        """Regression: the helpers rolled back on ``ReproError`` only —
        a ``TypeError`` out of the tree (once: a value that is not
        bytes; the tree now refuses that as a ``BTreeError``) left the
        private transaction active and its key locked for the life of
        the engine, and every checkpoint carried it.

        Every autocommit site is driven — the engine's helpers, the
        embedded client's point writes and batch, the in-process shard
        worker's point writes, batch and slot import — with an
        ``Exception`` and with a ``BaseException`` that is not one: the
        error propagates, and the private transaction is gone with its
        lock."""
        import repro
        from repro import ShardConfig
        from repro.btree.tree import FosterBTree

        tree = db.create_index()
        db.insert(tree, b"a", b"1")
        client = repro.connect(db)
        fleet = repro.connect(ShardConfig(n_shards=2, transport="inproc",
                                          engine=fast_config()))
        fleet.put(b"a", b"1")
        shard = fleet.router.shards[fleet.router.shard_of(b"a")]
        worker = shard.worker
        slot = slot_of(b"a", worker._n_slots)

        def write(*_args, **_kwargs):  # noqa: ANN002, ANN003, ANN202
            raise error("not a ReproError")

        monkeypatch.setattr(FosterBTree, "_write", write)
        sites = [
            (db, lambda: db.insert(tree, b"b", b"2")),
            (db, lambda: db.update(tree, b"a", b"2")),
            (db, lambda: db.delete(tree, b"a")),
            (db, lambda: client.put(b"b", b"2")),
            (db, lambda: client.delete(b"a")),
            (db, lambda: client.apply_batch([("put", b"b", b"2")])),
            (worker.db, lambda: shard.call(("put", b"a", b"2"))),
            (worker.db, lambda: shard.call(("delete", b"a"))),
            (worker.db, lambda: shard.call(("batch", [("put", b"a", b"2")]))),
            (worker.db, lambda: shard.call(
                ("import_slot", slot, [(b"a", b"2")], False))),
        ]
        for engine, failing in sites:
            with pytest.raises(error):
                failing()
            assert not engine.tm.active
            assert engine.locks.held_keys() == []
        monkeypatch.undo()
        client.put(b"b", b"2")
        assert client.get(b"b") == b"2" and client.get(b"a") == b"1"
        db.checkpoint()
        assert db.log.record_at(
            db.log.master_checkpoint_lsn).checkpoint.active_txns == []
        fleet.put(b"b", b"2")
        assert fleet.get(b"b") == b"2" and fleet.get(b"a") == b"1"
        fleet.close()

    def test_autocommit_commits_or_rolls_back(self, db):
        tree = db.create_index()

        def insert(txn):  # noqa: ANN001, ANN202
            db.locks.acquire(txn.txn_id, b"k")
            tree.insert(txn, b"k", b"v")

        def doomed(txn):  # noqa: ANN001, ANN202
            db.locks.acquire(txn.txn_id, b"k")
            tree.update(txn, b"k", b"doomed")
            raise KeyboardInterrupt

        db.run_autocommit(insert)
        assert tree.lookup(b"k") == b"v" and not db.tm.active
        with pytest.raises(KeyboardInterrupt):
            db.run_autocommit(doomed)
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
        root = db.catalog.get_root(tree.index_id)
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
