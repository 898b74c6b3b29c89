"""Integration tests: traditional media recovery (Section 5.1.3)."""

import pytest

from repro.engine.database import Database
from repro.errors import MediaFailure, RecoveryError
from tests.conftest import fast_config, key_of, value_of


def loaded(n=200, **overrides):
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return db, tree


class TestMediaRecovery:
    def test_restore_plus_replay_recovers_everything(self):
        db, tree = loaded()
        backup_id = db.take_full_backup()
        txn = db.begin()
        for i in range(50):
            tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        db.device.fail_device()
        db._media_failed = True
        report = db.recover_media(backup_id)
        tree = db.tree(1)
        for i in range(50):
            assert tree.lookup(key_of(i)) == value_of(i, 1)
        for i in range(50, 200):
            assert tree.lookup(key_of(i)) == value_of(i, 0)
        assert report.pages_restored > 0
        assert report.records_replayed >= 50

    def test_pages_created_after_backup_replayed_from_format(self):
        db, tree = loaded()
        backup_id = db.take_full_backup()
        txn = db.begin()
        for i in range(200, 400):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db._media_failed = True
        db.recover_media(backup_id)
        tree = db.tree(1)
        assert tree.count() == 400
        from repro.btree.verify import verify_tree

        assert verify_tree(tree).ok

    def test_active_transactions_aborted_and_rolled_back(self):
        """'Active transactions touching the failed media are aborted.'"""
        db, tree = loaded()
        backup_id = db.take_full_backup()
        txn = db.begin()
        tree.update(txn, key_of(0), b"never-committed")
        # Force the log so the uncommitted update survives to replay.
        db.log.force()
        db._media_failed = True
        report = db.recover_media(backup_id)
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert report.transactions_rolled_back == 1

    def test_unknown_backup_rejected(self):
        db, _tree = loaded()
        db._media_failed = True
        with pytest.raises(RecoveryError):
            db.recover_media(999)

    def test_replacement_device_is_fresh(self):
        db, tree = loaded()
        backup_id = db.take_full_backup()
        old_name = db.device.name
        db.device.fail_device()
        db._media_failed = True
        db.recover_media(backup_id)
        assert db.device.name != old_name
        assert not db.device.failed
        assert len(db.device.bad_blocks) == 0

    def test_operations_blocked_until_recovered(self):
        db, tree = loaded()
        db.take_full_backup()
        db.device.fail_device()
        db._media_failed = True
        with pytest.raises(MediaFailure):
            db.begin()

    def test_spf_protection_restored_after_media_recovery(self):
        """The new device is covered by the full backup in the PRI."""
        db, tree = loaded()
        backup_id = db.take_full_backup()
        db._media_failed = True
        db.recover_media(backup_id)
        tree = db.tree(1)
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_read_error(victim)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("single_page_recoveries") == 1


class TestBackupCosts:
    def test_backup_and_restore_charge_simulated_time(self):
        from repro.sim.iomodel import HDD_PROFILE

        db, tree = loaded(device_profile=HDD_PROFILE,
                          log_profile=HDD_PROFILE,
                          backup_profile=HDD_PROFILE)
        t0 = db.clock.now
        backup_id = db.take_full_backup()
        backup_cost = db.clock.now - t0
        assert backup_cost > 0
        db._media_failed = True
        t0 = db.clock.now
        report = db.recover_media(backup_id)
        assert report.total_seconds > 0
        assert report.restore_seconds > 0
