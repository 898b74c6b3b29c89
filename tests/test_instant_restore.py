"""Integration tests: on-demand media restore and its state machine.

The restore registry mirrors the restart registry: pages restored on
first fix, losers undone on lock conflict, a budgeted background
drain, and a completion watermark that gates checkpointing, log
truncation, and backup retirement.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.errors import MediaFailure, RecoveryError
from tests.conftest import fast_config, key_of, value_of


def restorable_db(n=200, updates=60, **overrides):
    """A database with a full backup, an update wave since it, and one
    in-flight loser, ready to lose its device."""
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    backup_id = db.take_full_backup()
    txn = db.begin()
    for i in range(updates):
        tree.update(txn, key_of(i), value_of(i, 1))
    db.commit(txn)
    loser = db.begin()
    tree.update(loser, key_of(1), b"DOOMED")
    db.log.force()  # the loser's records survive to replay
    return db, tree, backup_id


def fail_media(db) -> None:
    db.device.fail_device("test media failure")
    db._on_media_failure(MediaFailure(db.device.name, "test media failure"))


class TestOnDemandRestore:
    def test_opens_immediately_with_pending_pages(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        report = db.recover_media(backup_id, mode="on_demand")
        assert report.pending_restore_pages > 0
        assert report.pending_undo_txns == 1
        assert db.restore_pending
        # Traffic flows before the drain ever runs.
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == value_of(0, 1)
        assert tree.lookup(key_of(150)) == value_of(150, 0)

    def test_first_fix_restores_exactly_that_page(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        before = db.pending_recovery.pending_page_count
        restored_before = db.stats.get("restore_pages")
        tree = db.tree(1)
        assert tree.lookup(key_of(199)) == value_of(199, 0)
        # The lookup restored the metadata/root path plus one leaf —
        # a handful of pages, not the device.
        assert db.stats.get("restore_pages") - restored_before <= 6
        assert db.pending_recovery.pending_page_count < before

    def test_budgeted_drain_respects_budget(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        # Four pages are pending: metadata, one recovery-index page per
        # partition, and the tree's only node.
        pages, losers = db.drain_restore(page_budget=3, loser_budget=0)
        assert pages == 3
        assert losers == 0
        assert db.restore_pending

    def test_finish_restore_records_watermark(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        assert db.last_restore_completion_lsn is None
        db.finish_restore()
        assert not db.restore_pending
        assert db.last_restore_completion_lsn is not None
        assert db.stats.get("instant_restore_completions") == 1

    def test_loser_undone_on_lock_conflict(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        tree = db.tree(1)
        txn = db.begin()
        db.update(tree, key_of(1), b"fresh", txn=txn)
        db.commit(txn)
        assert db.stats.get("restore_undo_on_conflict") == 1
        assert tree.lookup(key_of(1)) == b"fresh"

    def test_eager_mode_is_drain_before_open(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        report = db.recover_media(backup_id, mode="eager")
        assert report.pending_restore_pages == 0
        assert report.pending_undo_txns == 0
        assert report.pages_restored > 0
        assert report.transactions_rolled_back == 1
        assert not db.restore_pending
        assert db.last_restore_completion_lsn is not None

    def test_unknown_backup_rejected(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        with pytest.raises(RecoveryError):
            db.recover_media(backup_id + 7, mode="on_demand")

    def test_bad_mode_rejected(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        with pytest.raises(ValueError):
            db.recover_media(backup_id, mode="lazy-ish")

    def test_failed_eager_restore_keeps_database_closed(self):
        """An eager restore that dies mid-drain must leave the
        database refusing traffic on the half-restored device."""
        db, tree, backup_id = restorable_db()
        page, _node = tree._descend(key_of(0), for_write=False)
        victim = page.page_id  # updated since the backup, so pending
        db.unfix(victim)
        fail_media(db)
        # Sabotage the backup medium: the victim's image is gone and
        # its first tail record is no formatting record.
        del db.backup_store._full_backups[backup_id][victim]
        del db.backup_store._full_backup_lsns[backup_id][victim]
        with pytest.raises(RecoveryError):
            db.recover_media(backup_id, mode="eager")
        with pytest.raises(MediaFailure):
            db.begin()

    def test_config_default_mode_used(self):
        db, tree, backup_id = restorable_db(restore_mode="on_demand")
        fail_media(db)
        report = db.recover_media(backup_id)
        assert report.mode == "on_demand"
        assert db.restore_pending
        db.finish_restore()


class TestRestoreGates:
    def test_checkpoint_drains_restore_first(self):
        db, tree, backup_id = restorable_db()
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        assert db.restore_pending
        db.checkpoint()
        assert not db.restore_pending

    def test_retention_bound_pinned_at_backup(self):
        db, tree, backup_id = restorable_db()
        backup_lsn = db.log.backup_full_lsn(backup_id)
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        assert db.log_retention_bound() <= backup_lsn
        db.finish_restore()
        # Once complete, the registry no longer pins anything (other
        # retention constraints — PRI backups etc. — still apply).
        assert db.pending_recovery is None

    def test_backup_retirement_gated_on_watermark(self):
        """Restoring from an older backup while a newer one exists:
        the older backup must survive until the restore completes."""
        db, tree, old_backup = restorable_db()
        txn = db.begin()
        for i in range(20):
            tree.update(txn, key_of(i), value_of(i, 2))
        db.commit(txn)
        new_backup = db.take_full_backup()
        assert new_backup != old_backup
        fail_media(db)
        db.recover_media(old_backup, mode="on_demand")
        assert db.restore_pending
        retired = db.retire_backups()
        assert old_backup not in retired
        assert db.backup_store.has_full_backup(old_backup)
        db.finish_restore()
        # Still referenced by the PRI (it is the live backup source for
        # single-page recovery of the restored range) — a fresh full
        # backup supersedes it, then it may retire.
        db.take_full_backup()
        retired = db.retire_backups()
        assert old_backup in retired
        assert not db.backup_store.has_full_backup(old_backup)

    def test_retiring_missing_backup_raises(self):
        db, tree, backup_id = restorable_db()
        with pytest.raises(RecoveryError):
            db.backup_store.retire_full_backup(backup_id + 5)

    def test_restore_from_retired_backup_rejected(self):
        db, tree, old_backup = restorable_db()
        db.take_full_backup()
        retired = db.retire_backups()
        assert old_backup in retired
        fail_media(db)
        with pytest.raises(RecoveryError):
            db.recover_media(old_backup)


class TestRestoreSpfInterplay:
    def test_spf_protection_live_during_pending_restore(self):
        """A page restored on demand is immediately covered again: a
        later fault on it is absorbed by single-page recovery while
        the rest of the device is still pending."""
        db, tree, backup_id = restorable_db()
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == value_of(0, 1)  # restores path
        page, _node = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.unfix(victim)
        db.evict_everything()
        db.device.inject_read_error(victim)
        assert tree.lookup(key_of(0)) == value_of(0, 1)
        assert db.stats.get("single_page_recoveries") >= 1
        assert db.restore_pending  # rest of the device still pending

    def test_page_allocated_during_restore_supersedes_backup(self):
        db, tree, backup_id = restorable_db(n=60)
        # Free a leaf-sized hole is hard to arrange; instead allocate
        # fresh pages (beyond the backup) while the restore is pending
        # and make sure they never consult the backup.
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        tree = db.tree(1)
        txn = db.begin()
        for i in range(300, 420):
            db.insert(tree, key_of(i), value_of(i, 0), txn=txn)
        db.commit(txn)
        db.finish_restore()
        assert tree.lookup(key_of(300)) == value_of(300, 0)
        assert tree.lookup(key_of(0)) == value_of(0, 1)

    def test_spf_disabled_restore_still_works(self):
        """Media recovery predates single-page machinery: both modes
        must work with spf_enabled=False (the traditional baseline)."""
        db, tree, backup_id = restorable_db(spf_enabled=False)
        fail_media(db)
        db.recover_media(backup_id, mode="on_demand")
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == value_of(0, 1)
        db.finish_restore()
        assert tree.lookup(key_of(150)) == value_of(150, 0)
