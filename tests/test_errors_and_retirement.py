"""Coverage for the failure taxonomy (``repro/errors.py``) and the
backup-retirement gates (``retire_full_backups`` edge cases)."""

from __future__ import annotations

import pytest

from repro import errors
from repro.engine.database import Database
from repro.errors import (
    DeadlockError,
    DuplicateKey,
    FailureClass,
    KeyNotFound,
    MediaFailure,
    PageFailureKind,
    RecoveryError,
    ReproError,
    SinglePageFailure,
    StorageError,
    SystemFailure,
    TransactionAborted,
    TransactionError,
)
from tests.conftest import fast_config, key_of, value_of


# ----------------------------------------------------------------------
# The failure taxonomy
# ----------------------------------------------------------------------
class TestFailureTaxonomy:
    def test_four_failure_classes(self):
        assert {fc.value for fc in FailureClass} == {
            "transaction", "media", "system", "single-page"}

    def test_classes_attached_to_exceptions(self):
        assert TransactionError.failure_class is FailureClass.TRANSACTION
        assert (SinglePageFailure(1, PageFailureKind.CHECKSUM_MISMATCH)
                .failure_class is FailureClass.SINGLE_PAGE)
        assert MediaFailure("d0").failure_class is FailureClass.MEDIA
        assert SystemFailure().failure_class is FailureClass.SYSTEM

    def test_hierarchy_roots_at_reproerror(self):
        for exc_type in (TransactionAborted, DeadlockError, StorageError,
                         SinglePageFailure, MediaFailure, SystemFailure,
                         RecoveryError, KeyNotFound, DuplicateKey,
                         errors.ConfigError, errors.LogError,
                         errors.BufferPoolError, errors.BTreeError):
            assert issubclass(exc_type, ReproError)
        assert issubclass(DeadlockError, TransactionAborted)
        assert issubclass(SinglePageFailure, StorageError)
        assert issubclass(MediaFailure, StorageError)
        assert not issubclass(SystemFailure, StorageError)

    def test_transaction_aborted_carries_context(self):
        exc = TransactionAborted(42, "deadlock victim")
        assert exc.txn_id == 42
        assert exc.reason == "deadlock victim"
        assert "42" in str(exc) and "deadlock victim" in str(exc)

    def test_single_page_failure_message_and_fields(self):
        exc = SinglePageFailure(17, PageFailureKind.STALE_LSN, "lost write")
        assert exc.page_id == 17
        assert exc.kind is PageFailureKind.STALE_LSN
        assert "page 17" in str(exc)
        assert "stale-lsn" in str(exc)
        assert "lost write" in str(exc)
        bare = SinglePageFailure(3, PageFailureKind.BAD_MAGIC)
        assert bare.detail == ""
        assert str(bare).endswith("bad-magic")

    def test_media_failure_fields(self):
        exc = MediaFailure("db0", "head crash")
        assert exc.device_name == "db0"
        assert exc.reason == "head crash"
        assert "db0" in str(exc) and "head crash" in str(exc)

    def test_system_failure_reason(self):
        assert SystemFailure("power").reason == "power"
        assert "power" in str(SystemFailure("power"))

    def test_key_errors_carry_key(self):
        assert KeyNotFound(b"k").key == b"k"
        assert DuplicateKey(b"k").key == b"k"

    def test_detection_kinds_cover_the_stack(self):
        assert {kind.value for kind in PageFailureKind} == {
            "device-read-error", "checksum-mismatch", "bad-magic",
            "header-implausible", "wrong-page-id", "stale-lsn",
            "btree-invariant"}


# ----------------------------------------------------------------------
# retire_full_backups edges
# ----------------------------------------------------------------------
def loaded_db_with_traffic() -> tuple[Database, object]:
    db = Database(fast_config())
    tree = db.create_index()
    txn = db.begin()
    for i in range(120):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return db, tree


def touch(db: Database, tree, version: int) -> None:  # noqa: ANN001
    txn = db.begin()
    for i in range(0, 120, 3):
        tree.update(txn, key_of(i), value_of(i, version))
    db.commit(txn)


class TestRetireFullBackups:
    def test_no_backups_present(self):
        db, _tree = loaded_db_with_traffic()
        assert db.retire_backups() == []

    def test_single_backup_never_retired(self):
        db, _tree = loaded_db_with_traffic()
        backup_id = db.take_full_backup()
        assert db.retire_backups() == []
        assert db.backup_store.has_full_backup(backup_id)

    def test_superseded_backup_retired_once_unreferenced(self):
        db, tree = loaded_db_with_traffic()
        b1 = db.take_full_backup()
        touch(db, tree, 1)
        b2 = db.take_full_backup()
        # b2's set_range_backup re-pointed the PRI at b2, so b1 is
        # neither newest nor referenced: it retires.
        assert db.retire_backups() == [b1]
        assert db.backup_store.full_backup_ids() == [b2]

    def test_watermark_not_reached_blocks_retirement(self):
        """The backup a pending on-demand restore reads from must
        survive until the completion watermark is recorded."""
        db, tree = loaded_db_with_traffic()
        b1 = db.take_full_backup()
        touch(db, tree, 1)
        db.device.fail_device("test")
        db._on_media_failure(MediaFailure(db.device.name, "test"))
        db.recover_media(b1, mode="on_demand")
        db.drain_restore(page_budget=2)
        assert db.restore_pending
        assert db.retire_backups() == []
        assert db.backup_store.has_full_backup(b1)
        # Completing the restore alone is not enough: the PRI still
        # references b1 (the restore re-pointed page backups at it).
        db.finish_restore()
        assert not db.restore_pending
        assert db.retire_backups() == []
        # A fresh backup re-points the PRI; b1 finally retires.
        b2 = db.take_full_backup()
        assert db.retire_backups() == [b1]
        assert db.backup_store.full_backup_ids() == [b2]

    def test_pri_reference_blocks_retirement(self):
        """A backup any page-recovery-index entry still references is
        pinned for single-page recovery, even when it is not the one a
        restore is running from and a newer backup exists."""
        db, tree = loaded_db_with_traffic()
        b1 = db.take_full_backup()
        touch(db, tree, 1)
        b2 = db.take_full_backup()
        # Restore from the *older* backup: the registry re-points the
        # PRI's page backups at b1 even though b2 is newer.
        db.device.fail_device("test")
        db._on_media_failure(MediaFailure(db.device.name, "test"))
        db.recover_media(b1, mode="eager")
        assert b1 in db.pri.full_backups_in_use()
        # No restore is pending, yet b1 must survive: the PRI would
        # hand single-page recovery a dangling reference otherwise.
        assert db.retire_backups() == []
        assert db.backup_store.has_full_backup(b1)
        # A fresh backup re-points every page; b1 and b2 both retire.
        b3 = db.take_full_backup()
        assert db.retire_backups() == [b1, b2]
        assert db.backup_store.full_backup_ids() == [b3]

    def test_interrupted_restore_pins_backup_across_crash(self):
        """A crash during a pending restore retains the backup the
        re-run will need (``durable.restore_backup_id``)."""
        db, tree = loaded_db_with_traffic()
        b1 = db.take_full_backup()
        touch(db, tree, 1)
        db.device.fail_device("test")
        db._on_media_failure(MediaFailure(db.device.name, "test"))
        db.recover_media(b1, mode="on_demand")
        db.drain_restore(page_budget=2)
        db.crash()
        assert db.durable.restore_backup_id == b1
        assert db.retire_backups() == []
        db.recover_media(b1, mode="eager")
        assert db.durable.restore_backup_id is None

    def test_store_retire_unknown_backup_raises(self):
        db, _tree = loaded_db_with_traffic()
        with pytest.raises(RecoveryError):
            db.backup_store.retire_full_backup(999)
