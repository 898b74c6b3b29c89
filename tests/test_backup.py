"""Unit tests: backup sources (Section 5.2.1) and the backup policy."""

import pytest

from repro.core.backup import (
    BackupPolicy,
    BackupStore,
    fetch_backup_image,
)
from repro.errors import RecoveryError, StorageError
from repro.page.page import Page, PageType
from repro.page.slotted import SlottedPage
from repro.sim.clock import SimClock
from repro.sim.iomodel import ARCHIVE_PROFILE, HDD_PROFILE, NULL_PROFILE
from repro.sim.stats import Stats
from repro.txn.manager import TransactionManager
from repro.wal.log_manager import LogManager
from repro.wal.log_reader import LogReader
from repro.wal.ops import OpInitSlotted
from repro.wal.records import (
    BackupRef,
    LogRecord,
    LogRecordKind,
    compress_image,
)

PAGE_SIZE = 1024


def make_store(profile=NULL_PROFILE, clock=None):
    clock = clock or SimClock()
    return BackupStore(clock, profile, Stats(), PAGE_SIZE), clock


def sealed_page(page_id: int, lsn: int = 0) -> Page:
    page = Page.format(PAGE_SIZE, page_id, PageType.HEAP)
    SlottedPage(page).initialize()
    if lsn:
        page.page_lsn = lsn
    page.seal()
    return page


class TestBackupPolicy:
    def test_update_count_trigger(self):
        policy = BackupPolicy(every_n_updates=100)
        assert not policy.due(update_count=99, age_seconds=1e9)
        assert policy.due(update_count=100, age_seconds=0)

    def test_age_trigger(self):
        policy = BackupPolicy(max_age_seconds=3600)
        assert not policy.due(update_count=10**6, age_seconds=3599)
        assert policy.due(update_count=0, age_seconds=3600)

    def test_either_trigger(self):
        policy = BackupPolicy(every_n_updates=10, max_age_seconds=60)
        assert policy.due(update_count=10, age_seconds=0)
        assert policy.due(update_count=0, age_seconds=60)

    def test_disabled_never_due(self):
        policy = BackupPolicy.disabled()
        assert not policy.due(update_count=10**9, age_seconds=1e12)


class TestPageCopies:
    def test_store_and_fetch(self):
        store, _clock = make_store()
        page = sealed_page(7, lsn=42)
        location = store.store_page_copy(bytes(page.data), 42)
        image, lsn = store.fetch_page_copy(location)
        assert image == bytes(page.data)
        assert lsn == 42

    def test_new_copy_never_overwrites_old(self):
        """Both copies exist until the old one is explicitly freed."""
        store, _clock = make_store()
        first = store.store_page_copy(bytes(sealed_page(7, 10).data), 10)
        second = store.store_page_copy(bytes(sealed_page(7, 20).data), 20)
        assert first != second
        assert store.live_page_copies == 2
        store.free_page_copy(first)
        assert store.live_page_copies == 1
        store.fetch_page_copy(second)
        with pytest.raises(RecoveryError):
            store.fetch_page_copy(first)

    def test_free_if_page_copy_ignores_other_kinds(self):
        store, _clock = make_store()
        location = store.store_page_copy(bytes(sealed_page(7).data), 0)
        store.free_if_page_copy(BackupRef.log_image(123))
        store.free_if_page_copy(None)
        assert store.live_page_copies == 1
        store.free_if_page_copy(BackupRef.page_copy(location))
        assert store.live_page_copies == 0


class TestFullBackups:
    def test_store_and_fetch_single_page(self):
        store, _clock = make_store()
        pages = {i: bytes(sealed_page(i, lsn=i * 10 or 1).data) for i in range(5)}
        lsns = {i: i * 10 or 1 for i in range(5)}
        backup_id = store.store_full_backup(pages, lsns)
        image, lsn = store.fetch_from_full_backup(backup_id, 3)
        assert image == pages[3]
        assert lsn == 30

    def test_missing_page_raises(self):
        store, _clock = make_store()
        backup_id = store.store_full_backup({}, {})
        with pytest.raises(RecoveryError):
            store.fetch_from_full_backup(backup_id, 9)
        with pytest.raises(RecoveryError):
            store.restore_full_backup(backup_id + 1)

    def test_restore_returns_all(self):
        store, _clock = make_store()
        pages = {i: bytes(sealed_page(i).data) for i in range(4)}
        backup_id = store.store_full_backup(pages, {i: 0 for i in range(4)})
        assert store.restore_full_backup(backup_id) == pages

    def test_archive_media_penalizes_single_page_fetch(self):
        """Section 5.2.1: a sequentially compressed archive backup 'is
        less than ideal' for single-page recovery."""
        disk_store, disk_clock = make_store(HDD_PROFILE)
        tape_store, tape_clock = make_store(ARCHIVE_PROFILE)
        pages = {0: bytes(sealed_page(0).data)}
        for store in (disk_store, tape_store):
            store.store_full_backup(pages, {0: 0})
        t0 = disk_clock.now
        disk_store.fetch_from_full_backup(1, 0)
        disk_cost = disk_clock.now - t0
        t0 = tape_clock.now
        tape_store.fetch_from_full_backup(1, 0)
        tape_cost = tape_clock.now - t0
        assert tape_cost > 100 * disk_cost


class TestFetchBackupImage:
    def make_log_rig(self):
        clock = SimClock()
        stats = Stats()
        log = LogManager(clock, NULL_PROFILE, stats)
        reader = LogReader(log, clock, NULL_PROFILE, stats)
        return log, reader

    def test_fetch_page_copy_ref(self):
        store, _clock = make_store()
        _log, reader = self.make_log_rig()
        page = sealed_page(7, lsn=33)
        location = store.store_page_copy(bytes(page.data), 33)
        fetched, lsn = fetch_backup_image(
            BackupRef.page_copy(location), 7, PAGE_SIZE, store, reader)
        assert fetched.page_id == 7
        assert lsn == 33

    def test_fetch_log_image_ref(self):
        store, _clock = make_store()
        log, reader = self.make_log_rig()
        page = sealed_page(7, lsn=55)
        lsn = log.append(LogRecord(LogRecordKind.FULL_PAGE_IMAGE, page_id=7,
                                   page_lsn=55,
                                   image=compress_image(page.data)))
        fetched, as_of = fetch_backup_image(
            BackupRef.log_image(lsn), 7, PAGE_SIZE, store, reader)
        assert as_of == 55
        assert fetched.page_lsn == 55

    def test_fetch_format_record_ref(self):
        """A formatting record substitutes for a backup (Section 5.2.1)."""
        store, _clock = make_store()
        log, reader = self.make_log_rig()
        stats = Stats()
        tm = TransactionManager(log, stats)
        txn = tm.begin(system=True)
        page = Page.format(PAGE_SIZE, 9)
        format_lsn = tm.log_format(txn, page, 0, OpInitSlotted(PageType.HEAP))
        tm.commit(txn)
        fetched, as_of = fetch_backup_image(
            BackupRef.format_record(format_lsn), 9, PAGE_SIZE, store, reader)
        assert as_of == format_lsn
        assert fetched.page_type == PageType.HEAP
        assert fetched.page_id == 9
        SlottedPage(fetched).check_plausible()

    def test_wrong_record_kind_rejected(self):
        store, _clock = make_store()
        log, reader = self.make_log_rig()
        lsn = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        with pytest.raises(RecoveryError):
            fetch_backup_image(BackupRef.log_image(lsn), 7, PAGE_SIZE,
                               store, reader)
        with pytest.raises(RecoveryError):
            fetch_backup_image(BackupRef.format_record(lsn), 7, PAGE_SIZE,
                               store, reader)

    def test_no_backup_rejected(self):
        store, _clock = make_store()
        _log, reader = self.make_log_rig()
        with pytest.raises(RecoveryError):
            fetch_backup_image(BackupRef.none(), 7, PAGE_SIZE, store, reader)


class TestCopyWriteFailureInvariant:
    """The never-overwrite invariant under a fault-injected backup-
    media write failure: an old page copy is freed only after its
    replacement is durable, so a failed replacement write must leave
    the old copy (and everything that references it) intact."""

    def test_failed_copy_write_preserves_old_copy(self):
        store, _clock = make_store()
        old = store.store_page_copy(bytes(sealed_page(7, 10).data), 10)
        store.inject_copy_write_failures(1)
        with pytest.raises(StorageError):
            store.store_page_copy(bytes(sealed_page(7, 20).data), 20)
        # The old copy survives, fetchable, and nothing was freed.
        assert store.live_page_copies == 1
        image, lsn = store.fetch_page_copy(old)
        assert lsn == 10
        assert store.stats.get("page_copies_freed") == 0
        # The next attempt (fault cleared) succeeds at a fresh location.
        new = store.store_page_copy(bytes(sealed_page(7, 20).data), 20)
        assert new != old
        assert store.live_page_copies == 2

    def test_engine_keeps_old_backup_ref_on_failed_copy(self):
        """take_page_copy dies mid-copy: the PRI must still point at
        the old copy and single-page recovery must still succeed."""
        from repro.engine.database import Database
        from tests.conftest import fast_config, key_of, value_of

        db = Database(fast_config(
            backup_policy=BackupPolicy(every_n_updates=8)))
        tree = db.create_index()
        txn = db.begin()
        for i in range(120):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()  # policy takes initial page copies
        page, _node, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        old_ref = db.pri.lookup(victim).backup_ref
        copies_before = db.backup_store.live_page_copies

        db.backup_store.inject_copy_write_failures(1)
        with pytest.raises(StorageError):
            db.checkpointer.take_page_copy(db.pool.fix(victim))
        db.pool.unfix(victim)

        # Old copy retained, PRI unchanged, nothing freed.
        assert db.pri.lookup(victim).backup_ref == old_ref
        assert db.backup_store.live_page_copies == copies_before
        # Recovery from the old copy still works.
        db.flush_everything()
        db.evict_everything()
        db.device.inject_read_error(victim)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("single_page_recoveries") == 1

    def test_write_back_survives_backup_media_failure(self):
        """A policy-triggered copy failing mid-flush must not fail the
        data-page write it rides on (Figure 11 keeps going)."""
        from repro.engine.database import Database
        from tests.conftest import fast_config, key_of, value_of

        db = Database(fast_config(
            backup_policy=BackupPolicy(every_n_updates=4)))
        tree = db.create_index()
        txn = db.begin()
        for i in range(60):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.backup_store.inject_copy_write_failures(100)
        db.flush_everything()  # every due copy fails; flush proceeds
        assert db.stats.get("page_copy_policy_failures") > 0
        db.evict_everything()
        for i in range(0, 60, 7):
            assert tree.lookup(key_of(i)) == value_of(i, 0)


class TestMaxAgeBackupPolicy:
    """Engine-level coverage for BackupPolicy.max_age_seconds: a page
    whose copy is older than the bound gets a fresh one at write-back,
    regardless of how few updates it took."""

    def make_db(self, max_age: float):
        from repro.engine.database import Database
        from tests.conftest import fast_config, key_of, value_of

        db = Database(fast_config(
            backup_policy=BackupPolicy(max_age_seconds=max_age)))
        tree = db.create_index()
        txn = db.begin()
        for i in range(80):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        return db, tree, key_of, value_of

    def test_young_pages_take_no_copies(self):
        db, tree, key_of, value_of = self.make_db(max_age=3600.0)
        assert db.stats.get("policy_page_copies") == 0
        txn = db.begin()
        db.update(tree, key_of(0), value_of(0, 1), txn=txn)
        db.commit(txn)
        db.flush_everything()
        # One update, age ~0: not due.
        assert db.stats.get("policy_page_copies") == 0

    def test_aged_page_gets_fresh_copy_on_write_back(self):
        db, tree, key_of, value_of = self.make_db(max_age=100.0)
        db.clock.advance(101.0)
        txn = db.begin()
        db.update(tree, key_of(0), value_of(0, 1), txn=txn)
        db.commit(txn)
        db.flush_everything()
        assert db.stats.get("policy_page_copies") >= 1
        # The fresh copy becomes the page's backup source.
        page, _node, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        from repro.wal.records import BackupRefKind

        assert (db.pri.lookup(victim).backup_ref.kind
                == BackupRefKind.PAGE_COPY)

    def test_age_and_update_triggers_compose(self):
        from repro.engine.database import Database
        from tests.conftest import fast_config, key_of, value_of

        db = Database(fast_config(backup_policy=BackupPolicy(
            every_n_updates=5, max_age_seconds=1000.0)))
        tree = db.create_index()
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        by_updates = db.stats.get("policy_page_copies")
        assert by_updates >= 1  # dense inserts hit the update trigger
        db.clock.advance(1001.0)
        txn = db.begin()
        db.update(tree, key_of(20), value_of(20, 1), txn=txn)
        db.commit(txn)
        db.flush_everything()
        assert db.stats.get("policy_page_copies") > by_updates
