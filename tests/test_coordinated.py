"""Integration tests: coordinated multi-page recovery (Section 5.2).

"In the case of multiple single-page failures, their recovery might be
coordinated, e.g., with respect to access to the recovery log."
"""

import pytest

from repro.core.backup import BackupPolicy
from repro.core.coordinated import CoordinatedRecovery
from repro.engine.database import Database
from repro.errors import RecoveryError
from tests.conftest import fast_config, key_of, value_of


def loaded(n=600, **overrides):
    db = Database(fast_config(capacity_pages=2048, buffer_capacity=64,
                              backup_policy=BackupPolicy.disabled(),
                              **overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    return db, tree


def coordinator(db) -> CoordinatedRecovery:
    return CoordinatedRecovery(db.pri, db.backup_store, db.log_reader,
                               db.device, db.clock, db.stats)


def data_leaves(db, tree, keys):
    pages = []
    for i in keys:
        page, _n, _pid = tree._descend(key_of(i), for_write=False)
        if page.page_id not in pages:
            pages.append(page.page_id)
        db.pool.unfix(page.page_id)
    db.evict_everything()
    return pages


class TestCoordinatedRecovery:
    def test_recovers_all_victims_correctly(self):
        db, tree = loaded()
        victims = data_leaves(db, tree, [0, 200, 400, 599])
        for pid in victims:
            db.device.inject_read_error(pid)
        result = coordinator(db).recover_many(victims)
        assert result.pages_recovered == len(victims)
        db.evict_everything()
        for i in range(600):
            assert tree.lookup(key_of(i)) == value_of(i, 0)

    def test_per_page_record_counts_reported(self):
        db, tree = loaded()
        victims = data_leaves(db, tree, [0, 300])
        result = coordinator(db).recover_many(victims)
        assert set(result.per_page_records) == set(victims)
        assert result.records_applied == sum(result.per_page_records.values())

    def test_duplicates_collapsed(self):
        db, tree = loaded()
        victims = data_leaves(db, tree, [0])
        result = coordinator(db).recover_many(victims * 3)
        assert result.pages_recovered == 1

    def test_shared_log_cache_saves_reads(self):
        """Coordinated chain walks fetch each distinct log page once;
        independent recoveries with cold caches fetch them repeatedly."""
        db, tree = loaded()
        victims = data_leaves(db, tree, [0, 150, 300, 450, 599])
        assert len(victims) >= 3

        # Independent recoveries, each with a cold reader.
        from repro.wal.log_reader import LogReader
        from repro.core.single_page import SinglePageRecovery

        independent_pages = 0
        for pid in victims:
            reader = LogReader(db.log, db.clock, db.config.log_profile,
                               db.stats)
            spr = SinglePageRecovery(db.pri, db.backup_store, reader,
                                     db.device, db.clock, db.stats)
            from repro.errors import PageFailureKind, SinglePageFailure

            spr.recover(SinglePageFailure(
                pid, PageFailureKind.DEVICE_READ_ERROR))
            independent_pages += reader.pages_read

        # The same victims, coordinated (fresh engine for a fair start).
        db2, tree2 = loaded()
        victims2 = data_leaves(db2, tree2, [0, 150, 300, 450, 599])
        result = coordinator(db2).recover_many(victims2)
        assert result.log_pages_read <= independent_pages

    def test_all_pages_failing_resembles_media_recovery(self):
        """The paper's limit case: every page at once."""
        db, tree = loaded(n=400)
        victims = list(range(db.config.data_start, db.allocated_pages()))
        for pid in victims:
            db.device.inject_read_error(pid)
        result = coordinator(db).recover_many(victims)
        assert result.pages_recovered == len(victims)
        db.evict_everything()
        for i in range(400):
            assert tree.lookup(key_of(i)) == value_of(i, 0)

    def test_uncovered_page_raises(self):
        db, tree = loaded()
        with pytest.raises(RecoveryError):
            coordinator(db).recover_many([db.config.capacity_pages - 1])
