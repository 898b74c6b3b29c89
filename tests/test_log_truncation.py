"""Unit tests: log-manager truncation and incremental scrubbing."""

import pytest

from repro.btree.verify import verify_tree
from repro.detect.scrubber import Scrubber
from repro.engine.database import Database
from repro.errors import KeyNotFound
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.wal.log_manager import LogManager
from repro.wal.records import CheckpointData, LogRecord, LogRecordKind
from tests.conftest import fast_config, key_of, value_of


def make_log() -> LogManager:
    return LogManager(SimClock(), NULL_PROFILE, Stats())


class TestLogTruncate:
    def fill(self, log: LogManager, n: int = 10) -> list[int]:
        lsns = [log.append(LogRecord(LogRecordKind.COMMIT, txn_id=i))
                for i in range(n)]
        log.force()
        return lsns

    def test_truncate_removes_head_only(self):
        log = make_log()
        lsns = self.fill(log)
        freed = log.truncate(lsns[5])
        assert freed > 0
        assert not log.has_record(lsns[0])
        assert log.has_record(lsns[5])
        assert log.has_record(lsns[9])
        assert log.truncated_below == lsns[5]

    def test_truncate_never_crosses_master_checkpoint(self):
        log = make_log()
        lsns = self.fill(log, 4)
        log.log_checkpoint_end(CheckpointData())
        master = log.master_checkpoint_lsn
        tail = self.fill(log, 4)
        log.truncate(tail[-1])  # ask for far more than allowed
        assert log.has_record(master)
        assert log.truncated_below <= master
        assert not log.has_record(lsns[0])

    def test_truncate_never_crosses_durable_boundary(self):
        log = make_log()
        self.fill(log, 3)
        unforced = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=99))
        freed = log.truncate(unforced + 10_000)
        assert log.has_record(unforced)
        assert freed >= 0

    def test_retained_bytes_accounting(self):
        log = make_log()
        lsns = self.fill(log)
        before = log.retained_bytes()
        freed = log.truncate(lsns[5])
        assert log.retained_bytes() == before - freed

    def test_truncate_is_idempotent(self):
        log = make_log()
        lsns = self.fill(log)
        log.truncate(lsns[5])
        assert log.truncate(lsns[5]) == 0


class TestCopyForwardDurability:
    def test_copy_forward_survives_a_crash_right_after_truncation(self):
        """The copies a truncation takes move the retention bound, so
        their BACKUP_PAGE records must be durable before the head goes:
        otherwise a crash rebuilds an index whose backup references
        point into the truncated head and the next single-page failure
        cannot be repaired."""
        db = Database(fast_config(capacity_pages=4096))
        tree = db.create_index()
        txn = db.begin()
        for i in range(3000):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.checkpoint()
        txn = db.begin()
        for i in range(0, 3000, 7):
            tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        db.checkpoint()
        copies_before = db.stats.get("copy_forward_backups")
        assert db.truncate_log() > 0
        assert db.stats.get("copy_forward_backups") > copies_before
        db.crash()
        db.restart()
        tree = db.tree(tree.index_id)
        for page_id in range(db.config.data_start, db.allocated_pages()):
            if db.device.raw_image(page_id) is not None:
                db.device.inject_bit_rot(page_id)
        for i in range(3000):
            assert tree.lookup(key_of(i)) == value_of(i, 1 if i % 7 == 0 else 0)
        assert db.stats.get("single_page_recoveries") > 0
        assert db.stats.get("escalations_to_media") == 0

    def test_truncation_without_copies_forces_nothing(self):
        db = Database(fast_config())
        tree = db.create_index()
        txn = db.begin()
        tree.insert(txn, key_of(1), value_of(1, 0))
        db.commit(txn)
        db.checkpoint()
        db.log.append(LogRecord(LogRecordKind.COMMIT, txn_id=0))
        durable = db.log.durable_lsn
        db.truncate_log(copy_budget=0)
        assert db.stats.get("copy_forward_backups") == 0
        assert db.log.durable_lsn == durable < db.log.end_lsn


class TestIncrementalScrub:
    def build(self):
        db = Database(fast_config())
        tree = db.create_index()
        txn = db.begin()
        for i in range(300):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        return db, tree

    def test_budgeted_pass_covers_whole_device(self):
        db, _tree = self.build()
        scrubber = Scrubber(db.device, db.recovery_manager, db.stats,
                            skip=db.pool.resident)
        last = db.allocated_pages()
        cursor = 0
        total_scanned = 0
        for _slice in range(0, last, 4):
            cursor, report = scrubber.scrub_incremental(cursor, 4, last)
            total_scanned += report.pages_scanned + report.pages_skipped
            if cursor == 0:
                break
        assert total_scanned == last

    def test_incremental_finds_damage_in_its_slice(self):
        db, tree = self.build()
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_bit_rot(victim, nbits=5)
        scrubber = Scrubber(db.device, db.recovery_manager, db.stats,
                            skip=db.pool.resident)
        last = db.allocated_pages()
        cursor, found = 0, 0
        for _slice in range(0, last, 3):
            cursor, report = scrubber.scrub_incremental(cursor, 3, last)
            found += report.failures_repaired
            if cursor == 0:
                break
        assert found == 1
        assert tree.lookup(key_of(0)) == value_of(0, 0)

    def test_empty_range(self):
        db, _tree = self.build()
        scrubber = Scrubber(db.device, db.recovery_manager, db.stats)
        cursor, report = scrubber.scrub_incremental(0, 8, 0)
        assert cursor == 0
        assert report.pages_scanned == 0


class TestAbortInterleaving:
    def test_interleaved_insert_aborts_on_one_leaf(self):
        """Regression companion to the B-tree slot-shift bug: aborting
        two open inserts on one leaf in insertion order must not disturb
        the neighbouring records."""
        db = Database(fast_config())
        tree = db.create_index()
        t_keep = db.begin()
        tree.insert(t_keep, b"k-1", b"keeper")
        db.commit(t_keep)
        t_a = db.begin()
        tree.insert(t_a, b"k-3", b"a-record")
        t_b = db.begin()
        tree.insert(t_b, b"k-2", b"b-record")
        # b's key sorts first, so a's record moved a slot after a logged
        # it; abort in insertion order (a first).
        db.abort(t_a)
        db.abort(t_b)
        assert tree.lookup(b"k-1") == b"keeper"
        for key in (b"k-2", b"k-3"):
            with pytest.raises(KeyNotFound):
                tree.lookup(key)
        assert verify_tree(tree).ok
