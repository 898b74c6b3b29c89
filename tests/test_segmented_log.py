"""Unit tests: segmented log, chain-head index, group commit, and
transparent repair-on-read through the buffer pool's fix path."""

import pytest

from repro.core.recovery_index import PageRecoveryIndex
from repro.engine.database import Database
from repro.errors import LogError, RecoveryError
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.wal.log_manager import LogManager
from repro.wal.log_reader import LogReader
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import OpInsert
from repro.wal.records import (BackupRef, BackupRefKind, LogRecord, LogRecordKind,
                                pri_update)
from repro.wal.segments import SegmentDirectory
from tests.conftest import fast_config, key_of, value_of


def make_log(**kwargs) -> LogManager:
    return LogManager(SimClock(), NULL_PROFILE, Stats(), **kwargs)


def update_record(page_id: int, prev: int, i: int = 0) -> LogRecord:
    return LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=page_id,
                     page_prev_lsn=prev, op=OpInsert(i, b"k%d" % i, b"v"))


class TestSegmentDirectory:
    def test_segments_roll_over_at_byte_budget(self):
        log = make_log(segment_bytes=256)
        for i in range(50):
            log.append(LogRecord(LogRecordKind.COMMIT, txn_id=i))
        assert log.segment_count > 1
        # Every record remains addressable through the directory.
        for record in log.all_records():
            assert log.record_at(record.lsn) is record

    def test_records_from_is_segment_indexed(self):
        log = make_log(segment_bytes=128)
        lsns = [log.append(LogRecord(LogRecordKind.COMMIT, txn_id=i))
                for i in range(40)]
        tail = log.records_from(lsns[25])
        assert [r.txn_id for r in tail] == list(range(25, 40))

    def test_truncation_drops_whole_segments(self):
        log = make_log(segment_bytes=128)
        lsns = [log.append(LogRecord(LogRecordKind.COMMIT, txn_id=i))
                for i in range(40)]
        log.force()
        before = log.segment_count
        log.truncate(lsns[30])
        assert log.segment_count < before
        assert not log.has_record(lsns[0])
        assert log.has_record(lsns[30])
        assert log.truncated_below == lsns[30]
        # retained accounting matches a fresh sum
        assert log.retained_bytes() == sum(
            len(r.encode()) for r in log.all_records())

    def test_directory_get_outside_range(self):
        directory = SegmentDirectory(segment_bytes=64)
        assert directory.entry(100) is None
        with pytest.raises(LogError):
            make_log().record_at(999)


class TestChainHeadIndex:
    def test_head_tracks_latest_chain_record(self):
        log = make_log()
        assert log.page_chain_head(7) == NULL_LSN
        l1 = log.append(update_record(7, NULL_LSN))
        assert log.page_chain_head(7) == l1
        l2 = log.append(update_record(7, l1))
        log.append(update_record(9, NULL_LSN))  # other page
        assert log.page_chain_head(7) == l2

    def test_pri_update_records_are_not_chain_members(self):
        log = make_log()
        l1 = log.append(update_record(7, NULL_LSN))
        log.append(pri_update([(7, l1)]))
        assert log.page_chain_head(7) == l1

    def test_head_retreats_across_crash(self):
        log = make_log()
        l1 = log.append(update_record(7, NULL_LSN))
        log.force()
        l2 = log.append(update_record(7, l1))
        l3 = log.append(update_record(7, l2))
        assert log.page_chain_head(7) == l3
        log.crash()  # l2 and l3 were never forced
        assert log.page_chain_head(7) == l1

    def test_head_restored_when_unforced_format_discarded(self):
        """A reused page's fresh FORMAT record (chain reset) is lost in
        the crash: the head must fall back to the older durable chain,
        not vanish."""
        log = make_log()
        l1 = log.append(update_record(7, NULL_LSN))
        log.force()
        # Page 7 freed and reallocated: FORMAT starts a new chain...
        log.append(LogRecord(LogRecordKind.FORMAT_PAGE, txn_id=2, page_id=7,
                             page_prev_lsn=NULL_LSN,
                             op=OpInsert(0, b"", b"")))
        log.crash()  # ...but it was never forced
        assert log.page_chain_head(7) == l1

    def test_first_format_lost_clears_head_without_rescan(self):
        """A brand-new page's unforced FORMAT is lost: there is no
        older incarnation, so the head simply disappears."""
        log = make_log()
        log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.force()
        log.append(LogRecord(LogRecordKind.FORMAT_PAGE, txn_id=2, page_id=9,
                             page_prev_lsn=NULL_LSN,
                             op=OpInsert(0, b"", b"")))
        log.crash()
        assert log.page_chain_head(9) == NULL_LSN

    def test_head_cleared_when_whole_chain_lost(self):
        log = make_log()
        log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.force()
        log.append(update_record(7, NULL_LSN))
        log.crash()
        assert log.page_chain_head(7) == NULL_LSN

    def test_truncation_drops_stale_heads(self):
        log = make_log(segment_bytes=64)
        log.append(update_record(7, NULL_LSN))
        tail = [log.append(LogRecord(LogRecordKind.COMMIT, txn_id=i))
                for i in range(30)]
        log.force()
        log.truncate(tail[-1])
        assert log.page_chain_head(7) == NULL_LSN

    def test_backup_full_index(self):
        log = make_log()
        assert log.backup_full_lsn(3) is None
        lsn = log.append_and_force(
            LogRecord(LogRecordKind.BACKUP_FULL, backup_id=3))
        assert log.backup_full_lsn(3) == lsn
        lost = log.append(LogRecord(LogRecordKind.BACKUP_FULL, backup_id=4))
        assert log.backup_full_lsn(4) == lost
        log.crash()
        assert log.backup_full_lsn(3) == lsn
        assert log.backup_full_lsn(4) is None


class TestGroupCommit:
    def test_commit_force_absorbs_already_durable_commits(self):
        stats = Stats()
        log = LogManager(SimClock(), NULL_PROFILE, stats)
        lsn = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.force()
        log.commit_force(lsn)  # already durable: free ride, no new force
        assert stats.get("log_forces") == 1

    def test_riders_harden_with_the_commit(self):
        stats = Stats()
        log = LogManager(SimClock(), NULL_PROFILE, stats)
        commit = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.append(LogRecord(LogRecordKind.SYS_COMMIT, txn_id=2))
        log.commit_force(commit)
        assert log.durable_lsn == log.end_lsn  # the rider hardened too
        assert stats.get("group_commit_rider_bytes") > 0

    def test_without_group_commit_only_the_prefix_hardens(self):
        log = make_log(group_commit=False)
        commit = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        rider = log.append(LogRecord(LogRecordKind.SYS_COMMIT, txn_id=2))
        log.commit_force(commit)
        assert log.durable_lsn == rider  # commit record durable, rider not
        assert log.durable_lsn < log.end_lsn

    def test_batched_commits_share_one_force(self):
        db = Database(fast_config())
        tree = db.create_index()
        forces_before = db.stats.get("log_forces")
        with db.group_commit():
            for i in range(10):
                txn = db.begin()
                tree.insert(txn, key_of(i), value_of(i, 0))
                db.commit(txn)
        assert db.stats.get("log_forces") - forces_before == 1
        assert db.stats.get("group_commit_batches") == 1
        assert db.stats.get("group_commit_batched_commits") == 10
        # Every batched commit is durable once the block exits.
        db.crash()
        db.restart()
        tree = db.tree(tree.index_id)
        for i in range(10):
            assert tree.lookup(key_of(i)) == value_of(i, 0)

    def test_group_commit_disabled_forces_per_commit(self):
        """The ablation baseline: with group commit off, the batch
        block is inert and every commit pays its own force."""
        db = Database(fast_config(group_commit=False))
        tree = db.create_index()
        forces_before = db.stats.get("log_forces")
        with db.group_commit():
            for i in range(8):
                txn = db.begin()
                tree.insert(txn, key_of(i), value_of(i, 0))
                db.commit(txn)
        assert db.stats.get("log_forces") - forces_before == 8
        assert db.stats.get("group_commit_batches") == 0

    def test_unbatched_commits_force_individually(self):
        db = Database(fast_config())
        tree = db.create_index()
        forces_before = db.stats.get("log_forces")
        for i in range(5):
            txn = db.begin()
            tree.insert(txn, key_of(i), value_of(i, 0))
            db.commit(txn)
        assert db.stats.get("log_forces") - forces_before == 5


class TestChainIntegrity:
    def build_chain(self, log: LogManager, page_id: int, n: int) -> list[int]:
        lsns, prev = [], NULL_LSN
        for i in range(n):
            prev = log.append(update_record(page_id, prev, i))
            lsns.append(prev)
        return lsns

    def test_walk_detects_wrong_page_in_chain(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 3)
        # A record for another page whose prev pointer stabs into 7's chain.
        bad = log.append(update_record(9, lsns[-1]))
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        with pytest.raises(RecoveryError, match="chain broken"):
            reader.walk_page_chain(bad, NULL_LSN)

    def test_walk_detects_non_decreasing_prev(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 2)
        # Corrupt the chain: the head now points forward to itself.
        log.record_at(lsns[-1]).page_prev_lsn = lsns[-1]
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        with pytest.raises(RecoveryError, match="does not decrease"):
            reader.walk_page_chain(lsns[-1], NULL_LSN)

    def test_intact_chain_still_walks(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 5)
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        records = reader.walk_page_chain(lsns[-1], lsns[1])
        assert [r.lsn for r in records] == lsns[2:]


class TestPriRoundTrip:
    def test_serialize_with_range_and_point_entries(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 100, BackupRef.full_backup(5), 1000, now=1.5)
        pri.set_backup(17, BackupRef.page_copy(44), 2000, now=2.5)
        pri.set_backup(63, BackupRef.log_image(2500), 2500, now=3.0)
        pri.record_write(20, 3000)
        pri.record_write(99, 3100)
        clone = PageRecoveryIndex.deserialize(pri.serialize())
        assert clone.range_count == pri.range_count
        assert clone.point_lsn_count == pri.point_lsn_count
        # Point entries survive with their refs and LSNs.
        entry = clone.lookup(17)
        assert entry.backup_ref == BackupRef(BackupRefKind.PAGE_COPY, 44)
        assert entry.backup_page_lsn == 2000
        assert entry.backup_time == 2.5
        # Range entries still cover the untouched middle of the range.
        entry = clone.lookup(50)
        assert entry.backup_ref == BackupRef(BackupRefKind.FULL_BACKUP, 5)
        # Recorded per-page LSNs round-trip.
        assert clone.recorded_lsn(20) == 3000
        assert clone.recorded_lsn(99) == 3100
        # And the re-serialized bytes are identical (stable encoding).
        assert clone.serialize() == pri.serialize()

    def test_empty_index_round_trip(self):
        clone = PageRecoveryIndex.deserialize(PageRecoveryIndex().serialize())
        assert clone.range_count == 0
        assert clone.point_lsn_count == 0


class TestRepairOnRead:
    def build(self):
        db = Database(fast_config())
        tree = db.create_index()
        txn = db.begin()
        for i in range(200):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        return db, tree

    def test_plain_pool_fix_repairs_bit_rot(self):
        """A raw BufferPool.fix — no B-tree, no explicit handler — must
        detect and repair a damaged page (Figure 8 on the read path)."""
        db, tree = self.build()
        victim = db.get_root(tree.index_id)
        db.device.inject_bit_rot(victim, nbits=6)
        before = db.stats.get("single_page_recoveries")
        page = db.pool.fix(victim)  # the read itself triggers recovery
        db.pool.unfix(victim)
        assert page.page_id == victim
        assert db.stats.get("single_page_recoveries") == before + 1
        assert tree.lookup(key_of(0)) == value_of(0, 0)

    def test_heap_read_repairs_transparently(self):
        """A heap fetch (a different reader) rides the same fix path."""
        db = Database(fast_config())
        heap = db.create_heap()
        txn = db.begin()
        rids = [heap.insert(txn, b"payload-%d" % i) for i in range(50)]
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        victim = rids[0].page_id
        db.device.inject_bit_rot(victim, nbits=6)
        assert heap.fetch(rids[0]) == b"payload-0"
        assert db.stats.get("single_page_recoveries") >= 1

    def test_resident_frame_repair_goes_through_pool(self):
        """Invariant failures on already-fixed pages route through
        BufferPool.repair_failure, not ad-hoc engine code."""
        from repro.errors import PageFailureKind, SinglePageFailure

        db, tree = self.build()
        victim = db.get_root(tree.index_id)
        page = db.pool.fix(victim)
        db.pool.unfix(victim)
        assert db.pool.resident(victim)
        failure = SinglePageFailure(victim, PageFailureKind.BTREE_INVARIANT,
                                    "synthetic cross-page mismatch")
        repaired = db.pool.repair_failure(failure)
        db.pool.unfix(victim)
        assert repaired.page_id == victim
        assert db.stats.get("pool_repairs") == 1

    def test_repair_replays_updates_newer_than_pri_lsn(self):
        """While a page is buffered the PRI entry 'may fall behind'
        (Figure 6); recovery must still replay updates logged since the
        last write-back, via the log's chain-head index."""
        from repro.errors import PageFailureKind, SinglePageFailure

        db, tree = self.build()
        txn = db.begin()
        tree.update(txn, key_of(5), b"fresh-but-unflushed")
        db.commit(txn)
        page, _n = tree._descend(key_of(5), for_write=False)
        victim = page.page_id
        db.unfix(victim)
        assert db.pool.is_dirty(victim)  # newest state only in memory + log
        recorded = db.pri.recorded_lsn(victim)
        head = db.log.page_chain_head(victim)
        assert recorded is None or head > recorded
        failure = SinglePageFailure(victim, PageFailureKind.BTREE_INVARIANT,
                                    "synthetic: frame untrustworthy")
        db.pool.repair_failure(failure)
        db.pool.unfix(victim)
        assert tree.lookup(key_of(5)) == b"fresh-but-unflushed"

    def test_pinned_frame_cannot_be_repaired(self):
        from repro.errors import PageFailureKind, SinglePageFailure

        db, tree = self.build()
        victim = db.get_root(tree.index_id)
        db.pool.fix(victim)  # stays pinned
        failure = SinglePageFailure(victim, PageFailureKind.BTREE_INVARIANT)
        with pytest.raises(SinglePageFailure):
            db.pool.repair_failure(failure)
        db.pool.unfix(victim)

    def test_pool_without_repairer_reraises(self):
        from repro.buffer.buffer_pool import BufferPool
        from repro.errors import PageFailureKind, SinglePageFailure

        db, _tree = self.build()
        bare = BufferPool(db.device, db.log, db.stats, 8)
        with pytest.raises(SinglePageFailure):
            bare.repair_failure(
                SinglePageFailure(3, PageFailureKind.CHECKSUM_MISMATCH))
