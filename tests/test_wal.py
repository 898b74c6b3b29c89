"""Unit tests: log records, page ops, log manager, chains, readers."""

import pytest

from repro.engine.database import Database
from repro.errors import KeyNotFound, LogError
from repro.page.page import Page, PageType
from repro.page.slotted import Record, SlottedPage
from repro.sim.clock import SimClock
from repro.sim.iomodel import HDD_PROFILE, NULL_PROFILE
from repro.sim.stats import Stats
from repro.wal.log_manager import LogManager
from repro.wal.log_reader import LogReader
from repro.wal.lsn import LOG_PAGE_SIZE, LOG_START, NULL_LSN, log_page_of
from repro.wal.ops import (
    OpDelete,
    OpInitSlotted,
    OpInsert,
    OpInverse,
    OpSetGhost,
    OpUpdateValue,
    OpWriteBytes,
    PageOp,
)
from repro.wal.records import (
    BackupRef,
    BackupRefKind,
    CheckpointData,
    LogicalUndo,
    LogRecord,
    LogRecordKind,
    UndoAction,
    compress_image,
    decompress_image,
    pri_update,
)
from tests.conftest import fast_config, key_of

PAGE_SIZE = 1024


def fresh_page() -> Page:
    page = Page.format(PAGE_SIZE, 3, PageType.HEAP)
    SlottedPage(page).initialize()
    return page


def make_log() -> LogManager:
    return LogManager(SimClock(), NULL_PROFILE, Stats())


class TestPageOps:
    def test_insert_redo_undo(self):
        page = fresh_page()
        op = OpInsert(0, b"key", b"value")
        op.apply_redo(page)
        assert SlottedPage(page).read_record(0).value == b"value"
        op.apply_undo(page)
        assert SlottedPage(page).slot_count == 0

    def test_delete_redo_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"key", b"value"))
        op = OpDelete(0, b"key", b"value")
        op.apply_redo(page)
        assert SlottedPage(page).slot_count == 0
        op.apply_undo(page)
        assert SlottedPage(page).read_record(0).key == b"key"

    def test_update_value_redo_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"k", b"old"))
        op = OpUpdateValue(0, b"old", b"new")
        op.apply_redo(page)
        assert SlottedPage(page).read_record(0).value == b"new"
        op.apply_undo(page)
        assert SlottedPage(page).read_record(0).value == b"old"

    def test_set_ghost_redo_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"k", b"v"))
        op = OpSetGhost(0, False, True)
        op.apply_redo(page)
        assert SlottedPage(page).is_ghost(0)
        op.apply_undo(page)
        assert not SlottedPage(page).is_ghost(0)

    def test_write_bytes_redo_undo(self):
        page = fresh_page()
        start = 100
        original = bytes(page.data[start:start + 4])
        op = OpWriteBytes(start, original, b"ABCD")
        op.apply_redo(page)
        assert bytes(page.data[start:start + 4]) == b"ABCD"
        op.apply_undo(page)
        assert bytes(page.data[start:start + 4]) == original

    def test_write_bytes_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OpWriteBytes(0, b"ab", b"abc")

    def test_init_slotted_cannot_undo(self):
        page = fresh_page()
        op = OpInitSlotted(PageType.BTREE_LEAF)
        op.apply_redo(page)
        assert page.page_type == PageType.BTREE_LEAF
        with pytest.raises(LogError):
            op.apply_undo(page)

    def test_inverse_op_redoes_the_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"k", b"v"))
        inverse = OpInverse(OpInsert(0, b"k", b"v"))
        inverse.apply_redo(page)  # redo of inverse = undo of insert
        assert SlottedPage(page).slot_count == 0
        with pytest.raises(LogError):
            inverse.apply_undo(page)

    @pytest.mark.parametrize("op", [
        OpInsert(3, b"key", b"value", ghost=True),
        OpDelete(2, b"k", b"v", ghost=False),
        OpUpdateValue(1, b"old", b"new"),
        OpSetGhost(4, True, False),
        OpWriteBytes(64, b"1234", b"abcd"),
        OpInitSlotted(PageType.BTREE_BRANCH),
        OpInverse(OpInsert(0, b"a", b"b")),
    ])
    def test_op_serialization_roundtrip(self, op):
        decoded = PageOp.decode(op.encode())
        assert decoded == op or decoded.encode() == op.encode()

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(LogError):
            PageOp.decode(bytes([250]) + b"junk")
        with pytest.raises(LogError):
            PageOp.decode(b"")


class TestLogRecordSerialization:
    def roundtrip(self, record: LogRecord) -> LogRecord:
        return LogRecord.decode(record.encode())

    def test_update_record(self):
        record = LogRecord(
            LogRecordKind.UPDATE, txn_id=9, prev_lsn=100, page_id=7,
            page_prev_lsn=80, index_id=2, op=OpInsert(1, b"k", b"v"),
            undo=LogicalUndo(UndoAction.DELETE_KEY, b"k"))
        out = self.roundtrip(record)
        assert out.txn_id == 9
        assert out.page_prev_lsn == 80
        assert isinstance(out.op, OpInsert)
        assert out.undo.action == UndoAction.DELETE_KEY

    def test_compensation_record(self):
        record = LogRecord(
            LogRecordKind.COMPENSATION, txn_id=3, page_id=4,
            op=OpInverse(OpSetGhost(2, False, True)), undo_next_lsn=55)
        out = self.roundtrip(record)
        assert out.undo_next_lsn == 55
        assert isinstance(out.op, OpInverse)

    def test_commit_records_empty_payload(self):
        for kind in (LogRecordKind.COMMIT, LogRecordKind.SYS_COMMIT,
                     LogRecordKind.ABORT, LogRecordKind.CHECKPOINT_BEGIN):
            out = self.roundtrip(LogRecord(kind, txn_id=1, prev_lsn=10))
            assert out.kind == kind
            assert out.prev_lsn == 10

    def test_full_page_image_record(self):
        image = compress_image(b"\xAA" * 512)
        record = LogRecord(LogRecordKind.FULL_PAGE_IMAGE, page_id=6,
                           page_lsn=400, image=image)
        out = self.roundtrip(record)
        assert decompress_image(out.image, 512) == b"\xAA" * 512
        assert out.page_lsn == 400

    def test_pri_update_record(self):
        out = self.roundtrip(pri_update([(12, 90), (3, 700)]))
        assert out.kind == LogRecordKind.PRI_UPDATE
        assert out.writes == ((12, 90), (3, 700))
        assert out.page_id == -1

    def test_backup_page_record(self):
        record = LogRecord(LogRecordKind.BACKUP_PAGE, page_id=12, page_lsn=90,
                           backup_ref=BackupRef.page_copy(44))
        out = self.roundtrip(record)
        assert out.backup_ref == BackupRef(BackupRefKind.PAGE_COPY, 44)
        assert out.page_lsn == 90

    def test_checkpoint_record(self):
        checkpoint = CheckpointData({5: 100, 9: 220}, [(1, 300, False),
                                                       (2, 310, True)])
        out = self.roundtrip(LogRecord(LogRecordKind.CHECKPOINT_END,
                                       checkpoint=checkpoint))
        assert out.checkpoint.dirty_pages == {5: 100, 9: 220}
        assert out.checkpoint.active_txns == [(1, 300, False), (2, 310, True)]

    def test_backup_full_record(self):
        out = self.roundtrip(LogRecord(LogRecordKind.BACKUP_FULL, backup_id=8))
        assert out.backup_id == 8

    def test_truncated_record_rejected(self):
        data = LogRecord(LogRecordKind.COMMIT, txn_id=1).encode()
        with pytest.raises(LogError):
            LogRecord.decode(data[:10])
        with pytest.raises(LogError):
            LogRecord.decode(data + b"x")


class TestLogManager:
    def test_lsns_are_byte_offsets(self):
        log = make_log()
        first = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        second = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=2))
        assert first == LOG_START
        assert second - first == len(log.record_at(first).encode())

    def test_force_advances_durable(self):
        log = make_log()
        lsn = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        assert log.durable_lsn == NULL_LSN
        log.force()
        assert log.durable_lsn > lsn

    def test_force_is_idempotent(self):
        stats = Stats()
        log = LogManager(SimClock(), NULL_PROFILE, stats)
        log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.force()
        log.force()
        assert stats.get("log_forces") == 1

    def test_crash_discards_unforced_tail(self):
        log = make_log()
        keep = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.force()
        lose = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=2))
        log.crash()
        assert log.has_record(keep)
        assert not log.has_record(lose)
        assert log.end_lsn == log.durable_lsn

    def test_append_after_crash_reuses_offsets(self):
        log = make_log()
        log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.force()
        lost = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=2))
        log.crash()
        fresh = log.append(LogRecord(LogRecordKind.COMMIT, txn_id=3))
        assert fresh == lost  # same byte offset, new record

    def test_master_checkpoint_survives_only_if_forced(self):
        log = make_log()
        log.log_checkpoint_end(CheckpointData())
        master = log.master_checkpoint_lsn
        log.crash()
        assert log.master_checkpoint_lsn == master

    def test_records_from(self):
        log = make_log()
        lsns = [log.append(LogRecord(LogRecordKind.COMMIT, txn_id=i))
                for i in range(5)]
        tail = log.records_from(lsns[2])
        assert [r.txn_id for r in tail] == [2, 3, 4]

    def test_log_force_charges_time(self):
        clock = SimClock()
        log = LogManager(clock, HDD_PROFILE, Stats())
        log.append(LogRecord(LogRecordKind.COMMIT, txn_id=1))
        log.force()
        assert clock.now > 0


def assert_records_abut(log: LogManager) -> None:
    """Every retained record starts where the one before it ends."""
    records = log.all_records()
    for before, after in zip(records, records[1:]):
        assert before.lsn + before.encoded_size() == after.lsn, (before, after)


class TestForcesLandOnRecordBoundaries:
    """A write-back forces the log through the whole of its PageLSN's
    record.  Forcing one byte into it (``page_lsn + 1``) left
    ``durable_lsn`` inside a volatile record: the record survived a
    crash (its LSN is below the durable prefix), the log resumed at
    ``page_lsn + 1``, and the next record was written over its tail."""

    def test_write_back_of_an_open_transactions_page(self):
        db = Database(fast_config())
        tree = db.create_index()
        db.log.force()
        forced_at: list[int] = []
        force = db.log.force

        def checked_force(up_to_lsn=None):
            force(up_to_lsn)
            forced_at.append(db.log.durable_lsn)

        db.log.force = checked_force
        txn = db.begin()
        tree.insert(txn, key_of(1), b"v" * 200)  # volatile: txn still open
        update = db.log.record_at(txn.last_lsn)
        assert db.log.durable_lsn <= update.lsn
        db.pool.flush_page(update.page_id)
        assert db.log.durable_lsn == update.lsn + update.encoded_size()
        db.crash()
        db.restart("eager")
        boundaries = {r.lsn for r in db.log.all_records()} | {db.log.end_lsn}
        assert forced_at and set(forced_at) <= boundaries
        assert_records_abut(db.log)
        # The loser's update survived the crash, was redone and undone.
        with pytest.raises(KeyNotFound):
            db.tree(tree.index_id).lookup(key_of(1))


class TestLogReader:
    def build_chain(self, log: LogManager, page_id: int, n: int) -> list[int]:
        """Append n update records chained for one page."""
        lsns = []
        prev = NULL_LSN
        for i in range(n):
            record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=page_id,
                               page_prev_lsn=prev,
                               op=OpInsert(i, b"k%d" % i, b"v"))
            prev = log.append(record)
            lsns.append(prev)
        return lsns

    def test_walk_page_chain_returns_oldest_first(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 5)
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        records = reader.walk_page_chain(lsns[-1], NULL_LSN)
        assert [r.lsn for r in records] == lsns

    def test_walk_stops_at_backup_lsn(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 6)
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        records = reader.walk_page_chain(lsns[-1], lsns[2])
        assert [r.lsn for r in records] == lsns[3:]

    def test_chain_reads_charge_per_log_page(self):
        clock = SimClock()
        stats = Stats()
        log = LogManager(clock, NULL_PROFILE, stats)
        # Spread records across several log pages with bulky images.
        prev = NULL_LSN
        lsns = []
        for _ in range(10):
            record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=3,
                               page_prev_lsn=prev,
                               op=OpInsert(0, b"k", b"x" * (LOG_PAGE_SIZE // 2)))
            prev = log.append(record)
            lsns.append(prev)
        reader = LogReader(log, clock, HDD_PROFILE, stats)
        reader.walk_page_chain(lsns[-1], NULL_LSN)
        distinct_pages = len({log_page_of(lsn) for lsn in lsns})
        assert reader.pages_read == pytest.approx(distinct_pages, abs=2)
        assert clock.now > 0

    def test_cached_log_pages_not_recharged(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 20)  # tiny records: one log page
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        reader.walk_page_chain(lsns[-1], NULL_LSN)
        assert reader.pages_read == 1
        assert reader.records_read == 20

    def test_scan_from(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 4)
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        records = reader.scan_from(lsns[1])
        assert [r.lsn for r in records] == lsns[1:]

    def test_missing_record_raises(self):
        log = make_log()
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        with pytest.raises(LogError):
            reader.read(999999)
