"""Unit tests: log records, page ops, log manager, chains, readers."""

import pytest

from repro.engine.database import Database
from repro.errors import KeyNotFound, LogError
from repro.page.page import Page, PageType
from repro.page.slotted import Record, SlottedPage
from repro.sim.clock import SimClock
from repro.sim.iomodel import (
    ARCHIVE_PROFILE,
    FLASH_PROFILE,
    HDD_2012_PROFILE,
    HDD_PROFILE,
    NULL_PROFILE,
    IOProfile,
)
from repro.sim.stats import Stats
from repro.wal.log_manager import LogManager
from repro.wal.log_reader import LogReader
from repro.wal.lsn import LOG_PAGE_SIZE, LOG_START, NULL_LSN, log_page_of
from repro.wal.ops import (
    compensation,
    delete,
    init_slotted,
    insert,
    redo,
    set_ghost,
    value_rewrite,
)
from repro.wal.records import (
    BackupRef,
    BackupRefKind,
    CheckpointData,
    LogicalUndo,
    LogRecordKind,
    UndoAction,
    backup_full,
    backup_page,
    checkpoint_begin,
    checkpoint_end,
    clr,
    compress_image,
    decompress_image,
    encode_update,
    full_page_image,
    pri_update,
    txn_end,
)
from tests import op_reference as reference
from tests.conftest import apply_redo, apply_undo, fast_config, key_of
from tests.record_reference import (LogRecord, all_records, encode, record_at,
                                    records_from)

PAGE_SIZE = 1024


def fresh_page() -> Page:
    page = Page.format(PAGE_SIZE, 3, PageType.HEAP)
    SlottedPage(page).initialize()
    return page


def make_log() -> LogManager:
    return LogManager(SimClock(), NULL_PROFILE, Stats())


def apply(page: Page, op: bytes) -> None:
    """Redo the op ``op`` encodes on ``page``, as replay does."""
    redo(page, op, 0, len(op))


class TestPageOps:
    def test_insert_redo_undo(self):
        page = fresh_page()
        op = insert(0, b"key", b"value")
        apply_redo(page, op)
        assert SlottedPage(page).read_record(0).value == b"value"
        apply_undo(page, op)
        assert SlottedPage(page).slot_count == 0

    def test_delete_redo_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"key", b"value"))
        op = delete(0, b"key", b"value")
        apply_redo(page, op)
        assert SlottedPage(page).slot_count == 0
        apply_undo(page, op)
        assert SlottedPage(page).read_record(0).key == b"key"

    def test_update_value_redo_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"k", b"old"))
        op = value_rewrite(0, b"old", b"new")[0]
        apply_redo(page, op)
        assert SlottedPage(page).read_record(0).value == b"new"
        apply_undo(page, op)
        assert SlottedPage(page).read_record(0).value == b"old"

    def test_set_ghost_redo_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"k", b"v"))
        op = set_ghost(0, False, True)
        apply_redo(page, op)
        assert SlottedPage(page).is_ghost(0)
        apply_undo(page, op)
        assert not SlottedPage(page).is_ghost(0)

    def test_init_slotted_cannot_undo(self):
        page = fresh_page()
        op = init_slotted(PageType.BTREE_LEAF)
        apply_redo(page, op)
        assert page.page_type == PageType.BTREE_LEAF
        with pytest.raises(LogError):
            apply_undo(page, op)

    def test_inverse_op_redoes_the_undo(self):
        page = fresh_page()
        SlottedPage(page).insert(0, Record(b"k", b"v"))
        inverse = compensation(insert(0, b"k", b"v"))
        apply(page, inverse)  # redo of the compensation = undo of insert
        assert SlottedPage(page).slot_count == 0
        with pytest.raises(LogError):
            apply(page, compensation(inverse))

    @pytest.mark.parametrize("op, expected", [
        (insert(3, b"key", b"value", ghost=True),
         reference.OpInsert(3, b"key", b"value", True)),
        (delete(2, b"k", b"v", ghost=False), reference.OpDelete(2, b"k", b"v")),
        (value_rewrite(1, b"old", b"new")[0],
         reference.OpUpdateValue(1, b"old", b"new")),
        (set_ghost(4, True, False), reference.OpSetGhost(4, True, False)),
        (init_slotted(PageType.BTREE_BRANCH),
         reference.OpInitSlotted(PageType.BTREE_BRANCH)),
        (compensation(insert(0, b"a", b"b")),
         reference.OpInverse(reference.OpInsert(0, b"a", b"b"))),
    ])
    def test_op_serialization_roundtrip(self, op, expected):
        """The builder writes what the reference decoder reads back."""
        decoded = reference.decode(op)
        assert repr(decoded) == repr(expected) and expected.encode() == op

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(LogError):
            apply(fresh_page(), bytes([250]) + b"junk")
        with pytest.raises(LogError):
            apply(fresh_page(), b"")


class TestLogRecordSerialization:
    """Each builder's bytes read back as the record they were built
    from."""

    def test_update_record(self):
        out = LogRecord.decode(encode_update(
            9, 100, 7, 80, 2, insert(1, b"k", b"v"),
            LogicalUndo(UndoAction.DELETE_KEY, b"k"), False))
        assert out.txn_id == 9
        assert out.page_prev_lsn == 80
        assert out.op == insert(1, b"k", b"v")
        assert out.undo.action == UndoAction.DELETE_KEY

    def test_compensation_record(self):
        out = LogRecord.decode(clr(3, 0, 4, 0, 0,
                                   compensation(set_ghost(2, False, True)), 55))
        assert out.undo_next_lsn == 55
        assert out.op[0] == 99

    def test_commit_records_empty_payload(self):
        for kind in (LogRecordKind.COMMIT, LogRecordKind.SYS_COMMIT,
                     LogRecordKind.ABORT):
            out = LogRecord.decode(txn_end(kind, 1, 10))
            assert out.kind == kind
            assert out.prev_lsn == 10
        assert LogRecord.decode(checkpoint_begin()).kind == (
            LogRecordKind.CHECKPOINT_BEGIN)

    def test_full_page_image_record(self):
        image = compress_image(b"\xAA" * 512)
        out = LogRecord.decode(full_page_image(6, 400, image))
        assert decompress_image(out.image, 512) == b"\xAA" * 512
        assert out.page_lsn == 400

    def test_pri_update_record(self):
        out = LogRecord.decode(pri_update([(12, 90), (3, 700)]))
        assert out.kind == LogRecordKind.PRI_UPDATE
        assert out.writes == ((12, 90), (3, 700))
        assert out.page_id == -1

    def test_backup_page_record(self):
        out = LogRecord.decode(backup_page(12, 90, BackupRef.page_copy(44)))
        assert out.backup_ref == BackupRef(BackupRefKind.PAGE_COPY, 44)
        assert out.page_lsn == 90

    def test_checkpoint_record(self):
        checkpoint = CheckpointData({5: 100, 9: 220}, [(1, 300, False),
                                                       (2, 310, True)])
        out = LogRecord.decode(checkpoint_end(checkpoint))
        assert out.checkpoint.dirty_pages == {5: 100, 9: 220}
        assert out.checkpoint.active_txns == [(1, 300, False), (2, 310, True)]

    def test_backup_full_record(self):
        assert LogRecord.decode(backup_full(8)).backup_id == 8

    def test_truncated_record_rejected(self):
        data = txn_end(LogRecordKind.COMMIT, 1, 0)
        with pytest.raises(LogError):
            LogRecord.decode(data[:10])
        with pytest.raises(LogError):
            LogRecord.decode(data + b"x")


class TestLogManager:
    def test_lsns_are_byte_offsets(self):
        log = make_log()
        first = log.append(txn_end(LogRecordKind.COMMIT, 1, 0))
        second = log.append(txn_end(LogRecordKind.COMMIT, 2, 0))
        assert first == LOG_START
        assert second - first == len(encode(record_at(log, first)))

    def test_force_advances_durable(self):
        log = make_log()
        lsn = log.append(txn_end(LogRecordKind.COMMIT, 1, 0))
        assert log.durable_lsn == NULL_LSN
        log.force()
        assert log.durable_lsn > lsn

    @pytest.mark.parametrize("profile", [
        HDD_PROFILE, HDD_2012_PROFILE, FLASH_PROFILE, ARCHIVE_PROFILE,
        NULL_PROFILE, IOProfile("odd", 0.003, 0.0007, 3e7, 0.37)],
        ids=lambda profile: profile.name)
    def test_a_force_costs_one_sequential_write(self, profile):
        """The force charges exactly ``write_cost(pending, sequential=
        True)`` — the same float, so simulated time stays bit-identical
        to the I/O model's."""
        clock = SimClock()
        log = LogManager(clock, profile, Stats())
        for txn_id in range(1, 4):
            log.append(txn_end(LogRecordKind.COMMIT, txn_id, 0))
        pending = log.end_lsn - log.durable_lsn
        before = clock.now
        log.force()
        assert clock.now == before + profile.write_cost(pending,
                                                        sequential=True)

    def test_force_is_idempotent(self):
        stats = Stats()
        log = LogManager(SimClock(), NULL_PROFILE, stats)
        log.append(txn_end(LogRecordKind.COMMIT, 1, 0))
        log.force()
        log.force()
        assert stats.get("log_forces") == 1

    def test_crash_discards_unforced_tail(self):
        log = make_log()
        keep = log.append(txn_end(LogRecordKind.COMMIT, 1, 0))
        log.force()
        lose = log.append(txn_end(LogRecordKind.COMMIT, 2, 0))
        log.crash()
        assert log.has_record(keep)
        assert not log.has_record(lose)
        assert log.end_lsn == log.durable_lsn

    def test_append_after_crash_reuses_offsets(self):
        log = make_log()
        log.append(txn_end(LogRecordKind.COMMIT, 1, 0))
        log.force()
        lost = log.append(txn_end(LogRecordKind.COMMIT, 2, 0))
        log.crash()
        fresh = log.append(txn_end(LogRecordKind.COMMIT, 3, 0))
        assert fresh == lost  # same byte offset, new record

    def test_master_checkpoint_survives_only_if_forced(self):
        log = make_log()
        log.log_checkpoint_end(CheckpointData())
        master = log.master_checkpoint_lsn
        log.crash()
        assert log.master_checkpoint_lsn == master

    def test_records_from(self):
        log = make_log()
        lsns = [log.append(txn_end(LogRecordKind.COMMIT, i, 0))
                for i in range(5)]
        tail = records_from(log, lsns[2])
        assert [r.txn_id for r in tail] == [2, 3, 4]

    def test_log_force_charges_time(self):
        clock = SimClock()
        log = LogManager(clock, HDD_PROFILE, Stats())
        log.append(txn_end(LogRecordKind.COMMIT, 1, 0))
        log.force()
        assert clock.now > 0


def assert_records_abut(log: LogManager) -> None:
    """Every retained record starts where the one before it ends."""
    records = all_records(log)
    for before, after in zip(records, records[1:]):
        assert before.lsn + len(encode(before)) == after.lsn, (before, after)


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
        update = record_at(db.log, txn.last_lsn)
        assert db.log.durable_lsn <= update.lsn
        db.pool.flush_page(update.page_id)
        assert db.log.durable_lsn == update.lsn + len(encode(update))
        db.crash()
        db.restart("eager")
        boundaries = {r.lsn for r in all_records(db.log)} | {db.log.end_lsn}
        assert forced_at and set(forced_at) <= boundaries
        assert_records_abut(db.log)
        # The loser's update survived the crash, was redone and undone.
        with pytest.raises(KeyNotFound):
            db.tree(tree.index_id).lookup(key_of(1))


    def test_a_force_through_an_lsn_inside_a_volatile_record_is_refused(self):
        """Past the durable prefix, an LSN where no record starts names
        no record to force through: forcing through it would harden part
        of one, so it is a :class:`LogError` and nothing is forced.
        ``NULL_LSN`` and truncated LSNs lie below the prefix and force
        nothing."""
        log = make_log()
        first, second = (log.append(encode_update(
            1, 0, 3, 0, 0, insert(0, b"k", b"v" * 40), None, False))
            for _ in range(2))
        for inside in (first + 1, second - 1, log.end_lsn + 8):
            with pytest.raises(LogError, match="no log record starts"):
                log.force_through(inside)
            assert log.durable_lsn == NULL_LSN
        log.force_through(NULL_LSN)
        assert log.durable_lsn == NULL_LSN
        log.force_through(first)
        assert log.durable_lsn == second
        log.force()
        log.truncate(second)
        log.force_through(first)
        assert log.durable_lsn == log.end_lsn


class TestLogReader:
    def build_chain(self, log: LogManager, page_id: int, n: int) -> list[int]:
        """Append n update records chained for one page."""
        lsns = []
        prev = NULL_LSN
        for i in range(n):
            prev = log.append(encode_update(1, 0, page_id, prev, 0,
                                            insert(i, b"k%d" % i, b"v"), None,
                                            False))
            lsns.append(prev)
        return lsns

    def test_walk_page_chain_returns_oldest_first(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 5)
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        records = reader.walk_page_chain(lsns[-1], NULL_LSN)
        assert [lsn for lsn, _encoding in records] == lsns

    def test_walk_stops_at_backup_lsn(self):
        log = make_log()
        lsns = self.build_chain(log, 7, 6)
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        records = reader.walk_page_chain(lsns[-1], lsns[2])
        assert [lsn for lsn, _encoding in records] == lsns[3:]

    def test_chain_reads_charge_per_log_page(self):
        clock = SimClock()
        stats = Stats()
        log = LogManager(clock, NULL_PROFILE, stats)
        # Spread records across several log pages with bulky images.
        prev = NULL_LSN
        lsns = []
        for _ in range(10):
            prev = log.append(encode_update(
                1, 0, 3, prev, 0, insert(0, b"k", b"x" * (LOG_PAGE_SIZE // 2)),
                None, False))
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
        scanned = reader.scan_from(lsns[1])
        assert [lsn for lsn, *_header in scanned] == lsns[1:]
        for lsn, kind, commits, txn_id, page_id in scanned:
            record = record_at(log, lsn)
            assert (kind, commits, txn_id, page_id) == (
                LogRecordKind.UPDATE, False, record.txn_id, 7)

    def test_missing_record_raises(self):
        log = make_log()
        reader = LogReader(log, SimClock(), NULL_PROFILE, Stats())
        with pytest.raises(LogError):
            reader.encoding(999999)
