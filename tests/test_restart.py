"""Integration tests: crash / restart recovery (Figures 4, 11, 12).

The crash matrix systematically loses different suffixes of the
write-back protocol (data page written vs. PRI update logged) and
asserts that restart repairs every combination — the exact cases of
Figure 12.
"""

import pytest

from repro.engine.database import Database
from repro.page.page import Page
from repro.wal.records import LogRecordKind, pri_update
from tests.conftest import fast_config, key_of, value_of
from tests.record_reference import all_records


def loaded(n=200, **overrides):
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return db, tree


class TestBasicRestart:
    def test_committed_survives_uncommitted_rolls_back(self):
        db, tree = loaded()
        txn_lost = db.begin()
        tree.update(txn_lost, key_of(0), b"UNCOMMITTED")
        txn_kept = db.begin()
        tree.update(txn_kept, key_of(1), b"COMMITTED")
        db.commit(txn_kept)
        db.crash()
        report = db.restart()
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert tree.lookup(key_of(1)) == b"COMMITTED"
        assert report.undo_transactions == 1

    def test_restart_is_idempotent(self):
        """Crashing during/after restart and restarting again is safe."""
        db, tree = loaded()
        txn = db.begin()
        tree.update(txn, key_of(5), b"DOOMED")
        db.crash()
        db.restart()
        db.crash()
        db.restart()
        tree = db.tree(1)
        assert tree.lookup(key_of(5)) == value_of(5, 0)

    def test_all_data_intact_after_restart(self):
        db, tree = loaded(300)
        db.crash()
        db.restart()
        tree = db.tree(1)
        for i in range(300):
            assert tree.lookup(key_of(i)) == value_of(i, 0)
        from repro.btree.verify import verify_tree

        assert verify_tree(tree).ok

    def test_txn_ids_not_reused_after_restart(self):
        db, tree = loaded()
        txn = db.begin()
        old_id = txn.txn_id
        tree.update(txn, key_of(0), b"x")
        db.crash()
        db.restart()
        assert db.begin().txn_id > old_id

    def test_group_commit_block_open_at_the_crash_dies_with_it(self):
        """A group-commit batch is volatile: a commit after the crash and
        restart forces on its own, not when the dead block exits."""
        db, tree = loaded()
        with db.group_commit():
            txn = db.begin()
            tree.update(txn, key_of(0), b"batched")
            db.commit(txn)
            db.crash()
            db.restart()
            txn = db.begin()
            db.tree(1).update(txn, key_of(1), b"after the crash")
            lsn = db.commit(txn)
            assert db.log.durable_lsn > lsn

    def test_uncommitted_system_txn_rolls_back(self):
        """An unlogged system-transaction commit means the structural
        change never happened; contents are unaffected."""
        db, tree = loaded(100)
        db.flush_everything()
        db.log.force()
        # Start a split but "crash" before its SYS_COMMIT is durable:
        # easiest honest approximation is to crash right after heavy
        # inserts whose structural changes are still in the log buffer.
        txn = db.begin()
        for i in range(100, 160):
            tree.insert(txn, key_of(i), value_of(i, 0))
        # No commit, no force: all of it (including any system commits
        # in the buffer) is lost.
        db.crash()
        db.restart()
        tree = db.tree(1)
        assert tree.count() == 100
        from repro.btree.verify import verify_tree

        assert verify_tree(tree).ok


class TestCompensationPerIndex:
    """Undo compensates each write in the tree named by its record's
    index id: one loser that inserts, updates and deletes in two
    indexes leaves both as they were, by abort and by restart."""

    def scenario(self):
        db, first = loaded(50)
        second = db.create_index()
        txn = db.begin()
        for i in range(50):
            second.insert(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        loser = db.begin()
        for tree in (first, second):
            tree.insert(loser, key_of(500), b"new")
            tree.update(loser, key_of(10), b"changed")
            tree.delete(loser, key_of(20))
        return db, loser

    @staticmethod
    def assert_untouched(db):
        from repro.btree.verify import verify_tree

        for index_id, version in ((1, 0), (2, 1)):
            tree = db.tree(index_id)
            assert not tree.contains(key_of(500))
            assert tree.lookup(key_of(10)) == value_of(10, version)
            assert tree.lookup(key_of(20)) == value_of(20, version)
            assert tree.count() == 50
            assert verify_tree(tree).ok

    def test_abort_undoes_both_indexes(self):
        db, loser = self.scenario()
        db.abort(loser)
        self.assert_untouched(db)

    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    def test_restart_undoes_both_indexes(self, mode):
        db, _loser = self.scenario()
        db.log.force()
        db.crash()
        report = db.restart(mode=mode)
        db.drain_pending()
        assert len(report.loser_txn_ids) == 1
        self.assert_untouched(db)


class TestCheckpoints:
    def test_restart_starts_at_checkpoint(self):
        db, tree = loaded()
        db.checkpoint()
        txn = db.begin()
        tree.update(txn, key_of(0), b"after-ckpt")
        db.commit(txn)
        db.crash()
        report = db.restart()
        # Analysis reads only the tail after the checkpoint.
        total_records = len(all_records(db.log))
        assert report.analysis_records < total_records
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == b"after-ckpt"

    def test_checkpoint_bounds_redo_reads(self):
        db, tree = loaded(300)
        db.crash()
        r1 = db.restart()
        tree = db.tree(1)
        db.checkpoint()
        db.crash()
        r2 = db.restart()
        assert r2.redo_pages_read <= r1.redo_pages_read
        assert r2.redo_pages_read == 0  # everything was flushed

    def test_pri_persisted_and_reloaded(self):
        db, tree = loaded()
        db.checkpoint()
        recorded = {pid: db.pri.recorded_lsn(pid)
                    for pid in range(db.allocated_pages())
                    if db.pri.recorded_lsn(pid) is not None}
        assert recorded
        db.crash()
        db.restart()
        for pid, lsn in recorded.items():
            assert db.pri.recorded_lsn(pid) == lsn

    def test_damaged_pri_page_recovers_from_log_image(self):
        """Single-page recovery applied to the PRI itself (5.2.2)."""
        db, tree = loaded()
        db.checkpoint()
        victim = db.config.pri_region_start  # first PRI page
        db.device.inject_bit_rot(victim, nbits=5)
        db.crash()
        report = db.restart()
        assert report.pri_pages_repaired >= 1
        # And the PRI still protects data pages.
        tree = db.tree(1)
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        data_victim = page.page_id
        db.pool.unfix(data_victim)
        db.evict_everything()
        db.device.inject_read_error(data_victim)
        assert tree.lookup(key_of(0)) == value_of(0, 0)


    def test_pri_page_read_fails_typed(self, monkeypatch):
        """Damage is a ``DeviceReadError`` or a ``SinglePageFailure``;
        anything else out of ``device.read`` is a bug and must surface
        (red on the parent, whose ``except Exception`` "repaired" the
        page and counted it)."""
        db, tree = loaded()
        db.checkpoint()
        victim = db.config.pri_region_start
        db.crash()
        real_read = db.device.read

        def read(page_id):
            if page_id == victim:
                raise RuntimeError("a bug, not damage")
            return real_read(page_id)

        monkeypatch.setattr(db.device, "read", read)
        with pytest.raises(RuntimeError, match="a bug, not damage"):
            db.restart()
        assert db.stats.get("pri_pages_repaired") == 0


class TestFigure4RedoOptimization:
    """Logging completed writes lets redo skip already-written pages."""

    def scenario(self, log_completed_writes: bool):
        from repro.baselines.media_only import traditional_config

        cfg = traditional_config(
            log_completed_writes=log_completed_writes,
            capacity_pages=512, buffer_capacity=32,
            device_profile=fast_config().device_profile,
            log_profile=fast_config().log_profile,
            backup_profile=fast_config().backup_profile)
        db = Database(cfg)
        tree = db.create_index()
        txn = db.begin()
        for i in range(200):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        # Write back everything (completed writes).  The write-
        # completion records are forced lazily — here by an explicit
        # force, in production by whatever commit comes next.
        db.flush_everything()
        db.log.force()
        db.crash()
        return db, db.restart()

    def test_with_write_logging_redo_reads_nothing(self):
        _db, report = self.scenario(log_completed_writes=True)
        assert report.pages_trimmed_by_write_logging > 0
        assert report.redo_pages_read == 0

    def test_without_write_logging_redo_reads_everything(self):
        _db, report = self.scenario(log_completed_writes=False)
        assert report.pages_trimmed_by_write_logging == 0
        assert report.redo_pages_read > 0

    def test_one_run_record_trims_only_pages_not_redirtied(self):
        """Analysis applies a run's PRI record entry by entry: a page
        updated again after its entry's PageLSN stays in the dirty-page
        table, every other page of the run leaves it."""
        db, tree = loaded(page_size=512)
        db.checkpoint()
        txn = db.begin()
        for i in range(0, 200, 10):
            tree.update(txn, key_of(i), b"written")
        db.commit(txn)
        run: list[tuple[int, int]] = []
        db.pool.on_run_cleaned = run.extend  # hold the run's record back
        db.flush_everything()
        db.pool.on_run_cleaned = db.checkpointer.on_run_cleaned
        pages = {page_id for page_id, _lsn in run}
        txn = db.begin()
        for i in (0, 100):
            tree.update(txn, key_of(i), b"re-dirtied")
        db.commit(txn)
        redirtied = set(db.pool.dirty_page_table())
        assert len(redirtied) == 2 and redirtied < pages
        db.log.append(pri_update(run))  # names all, after the re-dirtying
        db.log.force()
        db.crash()
        report = db.restart()
        assert report.pages_trimmed_by_write_logging == len(pages) - 2
        assert report.redo_pages_read == 2
        assert report.redo_pages_already_current == 0
        tree = db.tree(1)
        for i in range(0, 200, 10):
            assert tree.lookup(key_of(i)) == (
                b"re-dirtied" if i in (0, 100) else b"written")

    def test_figure4_page_63_vs_47(self):
        """The paper's concrete example: page 63 (write not logged)
        needs a redo read; page 47 (write logged) does not."""
        db, tree = loaded()
        db.flush_everything()          # all writes logged (like page 47)
        txn = db.begin()
        tree.update(txn, key_of(0), b"like-page-63")
        db.commit(txn)                 # logged update, page not written
        db.crash()
        report = db.restart()
        assert report.redo_pages_read == 1
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == b"like-page-63"


class TestAnalysisBackfill:
    """Pre-checkpoint backfill: pages whose rec_lsn precedes the master
    checkpoint get their older records spliced in, in LSN order."""

    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    def test_fuzzy_checkpoint_backfill_recovers(self, mode):
        """A checkpoint whose dirty-page table points below the master
        record (a fuzzy checkpoint that did not flush) forces analysis
        to backfill pre-checkpoint records — and recovery must still
        replay them in order."""
        from repro.wal.records import CheckpointData

        db, tree = loaded()
        db.flush_everything()
        txn = db.begin()
        for i in range(0, 40, 2):
            tree.update(txn, key_of(i), b"pre-ckpt-%d" % i)
        db.commit(txn)
        # Hand-write a fuzzy CHECKPOINT_END: the pool's dirty table as
        # of *now*, without flushing anything first.
        checkpoint = CheckpointData(db.pool.dirty_page_table(), [], {})
        db.log.log_checkpoint_end(checkpoint)
        txn = db.begin()
        for i in range(1, 40, 2):
            tree.update(txn, key_of(i), b"post-ckpt-%d" % i)
        db.commit(txn)
        db.crash()
        report = db.restart(mode=mode)
        assert report.analysis_records < len(all_records(db.log))
        if mode == "on_demand":
            db.finish_restart()
        tree = db.tree(1)
        for i in range(0, 40, 2):
            assert tree.lookup(key_of(i)) == b"pre-ckpt-%d" % i
        for i in range(1, 40, 2):
            assert tree.lookup(key_of(i)) == b"post-ckpt-%d" % i


class TestFigure12CrashMatrix:
    """Lose different suffixes of: update -> write-back -> PRI record."""

    def test_page_written_but_pri_record_lost(self):
        """Figure 12 bottom row: the data page is current on disk but
        the PRI update never made it to the log.  Redo finds the page
        up to date and generates the missing PRI record."""
        db, tree = loaded()
        db.flush_everything()
        db.log.force()
        txn = db.begin()
        tree.update(txn, key_of(3), b"survives")
        db.commit(txn)  # update durable
        # Write the page back, but crash before the PRI-update record
        # (appended, unforced) becomes durable.
        page, _n, _pid = tree._descend(key_of(3), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.pool.flush_page(victim)   # device write + unforced PRI record
        assert db.log.durable_lsn < db.log.end_lsn
        db.crash()
        report = db.restart()
        assert report.redo_pages_read >= 1
        assert report.redo_pages_already_current >= 1
        assert report.pri_repair_records >= 1
        tree = db.tree(1)
        assert tree.lookup(key_of(3)) == b"survives"
        # The regenerated PRI record is now in the log.
        kinds = [r.kind for r in all_records(db.log)]
        assert LogRecordKind.PRI_UPDATE in kinds

    def test_update_durable_but_page_never_written(self):
        """Figure 12 top rows: the update record exists, no completed
        write; redo must read the page and re-apply.  The crash itself
        discards the dirty frame unwritten."""
        db, tree = loaded()
        db.flush_everything()
        txn = db.begin()
        tree.update(txn, key_of(4), b"replay-me")
        db.commit(txn)
        page, _node, victim = tree._descend(key_of(4), for_write=False)
        db.pool.unfix(victim)
        assert victim in db.pool.dirty_page_table()
        written = db.stats.get("pages_written_back")
        db.crash()  # page never written back
        assert len(db.pool) == 0
        assert db.stats.get("pages_written_back") == written
        on_device = Page(db.config.page_size, db.device.raw_image(victim))
        assert on_device.page_lsn < page.page_lsn
        report = db.restart()
        assert report.redo_records_applied >= 1
        tree = db.tree(1)
        assert tree.lookup(key_of(4)) == b"replay-me"

    def test_pri_lsn_correct_after_each_crash_variant(self):
        """After restart, the PRI's expectations match the devices'
        reality — a stale-LSN false positive would break reads."""
        db, tree = loaded()
        db.flush_everything()
        txn = db.begin()
        tree.update(txn, key_of(7), b"v1")
        db.commit(txn)
        page, _n, _pid = tree._descend(key_of(7), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.pool.flush_page(victim)
        db.crash()
        db.restart()
        tree = db.tree(1)
        db.evict_everything()
        # A clean read: any PRI/PageLSN disagreement would surface here.
        assert tree.lookup(key_of(7)) == b"v1"
        assert db.stats.get("spf[stale-lsn]") == 0

    def test_crash_between_write_and_eviction_loses_nothing(self):
        """Figure 11's whole point: the ordering write -> log record ->
        eviction leaves no window where data is lost."""
        db, tree = loaded()
        txn = db.begin()
        for i in range(50):
            tree.update(txn, key_of(i), b"wave")
        db.commit(txn)
        # Flush pages (writes + PRI records), then crash WITHOUT
        # evicting; then also test after evicting.
        db.flush_everything()
        db.crash()
        db.restart()
        tree = db.tree(1)
        for i in range(50):
            assert tree.lookup(key_of(i)) == b"wave"

    def test_single_page_recovery_still_works_after_restart(self):
        """The reconstructed PRI must be good enough to drive recovery."""
        db, tree = loaded()
        db.flush_everything()
        db.crash()
        db.restart()
        tree = db.tree(1)
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_read_error(victim)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("single_page_recoveries") == 1
