"""Media matrix: media failures injected at every crash-matrix point.

The crash matrix's protocol points (``tests/test_crash_matrix.py``)
describe the interesting mid-protocol states; this suite injects a
*media* failure at each of them and requires both restore modes to
converge to exactly the committed state, with a differential oracle
demanding byte-identical pages and an identical log from eager and
on-demand restore of the same failure image.

It also covers the paper's double-failure cells (the failure-class
matrix composes):

* **media failure during an on-demand restart** — the crash's pending
  redo/undo work is absorbed by the restore (chain replay from the
  backup subsumes every deferred redo; the restore analysis
  rediscovers every deferred loser);
* **system failure during an on-demand restore** — the half-restored
  replacement device is not a trustworthy redo substrate, so restart
  refuses and the restore re-runs from the same (retained) backup,
  already-restored pages replaying as no-ops.
"""

from __future__ import annotations

import pytest

from repro.btree.verify import verify_tree
from repro.errors import MediaFailure
from tests.conftest import (
    assert_identical_recovery,
    clone_crashed,
    key_of,
    value_of,
)
from tests.test_crash_matrix import LOSER_KEYS, PROTOCOL_POINTS, prepared


def media_fail(db) -> None:
    """Fail the device through the real escalation path: active user
    transactions are aborted, their locks released."""
    db.device.fail_device("injected media failure")
    db._on_media_failure(MediaFailure(db.device.name,
                                      "injected media failure"))


def prepared_media(**overrides):
    """The crash matrix's prepared state, with a full backup where the
    crash matrix takes its checkpoint."""
    db, tree, model = prepared(with_backup=True, **overrides)
    backup_id = db.backup_store.full_backup_ids()[-1]
    return db, tree, model, backup_id


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["eager", "on_demand"])
@pytest.mark.parametrize("point", sorted(PROTOCOL_POINTS))
class TestMediaMatrix:
    def test_converges_to_committed_state(self, point, mode):
        overrides, steps = PROTOCOL_POINTS[point]
        db, tree, model, backup_id = prepared_media(**overrides)
        steps(db, tree)
        media_fail(db)
        report = db.recover_media(backup_id, mode=mode)
        assert report.mode == mode
        tree = db.tree(1)
        # Committed keys are readable immediately in both modes (lazy
        # restore rides the fix path); loser keys only once undone —
        # and unlike a crash, a media failure does not erase an
        # unforced loser's records, so the mid-segment-seal bulk's
        # keys (60..129) count as loser keys here too.
        for i in (0, 2, 40, 140):
            assert tree.lookup(key_of(i)) == model[key_of(i)]
        if mode == "on_demand":
            assert report.pending_restore_pages > 0
            db.finish_restore()
            assert not db.restore_pending
            assert db.last_restore_completion_lsn is not None
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok

    def test_survives_repeated_media_failure(self, point, mode):
        """The replacement device fails too: recover again from the
        same retained backup."""
        overrides, steps = PROTOCOL_POINTS[point]
        db, tree, model, backup_id = prepared_media(**overrides)
        steps(db, tree)
        media_fail(db)
        db.recover_media(backup_id, mode=mode)
        if mode == "on_demand":
            db.drain_restore(page_budget=2)  # partial progress
        media_fail(db)
        db.recover_media(backup_id, mode=mode)
        if mode == "on_demand":
            db.finish_restore()
        tree = db.tree(1)
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok


@pytest.mark.parametrize("point", sorted(PROTOCOL_POINTS))
def test_modes_restore_identically(point):
    """The differential oracle: one media-failure image, two restores
    — byte-identical pages, identical log, identical committed state."""
    overrides, steps = PROTOCOL_POINTS[point]
    db, tree, _model, backup_id = prepared_media(**overrides)
    steps(db, tree)
    media_fail(db)
    eager_db = clone_crashed(db)
    lazy_db = clone_crashed(db)
    eager_db.recover_media(backup_id, mode="eager")
    lazy_db.recover_media(backup_id, mode="on_demand")
    lazy_db.finish_restore()
    assert_identical_recovery(eager_db, lazy_db)


# ----------------------------------------------------------------------
# Double failures (the failure-class matrix composes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["eager", "on_demand"])
@pytest.mark.parametrize("point", sorted(PROTOCOL_POINTS))
class TestMediaFailureDuringOnDemandRestart:
    def test_restore_absorbs_pending_restart(self, point, mode):
        """Crash at the point, open with on-demand restart, then lose
        the device while redo/undo work is still pending: the restore
        must deliver exactly the committed state on its own."""
        overrides, steps = PROTOCOL_POINTS[point]
        db, tree, model, backup_id = prepared_media(**overrides)
        steps(db, tree)
        db.crash()
        db.restart(mode="on_demand")
        media_fail(db)
        db.recover_media(backup_id, mode=mode)
        # The restart registry's deferred work was absorbed.
        assert not db.restart_pending
        if mode == "on_demand":
            db.finish_restore()
        tree = db.tree(1)
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok


@pytest.mark.parametrize("point", sorted(PROTOCOL_POINTS))
def test_double_failure_modes_restore_identically(point):
    """Differential oracle for the double failure: crash, on-demand
    restart, media failure mid-restart — both restore modes agree."""
    overrides, steps = PROTOCOL_POINTS[point]
    db, tree, _model, backup_id = prepared_media(**overrides)
    steps(db, tree)
    db.crash()
    db.restart(mode="on_demand")
    media_fail(db)
    eager_db = clone_crashed(db)
    lazy_db = clone_crashed(db)
    eager_db.recover_media(backup_id, mode="eager")
    lazy_db.recover_media(backup_id, mode="on_demand")
    lazy_db.finish_restore()
    assert_identical_recovery(eager_db, lazy_db)


class TestCrashDuringOnDemandRestore:
    def test_restart_refuses_half_restored_device(self):
        db, tree, model, backup_id = prepared_media()
        media_fail(db)
        db.recover_media(backup_id, mode="on_demand")
        db.drain_restore(page_budget=2)
        assert db.restore_pending
        db.crash()
        with pytest.raises(MediaFailure):
            db.restart()

    @pytest.mark.parametrize("rerun_mode", ["eager", "on_demand"])
    def test_rerun_restore_recovers_everything(self, rerun_mode):
        """Crash mid-drain, then re-run the restore from the same
        backup: restored pages replay as no-ops, unrestored pages are
        rebuilt, losers are rediscovered from the durable log."""
        db, tree, model, backup_id = prepared_media()
        media_fail(db)
        db.recover_media(backup_id, mode="on_demand")
        db.drain_restore(page_budget=2)
        db.crash()
        db.recover_media(backup_id, mode=rerun_mode)
        if rerun_mode == "on_demand":
            db.finish_restore()
        tree = db.tree(1)
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok
        for i in LOSER_KEYS:
            assert tree.lookup(key_of(i)) == model[key_of(i)]

    def test_crash_after_completion_is_a_plain_crash(self):
        """Once the watermark is recorded, a crash is just a crash:
        restart works and the restore does not re-run."""
        db, tree, model, backup_id = prepared_media()
        media_fail(db)
        db.recover_media(backup_id, mode="on_demand")
        db.finish_restore()
        assert not db.restore_pending
        db.crash()
        db.restart()
        tree = db.tree(1)
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok


class TestLoserPredatingBackup:
    """A transaction active *at backup time* whose records all precede
    the backup record: its uncommitted update sits inside the backup
    images (the backup's checkpoint flushed it), and the tail scan
    alone would never see it.  The loser set is seeded from the
    backup's checkpoint ATT, so it must still be rolled back."""

    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    def test_rolled_back_in_both_modes(self, mode):
        from repro.engine.database import Database
        from tests.conftest import fast_config

        db = Database(fast_config())
        tree = db.create_index()
        txn = db.begin()
        for i in range(100):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        loser = db.begin()
        tree.update(loser, key_of(5), b"DOOMED-PRE-BACKUP")
        backup_id = db.take_full_backup()  # checkpoint flushes the loser
        media_fail(db)
        report = db.recover_media(backup_id, mode=mode)
        assert loser.txn_id in report.loser_txn_ids
        if mode == "on_demand":
            db.finish_restore()
        tree = db.tree(1)
        assert tree.lookup(key_of(5)) == value_of(5, 0)
        assert verify_tree(tree).ok


class TestRestoreWithTraffic:
    def test_traffic_during_restore_converges(self):
        """Interleave reads, writes, and budgeted drains while the
        restore is pending; the end state is the committed model plus
        exactly the new traffic."""
        db, tree, model, backup_id = prepared_media()
        media_fail(db)
        db.recover_media(backup_id, mode="on_demand")
        tree = db.tree(1)
        probe = 0
        wave = 0
        while db.restore_pending:
            pages, losers = db.drain_restore(page_budget=3, loser_budget=1)
            key = key_of(probe % 150)
            if key not in (key_of(i) for i in LOSER_KEYS):
                assert tree.lookup(key) == model[key]
            txn = db.begin()
            new_key = key_of(500 + wave)
            db.insert(tree, new_key, b"during-restore-%d" % wave, txn=txn)
            db.commit(txn)
            model[new_key] = b"during-restore-%d" % wave
            probe += 37
            wave += 1
            if pages == 0 and losers == 0:
                break
        db.finish_restore()
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok

    def test_update_of_unrestored_page_restores_it_first(self):
        db, tree, model, backup_id = prepared_media()
        media_fail(db)
        db.recover_media(backup_id, mode="on_demand")
        pending_before = db.pending_recovery.pending_page_count
        tree = db.tree(1)
        txn = db.begin()
        db.update(tree, key_of(100), b"updated-mid-restore", txn=txn)
        db.commit(txn)
        assert db.pending_recovery.pending_page_count < pending_before
        assert tree.lookup(key_of(100)) == b"updated-mid-restore"
