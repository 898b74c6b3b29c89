"""Crash matrix: injected crashes at every interesting protocol point.

Each protocol point leaves a different suffix of a multi-step protocol
unfinished — checkpointing, PRI persistence, the write-back sequence
of Figure 11, log-segment sealing — and every (point × restart mode)
cell must converge to exactly the committed state.  A differential
oracle then recovers one crash image under both modes and requires
byte-identical pages and an identical log tail: instant restart must
be indistinguishable from classic ARIES restart once its pending work
has drained.

The protocol points are shared with ``tests/test_media_matrix.py``,
which injects a *media* failure (and the double-failure combinations)
at the same points: :data:`PROTOCOL_POINTS` maps each point to its
steps only, with the failure finale supplied by the caller.
"""

from __future__ import annotations

import pytest

from benchmarks.common import cut_run_after
from repro.btree.verify import verify_tree
from repro.engine.database import Database
from repro.wal.records import LogRecord, LogRecordKind
from tests.conftest import (
    assert_identical_recovery,
    clone_crashed,
    fast_config,
    key_of,
    value_of,
)

#: keys touched by the durable loser transaction (their pre-crash
#: committed values must survive; the doomed values must not)
LOSER_KEYS = (5, 11, 17)


def prepared(with_backup: bool = False,
             **overrides) -> tuple[Database, object, dict[bytes, bytes]]:
    """Committed base + checkpoint + committed wave + durable loser.

    With ``with_backup`` the checkpoint is a full backup (which itself
    checkpoints), so the same protocol state is reachable by media
    recovery; the backup id is then ``db.backup_store.
    full_backup_ids()[-1]``.
    """
    db = Database(fast_config(capacity_pages=1024, buffer_capacity=48,
                              **overrides))
    tree = db.create_index()
    model: dict[bytes, bytes] = {}
    txn = db.begin()
    for i in range(150):
        tree.insert(txn, key_of(i), value_of(i, 0))
        model[key_of(i)] = value_of(i, 0)
    db.commit(txn)
    db.flush_everything()
    if with_backup:
        db.take_full_backup()
    else:
        db.checkpoint()
    txn = db.begin()
    for i in range(0, 60, 2):
        tree.update(txn, key_of(i), value_of(i, 1))
        model[key_of(i)] = value_of(i, 1)
    db.commit(txn)
    loser = db.begin()
    for i in LOSER_KEYS:
        tree.update(loser, key_of(i), b"DOOMED")
    # The rider commit's group-commit force hardens the loser's records
    # (a loser whose records never became durable simply vanishes).
    rider = db.begin()
    tree.update(rider, key_of(149), b"rider")
    db.commit(rider)
    model[key_of(149)] = b"rider"
    return db, tree, model


# ----------------------------------------------------------------------
# Protocol points: each leaves a different protocol suffix unfinished.
# The failure itself (crash or media) is the caller's finale.
# ----------------------------------------------------------------------
def point_post_commit(db: Database, tree) -> None:
    """Baseline: the write-back protocol is fully quiescent."""


def point_mid_checkpoint(db: Database, tree) -> None:
    """CHECKPOINT_BEGIN logged and half the dirty snapshot flushed:
    no CHECKPOINT_END, restart starts at the old master."""
    db.log.append(LogRecord(LogRecordKind.CHECKPOINT_BEGIN))
    dirty = sorted(db.pool.dirty_page_table())
    for page_id in dirty[:max(1, len(dirty) // 2)]:
        db.pool.flush_page(page_id)


def point_mid_pri_persist(db: Database, tree) -> None:
    """The checkpoint's flush phase completed and the PRI region was
    rewritten on the device, but the (unforced) image records and the
    CHECKPOINT_END are still in the log buffer: a crash must load the
    *old* checkpoint's PRI images and repair the now-mismatching
    region pages (single-page recovery applied to the PRI itself)."""
    for page_id in sorted(db.pool.dirty_page_table()):
        db.pool.flush_page(page_id)
    db.checkpointer.persist_pri()
    assert db.log.durable_lsn < db.log.end_lsn


def point_between_force_and_pri(db: Database, tree) -> None:
    """Figure 12, bottom row: the group-commit force hardened the
    update, the data page was written back, but the PRI-update record
    is still in the log buffer."""
    page, _node = tree._descend(key_of(0), for_write=False)
    victim = page.page_id
    db.unfix(victim)
    db.pool.flush_page(victim)  # device write + unforced PRI_UPDATE
    assert db.log.durable_lsn < db.log.end_lsn


def point_mid_run(db: Database, tree) -> None:
    """Figure 11's window C: a write-back run cut after half its device
    writes, before its PRI record — those pages are current on the
    device and no log record says so (Figure 12 repairs each).  Half-KB
    pages spread the committed wave and the loser over six pages."""
    dirty = db.pool.dirty_page_table()
    assert len(dirty) >= 4
    assert len(cut_run_after(db, len(dirty) // 2)) == len(dirty) // 2


def point_mid_segment_seal(db: Database, tree) -> None:
    """An unforced log tail spanning a freshly opened segment: a crash
    unwinds the tail across the segment boundary (chain heads must
    retreat correctly through the unsealed segment)."""
    segments_before = db.log.segment_count
    bulk = db.begin()
    for i in range(60, 130):
        tree.update(bulk, key_of(i), b"UNFORCED-%d" % i)
    assert db.log.segment_count > segments_before
    assert db.log.durable_lsn < db.log.end_lsn


#: point name -> (engine-config overrides, protocol steps)
PROTOCOL_POINTS = {
    "post-commit": ({}, point_post_commit),
    "mid-checkpoint": ({}, point_mid_checkpoint),
    "mid-pri-persist": ({}, point_mid_pri_persist),
    "between-force-and-pri": ({}, point_between_force_and_pri),
    "mid-run": ({"page_size": 512}, point_mid_run),
    "mid-segment-seal": ({"log_segment_bytes": 2048}, point_mid_segment_seal),
}


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["eager", "on_demand"])
@pytest.mark.parametrize("point", sorted(PROTOCOL_POINTS))
class TestCrashMatrix:
    def test_converges_to_committed_state(self, point, mode):
        overrides, steps = PROTOCOL_POINTS[point]
        db, tree, model = prepared(**overrides)
        steps(db, tree)
        db.crash()
        db.restart(mode=mode)
        tree = db.tree(1)
        # Committed keys are readable immediately in both modes (lazy
        # redo rides the fix path); loser keys are only guaranteed
        # clean once their rollback ran, so probe them after the drain.
        for i in (0, 2, 40, 100):
            assert tree.lookup(key_of(i)) == model[key_of(i)]
        if mode == "on_demand":
            db.finish_restart()
            assert not db.restart_pending
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok

    def test_survives_repeated_crash_at_same_point(self, point, mode):
        """Crash again immediately after recovering: idempotent."""
        overrides, steps = PROTOCOL_POINTS[point]
        db, tree, model = prepared(**overrides)
        steps(db, tree)
        db.crash()
        db.restart(mode=mode)
        db.crash()
        db.restart(mode=mode)
        if mode == "on_demand":
            db.finish_restart()
        tree = db.tree(1)
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok


@pytest.mark.parametrize("point", sorted(PROTOCOL_POINTS))
def test_modes_recover_identically(point):
    """The differential oracle: one crash image, two recoveries —
    byte-identical pages, identical log, identical committed state."""
    overrides, steps = PROTOCOL_POINTS[point]
    db, tree, _model = prepared(**overrides)
    steps(db, tree)
    db.crash()
    eager_db = clone_crashed(db)
    lazy_db = clone_crashed(db)
    eager_db.restart(mode="eager")
    lazy_db.restart(mode="on_demand")
    lazy_db.finish_restart()
    assert_identical_recovery(eager_db, lazy_db)
