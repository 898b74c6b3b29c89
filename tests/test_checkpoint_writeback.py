"""What recovery finds after a stream whose checkpoints leave pages dirty.

One seeded key-value stream — autocommit puts and deletes, multi-key
transactions, one left open as a loser — runs over a pool smaller than
the tree, with a checkpoint every :data:`CHECKPOINT_EVERY` operations
(four in all), log truncation after each from the second on, and a
full backup in the middle.  Pages dirtied between two checkpoints stay
dirty across the later one, so restart redoes from before the master
checkpoint and truncation has to keep what that redo reads.

The key -> value map after each recovery is pinned (its sha256) and
checked against the stream's own model: a crash and restart in both
modes, and a device loss restored from the mid-stream backup.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from repro.btree.verify import verify_tree
from repro.engine.database import Database
from tests.conftest import fast_config
from tests.record_reference import record_at

SEED = 53
OPS = 900
CHECKPOINT_EVERY = 200
BACKUP_AT = 500
KEYS = 600

#: sha256 of the committed key -> value map the stream leaves
MAP_SHA256 = ("78e6d6a6fb28b8291a0dfd7180fe9822"
              "ebe257c027464cf740c52c9032900e31")
#: sha256 of the pages each checkpoint's write-back runs wrote, in order
RUNS_SHA256 = ("238d35d9d6bf8b099e949dddf3c6b9b3"
               "73f2fffab05bda11c32ca734231e4b44")


def _value(rng: random.Random, step: int) -> bytes:
    return b"%d:" % step + bytes(rng.randrange(97, 123)
                                 for _ in range(rng.randrange(8, 40)))


def run_stream(db: Database) -> tuple[dict[bytes, bytes], int, list[int]]:
    """Run the stream on ``db``; returns the committed model, the
    backup's id and each checkpoint's LSN."""
    rng = random.Random(SEED)
    tree = db.create_index()
    model: dict[bytes, bytes] = {}
    checkpoints: list[int] = []
    backup_id = None
    loser = None
    for step in range(1, OPS + 1):
        key = b"key%05d" % rng.randrange(KEYS)
        roll = rng.random()
        if roll < 0.7:
            value = _value(rng, step)
            db.autocommit_write(tree, key, value)
            model[key] = value
        elif roll < 0.8:
            db.autocommit_write(tree, key, None)
            model.pop(key, None)
        else:
            txn = db.begin()
            staged = {}
            for _ in range(rng.randrange(2, 6)):
                key = b"key%05d" % rng.randrange(KEYS)
                staged[key] = _value(rng, step)
                tree.insert(txn, key, staged[key], replace=True)
            if rng.random() < 0.25:
                db.abort(txn)
            else:
                db.commit(txn)
                model.update(staged)
        if step % CHECKPOINT_EVERY == 0:
            checkpoints.append(db.checkpoint())
            if len(checkpoints) >= 2:
                db.truncate_log()
        if step == BACKUP_AT:
            backup_id = db.take_full_backup()
        if step == OPS - 40:
            # A loser open at the failure, on keys outside the model:
            # restart rolls it back, and a device loss kills it.
            loser = db.begin()
            for i in range(3):
                tree.insert(loser, b"loser%d" % i, b"DOOMED", replace=True)
    # Harden the loser's records behind one last commit.
    db.autocommit_write(tree, b"key%05d" % 0, b"last")
    model[b"key%05d" % 0] = b"last"
    assert loser is not None and backup_id is not None
    return model, backup_id, checkpoints


def _new_db() -> Database:
    return Database(fast_config(page_size=1024, capacity_pages=1024,
                                buffer_capacity=24))


def stream_db() -> tuple[Database, dict[bytes, bytes], int, list[int]]:
    db = _new_db()
    model, backup_id, checkpoints = run_stream(db)
    return db, model, backup_id, checkpoints


def map_digest(pairs: dict[bytes, bytes]) -> str:
    digest = hashlib.sha256()
    for key in sorted(pairs):
        digest.update(b"%d:%s%d:%s" % (len(key), key, len(pairs[key]),
                                       pairs[key]))
    return digest.hexdigest()


def _recovered_map(db: Database) -> dict[bytes, bytes]:
    tree = db.tree(db.indexes[0])
    assert verify_tree(tree).ok
    return dict(tree.range_scan())


def test_stream_checkpoints_four_times():
    _db, model, _backup_id, checkpoints = stream_db()
    assert len(checkpoints) == OPS // CHECKPOINT_EVERY == 4
    assert map_digest(model) == MAP_SHA256


@pytest.mark.parametrize("mode", ["eager", "on_demand"])
def test_restart_reproduces_the_map(mode):
    db, model, _backup_id, _checkpoints = stream_db()
    db.crash()
    db.restart(mode=mode)
    if mode == "on_demand":
        db.finish_restart()
    recovered = _recovered_map(db)
    assert recovered == model
    assert map_digest(recovered) == MAP_SHA256


@pytest.mark.parametrize("mode", ["eager", "on_demand"])
def test_media_recovery_reproduces_the_map(mode):
    db, model, backup_id, _checkpoints = stream_db()
    db.device.fail_device()
    db.recover_media(backup_id, mode=mode)
    if mode == "on_demand":
        db.finish_restore()
    recovered = _recovered_map(db)
    # The open loser dies with the device; its keys never committed.
    assert recovered == model
    assert map_digest(recovered) == MAP_SHA256


# ----------------------------------------------------------------------
# The penultimate-checkpoint rule, step by step
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def observed_stream() -> tuple[list[tuple], list[tuple]]:
    """The stream with every checkpoint and truncation observed: per
    checkpoint, the dirty table and master before it, the pages each of
    its write-back runs wrote and its record's dirty-page table; per
    truncation, the dirty table, the log's head and the master after
    it."""
    db = _new_db()
    checkpointer, pool = db.checkpointer, db.pool
    checkpoints, truncations, runs = [], [], []
    checkpoint, truncate_log = checkpointer.checkpoint, checkpointer.truncate_log
    on_run_cleaned = pool.on_run_cleaned

    def recording_run(writes):  # noqa: ANN001
        runs.append(sorted(page_id for page_id, _lsn in writes))
        on_run_cleaned(writes)

    def recording_checkpoint() -> int:
        dirty, master = pool.dirty_page_table(), db.log.master_checkpoint_lsn
        runs.clear()
        lsn = checkpoint()
        checkpoints.append((dirty, master, list(runs),
                            record_at(db.log, lsn).checkpoint.dirty_pages))
        return lsn

    def recording_truncate(*args) -> int:  # noqa: ANN002
        freed = truncate_log(*args)
        truncations.append((pool.dirty_page_table(), db.log.truncated_below,
                            db.log.master_checkpoint_lsn))
        return freed

    pool.on_run_cleaned = recording_run
    checkpointer.checkpoint = recording_checkpoint
    checkpointer.truncate_log = recording_truncate
    run_stream(db)
    return checkpoints, truncations


def test_a_checkpoint_writes_the_frames_dirty_since_before_the_master():
    """From the second checkpoint on, one run writes exactly the frames
    whose ``rec_lsn`` precedes the master; the rest stay dirty and are
    the checkpoint's dirty-page table.  (A full backup's checkpoint
    finds nothing dirty: the backup wrote every frame first.)"""
    checkpoints, _truncations = observed_stream()
    assert len(checkpoints) == 5  # four, and the full backup's
    assert checkpoints[0][1] == 0  # no master yet: every dirty frame
    kept, kept_and_written = 0, 0
    for dirty, master, runs, table in checkpoints:
        due = sorted(page_id for page_id, rec_lsn in dirty.items()
                     if not master or rec_lsn < master)
        assert runs == ([due] if due else [])
        assert table == {page_id: rec_lsn for page_id, rec_lsn
                         in dirty.items() if page_id not in due}
        kept += bool(table and not due)
        kept_and_written += bool(due and table)
    assert kept >= 2 and kept_and_written >= 1


def test_each_checkpoint_writes_the_pinned_pages():
    """Which pages each checkpoint writes back is pinned: pricing a
    run's writes differently must not change what the run writes."""
    checkpoints, _truncations = observed_stream()
    runs = [runs for _dirty, _master, runs, _table in checkpoints]
    assert [[len(run) for run in each] for each in runs] == [
        [15], [], [], [], [1]]
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == RUNS_SHA256


def test_truncation_keeps_every_dirty_frames_records():
    """After each truncation every dirty frame's ``rec_lsn`` is still in
    the retained log, and some truncation was held below the master by
    one."""
    _checkpoints, truncations = observed_stream()
    assert len(truncations) == 3
    held = 0
    for dirty, truncated_below, master in truncations:
        assert dirty
        assert all(rec_lsn >= truncated_below for rec_lsn in dirty.values())
        held += truncated_below == min(dirty.values()) < master
    assert held
