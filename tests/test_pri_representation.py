"""What the engine derives from the page recovery index, pinned.

The checkpointer bounds log retention by the index, refreshes the
backups that pin the log head (copy-forward) and keeps every full
backup an entry references.  After each step of a seeded stream of
writes, checkpoints, full backups, page copies, truncations and
retirements, the engine must agree with a reference computed here from
the partitions' own arrays.  The stream ends with the bytes of every
region page the last checkpoint occupies and the master checkpoint's
``pri_images`` pinned as measured, so a change to where the index's
representation is read or written cannot move what lands on the device.
A change that means to move them prints the stream's values with::

    PYTHONPATH=src python tests/test_pri_representation.py --print

and pastes them in, saying why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

from repro.core.backup import BackupPolicy
from repro.engine.database import Database
from repro.wal.records import BackupRefKind
if __name__ == "__main__":
    # Run as a script: ``tests`` is a package at the repository root,
    # which ``python tests/<this file>.py`` does not put on the path.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.conftest import fast_config, key_of, value_of
from tests.record_reference import record_at

N_KEYS = 3000
STEPS = 120

#: sha256 of each region page the stream's last checkpoint occupies
GOLDEN_REGION_PAGES = {
    1: "c8eaf7da9e9fb739ba6df5a6e161ec5cd4f4fe1b7447f4a0363f7b19a46b5391",
    2: "95dd7d2e6b45052541fb32cddbcf0b68a9b3330a46e108272858fcdc597e4a51",
    3: "7c0636050594dfc2f1b2eb4d97a9845d6ef86ae63f46f7345d07b0acb9a0a0ce",
    4: "94d42cd49f9a9192d7b0c7374739448a24cf7eb276d12174f9a05a599cac888a",
    5: "59db820584a136f59ef6d12a3cc73449498632faaadfb9f771e830f635fcd530",
    6: "36f69813bf36b7fb0abbadf997ac85dd8abac9583559b980c81695fb29c4bd7b",
}
#: the master checkpoint's ``pri_images`` after the stream
GOLDEN_PRI_IMAGES = {1: 660650, 2: 659710, 3: 661072, 4: 660152, 5: 661505,
                     6: 660560}


def reference_bound(db: Database) -> int:
    """``log_retention_bound`` of an engine with no live transaction,
    in-doubt branch, pending recovery or standby, from the arrays (and
    the dirty frames' oldest ``rec_lsn``, where redo starts)."""
    bound = min([db.log.master_checkpoint_lsn or db.log.end_lsn,
                 *db.pool.dirty_page_table().values()])
    for backup_id in reversed(db.backup_store.full_backup_ids()):
        backup_lsn = db.log.backup_full_lsn(backup_id)
        if backup_lsn is not None:
            bound = min(bound, backup_lsn)
            break
    for partition in db.pri.partitions:
        for ref in partition._refs:
            if ref.kind in (BackupRefKind.LOG_IMAGE,
                            BackupRefKind.FORMAT_RECORD):
                bound = min(bound, ref.value)
        for page_id in partition._page_lsns:
            pos = partition._find_range(page_id)
            if pos is not None:
                bound = min(bound, partition._lsns[pos])
    return bound


def reference_copy_forward(db: Database, budget: int) -> list[int]:
    """The pages ``truncate_log(copy_budget=budget)`` copies forward."""
    target = min([db.log.master_checkpoint_lsn or db.log.durable_lsn,
                  *db.pool.dirty_page_table().values()])
    region = range(db.config.pri_region_start, db.config.pri_region_end)
    pinning: list[int] = []
    for partition in db.pri.partitions:
        for i in range(len(partition._starts)):
            if partition._lsns[i] >= target:
                continue
            start, end = partition._starts[i], partition._ends[i]
            if end - start > budget:
                continue
            pinning.extend(pid for pid in range(start, end)
                           if pid not in region)
    return sorted(set(pinning))[:budget]


def reference_retired(db: Database) -> list[int]:
    """The backups ``retire_backups()`` retires."""
    ids = db.backup_store.full_backup_ids()
    if len(ids) <= 1:
        return []
    in_use = {ids[-1]}
    if db.durable.restore_backup_id is not None:
        in_use.add(db.durable.restore_backup_id)
    for partition in db.pri.partitions:
        in_use.update(ref.value for ref in partition._refs
                      if ref.kind == BackupRefKind.FULL_BACKUP)
    return [bid for bid in ids if bid not in in_use]


def quiet(db: Database) -> None:
    """The reference bound covers an engine with nothing in flight."""
    assert not db.tm.active and not db.indoubt
    assert db.pending_recovery is None
    assert getattr(db, "standby", None) is None


def region_digests(db: Database) -> dict[int, str]:
    images = record_at(db.log, db.log.master_checkpoint_lsn).checkpoint.pri_images
    return {page_id: hashlib.sha256(db.device.raw_image(page_id)).hexdigest()
            for page_id in sorted(images)}


def run_stream(seed: int = 1) -> tuple[Database, dict[str, int]]:
    rng = random.Random(seed)
    # No freshness policy: every page copy is one the stream or
    # copy-forward takes, so copy-forward's choice can be observed.
    db = Database(fast_config(page_size=1024, capacity_pages=1024,
                              buffer_capacity=32,
                              pri_region_pages_per_partition=16,
                              backup_policy=BackupPolicy.disabled()))
    tree = db.create_index()
    copied: list[int] = []
    take_page_copy = db.checkpointer.take_page_copy

    def recording_copy(page):  # noqa: ANN001
        copied.append(page.page_id)
        return take_page_copy(page)

    db.checkpointer.take_page_copy = recording_copy
    version = 0
    live = 0
    seen = {"copy_forward": 0, "retired": 0, "page_copies": 0}
    for _step in range(STEPS):
        action = rng.choice(["write", "write", "write", "checkpoint",
                             "backup", "copy", "evict", "truncate",
                             "truncate", "retire"])
        if action == "write" or live == 0:
            version += 1
            txn = db.begin()
            for _ in range(rng.randint(20, 120)):
                if live == 0 or (live < N_KEYS and rng.random() < 0.6):
                    tree.insert(txn, key_of(live), value_of(live, 0) * 8)
                    live += 1
                else:
                    i = rng.randrange(live)
                    tree.update(txn, key_of(i), value_of(i, version) * 8)
            db.commit(txn)
        elif action == "checkpoint":
            db.checkpoint()
        elif action == "backup":
            db.take_full_backup()
        elif action == "copy":
            for _ in range(rng.randint(1, 6)):
                page_id = rng.randrange(db.config.data_start,
                                        db.allocated_pages())
                page = db.pool.fix(page_id)
                try:
                    take_page_copy(page)
                finally:
                    db.pool.unfix(page_id)
                seen["page_copies"] += 1
        elif action == "evict":
            db.flush_everything()
            db.evict_everything()
        elif action == "truncate":
            budget = rng.choice([1, 3, 8, 64])
            quiet(db)
            expected = reference_copy_forward(db, budget)
            copied.clear()
            db.truncate_log(copy_budget=budget)
            assert copied == expected
            seen["copy_forward"] += len(copied)
        elif action == "retire":
            expected = reference_retired(db)
            assert db.retire_backups() == expected
            seen["retired"] += len(expected)
        quiet(db)
        assert db.log_retention_bound() == reference_bound(db)
    db.checkpoint()
    assert db.log_retention_bound() == reference_bound(db)
    return db, seen


class TestDerivedFromTheIndex:
    def test_stream_matches_reference_every_step(self):
        _db, seen = run_stream()
        # The stream reaches every derivation with something to derive.
        assert seen["copy_forward"] > 0
        assert seen["retired"] > 0
        assert seen["page_copies"] > 0

    def test_region_pages_pinned(self):
        db, _seen = run_stream()
        images = record_at(
            db.log, db.log.master_checkpoint_lsn).checkpoint.pri_images
        assert dict(images) == GOLDEN_PRI_IMAGES
        assert region_digests(db) == GOLDEN_REGION_PAGES
        # Both partitions' snapshots span more than one page, so the
        # chunk header's sequence numbers are pinned too.
        for parity in (0, 1):
            assert sum(1 for pid in images if pid % 2 == parity) >= 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--print"]:
        sys.exit(__doc__)
    db, _seen = run_stream()
    print("GOLDEN_REGION_PAGES =", region_digests(db))
    print("GOLDEN_PRI_IMAGES =", dict(record_at(
        db.log, db.log.master_checkpoint_lsn).checkpoint.pri_images))
