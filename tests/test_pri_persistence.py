"""Checkpoint persistence of the page recovery index: a checkpoint
writes, images and covers only the region pages its snapshots occupy,
and a page that falls out of a shrinking snapshot stops pinning the
log."""

import copy

import pytest

from repro.engine.database import Database
from tests.conftest import fast_config, key_of, value_of


def grown_db(n_keys: int) -> tuple[Database, object]:
    """An index large enough that each PRI partition needs two region
    pages (4 200 keys: range entries alone fit one page, the per-page
    LSNs of the evicted pages push them into a second; 8 000 keys:
    the range entries alone need two)."""
    db = Database(fast_config(pri_region_pages_per_partition=32,
                              capacity_pages=4096, buffer_capacity=64))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n_keys):
        tree.insert(txn, key_of(i), value_of(i, 0) * 8)
    db.commit(txn)
    db.checkpoint()
    return db, tree


def pages_needed(db: Database) -> list[int]:
    capacity = db.config.page_size - 64
    return [max(1, -(-len(partition.serialize()) // capacity))
            for partition in db.checkpointer._partitions()]


def occupied(db: Database) -> list[int]:
    """Region pages the index covers (what the last snapshots occupy)."""
    cfg = db.config
    return [page_id for page_id in range(cfg.pri_region_start,
                                         cfg.pri_region_end)
            if db.pri.covers(page_id)]


def master_images(db: Database) -> dict[int, int]:
    return dict(db.log.record_at(
        db.log.master_checkpoint_lsn).checkpoint.pri_images)


def index_shape(db: Database) -> list:
    """The index without backup times (restart stamps its own)."""
    return [(list(zip(p._starts, p._ends, p._refs, p._lsns)),
             sorted(p._page_lsns.items()))
            for p in db.checkpointer._partitions()]


def assert_restart_loads_same_index(db: Database) -> None:
    crashed = copy.deepcopy(db)
    crashed.crash()
    crashed.restart()
    assert index_shape(crashed) == index_shape(db)


def copy_every_data_page(db: Database) -> None:
    """Fresh page copies clear the per-page LSNs: the index shrinks
    without any full backup."""
    for page_id in range(db.config.data_start, db.allocated_pages()):
        page = db.pool.fix(page_id)
        try:
            db.checkpointer.take_page_copy(page)
        finally:
            db.pool.unfix(page_id)


class TestCheckpointWritesOnlyOccupiedPages:
    def test_device_writes_bounded_by_dirty_plus_snapshot_pages(self):
        db, tree = grown_db(4200)
        txn = db.begin()
        for i in range(0, 4200, 7):
            tree.update(txn, key_of(i), value_of(i, 1) * 8)
        db.commit(txn)
        dirty = len(db.pool.dirty_page_table())
        writes_before = db.stats.get("device_writes")
        db.checkpoint()
        needed = pages_needed(db)
        assert needed == [2, 2]
        assert dirty > 0
        assert (db.stats.get("device_writes") - writes_before
                <= dirty + sum(needed))
        assert len(master_images(db)) == sum(needed)
        assert sorted(master_images(db)) == occupied(db)
        assert_restart_loads_same_index(db)

    def test_clean_checkpoint_writes_the_snapshot_only(self):
        db, _ = grown_db(300)
        writes_before = db.stats.get("device_writes")
        db.checkpoint()
        assert db.stats.get("device_writes") - writes_before == 2


class TestShrinkingSnapshot:
    def test_full_backup_shrink_releases_the_old_images(self):
        db, _ = grown_db(8000)
        db.checkpoint()
        assert pages_needed(db) == [2, 2]
        old_images = master_images(db)
        assert len(old_images) == 4
        assert_restart_loads_same_index(db)

        db.take_full_backup()  # collapses the point entries to a range
        assert pages_needed(db) == [1, 1]
        assert_restart_loads_same_index(db)

        db.checkpoint()
        assert len(master_images(db)) == 2
        assert_restart_loads_same_index(db)
        assert db.truncate_log() > max(old_images.values())

    def test_shrink_without_backup_forgets_the_vacated_pages(self):
        db, _ = grown_db(4200)
        db.checkpoint()
        old_images = master_images(db)
        assert len(occupied(db)) == 4
        copy_every_data_page(db)
        assert pages_needed(db) == [1, 1]

        db.checkpoint()
        vacated = sorted(set(old_images) - set(master_images(db)))
        assert len(vacated) == 2
        assert occupied(db) == sorted(master_images(db))
        assert set(vacated) <= db.checkpointer.vacant_pri_pages()
        assert_restart_loads_same_index(db)
        # Nothing retains the vacated pages' images any more.
        assert db.truncate_log() > max(old_images[p] for p in vacated)

        # The region grows back over the vacated pages without fuss.
        tree = db.tree(1)
        txn = db.begin()
        for i in range(0, 4200, 2):
            tree.update(txn, key_of(i), value_of(i, 2) * 8)
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        db.checkpoint()
        assert len(occupied(db)) == 4
        assert_restart_loads_same_index(db)

    @pytest.mark.parametrize("restart_first", [False, True])
    @pytest.mark.parametrize("sweep", ["scrub", "full_backup",
                                       "full_backup_then_scrub"])
    def test_damage_on_a_vacated_page_is_nobodys_business(self, sweep,
                                                          restart_first):
        db, _ = grown_db(4200)
        db.checkpoint()
        before = set(occupied(db))
        copy_every_data_page(db)
        db.checkpoint()
        vacated = min(before - set(occupied(db)))
        if sweep == "full_backup_then_scrub":
            # The backup's range entry spans the vacated page although
            # the backup holds no image of it.
            db.take_full_backup()
            assert db.pri.covers(vacated)
        if restart_first:
            db.crash()
            db.restart()
        db.device.inject_bit_rot(vacated)
        if sweep == "full_backup":
            backup_id = db.take_full_backup()
            images = db.backup_store.restore_full_backup(backup_id)
            assert vacated not in images
        else:
            assert db.scrub().failures_found == 0
        assert db.stats.get("escalations_to_media") == 0


class TestRestoreAfterTheRegionGrew:
    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    def test_pages_the_snapshot_grew_onto_after_the_backup(self, mode):
        db, tree = grown_db(300)
        backup_id = db.take_full_backup()
        assert len(master_images(db)) == 2
        txn = db.begin()
        for i in range(300, 12000):
            tree.insert(txn, key_of(i), value_of(i, 0) * 8)
        db.commit(txn)
        db.checkpoint()
        grown = master_images(db)
        assert len(grown) > 2

        db.device.fail_device()
        db.recover_media(backup_id, mode=mode)
        db.drain_pending()
        # Every page the master checkpoint lists is back, current and
        # repairable: a restart loads the index from the device alone.
        for page_id in grown:
            db.device.inject_bit_rot(page_id)
        report = db.scrub()
        assert report.failures_repaired == len(grown)
        assert db.stats.get("escalations_to_media") == 0
        db.crash()
        report = db.restart()
        assert report.pri_pages_repaired == 0
        assert db.tree(tree.index_id).lookup(key_of(11999)) is not None
