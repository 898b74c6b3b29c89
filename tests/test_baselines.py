"""Integration tests: the two baselines the paper compares against."""

import pytest

from repro.baselines.media_only import traditional_config
from repro.baselines.mirror_repair import LogShippingMirror
from repro.engine.database import Database
from repro.errors import MediaFailure, RecoveryError
from repro.page.page import Page
from repro.sim.iomodel import NULL_PROFILE
from tests.conftest import fast_config, key_of, value_of


def loaded(n=200, **overrides):
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    return db, tree


class TestTraditionalConfig:
    def test_no_pri_maintenance(self):
        cfg = traditional_config(
            capacity_pages=512, buffer_capacity=32,
            device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
            backup_profile=NULL_PROFILE)
        db = Database(cfg)
        tree = db.create_index()
        db.insert(tree, b"k", b"v")
        db.flush_everything()
        assert db.stats.get("pri_update_records") == 0
        assert db.stats.get("page_copies_taken") == 0

    def test_optional_write_logging_without_spf(self):
        cfg = traditional_config(
            log_completed_writes=True,
            capacity_pages=512, buffer_capacity=32,
            device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
            backup_profile=NULL_PROFILE)
        db = Database(cfg)
        tree = db.create_index()
        db.insert(tree, b"k", b"v")
        db.flush_everything()
        assert db.stats.get("pri_update_records") > 0
        assert db.stats.get("page_copies_taken") == 0


class TestLogShippingMirror:
    def rig(self):
        db, tree = loaded()
        mirror = LogShippingMirror(db.log, db.clock, NULL_PROFILE, db.stats,
                                   db.config.page_size)
        images = {}
        for page_id in range(db.allocated_pages()):
            raw = db.device.raw_image(page_id)
            if raw is not None:
                images[page_id] = raw
        mirror.seed_from_images(images, db.log.end_lsn)
        return db, tree, mirror

    def test_catch_up_applies_outstanding_stream(self):
        db, tree, mirror = self.rig()
        txn = db.begin()
        for i in range(30):
            tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        applied, written = mirror.catch_up()
        assert applied >= 30
        assert written >= 1
        assert mirror.catch_up() == (0, 0)  # idempotent

    def test_repair_page_requires_full_catch_up(self):
        """The baseline applies the *entire* log stream, not just the
        failed page's chain (Section 2)."""
        db, tree, mirror = self.rig()
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        # Traffic after the mirror snapshot.
        txn = db.begin()
        for i in range(200):
            tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        db.flush_everything()
        repaired, result = mirror.repair_page(victim)
        # The mirror had to apply everything, though one page failed.
        assert result.records_applied_to_mirror >= 200
        assert result.mirror_pages_written >= 1
        # The served page is logically current (checksum and the
        # backup-policy update counter are maintained by the primary's
        # write path, not by log shipping).
        from repro.page.slotted import SlottedPage

        current = Page(db.config.page_size, db.device.raw_image(victim))
        assert repaired.page_lsn == current.page_lsn
        assert (SlottedPage(repaired).records(include_ghosts=True)
                == SlottedPage(current).records(include_ghosts=True))

    def test_repair_unknown_page_rejected(self):
        _db, _tree, mirror = self.rig()
        with pytest.raises(RecoveryError):
            mirror.repair_page(9999)

    def test_mirror_repair_vs_single_page_recovery_work(self):
        """Same failure, same history: the mirror applies the whole
        stream; single-page recovery only the victim's chain."""
        from repro.core.backup import BackupPolicy

        # Enough keys that update traffic spreads over many leaves;
        # the victim's per-page chain is then a small fraction of the
        # whole stream.
        db, tree = loaded(n=1500, backup_policy=BackupPolicy.disabled(),
                          capacity_pages=2048)
        mirror = LogShippingMirror(db.log, db.clock, NULL_PROFILE, db.stats,
                                   db.config.page_size)
        images = {pid: db.device.raw_image(pid)
                  for pid in range(db.allocated_pages())
                  if db.device.raw_image(pid) is not None}
        mirror.seed_from_images(images, db.log.end_lsn)
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        txn = db.begin()
        for i in range(1500):
            tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        # Baseline work:
        _page, mirror_result = mirror.repair_page(victim)
        # Single-page recovery work for the same page:
        db.device.inject_read_error(victim)
        tree.lookup(key_of(0))
        spf_result = db.single_page.history[-1]
        assert spf_result.records_applied < mirror_result.records_applied_to_mirror / 2
