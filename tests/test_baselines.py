"""Integration tests: the two baselines the paper compares against.

Section 2's mirror is the hot standby with its shipping link held down
(``db.standby_link.sever()``); a repair is ``link.restore()`` — the
whole outstanding stream — then ``standby.serve_page``.
"""

import random

from benchmarks.common import leaf_of, mirror_catch_up, mirrored
from repro.baselines.media_only import traditional_config
from repro.core.backup import BackupPolicy
from repro.engine.database import Database
from repro.page.page import Page
from repro.page.slotted import SlottedPage
from repro.sim.iomodel import NULL_PROFILE
from repro.wal.lsn import NULL_LSN
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


def update_range(db, tree, n: int, version: int = 1) -> None:
    txn = db.begin()
    for i in range(n):
        tree.update(txn, key_of(i), value_of(i, version))
    db.commit(txn)


class TestStandbyAsMirror:
    def test_restore_applies_the_whole_shipped_stream(self):
        db, tree = loaded()
        standby, link = mirrored(db)
        before = standby.records_applied
        update_range(db, tree, 30)
        assert standby.records_applied == before  # the link is down
        records, pages = mirror_catch_up(db, link)
        assert records >= 30 and pages
        assert standby.applied_lsn == link.shipped_lsn == db.log.durable_lsn
        # records_applied counts every adopted record, page updates
        # among them.
        assert standby.records_applied - before >= records
        # Nothing is outstanding: a second catch-up applies nothing.
        applied = standby.records_applied
        assert mirror_catch_up(db, link) == (0, set())
        link.ship_until(db.log.durable_lsn)
        assert standby.records_applied == applied

    def test_served_page_is_current_after_full_catch_up(self):
        """The baseline applies the *entire* log stream, not just the
        failed page's chain (Section 2)."""
        db, tree = loaded()
        standby, link = mirrored(db)
        victim = leaf_of(db, tree)
        update_range(db, tree, 200)
        db.flush_everything()
        records, pages = mirror_catch_up(db, link)
        # The mirror applied everything, though one page failed.
        assert records >= 200 and victim in pages
        repaired = standby.serve_page(victim, NULL_LSN)
        # The served page is logically current (the backup-policy
        # update counter is maintained by the primary's write path,
        # not by log shipping).
        current = Page(db.config.page_size, db.device.raw_image(victim))
        assert repaired.page_lsn == current.page_lsn
        assert (SlottedPage(repaired).records(include_ghosts=True)
                == SlottedPage(current).records(include_ghosts=True))

    def test_absent_or_lagging_page_is_not_served(self):
        db, tree = loaded()
        standby, link = mirrored(db)
        assert standby.serve_page(9999, NULL_LSN) is None
        victim = leaf_of(db, tree)
        update_range(db, tree, 30)
        db.flush_everything()
        wanted = Page(db.config.page_size, db.device.raw_image(victim)).page_lsn
        assert standby.serve_page(victim, wanted) is None  # lagging
        mirror_catch_up(db, link)
        assert standby.serve_page(victim, wanted).page_lsn == wanted

    def test_mirror_vs_single_page_recovery_work(self):
        """Same failure, same history: the mirror applies the whole
        stream; single-page recovery only the victim's chain."""
        # Enough keys that update traffic spreads over many leaves;
        # the victim's per-page chain is then a small fraction of the
        # whole stream.
        db, tree = loaded(n=1500, backup_policy=BackupPolicy.disabled(),
                          capacity_pages=2048)
        _standby, link = mirrored(db)
        victim = leaf_of(db, tree)
        update_range(db, tree, 1500)
        db.flush_everything()
        db.evict_everything()
        mirror_records, _pages = mirror_catch_up(db, link)
        # Single-page recovery work for the same page, with no standby
        # to serve it:
        db.detach_standby()
        db.device.inject_read_error(victim)
        tree.lookup(key_of(0))
        spf_result = db.single_page.history[-1]
        assert spf_result.records_applied < mirror_records / 2


def seeded_history(db, tree, n: int = 200, seed: int = 7) -> None:
    """Inserts, updates and deletes over ``loaded(n)``'s keys and as many
    new ones, in four transactions; the third rolls back."""
    rng = random.Random(seed)
    present = set(range(n))
    for round_ in range(4):
        txn = db.begin()
        kept = set(present)
        for _ in range(80):
            i = rng.randrange(2 * n)
            if i not in present:
                tree.insert(txn, key_of(i), value_of(i, round_))
                present.add(i)
            elif rng.random() < 0.2:
                tree.delete(txn, key_of(i))
                present.discard(i)
            else:
                tree.update(txn, key_of(i), value_of(i, round_ + 1))
        if round_ == 2:
            db.abort(txn)
            present = kept
        else:
            db.commit(txn)


def test_restored_standby_serves_the_primarys_pages():
    """A standby whose link was held down over a seeded history serves,
    once restored, every page the shipped span touched byte for byte
    as the primary flushed it."""
    db, tree = loaded(n=1000, capacity_pages=2048)
    standby, link = mirrored(db)
    seeded_history(db, tree, n=1000)
    db.log.force()
    records, pages = mirror_catch_up(db, link)
    assert link.shipped_lsn == db.log.durable_lsn
    assert records > 300 and len(pages) > 8
    db.flush_everything()
    served = {pid: standby.serve_page(pid, NULL_LSN) for pid in pages}
    assert diverging(db, served) == []


def diverging(db, served: dict) -> list[int]:
    """Pages ``served`` by a replica that differ from the primary's
    device image at equal PageLSN (the update counter, which only the
    primary resets, masked); every page must be at the device's LSN."""
    out = []
    for page_id, replica in served.items():
        primary = Page(db.config.page_size, db.device.raw_image(page_id))
        replica = replica.copy()
        for page in (primary, replica):
            page.reset_update_count()
            page.seal()
        if (primary.page_lsn != replica.page_lsn
                or bytes(primary.data) != bytes(replica.data)):
            out.append(page_id)
    return out
