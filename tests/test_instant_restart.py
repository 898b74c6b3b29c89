"""Instant (on-demand) restart: analysis-only recovery, lazy per-page
redo, lazy loser undo, background drain, and the completion watermark.

The eager three-pass restart stays the reference behaviour; these tests
pin down the on-demand state machine:

    crash -> analysis -> OPEN -> {redo page on fix | undo loser on
    conflict | background drain}* -> complete (watermark recorded,
    truncation unblocked)
"""

from __future__ import annotations

import pytest

from repro.btree.verify import verify_tree
from repro.engine.database import Database
from repro.engine.config import EngineConfig
from tests.conftest import fast_config, key_of, value_of


def loaded(n=200, **overrides):
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return db, tree


def crashed_with_losers(n=200, **overrides):
    """Committed data + one committed wave + one loser holding locks."""
    db, tree = loaded(n, **overrides)
    db.flush_everything()
    txn = db.begin()
    for i in range(0, 50, 5):
        db.update(tree, key_of(i), b"wave-%d" % i, txn=txn)
    db.commit(txn)
    loser = db.begin()
    for i in (1, 3, 7):
        db.update(tree, key_of(i), b"DOOMED", txn=loser)
    # A later commit's group-commit force hardens the loser's records
    # too, so restart analysis sees it as a genuine loser.
    rider = db.begin()
    db.update(tree, key_of(90), b"rider", txn=rider)
    db.commit(rider)
    db.crash()
    return db


class TestOnDemandRestart:
    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            EngineConfig(restart_mode="lazyish")

    def test_restart_opens_with_pending_work(self):
        db = crashed_with_losers()
        report = db.restart(mode="on_demand")
        assert report.mode == "on_demand"
        assert report.redo_pages_read == 0
        assert report.undo_transactions == 0
        assert report.pending_redo_pages > 0
        assert report.pending_undo_txns == 1
        assert db.restart_pending
        # The database is open: a fresh transaction works immediately.
        tree = db.tree(1)
        db.update(tree, key_of(100), b"first-txn")
        assert tree.lookup(key_of(100)) == b"first-txn"

    def test_lazy_redo_on_first_fix(self):
        db = crashed_with_losers()
        db.restart(mode="on_demand")
        tree = db.tree(1)
        # Reading a committed-but-unflushed key rolls its leaf forward.
        assert tree.lookup(key_of(0)) == b"wave-0"
        assert db.stats.get("lazy_redo_pages") > 0
        assert db.stats.get("lazy_redo_records") > 0

    def test_lazy_undo_on_lock_conflict(self):
        db = crashed_with_losers()
        db.restart(mode="on_demand")
        tree = db.tree(1)
        # key 1 is held by the loser; the conflicting update first rolls
        # the loser back, then proceeds.
        db.update(tree, key_of(1), b"winner")
        assert db.stats.get("lazy_undo_on_conflict") == 1
        assert db.stats.get("lazy_undo_txns") == 1
        assert tree.lookup(key_of(1)) == b"winner"
        # The other doomed keys were restored by the same rollback.
        assert tree.lookup(key_of(3)) == value_of(3, 0)
        assert tree.lookup(key_of(7)) == value_of(7, 0)

    def test_background_drain_with_budgets(self):
        db = crashed_with_losers()
        report = db.restart(mode="on_demand")
        total_pages = report.pending_redo_pages
        pages, losers = db.drain_restart(page_budget=1, loser_budget=0)
        assert (pages, losers) == (1, 0)
        assert db.restart_pending
        pages, losers = db.finish_restart()
        assert pages == total_pages - 1
        assert losers == 1
        assert not db.restart_pending
        assert db.last_restart_completion_lsn is not None
        tree = db.tree(1)
        assert tree.lookup(key_of(1)) == value_of(1, 0)
        assert verify_tree(tree).ok

    def test_watermark_gates_log_truncation(self):
        db = crashed_with_losers()
        db.restart(mode="on_demand")
        registry = db.pending_recovery
        bound_pending = db.log_retention_bound()
        assert registry.retention_bound() is not None
        assert bound_pending <= registry.retention_bound()
        db.finish_restart()
        # With the watermark reached the bound may move forward again.
        assert db.log_retention_bound() >= bound_pending

    def test_checkpoint_drains_pending_work(self):
        db = crashed_with_losers()
        db.restart(mode="on_demand")
        assert db.restart_pending
        db.checkpoint()
        assert not db.restart_pending
        tree = db.tree(1)
        assert tree.lookup(key_of(1)) == value_of(1, 0)

    def test_double_crash_while_pending(self):
        db = crashed_with_losers()
        db.restart(mode="on_demand")
        assert db.restart_pending
        db.crash()  # pending work abandoned with the volatile state
        assert db.pending_recovery is None
        db.restart(mode="on_demand")
        db.finish_restart()
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == b"wave-0"
        assert tree.lookup(key_of(1)) == value_of(1, 0)
        assert verify_tree(tree).ok

    def test_on_demand_without_spf_machinery(self):
        """No single-page recovery stack: the registry falls back to
        replaying the analysis pass's record lists."""
        from repro.baselines.media_only import traditional_config

        cfg = traditional_config(
            log_completed_writes=True,
            capacity_pages=512, buffer_capacity=32,
            device_profile=fast_config().device_profile,
            log_profile=fast_config().log_profile,
            backup_profile=fast_config().backup_profile)
        db = Database(cfg)
        tree = db.create_index()
        txn = db.begin()
        for i in range(100):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.crash()
        report = db.restart(mode="on_demand")
        assert report.pending_redo_pages > 0
        tree = db.tree(1)
        for i in range(100):
            assert tree.lookup(key_of(i)) == value_of(i, 0)
        db.finish_restart()
        assert not db.restart_pending

    def test_completion_immediate_when_nothing_pending(self):
        db, tree = loaded()
        db.flush_everything()
        db.log.force()
        db.crash()
        report = db.restart(mode="on_demand")
        assert report.pending_redo_pages == 0
        assert report.pending_undo_txns == 0
        assert not db.restart_pending
        assert db.last_restart_completion_lsn is not None

    def test_restart_mode_from_config(self):
        db = crashed_with_losers(restart_mode="on_demand")
        report = db.restart()
        assert report.mode == "on_demand"
        assert db.restart_pending
        db.finish_restart()
