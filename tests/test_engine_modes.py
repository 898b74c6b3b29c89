"""Integration tests: engine configuration modes and log retention."""

from repro.engine.database import Database
from tests.conftest import fast_config, key_of, value_of


def loaded(n=200, **overrides):
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return db, tree


class TestUnpartitionedPri:
    """The engine with a single (non-partitioned) recovery index."""

    def test_recovery_works(self):
        db, tree = loaded(pri_partitioned=False)
        db.flush_everything()
        db.evict_everything()
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_bit_rot(victim, nbits=5)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("single_page_recoveries") == 1

    def test_checkpoint_persist_and_reload(self):
        db, tree = loaded(pri_partitioned=False)
        db.checkpoint()
        recorded = {pid: db.pri.recorded_lsn(pid)
                    for pid in range(db.allocated_pages())
                    if db.pri.recorded_lsn(pid) is not None}
        assert recorded
        db.crash()
        db.restart()
        for pid, lsn in recorded.items():
            assert db.pri.recorded_lsn(pid) == lsn

    def test_crash_recovery(self):
        db, tree = loaded(pri_partitioned=False)
        txn = db.begin()
        tree.update(txn, key_of(0), b"loser")
        db.crash()
        db.restart()
        tree = db.tree(1)
        assert tree.lookup(key_of(0)) == value_of(0, 0)


class TestProofReadMode:
    def test_lost_write_caught_at_write_time(self):
        """Proof-reading turns a lost write into a write-time remap,
        before it can ever become a read-time failure (Section 2)."""
        db, tree = loaded(proof_read_writes=True)
        db.flush_everything()
        db.evict_everything()
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_lost_write(victim)
        txn = db.begin()
        tree.update(txn, key_of(0), b"proofed")
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        assert db.stats.get("proof_read_failures") >= 1
        # Caught at write time: the read path never sees a failure.
        assert tree.lookup(key_of(0)) == b"proofed"
        assert db.stats.get("single_page_recoveries") == 0


class TestLogRetention:
    def test_truncation_respects_backups(self):
        """Per-page backups advance the retention bound; recovery still
        works after the head is reclaimed."""
        from repro.core.backup import BackupPolicy

        db, tree = loaded(backup_policy=BackupPolicy(every_n_updates=8))
        db.flush_everything()
        db.evict_everything()
        # Heavy update traffic; copies keep backups fresh.
        for wave in range(1, 5):
            txn = db.begin()
            for i in range(200):
                tree.update(txn, key_of(i), value_of(i, wave))
            db.commit(txn)
            db.flush_everything()
        db.checkpoint()
        size_before = db.log.retained_bytes()
        freed = db.truncate_log()
        assert freed > 0
        assert db.log.retained_bytes() < size_before
        # Single-page recovery still works for every data page.
        db.evict_everything()
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_read_error(victim)
        assert tree.lookup(key_of(0)) == value_of(0, 4)

    def test_bound_blocks_on_stale_backups(self):
        """Without page backups, the oldest format record pins the log."""
        from repro.core.backup import BackupPolicy

        db, tree = loaded(backup_policy=BackupPolicy.disabled())
        db.flush_everything()
        db.checkpoint()
        bound = db.log_retention_bound()
        # The bound cannot pass the first page's formatting record,
        # which sits near the head of the log.
        from repro.wal.lsn import LOG_START

        assert bound < db.log.master_checkpoint_lsn
        assert bound <= LOG_START + 2000

    def test_active_txn_pins_log(self):
        db, tree = loaded()
        db.checkpoint()
        txn = db.begin()
        tree.update(txn, key_of(0), b"pinning")
        bound = db.log_retention_bound()
        assert bound <= txn.first_lsn
        db.commit(txn)

    def test_restart_after_truncation(self):
        from repro.core.backup import BackupPolicy

        db, tree = loaded(backup_policy=BackupPolicy(every_n_updates=8))
        for wave in range(1, 4):
            txn = db.begin()
            for i in range(200):
                tree.update(txn, key_of(i), value_of(i, wave))
            db.commit(txn)
            db.flush_everything()
        db.checkpoint()
        db.truncate_log()
        txn = db.begin()
        tree.update(txn, key_of(5), b"post-truncation")
        db.commit(txn)
        db.crash()
        db.restart()
        tree = db.tree(1)
        assert tree.lookup(key_of(5)) == b"post-truncation"
        assert tree.lookup(key_of(6)) == value_of(6, 3)
