"""Extension — instant restore: time-to-first-transaction stays flat.

Classic (eager) media recovery pays the whole restore — one sequential
read of the backup plus a write and chain replay per page — before the
database reopens, so its time-to-first-transaction grows linearly with
the size of the failed device.  On-demand restore runs the analysis
scan only (one indexed sequential read of the tail since the backup)
and restores pages on first fix, so its time-to-first-transaction is
the scan plus the handful of pages the first transaction actually
touches — ~constant while the device grows an order of magnitude.

A differential oracle closes the file: the same failure image restored
both ways must be byte-identical (the per-page primitive is shared, so
this is the cheap end of the full matrix in
``tests/test_media_matrix.py``).
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table, value_of
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import MediaFailure
from repro.sim.iomodel import HDD_PROFILE


def failed_db(n_keys: int) -> tuple[Database, int]:
    """A database that just lost its device, with a full backup and a
    committed update wave (every 4th key) since the backup — so the
    restore must replay per-page chains, not only copy images."""
    db = Database(EngineConfig(
        page_size=4096,
        capacity_pages=8192,
        buffer_capacity=2048,
        device_profile=HDD_PROFILE,
        log_profile=HDD_PROFILE,
        backup_profile=HDD_PROFILE,
        backup_policy=BackupPolicy.disabled(),
        # A compact PRI region keeps the shared constants small
        # relative to the restore work under test (4 pages fit the
        # largest scale's index).
        pri_region_pages_per_partition=4,
    ))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n_keys):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    backup_id = db.take_full_backup()
    txn = db.begin()
    for i in range(0, n_keys, 4):
        tree.update(txn, key_of(i), value_of(i, 1))
    db.commit(txn)
    db.device.fail_device("benchmark head crash")
    db._on_media_failure(MediaFailure(db.device.name, "benchmark"))
    return db, backup_id


def time_to_first_transaction(db: Database, backup_id: int, mode: str):
    """Simulated seconds from 'restore begins' to 'first user
    transaction committed'."""
    start = db.clock.now
    report = db.recover_media(backup_id, mode=mode)
    tree = db.tree(1)
    txn = db.begin()
    db.update(tree, key_of(0), b"first-txn-after-restore", txn=txn)
    db.commit(txn)
    return db.clock.now - start, report


def test_time_to_first_transaction_flat_on_demand(benchmark):
    def run():
        out = []
        for n_keys in (1200, 24000):
            results = {}
            for mode in ("eager", "on_demand"):
                db, backup_id = failed_db(n_keys)
                seconds, report = time_to_first_transaction(
                    db, backup_id, mode)
                assert (db.tree(1).lookup(key_of(0))
                        == b"first-txn-after-restore")
                results[mode] = (seconds, report)
            out.append((n_keys, results))
        return out

    scales = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for n_keys, results in scales:
        eager_s, eager_report = results["eager"]
        lazy_s, lazy_report = results["on_demand"]
        rows.append([n_keys, eager_report.pages_restored, eager_s, lazy_s,
                     lazy_report.pending_restore_pages, eager_s / lazy_s])

    (_, pages_small, eager_small, lazy_small, _, _) = rows[0]
    (_, pages_large, eager_large, lazy_large, _, _) = rows[1]

    # The device grows an order of magnitude...
    assert pages_large >= 5 * pages_small
    # ...eager restore's time-to-first-transaction grows with it...
    assert eager_large >= 5 * eager_small
    # ...while on-demand stays ~flat and beats eager decisively (the
    # gap keeps widening with device size: eager is linear, on-demand
    # pays the analysis scan plus a handful of page restores).
    assert lazy_large <= 2 * lazy_small
    assert lazy_large < eager_large / 3
    # In absolute terms: the analysis scan plus a handful of pages.
    assert lazy_small <= 0.062375
    assert lazy_large <= 0.092875

    print_table(
        "Instant restore: time-to-first-transaction (simulated seconds, "
        "HDD profile)",
        ["keys", "pages restored", "eager TTFT", "on-demand TTFT",
         "pending pages", "speedup"],
        rows)


def test_on_demand_drain_converges_with_traffic(benchmark):
    """The background drain finishes the restore while the system
    serves reads; total committed state matches the eager result."""
    def run():
        db, backup_id = failed_db(1200)
        db.recover_media(backup_id, mode="on_demand")
        tree = db.tree(1)
        drained = 0
        probe = 0
        while db.restore_pending:
            pages, losers = db.drain_restore(page_budget=24, loser_budget=1)
            drained += pages + losers
            expected = (value_of(probe, 1) if probe % 4 == 0
                        else value_of(probe, 0))
            assert tree.lookup(key_of(probe)) == expected
            probe += 37
        return db, drained

    db, drained = benchmark.pedantic(run, rounds=1, iterations=1)
    assert drained > 0
    assert not db.restore_pending
    assert db.last_restore_completion_lsn is not None
    tree = db.tree(1)
    for i in range(0, 1200, 111):
        expected = value_of(i, 1) if i % 4 == 0 else value_of(i, 0)
        assert tree.lookup(key_of(i)) == expected


def restore_both_modes(n_keys: int = 1200) -> tuple[Database, Database]:
    """Restore one failure image both ways (the setup of the
    differential oracle)."""
    import copy

    db, backup_id = failed_db(n_keys)
    eager_db = copy.deepcopy(db)
    lazy_db = copy.deepcopy(db)
    eager_db.recover_media(backup_id, mode="eager")
    lazy_db.recover_media(backup_id, mode="on_demand")
    lazy_db.finish_restore()
    return eager_db, lazy_db


def test_restore_modes_byte_identical(benchmark):
    """The differential oracle on the benchmark workload."""
    from tests.conftest import assert_identical_recovery

    eager_db, lazy_db = benchmark.pedantic(restore_both_modes,
                                           rounds=1, iterations=1)
    assert_identical_recovery(eager_db, lazy_db)
