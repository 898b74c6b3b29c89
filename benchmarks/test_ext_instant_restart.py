"""Extension — instant restart: time-to-first-transaction stays flat.

Classic (eager) restart pays the whole redo pass — one random read per
surviving dirty page — before the database opens, so its
time-to-first-transaction grows linearly with the dirty-page count.
On-demand restart runs log analysis only (one sequential scan of the
tail) and rolls pages forward on first touch, so its
time-to-first-transaction is the analysis scan plus the handful of
pages the first transaction actually fixes — ~constant while the
dirty-page count grows an order of magnitude.
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table, value_of
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import HDD_PROFILE


def crashed_db(n_keys: int, scatter: bool = True) -> Database:
    """A database whose crash image carries one dirty page per touched
    leaf.  With ``scatter``, only every other leaf is updated, so the
    dirty set is non-contiguous — the redo pass pays honest random
    reads instead of riding the device's sequential-access discount."""
    db = Database(EngineConfig(
        page_size=4096,
        capacity_pages=8192,
        buffer_capacity=2048,
        device_profile=HDD_PROFILE,
        log_profile=HDD_PROFILE,
        backup_profile=HDD_PROFILE,
        backup_policy=BackupPolicy.disabled(),
        # A compact PRI region keeps the shared restart constant (the
        # Phase-0 PRI load) small relative to the redo work under test.
        pri_region_pages_per_partition=3,
    ))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n_keys):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    # A routine checkpoint bounds the analysis scan to the tail, as in
    # any production deployment; what grows from here on is the *dirty
    # page* count, which is what separates the two restart modes.
    db.checkpoint()
    if scatter:
        leaves: dict[int, int] = {}  # leaf page id -> one resident key
        for i in range(n_keys):
            page, _node = tree._descend(key_of(i), for_write=False)
            leaves.setdefault(page.page_id, i)
            db.unfix(page.page_id)
        victims = [i for page_id, i in sorted(leaves.items())
                   if page_id % 2 == 0]
    else:
        victims = list(range(n_keys))
    txn = db.begin()
    for i in victims:
        tree.update(txn, key_of(i), value_of(i, 1))
    db.commit(txn)
    db.crash()
    return db


def time_to_first_transaction(db: Database, mode: str):
    """Simulated seconds from 'restart begins' to 'first user
    transaction committed'."""
    start = db.clock.now
    report = db.restart(mode=mode)
    tree = db.tree(1)
    txn = db.begin()
    db.update(tree, key_of(0), b"first-txn-after-crash", txn=txn)
    db.commit(txn)
    return db.clock.now - start, report


def test_time_to_first_transaction_flat_on_demand(benchmark):
    def run():
        out = []
        for n_keys in (1200, 12000):
            results = {}
            for mode in ("eager", "on_demand"):
                db = crashed_db(n_keys)
                seconds, report = time_to_first_transaction(db, mode)
                assert db.tree(1).lookup(key_of(0)) == b"first-txn-after-crash"
                results[mode] = (seconds, report)
            out.append((n_keys, results))
        return out

    scales = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for n_keys, results in scales:
        eager_s, eager_report = results["eager"]
        lazy_s, lazy_report = results["on_demand"]
        dirty = eager_report.dirty_pages_at_analysis_end
        rows.append([n_keys, dirty, eager_s, lazy_s,
                     lazy_report.pending_redo_pages, eager_s / lazy_s])

    (_, dirty_small, eager_small, lazy_small, _, _) = rows[0]
    (_, dirty_large, eager_large, lazy_large, _, _) = rows[1]

    # The dirty-page count grows an order of magnitude...
    assert dirty_large >= 5 * dirty_small
    # ...eager restart's time-to-first-transaction grows with it...
    assert eager_large >= 5 * eager_small
    # ...while on-demand stays ~flat and beats eager decisively.
    assert lazy_large <= 2 * lazy_small
    assert lazy_large < eager_large / 5
    # In absolute terms: the analysis scan plus a handful of pages.
    assert lazy_small <= 0.0915
    assert lazy_large <= 0.10175

    print_table(
        "Instant restart: time-to-first-transaction (simulated seconds, "
        "HDD profile)",
        ["keys", "dirty pages", "eager TTFT", "on-demand TTFT",
         "pending pages", "speedup"],
        rows)


def test_on_demand_drain_converges_with_traffic(benchmark):
    """The background drain finishes restart while the system serves
    reads; total committed state matches the eager result."""
    def run():
        db = crashed_db(1200, scatter=False)
        db.restart(mode="on_demand")
        tree = db.tree(1)
        drained = 0
        probe = 0
        while db.restart_pending:
            pages, losers = db.drain_restart(page_budget=16, loser_budget=1)
            drained += pages + losers
            # Interleaved traffic rides the same fix path.
            assert tree.lookup(key_of(probe)) == value_of(probe, 1)
            probe += 37
        return db, drained

    db, drained = benchmark.pedantic(run, rounds=1, iterations=1)
    assert drained > 0
    assert not db.restart_pending
    assert db.last_restart_completion_lsn is not None
    tree = db.tree(1)
    for i in range(0, 1200, 111):
        assert tree.lookup(key_of(i)) == value_of(i, 1)
