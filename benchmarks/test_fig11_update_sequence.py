"""Figure 11 — the update sequence for the page recovery index.

The protocol: write the dirty page back, then append the PRI-update
log record, and only then allow eviction — with **no log force per
write** ("doing so would add a forced log write to each database
write; clearly a very high cost").  Pages are written back in runs: a
miss whose victim is dirty cleans up to seven more dirty frames with
it, after one log force, and one PRI-update record names them all.

The experiment measures that accounting under sustained eviction
pressure, and verifies the crash windows between the steps by cutting
the run at each point — including inside a run, between two of its
device writes.
"""

from __future__ import annotations

from benchmarks.common import cut_run_after, key_of, print_table, value_of
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import NULL_PROFILE
from repro.wal.records import LogRecordKind
from tests.record_reference import records_from


def build(buffer_capacity=24):
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=4096, buffer_capacity=buffer_capacity,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE,
        backup_policy=BackupPolicy.disabled()))
    return db, db.create_index()


def run_pressure():
    """A working set far larger than the pool forces constant
    write-back + eviction; count the protocol's artifacts."""
    db, tree = build()
    txn = db.begin()
    for i in range(3000):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return {
        "page writes": db.stats.get("pages_written_back"),
        "PRI update records": db.stats.get("pri_update_records"),
        "evictions": db.stats.get("pages_evicted"),
        "log forces": db.stats.get("log_forces"),
    }


def run_crash_windows():
    """Crash after each protocol step; nothing committed is ever lost."""
    outcomes = []

    # Window A: crash right after the device write, before the PRI
    # record is durable (it was appended, not forced).
    db, tree = build(buffer_capacity=128)
    txn = db.begin()
    for i in range(100):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    victim = sorted(db.pool.dirty_page_table())[0]
    db.pool.flush_page(victim)          # write + unforced PRI record
    db.crash()
    report = db.restart()
    tree = db.tree(1)
    ok = all(tree.lookup(key_of(i)) == value_of(i, 0) for i in range(100))
    outcomes.append(["write done, PRI record lost", ok,
                     report.pri_repair_records])

    # Window B: crash after the PRI record is durable, before eviction.
    db, tree = build(buffer_capacity=128)
    txn = db.begin()
    for i in range(100):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    victim = sorted(db.pool.dirty_page_table())[0]
    db.pool.flush_page(victim)
    db.log.force()                      # PRI record now durable
    db.crash()
    report = db.restart()
    tree = db.tree(1)
    ok = all(tree.lookup(key_of(i)) == value_of(i, 0) for i in range(100))
    outcomes.append(["write done, PRI record durable", ok,
                     report.pri_repair_records])

    # Window C: a run cut after j of its device writes, before its
    # record: the j pages are current on the device, and no log record
    # says so.
    db, tree = build(buffer_capacity=128)
    txn = db.begin()
    for i in range(400):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    j = len(db.pool.dirty_page_table()) // 2
    written = cut_run_after(db, j)
    assert len(written) == j
    db.crash()
    crashed_at = db.log.end_lsn
    report = db.restart()
    tree = db.tree(1)
    ok = all(tree.lookup(key_of(i)) == value_of(i, 0) for i in range(400))
    # Figure 12's repair record names each page the cut run wrote.
    repaired = sorted(page_id for r in records_from(db.log, crashed_at)
                      if r.kind == LogRecordKind.PRI_UPDATE
                      for page_id, _lsn in r.writes)
    outcomes.append([f"run cut after {j} of its writes",
                     ok and repaired == sorted(written),
                     report.pri_repair_records, j])
    return outcomes


def test_fig11_no_force_per_write(benchmark):
    counts = benchmark.pedantic(run_pressure, rounds=1, iterations=1)

    # One PRI record per run of completed writes, not per write (39
    # writes in 5 records)...
    assert counts["PRI update records"] <= counts["page writes"] / 4
    # ... with massively fewer forces than writes (forces come from the
    # WAL rule, once per run, and commits — not from PRI maintenance).
    assert counts["log forces"] < counts["page writes"] / 2
    assert counts["evictions"] > 0

    print_table(
        "Figure 11: write-back protocol accounting under eviction pressure",
        ["metric", "count"],
        [[k, v] for k, v in counts.items()])


def test_fig11_crash_windows(benchmark):
    outcomes = benchmark.pedantic(run_crash_windows, rounds=1, iterations=1)
    for label, ok, *_counts in outcomes:
        assert ok, f"data loss in window: {label}"
    # Window A requires the Figure-12 repair; window B does not; window
    # C requires it for each page the cut run wrote, and no other.
    assert outcomes[0][2] >= 1
    assert outcomes[1][2] == 0
    assert outcomes[2][2] == outcomes[2][3] > 0

    print_table(
        "Figure 11: crash windows between protocol steps",
        ["crash point", "all data intact", "PRI repair records at restart",
         "pages written"],
        [row + [""] * (4 - len(row)) for row in outcomes])
