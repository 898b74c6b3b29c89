"""Figure 12 — recovery actions for the page recovery index.

The figure's table, executed:

* log analysis: an *update* record adds its page to the recovery
  requirements; a *PRI update* record removes it;
* redo, page behind the log: read it, apply the missing updates;
* redo, page already current (its write completed but the PRI update
  was lost in the crash): generate the missing PRI log record instead.

Each table row becomes a crash scenario whose restart report is
checked against the prescribed action.
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table, value_of
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import NULL_PROFILE


def build():
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=2048, buffer_capacity=256,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE))
    tree = db.create_index()
    txn = db.begin()
    for i in range(200):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    db.log.force()
    db.checkpoint()
    return db, tree


def scenario_update_without_write():
    """Row 1: update logged, page never written back."""
    db, tree = build()
    txn = db.begin()
    tree.update(txn, key_of(1), b"row1")
    db.commit(txn)
    db.crash()
    report = db.restart()
    assert db.tree(1).lookup(key_of(1)) == b"row1"
    return ["update logged, write lost", report.redo_pages_read,
            report.redo_records_applied, report.pri_repair_records,
            report.pages_trimmed_by_write_logging]


def scenario_update_with_logged_write():
    """Row 2: update + durable PRI record — analysis removes the page."""
    db, tree = build()
    txn = db.begin()
    tree.update(txn, key_of(2), b"row2")
    db.commit(txn)
    db.flush_everything()   # write-back + PRI records
    db.log.force()          # records durable
    db.crash()
    report = db.restart()
    assert db.tree(1).lookup(key_of(2)) == b"row2"
    return ["update + PRI record durable", report.redo_pages_read,
            report.redo_records_applied, report.pri_repair_records,
            report.pages_trimmed_by_write_logging]


def scenario_write_without_pri_record():
    """Row 3: page written, PRI record lost — redo finds the page
    current and regenerates the record."""
    db, tree = build()
    txn = db.begin()
    tree.update(txn, key_of(3), b"row3")
    db.commit(txn)
    page, _n, _pid = tree._descend(key_of(3), for_write=False)
    victim = page.page_id
    db.pool.unfix(victim)
    db.pool.flush_page(victim)  # write-back; PRI record NOT forced
    db.crash()
    report = db.restart()
    assert db.tree(1).lookup(key_of(3)) == b"row3"
    return ["write done, PRI record lost", report.redo_pages_read,
            report.redo_records_applied, report.pri_repair_records,
            report.pages_trimmed_by_write_logging]


def test_fig12_action_matrix(benchmark):
    def run():
        return [scenario_update_without_write(),
                scenario_update_with_logged_write(),
                scenario_write_without_pri_record()]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    row1, row2, row3 = rows

    # Row 1: the page must be read and the update re-applied.
    assert row1[1] >= 1 and row1[2] >= 1 and row1[3] == 0
    # Row 2: analysis trimmed the page; redo read nothing.
    assert row2[1] == 0 and row2[4] >= 1
    # Row 3: the page was read, found current, and the PRI log record
    # was generated during redo.
    assert row3[1] >= 1 and row3[2] == 0 and row3[3] >= 1

    print_table(
        "Figure 12: recovery actions by crash scenario",
        ["scenario", "redo page reads", "redo records applied",
         "PRI records generated", "pages trimmed in analysis"],
        rows)


def test_fig12_bench_analysis_pass(benchmark):
    """Wall time of the log-analysis pass (reads only the log)."""
    def setup():
        db, tree = build()
        txn = db.begin()
        for i in range(150):
            tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        db.crash()
        return (db,), {}

    report = benchmark.pedantic(lambda db: db.restart(), setup=setup,
                                rounds=3)
    assert report.analysis_records > 0
