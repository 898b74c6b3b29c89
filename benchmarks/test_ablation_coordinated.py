"""Ablation — coordinated vs independent multi-page recovery.

Section 5.2 predicts: "if all pages on a storage device require
recovery at the same time, and if their recovery is coordinated, then
access patterns and performance of the recovery process resemble those
of traditional media recovery."

The sweep grows the victim set from one page to every allocated data
page and compares independent (one cold chain walk per page) against
coordinated recovery (shared log access, sequential write-back).
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table, value_of
from repro.core.backup import BackupPolicy
from repro.core.single_page import SinglePageRecovery
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import PageFailureKind, SinglePageFailure
from repro.sim.iomodel import HDD_PROFILE
from repro.wal.log_reader import LogReader

N_KEYS = 800


def build():
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=2048, buffer_capacity=64,
        device_profile=HDD_PROFILE, log_profile=HDD_PROFILE,
        backup_profile=HDD_PROFILE,
        backup_policy=BackupPolicy.disabled()))
    tree = db.create_index()
    txn = db.begin()
    for i in range(N_KEYS):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    # Interleaved update traffic so per-page chains span log pages.
    txn = db.begin()
    for v in range(1200):
        i = (v * 997) % N_KEYS
        tree.update(txn, key_of(i), value_of(i, v))
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    return db, tree


def victims_of(db, tree, count):
    all_pages = [pid for pid in range(db.config.data_start,
                                      db.allocated_pages())]
    step = max(1, len(all_pages) // count)
    return all_pages[::step][:count]


def run_independent(db, victims):
    t0 = db.clock.now
    pages_read = 0
    for pid in victims:
        reader = LogReader(db.log, db.clock, db.config.log_profile, db.stats)
        spr = SinglePageRecovery(db.pri, db.backup_store, reader,
                                 db.device, db.clock, db.stats)
        spr.recover(SinglePageFailure(pid, PageFailureKind.DEVICE_READ_ERROR))
        pages_read += reader.pages_read
    return pages_read, db.clock.now - t0


def run_coordinated(db, victims):
    t0 = db.clock.now
    result = db.single_page.recover_many(victims)
    return result.log_pages_read, db.clock.now - t0


def test_ablation_coordinated_recovery(benchmark):
    def run():
        rows = []
        for count in (1, 8, 32, "all"):
            db, tree = build()
            victims = (victims_of(db, tree, 10**9) if count == "all"
                       else victims_of(db, tree, count))
            ind_pages, ind_secs = run_independent(db, victims)
            db2, tree2 = build()
            victims2 = (victims_of(db2, tree2, 10**9) if count == "all"
                        else victims_of(db2, tree2, count))
            coord_pages, coord_secs = run_coordinated(db2, victims2)
            rows.append([len(victims), ind_pages, ind_secs,
                         coord_pages, coord_secs])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    # Coordination never reads more log pages, and the gap widens with
    # the victim count (shared log pages amortize).
    for _n, ind_pages, _is, coord_pages, _cs in rows:
        assert coord_pages <= ind_pages
    big = rows[-1]
    assert big[3] < big[1]
    assert big[4] < big[2]
    # Per-victim coordinated cost falls as the batch grows — the
    # media-recovery-like regime the paper predicts.
    per_victim = [r[4] / r[0] for r in rows]
    assert per_victim[-1] < per_victim[0]

    print_table(
        "Ablation: independent vs coordinated multi-page recovery "
        "(HDD timings)",
        ["victims", "independent: log pages", "independent: sim s",
         "coordinated: log pages", "coordinated: sim s"],
        rows)
