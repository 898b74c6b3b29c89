#!/usr/bin/env python3
"""A guided tour of the recovery machinery across all four failure
classes — the paper's taxonomy, live.

1. transaction failure: a deliberate abort rolls back logically;
2. system failure: crash + ARIES restart with the Figure-12 page-
   recovery-index reconciliation;
3. single-page failure: the fourth class, repaired inline;
4. media failure: full restore + log replay as the last resort.

Run:  python examples/crash_recovery_tour.py
"""

from repro import Database, EngineConfig
from repro.core.backup import BackupPolicy
from repro.sim.iomodel import HDD_PROFILE


def main() -> None:
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=2048, buffer_capacity=128,
        device_profile=HDD_PROFILE, log_profile=HDD_PROFILE,
        backup_profile=HDD_PROFILE,
        backup_policy=BackupPolicy(every_n_updates=100)))
    tree = db.create_index()
    txn = db.begin()
    for i in range(800):
        tree.insert(txn, b"item:%06d" % i, b"qty=%d" % i)
    db.commit(txn)
    print(f"loaded 800 rows in {db.clock.now:.2f} simulated seconds\n")

    # ------------------------------------------------------- class 1
    print("== 1. transaction failure (rollback) ==")
    t0 = db.clock.now
    txn = db.begin()
    for i in range(50):
        tree.update(txn, b"item:%06d" % i, b"qty=-1")
    db.abort(txn)
    print(f"  50 updates rolled back in {db.clock.now - t0:.3f} sim s; "
          f"item:000000 = {tree.lookup(b'item:000000')!r}\n")

    # ------------------------------------------------------- class 2
    print("== 2. system failure (crash + restart) ==")
    db.checkpoint()
    txn_loser = db.begin()
    tree.update(txn_loser, b"item:000001", b"qty=LOST")
    txn_winner = db.begin()
    tree.update(txn_winner, b"item:000002", b"qty=SAFE")
    db.commit(txn_winner)
    db.crash()
    t0 = db.clock.now
    report = db.restart()
    tree = db.tree(1)
    print(f"  restart in {db.clock.now - t0:.3f} sim s: "
          f"{report.analysis_records} records analyzed, "
          f"{report.redo_pages_read} pages read in redo, "
          f"{report.undo_transactions} loser txn undone")
    print(f"  item:000001 = {tree.lookup(b'item:000001')!r} (rolled back), "
          f"item:000002 = {tree.lookup(b'item:000002')!r} (kept)\n")

    # ------------------------------------------------------- class 4
    print("== 3. single-page failure (the fourth class) ==")
    db.flush_everything()
    db.evict_everything()
    page, _n, _pid = tree._descend(b"item:000400", for_write=False)
    victim = page.page_id
    db.pool.unfix(victim)
    db.evict_everything()
    db.device.inject_bit_rot(victim, nbits=6)
    t0 = db.clock.now
    value = tree.lookup(b"item:000400")
    result = db.single_page.history[-1]
    print(f"  detected + repaired in {db.clock.now - t0:.3f} sim s "
          f"({result.total_random_ios} random I/Os, "
          f"{result.records_applied} log records replayed)")
    print(f"  item:000400 = {value!r}; no transaction aborted\n")

    # ------------------------------------------------------- class 3
    print("== 4. media failure (the expensive last resort) ==")
    backup_id = db.take_full_backup()
    txn = db.begin()
    for i in range(100):
        tree.update(txn, b"item:%06d" % i, b"qty=v2-%d" % i)
    db.commit(txn)
    db.device.fail_device("head crash")
    db._media_failed = True
    t0 = db.clock.now
    media = db.recover_media(backup_id)
    tree = db.tree(1)
    print(f"  restored {media.pages_restored} pages and replayed "
          f"{media.records_replayed} records in "
          f"{media.total_seconds:.2f} sim s")
    print(f"  item:000000 = {tree.lookup(b'item:000000')!r}\n")

    print("== recovery-time ladder (simulated) ==")
    print("  rollback < single-page < restart << media recovery —")
    print("  exactly the ordering of the paper's Section 6.")


if __name__ == "__main__":
    main()
