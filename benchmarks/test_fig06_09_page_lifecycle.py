"""Figures 6 and 9 — per-page data structures through the lifecycle.

Figure 6 shows the state while a data page is buffered and dirty: the
per-page chain is anchored by the PageLSN *in the page*, and the page
recovery index's LSN information "is not reliable" (dashed line).
Figure 9 shows the state after write-back and PRI maintenance: the PRI
points at the most recent backup and the most recent log record — the
page is ready for recovery.

The experiment walks one page through the stages and records what the
PRI knows at each stage, then proves the Figure-9 state is sufficient
by actually recovering the page from it.
"""

from __future__ import annotations

from benchmarks.common import fast_db, key_of, leaf_of, print_table, value_of


def run_lifecycle():
    db, tree = fast_db(300)
    victim = leaf_of(db, tree)
    rows = []

    def snapshot(stage: str):
        entry = db.pri.lookup(victim)
        page = db.pool.page_if_resident(victim)
        page_lsn = page.page_lsn if page is not None else "(not buffered)"
        rows.append([stage, page_lsn,
                     entry.last_lsn if entry.last_lsn is not None else "-",
                     entry.backup_ref.kind.name,
                     "yes" if db.pool.resident(victim) and
                     db.pool.is_dirty(victim) else "no"])
        return entry, page

    # Stage 0: clean on disk, PRI exact.
    entry0, _ = snapshot("clean, evicted (Figure 9)")
    assert entry0.last_lsn is not None

    # Stage 1 (Figure 6): update the page in the buffer pool.  The
    # page's PageLSN advances; the PRI's LSN does NOT (it "may fall
    # behind" while the page is buffered).
    txn = db.begin()
    tree.update(txn, key_of(0), value_of(0, 1))
    db.commit(txn)
    entry1, page1 = snapshot("updated, buffered, dirty (Figure 6)")
    assert page1 is not None
    assert page1.page_lsn > (entry1.last_lsn or 0)  # PRI is behind
    assert entry1.last_lsn == entry0.last_lsn       # unchanged

    # Stage 2 (Figure 11 -> Figure 9): write back; the PRI update
    # follows the completed write.
    db.pool.flush_page(victim)
    entry2, page2 = snapshot("written back (Figure 9)")
    assert entry2.last_lsn == page2.page_lsn        # PRI exact again

    # Stage 3: evicted; the PRI alone must suffice for recovery.
    db.evict_everything()
    entry3, _ = snapshot("evicted, ready for recovery (Figure 9)")
    assert entry3.last_lsn == entry2.last_lsn

    # Proof: destroy the device copy; the Figure-9 state rebuilds it.
    db.device.inject_read_error(victim)
    assert tree.lookup(key_of(0)) == value_of(0, 1)
    recoveries = db.stats.get("single_page_recoveries")
    return rows, recoveries, db


def test_fig06_09_lifecycle(benchmark):
    rows, recoveries, db = benchmark.pedantic(run_lifecycle, rounds=1,
                                              iterations=1)
    assert recoveries == 1
    print_table(
        "Figures 6/9: page recovery index through one page's lifecycle",
        ["stage", "PageLSN in page", "PRI last-LSN", "PRI backup kind",
         "dirty in pool"],
        rows)


def test_fig06_09_bench_pri_maintenance(benchmark):
    """Wall cost of the PRI update on the write-back path (Figure 11's
    extra work) — it must be negligible per write."""
    db, tree = fast_db(300)
    victim = leaf_of(db, tree)
    counter = [0]

    def dirty_and_flush():
        counter[0] += 1
        txn = db.begin()
        tree.update(txn, key_of(0), b"spin%d" % counter[0])
        db.commit(txn)
        db.pool.flush_page(victim)

    benchmark.pedantic(dirty_and_flush, rounds=30, iterations=1)
    # One PRI update per flush that ran: 30 with the benchmark plugin
    # timing, 1 under --benchmark-disable.
    assert db.stats.get("pri_update_records") >= counter[0] >= 1
