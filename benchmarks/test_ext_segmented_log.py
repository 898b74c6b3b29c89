"""Extension — segmented WAL: recovery log access is O(chain), not O(log).

The point of the per-page chain + segment directory is that single-page
recovery touches only the failed page's records, however large the log
has grown (Section 5.2.4: "only the log records pertaining to the
failed page are needed").  This experiment holds the victim page's
chain length constant while growing total log volume ~an order of
magnitude with foreign traffic, and checks that the recovery's log
reads do not grow with it.  A second benchmark measures raw append +
indexed-lookup throughput of the segmented log manager.
"""

from __future__ import annotations

from benchmarks.common import fast_db, key_of, leaf_of, print_table, value_of
from repro.core.backup import BackupPolicy
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN, log_page_of
from repro.wal.ops import OpInsert
from repro.wal.records import LogRecord, LogRecordKind

CHAIN_LENGTH = 24


def run_recovery_with_foreign_traffic(foreign_updates: int):
    """One single-page recovery with a fixed-length chain, after
    ``foreign_updates`` unrelated updates inflated the log."""
    db, tree = fast_db(400, backup_policy=BackupPolicy.disabled())
    victim = leaf_of(db, tree)
    page = db.pool.fix(victim)
    db.take_page_copy(page)
    from repro.btree.node import BTreeNode

    first_key = BTreeNode(page).full_key(0)
    db.pool.unfix(victim)
    # Fixed-size chain for the victim, then foreign traffic only.
    for version in range(CHAIN_LENGTH):
        txn = db.begin()
        tree.update(txn, first_key, b"version-%04d" % version)
        db.commit(txn)
    # The log pages the chain's records start on: all a repair may read.
    chain_pages = set()
    lsn = db.log.page_chain_head(victim)
    for _ in range(CHAIN_LENGTH):
        chain_pages.add(log_page_of(lsn))
        lsn = db.log.record_at(lsn).page_prev_lsn
    for i in range(foreign_updates):
        spread = 200 + i % 180
        txn = db.begin()
        tree.update(txn, key_of(spread), value_of(spread, i))
        db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    db.device.inject_read_error(victim)
    assert tree.lookup(first_key) == b"version-%04d" % (CHAIN_LENGTH - 1)
    result = db.single_page.history[-1]
    return result, len(chain_pages), db.log.encoded_size(), db.log.segment_count


def test_recovery_reads_independent_of_log_length(benchmark):
    def run():
        return [(n, *run_recovery_with_foreign_traffic(n))
                for n in (0, 1000, 4000, 8000)]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for n, result, chain_pages, log_bytes, segments in results:
        assert result.records_applied == CHAIN_LENGTH
        # Recovery reads exactly the log pages the chain starts records
        # on — never a foreign one — plus the one backup fetch.
        assert result.log_pages_read == chain_pages
        assert result.total_random_ios == chain_pages + 1
        rows.append([n, log_bytes, segments, chain_pages,
                     result.log_pages_read, result.records_applied,
                     result.total_random_ios])

    # The log grows severalfold (~10x in record count)...
    assert rows[-1][1] > 5 * rows[0][1]
    # ...but recovery reads the same chain: identical record count and
    # no growth in log I/O beyond the chain's own footprint.
    reads = [row[4] for row in rows]
    assert max(reads) <= max(1, min(reads)) + 2
    # The 24-record chain fits in one log page, so it spans at most two.
    assert all(row[3] <= 2 for row in rows)

    print_table(
        "Segmented WAL: single-page recovery vs. total log volume "
        f"(chain length fixed at {CHAIN_LENGTH})",
        ["foreign updates", "log bytes", "segments", "chain log pages",
         "log pages read", "records applied", "total random I/Os"],
        rows)


def test_bench_segmented_append_and_lookup(benchmark):
    """Wall time of the hot log path: append + chain-head lookup +
    indexed record_at over a multi-segment log."""
    def run():
        log = LogManager(SimClock(), NULL_PROFILE, Stats())
        prev = {pid: NULL_LSN for pid in range(64)}
        lsns = []
        for i in range(4000):
            pid = i % 64
            lsn = log.append(LogRecord(
                LogRecordKind.UPDATE, txn_id=1, page_id=pid,
                page_prev_lsn=prev[pid], op=OpInsert(0, b"k", b"v" * 32)))
            prev[pid] = lsn
            lsns.append(lsn)
        # Indexed point lookups across all segments.
        for lsn in lsns[::7]:
            log.record_at(lsn)
        for pid in range(64):
            assert log.page_chain_head(pid) == prev[pid]
        return log.segment_count

    segments = benchmark(run)
    assert segments > 1
