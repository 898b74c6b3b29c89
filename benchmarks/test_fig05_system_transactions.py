"""Figure 5 — user transactions vs system transactions.

The figure's table contrasts the two transaction flavours; the decisive
quantitative row is logging overhead: user commits force the log, system
commits do not.  The experiment performs the same number of commits of
comparable work under both flavours and measures log forces and
simulated commit latency; it also verifies the paper's safety argument
by crashing with unforced system commits (contents-neutral, so nothing
is lost).
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table, value_of
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import HDD_PROFILE, NULL_PROFILE


def build(profile):
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=2048, buffer_capacity=128,
        device_profile=NULL_PROFILE, log_profile=profile,
        backup_profile=NULL_PROFILE))
    tree = db.create_index()
    return db, tree


def run_commits(system: bool, n: int = 80):
    """n single-record transactions, as user or system transactions."""
    db, tree = build(HDD_PROFILE)
    root = db.get_root(tree.index_id)
    forces_before = db.stats.get("log_forces")
    t0 = db.clock.now
    for i in range(n):
        txn = db.tm.begin(system=system)
        page = db.fix(root)
        from repro.btree.node import BTreeNode

        node = BTreeNode(page)
        index, _found = node.find(key_of(i))
        lsn = db.tm.log_update(txn, page, tree.index_id,
                               node.op_insert(index, key_of(i), value_of(i, 0),
                                              ghost=system))
        db.unfix(root, lsn)
        db.tm.commit(txn)
    return {
        "commits": n,
        "log_forces": db.stats.get("log_forces") - forces_before,
        "sim_seconds": db.clock.now - t0,
        "log_bytes": db.log.encoded_size(),
    }


def test_fig05_commit_overhead(benchmark):
    def run():
        return {"user": run_commits(system=False),
                "system": run_commits(system=True)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    user, system = results["user"], results["system"]

    # Every user commit forces the log; system commits force nothing.
    assert user["log_forces"] == user["commits"]
    assert system["log_forces"] == 0
    # Which shows up directly as simulated commit latency.
    assert system["sim_seconds"] < user["sim_seconds"] / 10

    print_table(
        "Figure 5: user vs system transactions — commit overhead "
        "(80 single-record txns)",
        ["flavour", "commits", "log forces", "sim seconds", "log bytes"],
        [["user transaction", user["commits"], user["log_forces"],
          user["sim_seconds"], user["log_bytes"]],
         ["system transaction", system["commits"], system["log_forces"],
          system["sim_seconds"], system["log_bytes"]]])


def test_fig05_lost_system_txn_is_harmless(benchmark):
    """'Should a system failure prevent logging the commit log record
    of a system transaction, the system transaction is lost ... a lost
    system transaction cannot imply any data loss.'"""
    def run():
        db = Database(EngineConfig(
            page_size=4096, capacity_pages=2048, buffer_capacity=128,
            device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
            backup_profile=NULL_PROFILE))
        tree = db.create_index()
        txn = db.begin()
        for i in range(300):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        # Structural work whose system commits are never forced...
        txn = db.begin()
        for i in range(300, 420):
            tree.insert(txn, key_of(i), value_of(i, 0))
        # ... crash before the user commit: user AND system work vanish.
        db.crash()
        db.restart()
        tree = db.tree(1)
        from repro.btree.verify import verify_tree

        assert tree.count() == 300
        assert verify_tree(tree).ok
        return True

    assert benchmark.pedantic(run, rounds=1, iterations=1)


def test_fig05_bench_system_txn_throughput(benchmark):
    """Wall time per structural system transaction (ghost insert)."""
    db, tree = build(NULL_PROFILE)
    root = db.get_root(tree.index_id)
    counter = [0]

    def one_system_txn():
        from repro.btree.node import BTreeNode

        i = counter[0]
        counter[0] += 1
        txn = db.tm.begin(system=True)
        page = db.fix(root)
        node = BTreeNode(page)
        index, _found = node.find(key_of(i))
        lsn = db.tm.log_update(txn, page, tree.index_id,
                               node.op_insert(index, key_of(i), b"", ghost=True))
        db.unfix(root, lsn)
        db.tm.commit(txn)

    benchmark.pedantic(one_system_txn, rounds=50, iterations=1)
