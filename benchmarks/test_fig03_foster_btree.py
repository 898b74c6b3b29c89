"""Figure 3 — a Foster B-tree with a foster relationship.

Reproduces the figure's lifecycle as measurements:

* node splits create foster parent/child chains (no immediate upward
  propagation);
* every foster parent carries the high fence of the entire chain;
* adoption moves foster children to the permanent parent, shortening
  chains back to zero under write traffic;
* every pointer traversal — permanent or foster — is verified, so
  detection coverage is continuous.
"""

from __future__ import annotations

from benchmarks.common import print_table
from repro.btree.node import BTreeNode
from repro.btree.verify import verify_tree
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import NULL_PROFILE


def build_db():
    db = Database(EngineConfig(
        page_size=1024, capacity_pages=4096, buffer_capacity=512,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE))
    return db, db.create_index()


def chain_stats(db, tree):  # noqa: ANN001
    """Count foster chains and verify the chain-high-fence invariant."""
    chains = 0
    longest = 0
    nodes = 0

    def visit(pid):  # noqa: ANN001
        nonlocal chains, longest, nodes
        page = db.pool.fix(pid)
        node = BTreeNode(page)
        nodes += 1
        if node.has_foster:
            # Walk the chain; every member must carry the chain high.
            length = 0
            chain_high = node.high_fence
            chain_inf = node.high_inf
            current = node
            current_pid = pid
            while current.has_foster:
                foster_pid = current.foster_pid
                foster_page = db.pool.fix(foster_pid)
                foster = BTreeNode(foster_page)
                assert foster.high_inf == chain_inf
                if not chain_inf:
                    assert foster.high_fence == chain_high
                assert foster.low_fence == current.foster_key
                if current_pid != pid:
                    db.pool.unfix(current_pid)
                current, current_pid = foster, foster_pid
                length += 1
            if current_pid != pid:
                db.pool.unfix(current_pid)
            chains += 1
            longest = max(longest, length)
        if not node.is_leaf:
            for i in range(node.nrecs):
                visit(node.child_pid(i))
        if node.has_foster:
            visit(node.foster_pid)
        db.pool.unfix(pid)

    visit(db.catalog.get_root(tree.index_id))
    return {"nodes": nodes, "chains": chains, "longest": longest}


def run_lifecycle():
    db, tree = build_db()
    rows = []

    # Phase 1: bulk ascending inserts — splits create foster chains.
    # Chains are transient (Figure 3's relationship is "temporary!"),
    # so sample the structure mid-flight to catch them alive.
    txn = db.begin()
    max_chains = 0
    max_longest = 0
    for i in range(1500):
        tree.insert(txn, b"k%08d" % i, b"v" * 16)
        if i % 10 == 9:
            stats = chain_stats(db, tree)
            max_chains = max(max_chains, stats["chains"])
            max_longest = max(max_longest, stats["longest"])
    db.commit(txn)
    rows.append(["peak during bulk load", "-", max_chains, max_longest,
                 db.stats.get("btree_splits"),
                 db.stats.get("btree_adoptions")])
    stats = chain_stats(db, tree)
    rows.append(["after bulk load", stats["nodes"], stats["chains"],
                 stats["longest"], db.stats.get("btree_splits"),
                 db.stats.get("btree_adoptions")])

    # Phase 2: update traffic — opportunistic adoption keeps the tree
    # chain-free in steady state.
    txn = db.begin()
    for i in range(1500):
        tree.update(txn, b"k%08d" % i, b"u" * 16)
    db.commit(txn)
    stats = chain_stats(db, tree)
    rows.append(["after update pass", stats["nodes"], stats["chains"],
                 stats["longest"], db.stats.get("btree_splits"),
                 db.stats.get("btree_adoptions")])
    return db, tree, rows, max_chains


def test_fig03_foster_lifecycle(benchmark):
    db, tree, rows, max_chains = benchmark.pedantic(run_lifecycle, rounds=1,
                                                    iterations=1)

    # Splits happened, chains existed mid-flight, adoption cleared them.
    assert db.stats.get("btree_splits") > 10
    assert db.stats.get("btree_adoptions") > 10
    assert max_chains >= 1                    # observed alive (Figure 3)
    assert rows[-1][2] <= max_chains          # steady state not worse

    # The tree is fully consistent and every hop was verified.
    assert verify_tree(tree).ok
    assert db.stats.get("btree_hops_verified") > 1000
    assert db.stats.get("btree_invariant_failures") == 0

    print_table(
        "Figure 3: Foster B-tree — chains form on split, vanish on adoption",
        ["phase", "nodes", "foster chains", "longest chain",
         "splits so far", "adoptions so far"],
        rows)


def test_fig03_bench_verified_descent(benchmark):
    """Wall time of a root-to-leaf pass with continuous verification."""
    db, tree = build_db()
    txn = db.begin()
    for i in range(1500):
        tree.insert(txn, b"k%08d" % i, b"v" * 16)
    db.commit(txn)

    def descend():
        return tree.lookup(b"k%08d" % 747)

    value = benchmark(descend)
    assert value == b"v" * 16
