"""Ablation — adoption eagerness in the Foster B-tree.

Foster relationships are "temporary!" (Figure 3), but *how* temporary
is a policy choice: eager adoption (every write that passes a chain
adopts) keeps chains invisible at the cost of extra structural
transactions on the write path; lazy adoption leaves longer chains,
which every traversal must walk — and verify.

The sweep varies ``adopt_every`` and reports chain statistics, logged
structural work, and traversal cost.  Correctness (full verification)
holds at every setting; only the constants move.
"""

from __future__ import annotations

from benchmarks.common import print_table
from repro.btree.verify import verify_tree
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import NULL_PROFILE

N_KEYS = 2000


def run(adopt_every: int):
    db = Database(EngineConfig(
        page_size=1024, capacity_pages=8192, buffer_capacity=1024,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE))
    tree = db.create_index()
    tree.adopt_every = adopt_every
    txn = db.begin()
    for i in range(N_KEYS):
        tree.insert(txn, b"k%08d" % i, b"v" * 16)
    db.commit(txn)
    # Count chains in the final structure.
    from repro.btree.node import BTreeNode

    chains = 0
    longest = 0

    def visit(pid):  # noqa: ANN001
        nonlocal chains, longest
        page = db.pool.fix(pid)
        node = BTreeNode(page)
        if node.has_foster:
            chains += 1
            length, current_pid = 0, pid
            current = node
            while current.has_foster:
                nxt = current.foster_pid
                nxt_page = db.pool.fix(nxt)
                if current_pid != pid:
                    db.pool.unfix(current_pid)
                current, current_pid = BTreeNode(nxt_page), nxt
                length += 1
            if current_pid != pid:
                db.pool.unfix(current_pid)
            longest = max(longest, length)
        if not node.is_leaf:
            for i in range(node.nrecs):
                visit(node.child_pid(i))
        if node.has_foster:
            visit(node.foster_pid)
        db.pool.unfix(pid)

    visit(db.catalog.get_root(tree.index_id))
    report = verify_tree(tree)
    assert report.ok, report.problems
    # Point-lookup hop cost over the final structure.
    hops_before = db.stats.get("btree_hops_verified")
    for i in range(0, N_KEYS, 50):
        tree.lookup(b"k%08d" % i)
    lookups = N_KEYS // 50
    hops = (db.stats.get("btree_hops_verified") - hops_before) / lookups
    return {
        "adopt_every": adopt_every,
        "splits": db.stats.get("btree_splits"),
        "adoptions": db.stats.get("btree_adoptions"),
        "chains_left": chains,
        "longest_chain": longest,
        "hops_per_lookup": hops,
    }


def test_ablation_adoption_eagerness(benchmark):
    def sweep():
        return [run(n) for n in (1, 4, 16, 64)]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    eager, lazy = results[0], results[-1]
    # Eager adoption leaves no chains; lazy leaves some, and traversals
    # pay for them in verified hops.
    assert eager["chains_left"] == 0
    assert lazy["chains_left"] >= eager["chains_left"]
    assert lazy["hops_per_lookup"] >= eager["hops_per_lookup"]
    # Structural work balances out: every split eventually needs one
    # adoption (or root growth), regardless of eagerness.
    for r in results:
        assert r["adoptions"] <= r["splits"]

    print_table(
        f"Ablation: adoption eagerness ({N_KEYS} ascending inserts)",
        ["adopt every Nth", "splits", "adoptions", "chains left",
         "longest chain", "verified hops / lookup"],
        [[r["adopt_every"], r["splits"], r["adoptions"], r["chains_left"],
          r["longest_chain"], r["hops_per_lookup"]] for r in results])
