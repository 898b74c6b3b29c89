"""Figure 2 — symmetric fence keys in a page.

Demonstrates and measures the two properties the figure illustrates:

* every key in a node falls between the low and high fence, and the
  fences equal the separator keys posted in the parent;
* suffix truncation keeps separators (hence fences) short, and prefix
  truncation strips the fences' common prefix from every stored key.
"""

from __future__ import annotations

from benchmarks.common import print_table
from repro.btree.node import BTreeNode
from repro.btree.verify import VerificationReport, verify_node
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import NULL_PROFILE

SHARED_PREFIX = b"warehouse/0042/district/007/order/"


def build_tree(with_prefix: bool):
    db = Database(EngineConfig(
        page_size=1024, capacity_pages=4096, buffer_capacity=512,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE))
    tree = db.create_index()
    txn = db.begin()
    prefix = SHARED_PREFIX if with_prefix else b""
    for i in range(1200):
        tree.insert(txn, prefix + b"%08d" % i, b"v")
    db.commit(txn)
    return db, tree


def collect_nodes(db, tree):  # noqa: ANN001
    """(node stats) for every node, via a full traversal."""
    rows = []

    def visit(pid, exp_low, exp_high, exp_inf, exp_level):  # noqa: ANN001
        page = db.pool.fix(pid)
        node = BTreeNode(page)
        report = VerificationReport()
        verify_node(node, exp_low, exp_high, exp_inf, exp_level, report)
        assert report.ok, report.problems
        key_bytes = sum(len(node.stored_key(i)) for i in range(node.nrecs))
        full_bytes = sum(len(node.full_key(i)) for i in range(node.nrecs))
        rows.append({
            "level": node.level,
            "records": node.nrecs,
            "low_fence_len": len(node.low_fence),
            "high_fence_len": 0 if node.high_inf else len(node.high_fence),
            "prefix_len": len(node.prefix),
            "stored_key_bytes": key_bytes,
            "full_key_bytes": full_bytes,
        })
        if not node.is_leaf:
            for i in range(node.nrecs):
                low, high, inf = node.child_boundaries(i)
                visit(node.child_pid(i), low, high, inf, node.level - 1)
        if node.has_foster:
            low, high, inf = node.foster_boundaries()
            visit(node.foster_pid, low, high, inf, node.level)
        db.pool.unfix(pid)

    root = db.catalog.get_root(tree.index_id)
    root_page = db.pool.fix(root)
    level = BTreeNode(root_page).level
    db.pool.unfix(root)
    visit(root, b"", b"", True, level)
    return rows


def summarize(rows):
    leaves = [r for r in rows if r["level"] == 0]
    stored = sum(r["stored_key_bytes"] for r in leaves)
    full = sum(r["full_key_bytes"] for r in leaves)
    return {
        "nodes": len(rows),
        "leaves": len(leaves),
        "avg_fence_len": sum(r["low_fence_len"] + r["high_fence_len"]
                             for r in rows) / (2 * len(rows)),
        "stored_key_bytes": stored,
        "full_key_bytes": full,
        "prefix_savings_pct": 100.0 * (1 - stored / full) if full else 0.0,
    }


def test_fig02_fence_key_properties(benchmark):
    def run():
        out = {}
        for label, with_prefix in (("short keys", False),
                                   ("shared-prefix keys", True)):
            db, tree = build_tree(with_prefix)
            out[label] = summarize(collect_nodes(db, tree))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    plain = results["short keys"]
    prefixed = results["shared-prefix keys"]

    # Suffix truncation: fences stay small even with 42-byte keys.
    assert prefixed["avg_fence_len"] < len(SHARED_PREFIX) + 8 + 4

    # Prefix truncation: a long shared prefix largely vanishes from
    # the stored keys.
    assert prefixed["prefix_savings_pct"] > 40.0
    assert plain["prefix_savings_pct"] >= 0.0

    print_table(
        "Figure 2: symmetric fence keys — truncation effectiveness",
        ["workload", "nodes", "avg fence len (B)", "stored key bytes",
         "full key bytes", "prefix savings %"],
        [[label, r["nodes"], r["avg_fence_len"], r["stored_key_bytes"],
          r["full_key_bytes"], r["prefix_savings_pct"]]
         for label, r in results.items()])


def test_fig02_bench_node_verification(benchmark):
    """Wall time of the per-node invariant check (runs on every hop)."""
    db, tree = build_tree(with_prefix=True)
    root = db.catalog.get_root(tree.index_id)
    page = db.pool.fix(root)
    node = BTreeNode(page)

    def verify():
        report = VerificationReport()
        verify_node(node, b"", b"", True, node.level, report)
        return report

    report = benchmark(verify)
    assert report.ok
    db.pool.unfix(root)
