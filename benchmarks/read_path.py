"""Time the detected read alone, piece by piece.

Loads the layered benchmark's DBLP-shaped tree (``bench/``'s
``dblp_cold_embedded`` set-up, seed 1), makes every page cold, and
times each step between ``BufferPool.fix`` noticing a page is absent and
the B-tree holding a decoded node — over every node page, median of
``--reps`` passes, in microseconds per page.  Then the search inside a
leaf: in the raw bytes (a decode's first search), through the key
directory (every search after the second), the second search itself
(which builds the directory) — the ratio the "build on the second
search" rule of ``repro.btree.node`` rests on — and a range scan's cost
per row.  Last, one hop of a resident descent on the key-value tree
(``kv_hot_embedded``'s set-up, where every page hits): a warm descent
per level, the pool entry of a hop (``BufferPool.fix`` hit with
``release``), the fence compare alone, what is left — the hop's
bookkeeping — and what being counted costs: one ``inc()``, and how many
of them a hop makes.  The whole-benchmark claim (``python3 -m bench.run``) is
made of these.

Usage (pin to one core for steady numbers)::

    taskset -c 1 python3 benchmarks/read_path.py [--reps N]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.runner import Runner  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from benchmarks.common import incs_during  # noqa: E402
from repro.btree.node import DATA_START, BTreeNode  # noqa: E402
from repro.btree.tree import FosterBTree  # noqa: E402
from repro.page.page import TYPE_OFFSET, Page, PageType  # noqa: E402
from repro.page.slotted import SlottedPage  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=15)
    reps = parser.parse_args().reps

    workload = WORKLOADS["dblp_cold_embedded"]
    runner = Runner(workload, 1, workload.records, workload.round_ops(10), 1)
    runner.setup()
    db = runner.db
    db.flush_everything()
    db.evict_everything()
    device, manager, pool = db.device, db.recovery_manager, db.pool
    size = db.config.page_size
    node_types = (int(PageType.BTREE_BRANCH), int(PageType.BTREE_LEAF))
    nodes = [pid for pid in range(db.allocated_pages())
             if (device.raw_image(pid) or bytes(size))[TYPE_OFFSET] in node_types]
    slots = statistics.mean(
        SlottedPage(Page(size, device.raw_image(pid))).slot_count
        for pid in nodes)
    print(f"{len(nodes)} node pages, {slots:.1f} slots per page, "
          f"pool of {pool.capacity} frames")

    def per_page(step, prepare=None, pages=nodes) -> float:  # noqa: ANN001
        medians = []
        for _ in range(reps):
            args = [prepare(pid) if prepare else pid for pid in pages]
            start = time.perf_counter_ns()
            for arg in args:
                step(arg)
            medians.append((time.perf_counter_ns() - start) / len(args))
        return statistics.median(medians) / 1e3

    def cold_page(pid: int) -> Page:
        return Page(size, device.read(pid))

    def fix_unfix(pid: int) -> None:
        pool.fix(pid)
        pool.unfix(pid)

    rows = [
        ("StorageDevice.read", per_page(device.read)),
        ("Page.verify (header half)",
         per_page(lambda page: page.verify(page.page_id), cold_page)),
        ("SlottedPage.check_plausible (directory half)",
         per_page(lambda page: SlottedPage(page).check_plausible(),
                  cold_page)),
        ("RecoveryManager.inspect (steps 2-3, bytes in hand)",
         per_page(lambda image: manager.inspect(*image),
                  lambda pid: (pid, device.read(pid)))),
        ("RecoveryManager.fetch_page (read + inspect + PRI LSN)",
         per_page(manager.fetch_page)),
        ("first BTreeNode of a cold page (bookkeeping decode)",
         per_page(BTreeNode, cold_page)),
        # More node pages than frames: every fix below misses and evicts.
        ("BufferPool.fix miss + unfix, clean victim", per_page(fix_unfix)),
    ]
    hot = nodes[:pool.capacity // 2]
    for pid in hot:
        fix_unfix(pid)
    rows.append(("BufferPool.fix hit + unfix",
                 per_page(fix_unfix, pages=hot)))

    # -- the search inside a leaf, on a fresh decode each time ---------
    leaves = [pid for pid in nodes
              if (node := BTreeNode(cold_page(pid))).is_leaf and node.nrecs]

    def searched(times: int):  # noqa: ANN202
        """A leaf decode already searched ``times`` times, and a key of it."""
        def prepare(pid: int) -> tuple[BTreeNode, bytes]:
            node = BTreeNode(cold_page(pid))
            key = node.full_key(node.nrecs // 2)
            for _ in range(times):
                node.find(key)
            return node, key
        return prepare

    def find(arg: tuple[BTreeNode, bytes]) -> None:
        arg[0].find(arg[1])

    rows += [
        ("leaf find, raw bytes (first search of a decode)",
         per_page(find, searched(0), leaves)),
        ("leaf find + key directory build (second search)",
         per_page(find, searched(1), leaves)),
        ("leaf find, warm key directory (every later search)",
         per_page(find, searched(2), leaves)),
    ]
    tree = db.tree(runner.client.index_id)
    # A quarter of the pool's worth of leaves: the first pass makes them
    # resident, the timed ones find them there.
    low, high = runner.sorted_keys[0], runner.sorted_keys[
        int(pool.capacity // 4 * (slots - DATA_START))]
    scans = []
    for _ in range(reps + 1):
        start = time.perf_counter_ns()
        n_rows = sum(1 for _row in tree.range_scan(low, high))
        scans.append((time.perf_counter_ns() - start) / n_rows / 1e3)
    rows.append((f"range_scan per row ({n_rows} rows, resident leaves, "
                 f"a descent per leaf included)", statistics.median(scans[1:])))
    runner.close()

    # -- one hop of a resident descent, on the kv-shaped tree ----------
    workload = WORKLOADS["kv_hot_embedded"]
    runner = Runner(workload, 1, workload.records, workload.round_ops(10), 1)
    runner.setup()
    db, pool = runner.db, runner.db.pool
    tree = db.tree(runner.client.index_id)
    levels = tree.depth()
    keys = runner.sorted_keys[::max(1, len(runner.sorted_keys) // 2000)]

    def descend(key: bytes) -> None:
        page, _node = tree._descend(key, for_write=False)
        pool.unfix(page.page_id)

    for key in keys:
        descend(key)  # every directory on the way built
    root = db.get_root(tree.index_id)
    child, low, high, inf = BTreeNode(pool.fix(root)).route(keys[0])
    node = BTreeNode(pool.fix(child, release=root))

    def swap(_key: bytes) -> None:
        pool.fix(root, release=child)
        pool.fix(child, release=root)

    def compare(_key: bytes) -> None:
        FosterBTree._fence_mismatch(node, low, high, inf, node.level)

    per_level = per_page(descend, pages=keys) / levels
    hit = per_page(swap, pages=keys) / 2
    fences = per_page(compare, pages=keys)
    pool.unfix(child)
    hits = db.stats.counter("buffer_hits")
    counts = incs_during(lambda: descend(keys[0])) / levels
    rows += [
        (f"warm descent per level (kv tree, {levels} levels, resident; "
         f"the last unfix included)", per_level),
        ("BufferPool.fix hit with release (a hop's one pool entry)", hit),
        ("the fence compare alone (level, both fences, +inf flag)", fences),
        ("hop bookkeeping = per level - fix - compare (route, the loop)",
         per_level - hit - fences),
        ("one counter inc() (a handle resolved at construction)",
         per_page(hits.inc, pages=[1] * len(keys))),
    ]
    for name, micros in rows:
        print(f"{micros:8.2f} us  {name}")
    print(f"{counts:8.2f} counts per resident hop (inc() calls of a warm "
          f"descent / {levels} levels)")
    runner.close()


if __name__ == "__main__":
    main()
