"""Property suite for the prefetcher (predictive read-ahead, PR 9).

Three safety properties and one equivalence property, over random
workloads and speculative-fetch pressure:

* a speculative fetch never touches a page outside the engine's
  declared range (``prefetch_floor`` .. allocated bound);
* a speculative fetch never evicts a pinned or dirty frame, and never
  forces a write-back — whatever room it makes comes from clean,
  unpinned victims only;
* the recovery-on-first-fix work of an on-demand restart runs exactly
  once per pending page, no matter how prefetch ticks, budgeted
  (ranked) drains and demand traffic interleave;
* with the strongest mode on, the state visible after a crash and a
  full recovery is byte-identical to ``prefetch_mode="off"`` — the
  crash matrix's differential oracle
  (:func:`tests.conftest.assert_identical_recovery`), reused verbatim.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer.buffer_pool import BufferPool
from repro.engine.database import Database
from repro.page.page import Page, PageType
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.txn.manager import TransactionManager
from repro.wal.log_manager import LogManager
from repro.wal.ops import OpInsert
from tests.conftest import (
    assert_identical_recovery,
    fast_config,
    key_of,
    value_of,
)

EXAMPLES = max(1, int(os.environ.get("TORTURE_EXAMPLES_MULTIPLIER", "1")))

PAGE_SIZE = 512


def make_pool(capacity: int = 4, n_pages: int = 12):
    """A bare pool over a formatted device (no engine on top)."""
    clock = SimClock()
    stats = Stats()
    device = StorageDevice("d", PAGE_SIZE, 64, clock, NULL_PROFILE, stats)
    log = LogManager(clock, NULL_PROFILE, stats)
    tm = TransactionManager(log, stats)
    pool = BufferPool(device, log, stats, capacity=capacity)
    for page_id in range(n_pages):
        page = Page.format(PAGE_SIZE, page_id, PageType.HEAP)
        page.seal()
        device.write(page_id, page.data)
    return pool, tm, stats


# ----------------------------------------------------------------------
# Property 1: speculative fetches respect the declared page range.
# ----------------------------------------------------------------------
class TestPrefetchBounds:
    @settings(max_examples=30 * EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_pool_refuses_out_of_range_pages(self, data):
        """Every page the pool actually fetches speculatively lies in
        ``[prefetch_floor, page_bound())``; everything else is refused
        and counted, never read."""
        pool, _tm, stats = make_pool(capacity=8, n_pages=12)
        floor = data.draw(st.integers(0, 6), label="floor")
        bound = data.draw(st.integers(floor, 12), label="bound")
        pool.prefetch_floor = floor
        pool.page_bound = lambda: bound
        targets = data.draw(st.lists(st.integers(-2, 20), max_size=40),
                            label="targets")
        refused = 0
        for page_id in targets:
            if pool.prefetch(page_id):
                assert floor <= page_id < bound
            elif not (floor <= page_id < bound):
                refused += 1
        assert all(floor <= p < bound for p in pool.resident_pages())
        assert stats.get("prefetch_skipped_bounds") >= refused > 0 \
            or refused == 0

    @settings(max_examples=10 * EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_engine_never_prefetches_beyond_allocated(self, data):
        """Under a live engine the bound is the allocator's: random
        traffic plus service ticks never leave a speculative frame over
        an unallocated or metadata page."""
        db = Database(fast_config(prefetch_mode="semantic",
                                  buffer_capacity=64))
        tree = db.create_index()
        txn = db.begin()
        for i in range(80):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        probes = data.draw(st.lists(st.integers(0, 79), max_size=40),
                           label="probes")
        for i in probes:
            tree.lookup(key_of(i))
            db.prefetch_tick(data.draw(st.integers(1, 4), label="budget"))
        allocated = db.allocated_pages()
        for page_id in db.pool.resident_pages():
            assert page_id < allocated
        # Force the queue through arbitrary ids as well: the pool must
        # hold the line even if the model someday predicts nonsense.
        for page_id in data.draw(st.lists(st.integers(0, 2048), max_size=20),
                                 label="forced"):
            if db.pool.prefetch(page_id):
                assert db.config.data_start <= page_id < allocated


# ----------------------------------------------------------------------
# Property 2: speculative fetches never displace pinned or dirty work.
# ----------------------------------------------------------------------
class TestPrefetchDisplacement:
    @settings(max_examples=40 * EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_never_evicts_pinned_or_dirty_never_flushes(self, data):
        """Interleave demand fixes, pins, dirtying, flushes and
        speculative fetches over a tiny pool: across every prefetch
        call, pinned frames keep their pins, dirty frames stay resident
        *and dirty* (a speculative read must not force a write-back),
        and capacity holds."""
        pool, tm, stats = make_pool(capacity=4, n_pages=12)
        txn = tm.begin()
        pins: dict[int, int] = {}
        steps = data.draw(st.lists(
            st.tuples(st.sampled_from(
                ["fix", "unfix", "dirty", "flush", "prefetch"]),
                st.integers(0, 11)),
            max_size=60), label="steps")
        for op, page_id in steps:
            if op == "fix":
                # Keep one frame's worth of headroom so demand fixes
                # cannot hit the (orthogonal) all-pinned error.
                if len([p for p, n in pins.items() if n]) < pool.capacity - 1:
                    pool.fix(page_id)
                    pins[page_id] = pins.get(page_id, 0) + 1
            elif op == "unfix":
                if pins.get(page_id):
                    pool.unfix(page_id)
                    pins[page_id] -= 1
            elif op == "dirty":
                if pins.get(page_id):
                    page = pool.page_if_resident(page_id)
                    lsn = tm.log_update(txn, page, 1,
                                        OpInsert(0, b"k", b"v"))
                    pool.mark_dirty(page_id, lsn)
            elif op == "flush":
                if pool.resident(page_id) and not pins.get(page_id):
                    pool.flush_page(page_id)
            else:  # prefetch
                dirty_before = {p for p in pool.resident_pages()
                                if pool.is_dirty(p)}
                pinned_before = {p: n for p, n in pins.items() if n}
                writes_before = stats.get("pages_written_back")
                pool.prefetch(page_id)
                for p, n in pinned_before.items():
                    assert pool.resident(p)
                    assert pool.pin_count(p) == n
                for p in dirty_before:
                    assert pool.resident(p) and pool.is_dirty(p)
                assert stats.get("pages_written_back") == writes_before
            assert len(pool) <= pool.capacity


# ----------------------------------------------------------------------
# Property 3: recovery-on-first-fix runs exactly once per pending page.
# ----------------------------------------------------------------------
class TestPrefetchRecoveryExactlyOnce:
    @settings(max_examples=10 * EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(data=st.data())
    def test_lazy_redo_once_under_interleaving(self, data):
        """However ticks, ranked drains and demand reads interleave,
        the number of lazy-redo executions equals the initial pending
        set — a prefetched page's redo-on-fix never re-runs when the
        demand fix arrives, and vice versa."""
        db = Database(fast_config(prefetch_mode="semantic",
                                  restart_mode="on_demand",
                                  buffer_capacity=64))
        tree = db.create_index()
        model: dict[bytes, bytes] = {}
        txn = db.begin()
        for i in range(120):
            tree.insert(txn, key_of(i), value_of(i, 0))
            model[key_of(i)] = value_of(i, 0)
        db.commit(txn)
        db.flush_everything()
        db.checkpoint()
        for i in range(0, 120, 2):  # train the model on real traffic
            tree.lookup(key_of(i))
        txn = db.begin()
        for i in range(0, 120, 4):  # committed but never flushed
            tree.update(txn, key_of(i), value_of(i, 1))
            model[key_of(i)] = value_of(i, 1)
        db.commit(txn)
        db.crash()
        db.restart(mode="on_demand")
        registry = db.pending_recovery
        pending = registry.pending_page_count if registry else 0
        redone_before = db.stats.get("lazy_redo_pages")
        superseded_before = db.stats.get("lazy_redo_superseded")
        tree = db.tree(1)
        actions = data.draw(st.lists(
            st.sampled_from(["tick", "drain", "read"]), max_size=30),
            label="actions")
        for action in actions:
            if action == "tick":
                db.prefetch_tick(data.draw(st.integers(1, 4), label="b"))
            elif action == "drain":
                db.drain_restart(page_budget=2, loser_budget=1)
            else:
                i = data.draw(st.integers(0, 119), label="key")
                assert tree.lookup(key_of(i)) == model[key_of(i)]
        db.finish_restart()
        redone = db.stats.get("lazy_redo_pages") - redone_before
        superseded = db.stats.get("lazy_redo_superseded") - superseded_before
        assert redone + superseded == pending
        assert not db.restart_pending
        assert dict(tree.range_scan()) == model


# ----------------------------------------------------------------------
# Property 4: visible state is byte-identical to prefetch off.
# ----------------------------------------------------------------------
class TestPrefetchDifferentialOracle:
    @settings(max_examples=8 * EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(data=st.data())
    def test_semantic_recovery_byte_identical_to_off(self, data):
        """Two engines run the same drawn workload, one with prefetch
        off and one with the full semantic mode (speculative warmup,
        ranked drains); after crash and complete recovery, the crash
        matrix's oracle demands byte-identical pages, an identical log,
        and identical scans."""
        wave = data.draw(st.lists(st.integers(0, 99), min_size=1,
                                  max_size=30), label="wave")
        reads = data.draw(st.lists(st.integers(0, 99), max_size=30),
                          label="reads")

        def run(mode: str) -> Database:
            db = Database(fast_config(prefetch_mode=mode,
                                      restart_mode="on_demand",
                                      capacity_pages=1024,
                                      buffer_capacity=256))
            tree = db.create_index()
            txn = db.begin()
            for i in range(100):
                tree.insert(txn, key_of(i), value_of(i, 0))
            db.commit(txn)
            db.flush_everything()
            db.checkpoint()
            for i in reads:  # trains the semantic model; reads only
                tree.lookup(key_of(i))
            txn = db.begin()
            for i in wave:  # committed but never flushed
                tree.update(txn, key_of(i), value_of(i, 1))
            db.commit(txn)
            db.crash()
            db.restart(mode="on_demand")
            return db

        off_db = run("off")
        sem_db = run("semantic")
        off_db.finish_restart()
        # The semantic engine recovers the hard way: speculative ticks
        # plus budgeted ranked drains, then the finishing sweep.
        while sem_db.restart_pending:
            sem_db.prefetch_tick(4)
            pages, losers = sem_db.drain_restart(page_budget=3,
                                                 loser_budget=1)
            if pages == 0 and losers == 0:
                break
        sem_db.finish_restart()
        assert_identical_recovery(off_db, sem_db)
