"""The race-hunting stress battery for the concurrent engine.

Eight worker threads hammer one engine through the Session API —
shared-latch lookups, exclusive-latch writes, cross-thread group
commit — with corruption injected and checkpoints taken *while they
run*, then a mid-stress crash freezes in-flight transactions and
recovery must roll them back.  After every phase the
:class:`tests.fleet_drivers.ConcurrentOracle` invariants are
checked exactly:

* **committed-visible** — every committed key/value (serialized by
  commit LSN) is in the tree;
* **aborted-invisible** — nothing else is (aborted, conflicted, and
  crash-abandoned transactions left no trace);
* **btree-verify** — the Foster B-tree invariants hold.

Seeds: five per run, derived from ``STRESS_BASE_SEED`` (the CI stress
job runs the battery three times with distinct bases; the nightly
long-run variant sweeps ``STRESS_NIGHTLY_SEEDS`` seeds under the
``slow`` marker).
"""

from __future__ import annotations

import copy
import os
import threading
import time

import pytest

from repro import Database
from repro.btree.verify import verify_tree
from repro.storage.faults import FaultKind
from repro.sync import ConditionMutex, Mutex, ReadWriteLatch
from repro.workloads.fleet import ClientFleet
from tests.conftest import assert_no_pins, fast_config, key_of, value_of
from tests.fleet_drivers import ConcurrentOracle, ThreadedFleetRunner

N_THREADS = 8
#: enough committed pages that the 24-frame pool must evict constantly
N_PRELOADED = 1200
KEY_SPACE = 1500

BASE_SEED = int(os.environ.get("STRESS_BASE_SEED", "0"))
SEEDS = [BASE_SEED + i for i in range(5)]


def stress_db(seed: int) -> tuple[Database, object, ConcurrentOracle]:
    """An engine sized to make threads contend: a small pool (constant
    eviction + fetch races) and a short commit window."""
    config = fast_config(
        capacity_pages=1024,
        buffer_capacity=24,
        commit_window_seconds=0.001,
        seed=seed,
        restart_mode="on_demand" if seed % 2 else "eager",
    )
    db = Database(config)
    tree = db.create_index()
    oracle = ConcurrentOracle()
    txn = db.begin()
    width = ThreadedFleetRunner.VALUE_WIDTH
    for i in range(N_PRELOADED):
        value = value_of(i, 0).ljust(width, b".")
        tree.insert(txn, key_of(i), value)
        oracle.seed(key_of(i), value)
    db.commit(txn)
    db.flush_everything()
    # Cover every page with a backup so mid-run corruption repairs
    # in place instead of escalating to a media failure.
    db.take_full_backup()
    return db, tree, oracle


def check_invariants(db: Database, tree, oracle: ConcurrentOracle,  # noqa: ANN001
                     context: str) -> None:
    """The oracle's three invariants, checked exactly."""
    db.finish_restart()
    db.finish_restore()
    tree = db.tree(tree.index_id)
    scan = dict(tree.range_scan())
    expected = oracle.expected_state()
    missing = sorted(k for k in expected if k not in scan)
    wrong = sorted(k for k in expected
                   if k in scan and scan[k] != expected[k])
    phantom = sorted(k for k in scan if k not in expected)
    assert not missing, (
        f"{context}: {len(missing)} committed keys lost, first {missing[0]!r}")
    assert not wrong, (
        f"{context}: {len(wrong)} committed keys wrong, first {wrong[0]!r}")
    assert not phantom, (
        f"{context}: {len(phantom)} uncommitted keys visible, "
        f"first {phantom[0]!r}")
    report = verify_tree(tree)
    assert report.ok, f"{context}: B-tree invariants violated: {report.problems}"


def run_battery(seed: int, actions_phase1: int = 150,
                actions_phase2: int = 120) -> dict:
    """One full battery run; returns tallies for the caller to assert
    scale on."""
    db, tree, oracle = stress_db(seed)
    fleet = ClientFleet(N_THREADS, seed, key_space=KEY_SPACE,
                        abort_fraction=0.15)

    # -- phase 1: live traffic + concurrent corruption + checkpoints --
    runner = ThreadedFleetRunner(db, tree, fleet, oracle,
                                 actions_per_client=actions_phase1)
    chaos_errors: list[BaseException] = []

    def inject_chaos() -> None:
        try:
            maintenance = db.session()
            for round_no in range(3):
                time.sleep(0.02)
                # Corrupt a flushed data page while workers are reading
                # and writing: the next fix detects and repairs it.
                victim = (db.config.data_start
                          + (seed * 7 + round_no * 13)
                          % max(1, db.allocated_pages()
                                - db.config.data_start))
                db.device.apply_fault(FaultKind.BIT_ROT, victim, nbits=5)
                maintenance.checkpoint()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            chaos_errors.append(exc)

    chaos = threading.Thread(target=inject_chaos, daemon=True)
    runner.start()
    chaos.start()
    runner.join(timeout=120)
    chaos.join(timeout=120)
    assert not chaos_errors, f"chaos thread raised: {chaos_errors[0]!r}"
    report1 = runner.report
    check_invariants(db, tree, oracle, f"seed={seed} post-traffic")

    # -- phase 2: mid-stress crash with transactions in flight --------
    runner2 = ThreadedFleetRunner(db, tree, fleet, oracle,
                                  actions_per_client=actions_phase2)
    runner2.start()
    # Let real work accumulate, then freeze everyone mid-transaction.
    deadline = time.monotonic() + 30
    while (runner2.report.committed < 50
           and time.monotonic() < deadline):
        time.sleep(0.005)
    runner2.abandon()
    runner2.join(timeout=120)
    report2 = runner2.report
    # Whatever abandon() froze mid-flight, guarantee a floor of
    # uncommitted loser transactions for the crash to strand: their
    # writes must be invisible after recovery.
    width = ThreadedFleetRunner.VALUE_WIDTH
    for i in range(3):
        lingering = db.session()
        lingering.begin()
        lingering.upsert(db.tree(tree.index_id), key_of(i),
                         (b"in-flight-%d" % i).ljust(width, b"."))
        lingering.forget()
    in_flight = len([t for t in db.tm.active.values() if not t.is_system])
    assert in_flight >= 3
    db.crash()
    db.restart()  # mode from config (alternates eager/on_demand by seed)

    # -- phase 3: recovery drains concurrently with live sessions -----
    # In on_demand mode the restart registry still holds pending redo
    # pages and losers here; fresh traffic (shared-latch lookups fixing
    # pending pages, writers colliding with loser locks) races a
    # budgeted background drainer until the registry completes.
    runner3 = ThreadedFleetRunner(db, db.tree(tree.index_id), fleet, oracle,
                                  actions_per_client=40)
    drainer_errors: list[BaseException] = []

    def drain_background() -> None:
        try:
            maintenance = db.session()
            while db.restart_pending or db.restore_pending:
                maintenance.drain(page_budget=4, loser_budget=1)
                time.sleep(0.002)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            drainer_errors.append(exc)

    drainer = threading.Thread(target=drain_background, daemon=True)
    runner3.start()
    drainer.start()
    runner3.join(timeout=120)
    drainer.join(timeout=120)
    assert not drainer_errors, f"drainer raised: {drainer_errors[0]!r}"
    report3 = runner3.report
    check_invariants(db, tree, oracle, f"seed={seed} post-crash")

    return {
        "transactions": (report1.transactions + report2.transactions
                         + report3.transactions),
        "committed": (report1.committed + report2.committed
                      + report3.committed),
        "conflicts": (report1.conflicts + report2.conflicts
                      + report3.conflicts),
        "lookups": report1.lookups + report2.lookups + report3.lookups,
        "ops": report1.ops + report2.ops + report3.ops,
        "abandoned": report2.abandoned,
        "in_flight_at_crash": in_flight,
        "group_commit_riders": db.stats.get("group_commit_riders"),
        "group_commit_leads": db.stats.get("group_commit_leads"),
        "buffer_evictions": db.stats.get("pages_evicted"),
        "pool_repairs": db.stats.get("page_failures_detected"),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_stress_battery(seed: int) -> None:
    """8 threads x >= 2000 ops x live corruption x a mid-stress crash:
    zero oracle violations."""
    tallies = run_battery(seed)
    # The battery must have actually exercised concurrency, not
    # degenerated into a serial run.
    assert tallies["ops"] >= 2000, tallies
    assert tallies["committed"] >= 400, tallies
    assert tallies["group_commit_riders"] > 0, (
        "no commit ever rode another thread's force", tallies)
    assert tallies["buffer_evictions"] > 0, tallies
    assert tallies["in_flight_at_crash"] >= 3, tallies


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed", [9000 + i for i in range(
        int(os.environ.get("STRESS_NIGHTLY_SEEDS", "20")))])
def test_stress_battery_nightly(seed: int) -> None:
    """The nightly long-run variant: more seeds, more actions."""
    tallies = run_battery(seed, actions_phase1=300, actions_phase2=200)
    assert tallies["committed"] >= 800, tallies


# ----------------------------------------------------------------------
# Writers splitting branches under descending readers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n_stable, per_writer, rewrite_share, min_depth, min_adoptions, "
    "frames, n_writers, min_warm", [
        pytest.param(600, 450, 4, 3, 100, 4096, 4, 12, id="splitting"),
        pytest.param(150, 120, 2, 2, 0, 4096, 4, 12, id="hot_leaves"),
        pytest.param(600, 300, 4, 3, 30, 24, 2, 0, id="evicting")])
def test_readers_descend_through_freshly_invalidated_directories(
        n_stable: int, per_writer: int, rewrite_share: int, min_depth: int,
        min_adoptions: int, frames: int, n_writers: int,
        min_warm: int) -> None:
    """Writers on ``Session.upsert`` fill 1 KiB pages while readers
    descend under the shared latch in between.  *splitting*: leaves and
    branches split and adopt constantly, every structural change drops
    or splices a page's key directory and several readers at once
    rebuild it.  *hot_leaves*: a dozen leaves that the readers keep warm
    (each is searched far more than twice between two changes) while
    the writers rewrite values in them and insert new keys between the
    stable ones, so nearly every write splices a warm leaf directory.
    *evicting*: the same splitting tree under a 24-frame pool, so every
    descent misses, evicts and hands its pins over hand-over-hand while
    seven other readers do the same.
    No reader may see a torn or mis-spliced directory (wrong or missing
    answer for a key nobody writes), no writer's last committed value
    may be lost, no thread may meet a ``BufferPoolError`` and no pin may
    be left."""
    import random
    import sys

    from repro.errors import KeyNotFound

    db = Database(fast_config(page_size=1024, capacity_pages=8192,
                              buffer_capacity=frames,
                              commit_window_seconds=0.001))
    tree = db.create_index()
    stable = {key_of(2 * i): value_of(i, 0).ljust(60, b".")
              for i in range(n_stable)}
    txn = db.begin()
    for key, value in stable.items():
        tree.insert(txn, key, value)
    db.commit(txn)
    n_readers = 8
    final: list[dict[bytes, bytes]] = [{} for _ in range(n_writers)]
    errors: list[BaseException] = []
    done = threading.Event()

    def writer(w: int) -> None:
        try:
            session = db.session()
            rng = random.Random(w)
            for n in range(per_writer):
                # Keys owned by exactly one writer, each right behind
                # a stable one; one in ``rewrite_share`` is a rewrite.
                i = (rng.randrange(n + 1) if n % rewrite_share
                     == rewrite_share - 1 else n)
                lap, behind = divmod(i * n_writers + w, n_stable)
                key = key_of(2 * behind) + b"+%d" % lap
                value = (b"w%d.%d" % (w, n)).ljust(60, b".")
                if n % 5 == 0:
                    session.begin()
                session.upsert(tree, key, value)
                final[w][key] = value
                if n % 5 == 4 or n == per_writer - 1:
                    session.commit()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def reader(r: int) -> None:
        try:
            session = db.session()
            rng = random.Random(100 + r)
            keys = list(stable)
            while not done.is_set():
                key = rng.choice(keys)
                try:
                    assert session.lookup(tree, key) == stable[key], key
                except KeyNotFound:
                    raise AssertionError(f"stable key {key!r} vanished")
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=writer, args=(w,), daemon=True)
                   for w in range(n_writers)]
        readers = [threading.Thread(target=reader, args=(r,), daemon=True)
                   for r in range(n_readers)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        done.set()
        for thread in readers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + readers)
    assert not errors, errors[0]
    expected = dict(stable)
    for mine in final:
        expected.update(mine)
    assert dict(tree.range_scan()) == expected
    assert tree.depth() >= min_depth
    assert db.stats.get("btree_adoptions") >= min_adoptions
    warm = set()
    for key in stable:
        page, _node, _pid = tree._descend(key, for_write=False)
        db.pool.unfix(page.page_id)
        if page.view.keys is not None:
            warm.add(page.page_id)
    assert len(warm) >= min_warm
    report = verify_tree(tree)
    assert report.ok, report.problems
    assert_no_pins(db)
    # The small pool really did turn over under the readers.
    assert (db.stats.get("pages_evicted") > 300) == (frames < 100)


# ----------------------------------------------------------------------
# Targeted race tests (pool-level)
# ----------------------------------------------------------------------
def test_concurrent_same_page_fix_fetches_once() -> None:
    """Two threads racing to fix the same absent page: the per-page
    load latch makes exactly one fetcher call win; the loser blocks and
    reuses the installed frame."""
    from repro.buffer.buffer_pool import BufferPool
    from repro.page.page import Page, PageType
    from repro.sim.clock import SimClock
    from repro.sim.iomodel import NULL_PROFILE
    from repro.sim.stats import Stats
    from repro.storage.device import StorageDevice
    from repro.storage.faults import FaultInjector
    from repro.wal.log_manager import LogManager

    clock, stats = SimClock(), Stats()
    device = StorageDevice("d", 4096, 64, clock, NULL_PROFILE, stats,
                           FaultInjector(seed=1))
    log = LogManager(clock, NULL_PROFILE, stats)
    fetches = []
    barrier = threading.Barrier(2)

    def slow_fetch(page_id: int) -> Page:
        fetches.append(page_id)
        time.sleep(0.05)  # hold the load latch long enough to race
        return Page.format(4096, page_id, PageType.BTREE_LEAF)

    pool = BufferPool(device, log, stats, capacity=8, fetcher=slow_fetch)
    pages = []

    def fixer() -> None:
        barrier.wait()
        pages.append(pool.fix(7))

    threads = [threading.Thread(target=fixer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert fetches == [7], "both threads ran the fetcher"
    assert pages[0] is pages[1], "threads got different frames"
    assert pool.pin_count(7) == 2


def test_failed_concurrent_load_retries_cleanly() -> None:
    """A fetch that raises must withdraw its placeholder so waiting
    threads retry the load themselves instead of seeing a dead frame."""
    from repro.buffer.buffer_pool import BufferPool
    from repro.page.page import Page, PageType
    from repro.sim.clock import SimClock
    from repro.sim.iomodel import NULL_PROFILE
    from repro.sim.stats import Stats
    from repro.storage.device import StorageDevice
    from repro.storage.faults import FaultInjector
    from repro.wal.log_manager import LogManager

    clock, stats = SimClock(), Stats()
    device = StorageDevice("d", 4096, 64, clock, NULL_PROFILE, stats,
                           FaultInjector(seed=1))
    log = LogManager(clock, NULL_PROFILE, stats)
    calls = []

    def flaky_fetch(page_id: int) -> Page:
        calls.append(page_id)
        time.sleep(0.02)
        if len(calls) == 1:
            raise RuntimeError("transient read failure")
        return Page.format(4096, page_id, PageType.BTREE_LEAF)

    pool = BufferPool(device, log, stats, capacity=8, fetcher=flaky_fetch)
    results: list = []

    def fixer() -> None:
        try:
            results.append(pool.fix(3))
        except RuntimeError:
            results.append("failed")

    threads = [threading.Thread(target=fixer) for _ in range(2)]
    for t in threads:
        t.start()
        time.sleep(0.005)  # first thread loses the race deliberately
    for t in threads:
        t.join()
    assert "failed" in results
    real = [r for r in results if r != "failed"]
    assert len(real) == 1 and real[0].page_id == 3
    assert len(calls) == 2
    assert pool.resident(3)


@pytest.mark.parametrize("cls, take", [
    (Mutex, Mutex.acquire),
    (ConditionMutex, ConditionMutex.acquire),
    (ReadWriteLatch, ReadWriteLatch.acquire_exclusive),
], ids=["Mutex", "ConditionMutex", "ReadWriteLatch"])
def test_deepcopy_of_a_held_primitive_is_free(cls, take) -> None:
    """The engine clones (``copy.deepcopy(db)``) rely on it: a held
    primitive copies to a fresh, unlocked one another thread can take."""
    original = cls()
    take(original)
    clone = copy.deepcopy(original)
    assert type(clone) is cls
    taker = threading.Thread(target=take, args=(clone,), daemon=True)
    taker.start()
    taker.join(timeout=5)
    assert not taker.is_alive()
