"""Contract of the one pending-recovery registry.

Everything :class:`repro.engine.pending_recovery.PendingRecovery` does
for *both* recoveries is pinned here once, parametrised over the two
image sources — a crashed image (restart, ``DeviceImage``) and a failed
device (media restore, ``BackupImage``) built from the same prepared
state as the crash and media matrices, and the exactly-once property
over random interleavings of budgeted drains and demand reads, and
recovery in budgeted pieces at every protocol point of the matrices.
Then the lost-first-write regression (four variants) and the eager
``RestartReport`` on a fixed scenario.
"""

from __future__ import annotations

import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.verify import verify_tree
from repro.engine import pending_recovery
from repro.engine.database import Database
from repro.errors import MediaFailure
from repro.page.page import PageType
from repro.sim.iomodel import HDD_PROFILE
from tests.conftest import (
    assert_identical_recovery,
    clone_crashed,
    fast_config,
    key_of,
    value_of,
)
from tests.test_crash_matrix import LOSER_KEYS, PROTOCOL_POINTS, prepared
from tests.test_media_matrix import media_fail

KINDS = ("restart", "restore")
#: key held by the second (newer) loser
LATE_LOSER_KEY = 23
JOIN_SECONDS = 10
EXAMPLES = max(1, int(os.environ.get("TORTURE_EXAMPLES_MULTIPLIER", "1")))


def failed(kind: str, **overrides):
    """The matrices' prepared state plus a few more dirty leaves, a
    freed page and a second, newer loser — then the failure ``kind``
    recovers from."""
    db, tree, model = prepared(with_backup=(kind == "restore"), **overrides)
    bulk = db.begin()
    for i in range(200, 600):
        tree.insert(bulk, key_of(i), value_of(i, 0))
        model[key_of(i)] = value_of(i, 0)
    db.commit(bulk)
    # A formatted page on the free list: pending after the failure, and
    # the next allocation reuses its id.
    sys_txn = db.begin_system()
    spare = db.allocate_page(sys_txn, PageType.BTREE_LEAF, 1).page_id
    db.pool.unfix(spare)
    db.commit(sys_txn)
    db.free_page(spare)
    late = db.begin()
    tree.update(late, key_of(LATE_LOSER_KEY), b"DOOMED-LATE")
    rider = db.begin()  # its commit force hardens the loser's records
    tree.update(rider, key_of(148), b"rider-2")
    db.commit(rider)
    model[key_of(148)] = b"rider-2"
    if kind == "restart":
        db.crash()
    else:
        media_fail(db)
    return db, model, spare


def recover(db: Database, kind: str, mode: str = "on_demand"):
    if kind == "restart":
        return db.restart(mode=mode)
    return db.recover_media(db.backup_store.full_backup_ids()[-1], mode=mode)


def pending(kind: str, **overrides):
    db, model, spare = failed(kind, **overrides)
    recover(db, kind)
    recovery = db.pending_recovery
    assert recovery is not None and recovery.source.kind == kind
    return db, recovery, model, spare


def watermark(db: Database, kind: str) -> int | None:
    return getattr(db, f"last_{kind}_completion_lsn")


def busiest_page(recovery) -> int:
    """A pending page with real replay work (for restart: one whose
    result is a dirty frame)."""
    return max(recovery.pending_pages,
               key=lambda pid: len(recovery.pending_pages[pid]))


def assert_converged(db: Database, kind: str, model: dict) -> None:
    assert db.pending_recovery is None
    assert watermark(db, kind) is not None
    tree = db.tree(1)
    assert dict(tree.range_scan()) == model
    assert verify_tree(tree).ok


def gate_image(recovery, page_id: int):
    """Make ``source.image(page_id)`` announce itself and wait: returns
    ``(entered, release, calls)``."""
    entered, release, calls = threading.Event(), threading.Event(), []
    original = recovery.source.image

    def gated(pid, records):
        calls.append(pid)
        if pid == page_id and not entered.is_set():
            entered.set()
            assert release.wait(JOIN_SECONDS)
        return original(pid, records)

    recovery.source.image = gated
    return entered, release, calls


def run_thread(fn) -> tuple[threading.Thread, list]:
    errors: list[BaseException] = []

    def body() -> None:
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, errors


@pytest.mark.parametrize("kind", KINDS)
class TestSharedContract:
    def test_fix_then_racing_drain_resolves_page_once(self, kind):
        """A demand fix holds the claim; the drain waits on the mutex
        and then finds the page gone."""
        db, recovery, model, _spare = pending(kind)
        n_pending = recovery.pending_page_count
        page_id = busiest_page(recovery)
        entered, release, calls = gate_image(recovery, page_id)

        def fix() -> None:
            db.pool.fix(page_id)
            db.pool.unfix(page_id)

        fixer, fix_errors = run_thread(fix)
        assert entered.wait(JOIN_SECONDS)  # inside _fetch, mutex held
        drainer, drain_errors = run_thread(recovery.drain)
        release.set()
        for thread in (fixer, drainer):
            thread.join(JOIN_SECONDS)
            assert not thread.is_alive()
        assert not fix_errors and not drain_errors
        assert calls.count(page_id) == 1
        assert recovery.source.counters["page"].value == n_pending
        assert_converged(db, kind, model)

    def test_drain_then_racing_fix_resolves_page_once(self, kind):
        """The drain holds the claim while a demand fix already owns
        the page's frame: whichever source, the page is recovered once
        and the fix serves the recovered image."""
        db, recovery, model, _spare = pending(kind)
        n_pending = recovery.pending_page_count
        page_id = busiest_page(recovery)
        entered, release, _calls = gate_image(recovery, page_id)
        drainer, drain_errors = run_thread(recovery.drain)
        assert entered.wait(JOIN_SECONDS)  # inside the drain, mutex held
        frames_before = len(db.pool)
        last_lsn = recovery.pending_pages[page_id][-1].lsn
        fixed_lsns = []

        def fix() -> None:
            fixed_lsns.append(db.pool.fix(page_id).page_lsn)
            db.pool.unfix(page_id)

        fixer, fix_errors = run_thread(fix)
        while len(db.pool) == frames_before and fixer.is_alive():
            time.sleep(0.001)  # until the fix installed its placeholder
        release.set()
        for thread in (fixer, drainer):
            thread.join(JOIN_SECONDS)
            assert not thread.is_alive()
        assert not fix_errors and not drain_errors
        assert recovery.source.counters["page"].value == n_pending
        assert fixed_lsns[0] >= last_lsn  # never the stale image
        assert_converged(db, kind, model)

    def test_reallocation_discards_pending_page(self, kind):
        db, recovery, model, spare = pending(kind)
        assert spare in recovery.pending_pages
        calls = gate_image(recovery, -1)[2]
        sys_txn = db.begin_system()
        page = db.allocate_page(sys_txn, PageType.BTREE_LEAF, 1)
        db.pool.unfix(page.page_id)
        db.commit(sys_txn)
        assert page.page_id == spare
        assert spare not in recovery.pending_pages
        assert recovery.source.counters["superseded"].value == 1
        db.drain_pending()
        assert spare not in calls  # its image was never needed
        assert_converged(db, kind, model)

    def test_loser_undone_on_lock_conflict(self, kind):
        db, recovery, model, _spare = pending(kind)
        early, late = sorted(recovery.pending_losers)
        tree = db.tree(1)
        db.update(tree, key_of(LOSER_KEYS[0]), b"winner")
        model[key_of(LOSER_KEYS[0])] = b"winner"
        counters = recovery.source.counters
        assert counters["undo_on_conflict"].value == 1
        assert counters["undo"].value == 1
        # Exactly the loser in the way, all of its keys, none of its locks.
        assert recovery.undone_losers == [early]
        assert list(recovery.pending_losers) == [late]
        assert not db.locks.locks_held(early)
        for i in LOSER_KEYS[1:]:
            assert tree.lookup(key_of(i)) == model[key_of(i)]
        assert db.locks.holder_of(key_of(LATE_LOSER_KEY)) == late
        db.drain_pending()
        assert_converged(db, kind, model)

    def test_drain_undoes_losers_newest_first(self, kind):
        db, recovery, model, _spare = pending(kind)
        early, late = sorted(recovery.pending_losers)
        assert (recovery.pending_losers[late].last_lsn
                > recovery.pending_losers[early].last_lsn)
        assert recovery.drain(page_budget=0) == (0, 2)
        assert recovery.undone_losers == [late, early]
        db.drain_pending()
        assert_converged(db, kind, model)

    def test_failed_undo_keeps_locks_and_watermark(self, kind, monkeypatch):
        db, recovery, model, _spare = pending(kind)
        early, late = sorted(recovery.pending_losers)
        real_undo = pending_recovery.undo_loser

        def failing(db_, txn_id, last_lsn, is_system):
            if txn_id == late:
                raise RuntimeError("undo interrupted")
            real_undo(db_, txn_id, last_lsn, is_system)

        monkeypatch.setattr(pending_recovery, "undo_loser", failing)
        with pytest.raises(RuntimeError):
            recovery.drain()
        # Every page drained, yet the failed loser still gates completion
        # and still owns its locks; nothing is left half-claimed.
        assert recovery.pending_page_count == 0
        assert late in recovery.pending_losers
        assert not recovery._undoing
        assert db.locks.holder_of(key_of(LATE_LOSER_KEY)) == late
        assert watermark(db, kind) is None
        assert db.pending_recovery is recovery
        assert recovery.retention_bound() is not None
        monkeypatch.setattr(pending_recovery, "undo_loser", real_undo)
        assert recovery.drain() == (0, 2)
        assert_converged(db, kind, model)

    def test_budgeted_drain_honours_budgets(self, kind):
        db, recovery, model, _spare = pending(kind)
        ascending = sorted(recovery.pending_pages)
        assert len(ascending) >= 4
        assert recovery.drain(page_budget=1, loser_budget=0) == (1, 0)
        assert sorted(recovery.pending_pages) == ascending[1:]
        assert recovery.pending_loser_count == 2
        assert recovery.drain(page_budget=2, loser_budget=0) == (2, 0)
        assert sorted(recovery.pending_pages) == ascending[3:]
        assert recovery.drain(page_budget=0, loser_budget=1) == (0, 1)
        assert recovery.pending_loser_count == 1
        # Every drain sweeps by ascending page id; the rollback above may
        # have fixed a few pages already.
        first = []
        recovery.source.image = (
            lambda pid, records, image=recovery.source.image:
            first.append(pid) or image(pid, records))
        pages, losers = recovery.drain()
        assert losers == 1 and first == sorted(first)
        assert pages == len(first) <= len(ascending) - 3
        assert_converged(db, kind, model)

    def test_retention_bound_is_source_floor_then_none(self, kind):
        db, recovery, model, _spare = pending(kind)
        losers = [loser.first_lsn
                  for loser in recovery.pending_losers.values()]
        floor = recovery.source.page_floor(recovery.pending_pages)
        if kind == "restart":
            assert floor == min(records[0].lsn for records
                                in recovery.pending_pages.values())
        else:
            assert floor == recovery.source.backup_lsn
        assert recovery.retention_bound() == min([floor, *losers])
        assert db.log_retention_bound() <= recovery.retention_bound()
        recovery.drain(loser_budget=0)  # pages gone: only losers pin
        assert recovery.retention_bound() == min(losers)
        recovery.drain()
        assert recovery.retention_bound() is None
        assert_converged(db, kind, model)

    def test_second_install_while_pending_asserts(self, kind):
        db, recovery, _model, _spare = pending(kind)
        other = pending_recovery.PendingRecovery(
            db, pending_recovery.DeviceImage(db), {}, {})
        with pytest.raises(AssertionError):
            other.install()
        assert db.pending_recovery is recovery

    def test_eager_is_drain_before_open(self, kind):
        """Eager and on-demand recover one failure image identically,
        and eager leaves nothing pending behind."""
        db, model, _spare = failed(kind)
        eager_db, lazy_db = clone_crashed(db), clone_crashed(db)
        recover(eager_db, kind, mode="eager")
        assert eager_db.pending_recovery is None
        assert watermark(eager_db, kind) is not None
        recover(lazy_db, kind)
        lazy_db.drain_pending()
        assert_identical_recovery(eager_db, lazy_db)
        assert dict(eager_db.tree(1).range_scan()) == model


# ----------------------------------------------------------------------
# Exactly once, however budgeted drains and demand reads interleave
# ----------------------------------------------------------------------
#: one failed image per kind, built on first use and cloned per example
FAILED_IMAGES: dict[str, tuple] = {}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10 * EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_each_pending_page_recovers_exactly_once(kind, data):
    """Pages recovered plus pages superseded equals the pending set at
    open, and no page's image is read twice: a page a drain brought
    current is never redone by the demand fix that follows, nor the
    reverse."""
    if kind not in FAILED_IMAGES:
        FAILED_IMAGES[kind] = failed(kind)
    crashed, model, _spare = FAILED_IMAGES[kind]
    db = clone_crashed(crashed)
    recover(db, kind)
    recovery = db.pending_recovery
    initial = recovery.pending_page_count
    counters = recovery.source.counters
    before = (counters["page"].value or 0) + (counters["superseded"].value or 0)
    images = gate_image(recovery, -1)[2]  # records every image read
    drain =db.drain_restart if kind == "restart" else db.drain_restore
    tree = db.tree(1)
    loser_keys = {key_of(i) for i in (*LOSER_KEYS, LATE_LOSER_KEY)}
    readable = sorted(key for key in model if key not in loser_keys)
    actions = data.draw(st.lists(st.sampled_from(["drain", "read"]),
                                 max_size=30), label="actions")
    for action in actions:
        if action == "drain":
            drain(page_budget=data.draw(st.integers(1, 3), label="pages"),
                  loser_budget=data.draw(st.integers(0, 1), label="losers"))
        else:
            key = data.draw(st.sampled_from(readable), label="key")
            assert tree.lookup(key) == model[key]
    drain()
    after = counters["page"].value + (counters["superseded"].value or 0)
    assert after - before == initial
    assert len(images) == len(set(images))
    assert_converged(db, kind, model)


# ----------------------------------------------------------------------
# In budgeted pieces, at every protocol point of the matrices
# ----------------------------------------------------------------------
def failed_at(point: str, kind: str):
    """The matrices' state at ``point`` — with a warm pool and a bulk of
    new keys, so the recovery spreads over many drains — failed, then
    recovered on demand."""
    overrides, steps = PROTOCOL_POINTS[point]
    db, tree, model = prepared(with_backup=(kind == "restore"), **overrides)
    for i in range(0, 150, 3):
        tree.lookup(key_of(i))
    bulk = db.begin()
    for i in range(200, 600):
        tree.insert(bulk, key_of(i), value_of(i, 0))
        model[key_of(i)] = value_of(i, 0)
    db.commit(bulk)
    steps(db, tree)
    if kind == "restart":
        db.crash()
    else:
        media_fail(db)
    recover(db, kind)
    return db, model


def recover_in_pieces(db: Database, kind: str, model: dict) -> None:
    """One-page drains between demand reads until nothing is pending;
    the watermark is set exactly when nothing is."""
    drain = getattr(db, f"drain_{kind}")
    tree = db.tree(1)
    # Not the loser keys, nor the keys mid-segment-seal's unforced bulk
    # updates (a media failure keeps those records: a loser there).
    for i in (0, 2, 40, 140):
        drain(page_budget=1, loser_budget=1)
        assert tree.lookup(key_of(i)) == model[key_of(i)]
        assert (watermark(db, kind) is None) == (
            db.pending_recovery is not None)
    while db.pending_recovery is not None:
        assert drain(page_budget=1, loser_budget=1) != (0, 0)
    assert_converged(db, kind, model)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("point", sorted(PROTOCOL_POINTS))
class TestInPiecesAtEveryPoint:
    def test_each_pending_page_recovers_once(self, point, kind):
        db, model = failed_at(point, kind)
        recovery = db.pending_recovery
        pending = recovery.pending_page_count
        assert pending > 1
        counters = recovery.source.counters
        before = (counters["page"].value or 0) + (counters["superseded"].value or 0)
        recover_in_pieces(db, kind, model)
        after = counters["page"].value + (counters["superseded"].value or 0)
        assert after - before == pending

    def test_failure_with_only_losers_left(self, point, kind):
        """Crash with part, then all, of the pages recovered and the
        losers still pending: the watermark was never lifted early, and
        the recovery run again converges — a restore from the same
        backup, since restart refuses a half-restored device."""
        db, model = failed_at(point, kind)
        drain = getattr(db, f"drain_{kind}")
        drain(page_budget=1, loser_budget=0)
        assert db.tree(1).lookup(key_of(40)) == model[key_of(40)]
        assert db.pending_recovery.pending_page_count > 0
        assert watermark(db, kind) is None
        drain(loser_budget=0)
        assert db.pending_recovery.pending_page_count == 0
        assert db.pending_recovery.pending_loser_count > 0
        assert watermark(db, kind) is None
        db.crash()
        if kind == "restore":
            with pytest.raises(MediaFailure):
                db.restart()
        recover(db, kind)
        db.drain_pending()
        assert_converged(db, kind, model)

    def test_crash_after_the_pieces_is_a_plain_crash(self, point, kind):
        """What the pieces left on the device and appended to the log
        (compensations, PRI repairs, in the order drains and reads
        resolved the work) is a sound redo substrate: commit more,
        crash, and an eager restart converges."""
        db, model = failed_at(point, kind)
        recover_in_pieces(db, kind, model)
        txn = db.begin()
        for i in range(1, 150, 4):
            db.tree(1).update(txn, key_of(i), value_of(i, 2))
            model[key_of(i)] = value_of(i, 2)
        db.commit(txn)
        db.crash()
        db.restart(mode="eager")
        tree = db.tree(1)
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok


# ----------------------------------------------------------------------
# Lost first write: the one lost write that leaves no stale image
# ----------------------------------------------------------------------
def crashed_after_lost_first_write(truncate: bool) -> Database:
    db = Database(fast_config(capacity_pages=1024, buffer_capacity=48))
    tree = db.create_index()
    txn = db.begin()
    for i in range(400):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    victim = next(pid for pid in db.pool.resident_pages()
                  if pid >= db.config.data_start
                  and db.device.raw_image(pid) is None)
    db.device.inject_lost_write(victim)
    db.pool.flush_page(victim)
    assert db.device.raw_image(victim) is None
    db.checkpoint()
    if truncate:
        db.truncate_log()
    txn = db.begin()
    for i in range(400):
        tree.update(txn, key_of(i), value_of(i, 1))
    db.commit(txn)
    db.crash()
    return db


@pytest.mark.parametrize("truncate", [False, True],
                         ids=["log-retained", "log-truncated"])
class TestLostFirstWrite:
    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    def test_converges_to_committed_state(self, truncate, mode):
        db = crashed_after_lost_first_write(truncate)
        db.restart(mode=mode)
        db.finish_restart()
        tree = db.tree(1)
        for i in range(400):
            assert tree.lookup(key_of(i)) == value_of(i, 1)
        assert verify_tree(tree).ok
        assert db.stats.get("spf[stale-lsn]") >= 1

    def test_modes_recover_identically(self, truncate):
        db = crashed_after_lost_first_write(truncate)
        eager_db, lazy_db = clone_crashed(db), clone_crashed(db)
        eager_db.restart(mode="eager")
        lazy_db.restart(mode="on_demand")
        lazy_db.finish_restart()
        assert_identical_recovery(eager_db, lazy_db)


# ----------------------------------------------------------------------
# Eager RestartReport: filled from the registry's telemetry
# ----------------------------------------------------------------------
def test_eager_restart_report_matches_parent_values():
    """The eager fields on a fixed scenario (HDD cost model; seven dirty
    pages, one of them written but its PRI update lost; two losers).
    The expected values were recorded at the commit before eager restart
    became "drain before open" — its cost did not move."""
    overrides, steps = PROTOCOL_POINTS["between-force-and-pri"]
    db, tree, _model = prepared(device_profile=HDD_PROFILE,
                                log_profile=HDD_PROFILE, **overrides)
    late = db.begin()
    tree.update(late, key_of(LATE_LOSER_KEY), b"DOOMED-LATE")
    bulk = db.begin()
    for i in range(200, 600):
        tree.insert(bulk, key_of(i), value_of(i, 0))
    db.commit(bulk)
    steps(db, tree)
    db.crash()
    report = db.restart(mode="eager")
    assert report.mode == "eager"
    assert report.dirty_pages_at_analysis_end == 7
    assert report.redo_pages_read == 7
    # 401 while a prefix extension logged its rows in two records, not
    # as one: three extensions are redone
    assert report.redo_records_applied == 398
    assert report.redo_pages_already_current == 1
    assert report.pri_repair_records == 1
    assert report.undo_transactions == 2
    assert report.loser_txn_ids == [8, 6]  # undo order: newest first
    assert (report.pending_redo_pages, report.pending_undo_txns) == (0, 0)
    assert report.redo_seconds == pytest.approx(0.016078125, rel=1e-12)
    assert report.undo_seconds == pytest.approx(0.0080390625, rel=1e-9)
    assert report.total_seconds == pytest.approx(
        report.analysis_seconds + 0.016078125 + 0.0080390625, rel=1e-9)
