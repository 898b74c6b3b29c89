"""Two-phase commit crash matrix: every protocol point, both layers.

The engine layer is exercised directly (prepare / crash / restart /
resolve), the router layer through the commit hook failpoints.  The
matrix covers a crash:

* before any prepare               -> both branches abort (plain losers)
* after one participant prepared   -> presumed abort everywhere
* after all prepared, no decision  -> presumed abort (coordinator loss
                                      between prepare and decision)
* after the decision was forced    -> commit everywhere, across crashes
* after a partial phase two        -> the lagging shard still commits
* coordinator log loses unforced   -> the decision never existed
"""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import RecoveryError
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.shard.twopc import CoordinatorLog
from repro.txn.locks import LockConflict


def make_db(restart_mode="eager"):
    db = Database(EngineConfig(restart_mode=restart_mode))
    tree = db.create_index()
    return db, tree


def lookup_or_none(tree, key):
    from repro.errors import KeyNotFound
    try:
        return tree.lookup(key)
    except KeyNotFound:
        return None


# ----------------------------------------------------------------------
# Engine-level primitives
# ----------------------------------------------------------------------
class TestEnginePrepare:
    def test_prepared_txn_survives_crash_as_indoubt(self):
        db, tree = make_db()
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=42)
        db.crash()
        report = db.restart()
        assert report.indoubt_gtids == [42]
        assert 42 in db.indoubt

    def test_indoubt_branch_holds_its_locks(self):
        db, tree = make_db()
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=7)
        db.crash()
        db.restart()
        other = db.begin()
        with pytest.raises(LockConflict):
            db.locks.acquire(other.txn_id, b"k")
        db.abort(other)

    def test_resolve_commit_makes_effects_durable(self):
        db, tree = make_db()
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=7)
        db.crash()
        db.restart()
        db.resolve_indoubt(7, commit=True)
        assert 7 not in db.indoubt
        db.crash()
        db.restart()
        assert lookup_or_none(db.tree(tree.index_id), b"k") == b"v"

    def test_resolve_abort_rolls_back(self):
        db, tree = make_db()
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=7)
        db.crash()
        db.restart()
        db.resolve_indoubt(7, commit=False)
        assert lookup_or_none(db.tree(tree.index_id), b"k") is None

    def test_resolve_unknown_gtid_raises(self):
        db, _tree = make_db()
        with pytest.raises(RecoveryError):
            db.resolve_indoubt(999, commit=True)

    def test_indoubt_survives_checkpoint_and_second_crash(self):
        db, tree = make_db()
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=13)
        db.crash()
        db.restart()
        db.checkpoint()
        db.crash()
        report = db.restart()
        assert report.indoubt_gtids == [13]
        db.resolve_indoubt(13, commit=True)
        assert lookup_or_none(db.tree(tree.index_id), b"k") == b"v"

    def test_live_prepared_branch_commit_and_abort(self):
        db, tree = make_db()
        t1 = db.begin()
        tree.insert(t1, b"a", b"1")
        db.prepare(t1, gtid=1)
        db.commit_prepared(t1)
        t2 = db.begin()
        tree.insert(t2, b"b", b"2")
        db.prepare(t2, gtid=2)
        db.abort_prepared(t2)
        assert lookup_or_none(tree, b"a") == b"1"
        assert lookup_or_none(tree, b"b") is None

    def test_phase_two_appends_and_a_crash_leaves_the_branch_in_doubt(self):
        """A standalone engine that prepares is its own coordinator:
        phase two appends its COMMIT unforced, a crash takes it, and the
        branch restarts in doubt until the decision commits it again."""
        db, tree = make_db()
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=21)
        forces = db.stats.get("log_forces")
        lsn = db.commit_prepared(txn)
        assert db.stats.get("log_forces") == forces
        assert lsn >= db.log.durable_lsn
        db.crash()
        assert db.restart().indoubt_gtids == [21]
        assert 21 in db.indoubt
        db.resolve_indoubt(21, commit=True)
        assert lookup_or_none(db.tree(tree.index_id), b"k") == b"v"
        assert db.locks.held_keys() == [] and not db.indoubt

    def test_a_later_forced_commit_hardens_phase_two(self):
        db, tree = make_db()
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=22)
        db.commit_prepared(txn)
        other = db.begin()
        tree.insert(other, b"later", b"w")
        db.commit(other)  # forces the tail, the phase-two COMMIT with it
        db.crash()
        assert db.restart().indoubt_gtids == []
        assert not db.indoubt
        tree = db.tree(tree.index_id)
        assert lookup_or_none(tree, b"k") == b"v"
        assert lookup_or_none(tree, b"later") == b"w"

    def test_on_demand_restart_registers_indoubt(self):
        db, tree = make_db(restart_mode="on_demand")
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.prepare(txn, gtid=5)
        db.crash()
        report = db.restart()
        assert report.indoubt_gtids == [5]
        db.finish_restart()
        # The in-doubt branch must not have been undone as a loser.
        db.resolve_indoubt(5, commit=True)
        assert lookup_or_none(db.tree(tree.index_id), b"k") == b"v"


# ----------------------------------------------------------------------
# Coordinator log semantics
# ----------------------------------------------------------------------
class TestCoordinatorLog:
    def test_presumed_abort_when_no_decision(self):
        log = CoordinatorLog()
        assert log.decision_of(123) == "abort"

    def test_forced_decision_survives_crash(self):
        log = CoordinatorLog()
        gtid = log.allocate_gtid()
        log.log_decision(gtid, "commit", (0, 1))
        log.crash()
        assert log.decision_of(gtid) == "commit"

    def test_unforced_decision_is_lost(self):
        log = CoordinatorLog()
        gtid = log.allocate_gtid()
        log.log_decision(gtid, "commit", (0, 1), force=False)
        log.crash()
        assert log.decision_of(gtid) == "abort"

    def test_gtid_counter_survives_crash(self):
        log = CoordinatorLog()
        first = log.allocate_gtid()
        log.crash()
        assert log.allocate_gtid() > first

    def test_decision_of_reads_forced_decisions_only(self):
        log = CoordinatorLog()
        forced, unforced, later = (log.allocate_gtid() for _ in range(3))
        log.log_decision(forced, "commit", (0, 1))
        log.log_decision(unforced, "commit", (0, 1), force=False)
        assert log.decision_of(unforced) == "abort"  # not yet durable
        log.log_epoch(1, 5, 0, 1, force=False)
        log.log_decision(later, "abort", (1,))  # hardens all three
        assert [log.decision_of(gtid) for gtid in (forced, unforced)] == [
            "commit", "commit"]
        lost = log.allocate_gtid()
        log.log_decision(lost, "commit", (0,), force=False)
        log.crash()
        assert [log.decision_of(gtid) for gtid in (forced, unforced, later,
                                                   lost)] == [
            "commit", "commit", "abort", "abort"]
        assert [d.gtid for d in log.durable_decisions()] == [
            forced, unforced, later]
        assert len(log.durable_epochs()) == 1

    def test_bad_verdict_rejected(self):
        with pytest.raises(ValueError):
            CoordinatorLog().log_decision(1, "maybe", (0,))


# ----------------------------------------------------------------------
# Router-level crash matrix (inproc shards, commit-hook failpoints)
# ----------------------------------------------------------------------
class _Stop(Exception):
    pass


def make_router(n_shards=4):
    return ShardRouter(ShardConfig(n_shards=n_shards, transport="inproc"))


def cross_shard_keys(router, count):
    """Distinct keys guaranteed to live on different shards."""
    chosen, seen = [], set()
    i = 0
    while len(chosen) < count:
        key = b"key%06d" % i
        shard = router.shard_of(key)
        if shard not in seen:
            seen.add(shard)
            chosen.append(key)
        i += 1
    return chosen


def interrupted_commit(router, keys, stage, crash_shard=True):
    """Run a cross-shard commit and cut it at ``stage``; returns the
    gtid the commit allocated."""
    fired = []

    def hook(hook_stage, shard_id):
        if hook_stage == stage and not fired:
            fired.append(shard_id)
            if crash_shard and shard_id is not None:
                router.shards[shard_id].worker.execute(("crash",))
            raise _Stop()

    gtid = router.coordinator._next_gtid
    router.commit_hook = hook
    txn = router.txn()
    for i, key in enumerate(keys):
        txn.put(key, b"v%d" % i)
    with pytest.raises(_Stop):
        txn.commit()
    router.commit_hook = None
    assert fired, "failpoint never fired"
    return gtid


def recover_all(router):
    """Crash-and-reopen every shard, then settle leftovers from the
    decision log — the harness's finalize in miniature."""
    for i, shard in enumerate(router.shards):
        shard.worker.execute(("crash",))
        router._reopen(i)
    for decision in router.coordinator.durable_decisions():
        for i in decision.participants:
            router._call(i, "resolve", decision.gtid,
                         decision.verdict == "commit")
    for i in range(router.config.n_shards):
        assert router._call(i, "indoubt") == []
        router._call(i, "finish_restart")


class TestRouterCrashMatrix:
    def test_crash_before_any_prepare(self):
        router = make_router()
        k1, k2 = cross_shard_keys(router, 2)
        txn = router.txn()
        txn.put(k1, b"a")
        txn.put(k2, b"b")
        # No commit at all: both branches die with their shards.
        recover_all(router)
        assert router.get(k1) is None
        assert router.get(k2) is None
        router.close()

    def test_crash_after_one_prepare_presumed_abort(self):
        router = make_router()
        keys = cross_shard_keys(router, 2)
        gtid = interrupted_commit(router, keys, "after_prepare")
        assert router.coordinator.decision_of(gtid) == "abort"
        recover_all(router)
        for key in keys:
            assert router.get(key) is None
        router.close()

    def test_coordinator_loss_after_all_prepared(self):
        # All participants prepared, the decision never forced: the
        # coordinator "dies" between phases.  Presumed abort.
        router = make_router()
        keys = cross_shard_keys(router, 3)
        txn = router.txn()
        for i, key in enumerate(keys):
            txn.put(key, b"v%d" % i)
        gtid = router.coordinator.allocate_gtid()
        for idx in sorted(txn.branches):
            router._call(idx, "prepare", txn.xid, gtid)
        router.coordinator.crash()  # no decision was ever logged
        assert router.coordinator.decision_of(gtid) == "abort"
        recover_all(router)
        for key in keys:
            assert router.get(key) is None
        router.close()

    def test_crash_after_decision_logged_commits_everywhere(self):
        router = make_router()
        keys = cross_shard_keys(router, 3)
        gtid = interrupted_commit(router, keys, "after_decision",
                                  crash_shard=False)
        assert router.coordinator.decision_of(gtid) == "commit"
        recover_all(router)
        for i, key in enumerate(keys):
            assert router.get(key) == b"v%d" % i
        router.close()

    def test_crash_after_partial_commit_lagging_shard_catches_up(self):
        router = make_router()
        keys = cross_shard_keys(router, 3)
        gtid = interrupted_commit(router, keys, "after_commit")
        assert router.coordinator.decision_of(gtid) == "commit"
        recover_all(router)
        for i, key in enumerate(keys):
            assert router.get(key) == b"v%d" % i
        router.close()

    def test_a_crash_after_phase_two_commits_the_branch_again(self):
        """Phase two's COMMIT is not forced: a participant crash right
        after its ``resolve`` takes it, and the next op's reopen finds
        the branch in doubt and commits it from the decision log."""
        router = make_router(n_shards=2)
        keys = cross_shard_keys(router, 2)
        fired = []

        def hook(stage, shard_id):
            if stage == "after_commit" and not fired:
                fired.append(shard_id)
                router.shards[shard_id].worker.execute(("crash",))

        router.commit_hook = hook
        txn = router.txn()
        for i, key in enumerate(keys):
            txn.put(key, b"v%d" % i)
        txn.commit()
        router.commit_hook = None
        (idx,) = fired
        db = router.shards[idx].worker.db
        recovered = db.stats.get("indoubt_txns_recovered")
        i = [router.shard_of(key) for key in keys].index(idx)
        assert router.get(keys[i]) == b"v%d" % i  # reopens the shard
        assert router.reopens == 1
        assert db.stats.get("indoubt_txns_recovered") == recovered + 1
        assert not db.indoubt
        for j, key in enumerate(keys):
            assert router.get(key) == b"v%d" % j
        assert [router._call(j, "locks") for j in (0, 1)] == [[], []]
        router.close()

    def test_prepare_refusal_aborts_whole_transaction(self):
        from repro.errors import TransactionAborted

        router = make_router()
        keys = cross_shard_keys(router, 2)
        txn = router.txn()
        for key in keys:
            txn.put(key, b"x")
        # Partition one participant right before commit: phase one
        # cannot complete, so the whole transaction aborts.
        victim = router.shard_of(keys[1])
        router.shards[victim].partitioned = True
        with pytest.raises(TransactionAborted):
            txn.commit()
        router.shards[victim].partitioned = False
        recover_all(router)
        for key in keys:
            assert router.get(key) is None
        router.close()

    def test_unavailable_participant_in_phase_two_gets_queued(self):
        router = make_router()
        keys = cross_shard_keys(router, 2)
        victim = router.shard_of(keys[1])

        def hook(stage, shard_id):
            # Sever the victim after the decision: its resolution
            # must queue and apply on reconnection.
            if stage == "after_decision":
                router.shards[victim].partitioned = True

        router.commit_hook = hook
        txn = router.txn()
        for key in keys:
            txn.put(key, b"q")
        txn.commit()  # succeeds: decision is durable, delivery queued
        router.commit_hook = None
        assert router._pending[victim]
        router.shards[victim].partitioned = False
        assert router.get(keys[1]) == b"q"  # flush happens on next call
        assert not router._pending[victim]
        router.close()

    def test_abort_during_partition_queues_and_releases_locks(self):
        # Regression: abort() used to swallow the partitioned branch
        # under a blanket except, leaving it holding its locks forever
        # after the heal.
        router = make_router()
        keys = cross_shard_keys(router, 2)
        txn = router.txn()
        for key in keys:
            txn.put(key, b"x")
        victim = router.shard_of(keys[1])
        router.shards[victim].partitioned = True
        txn.abort()  # must queue the unreachable branch's abort
        assert router._pending[victim]
        router.shards[victim].partitioned = False
        # The next command flushes the queued abort; the branch's lock
        # must be free for a new writer.
        txn2 = router.txn()
        txn2.put(keys[1], b"y")
        txn2.commit()
        assert router.get(keys[1]) == b"y"
        router.close()

    def test_single_shard_commit_during_partition_aborts_cleanly(self):
        from repro.errors import ShardUnavailableError

        # Regression: commit() used to mark the handle finished before
        # attempting the commit, so the facade's abort-on-error hit
        # "already finished" — masking the real failure — and the
        # partitioned branch leaked its locks.
        router = make_router()
        key = b"solo-key"
        idx = router.shard_of(key)
        txn = router.txn()
        txn.put(key, b"v")
        router.shards[idx].partitioned = True
        with pytest.raises(ShardUnavailableError):
            txn.commit()
        txn.abort()  # idempotent no-op, never "already finished"
        assert router._pending[idx]
        router.shards[idx].partitioned = False
        # Presumed abort: the commit record was never forced.
        assert router.get(key) is None
        txn2 = router.txn()
        txn2.put(key, b"w")  # the stranded branch's lock must be free
        txn2.commit()
        assert router.get(key) == b"w"
        router.close()

    def test_crash_that_eats_commit_reply_is_not_double_failed(self):
        from repro.errors import SystemFailure

        # Regression: a crash that ate the txn_commit reply made the
        # blind retry fail on the (gone) branch even though the commit
        # record was already durable.  The retry path must consult the
        # log and report success.
        router = make_router()
        key = b"retry-key"
        idx = router.shard_of(key)
        shard = router.shards[idx]
        real_call = shard.call

        def eat_reply(command):
            result = real_call(command)
            if command[0] == "txn_commit":
                shard.call = real_call
                shard.worker.execute(("crash",))
                raise SystemFailure("reply lost in crash")
            return result

        txn = router.txn()
        txn.put(key, b"v")
        shard.call = eat_reply
        txn.commit()  # the first attempt committed; only the reply died
        assert router.get(key) == b"v"
        router.close()

    def test_crash_that_eats_delete_reply_reports_truthfully(self):
        from repro.errors import SystemFailure

        # Regression: the blind retry re-executed the delete against
        # the already-deleted key and reported False for a delete that
        # durably removed the key.
        router = make_router()
        key = b"del-key"
        router.put(key, b"v")
        idx = router.shard_of(key)
        shard = router.shards[idx]
        real_call = shard.call

        def eat_reply(command):
            result = real_call(command)
            if command[0] == "delete":
                shard.call = real_call
                shard.worker.execute(("crash",))
                raise SystemFailure("reply lost in crash")
            return result

        shard.call = eat_reply
        assert router.delete(key) is True
        assert router.get(key) is None
        router.close()

    def test_shard_chaos_locks_drain_after_heal(self):
        # Fleet-wide lock-leak oracle in miniature: partition a shard
        # mid-transaction, abort, heal — every lock must drain.
        router = make_router()
        keys = cross_shard_keys(router, 3)
        txn = router.txn()
        for key in keys:
            txn.put(key, b"x")
        victim = router.shard_of(keys[2])
        router.shards[victim].partitioned = True
        txn.abort()
        router.shards[victim].partitioned = False
        for i in range(router.config.n_shards):
            assert router._call(i, "locks") == []
        router.close()

    def test_reopen_resolves_from_decision_log(self):
        router = make_router()
        keys = cross_shard_keys(router, 2)
        gtid = interrupted_commit(router, keys, "after_decision",
                                  crash_shard=False)
        # Crash one participant; merely touching it again must reopen
        # it and commit its in-doubt branch from the decision log.
        victim = router.shard_of(keys[0])
        router.shards[victim].worker.execute(("crash",))
        assert router.get(keys[0]) == b"v0"
        assert router.reopens == 1
        assert gtid not in router.shards[victim].worker.db.indoubt
        router.close()
