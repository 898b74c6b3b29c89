"""One round trip per client write: the contract of the shard wire.

* a client op costs exactly the calls that carry its work — no
  pre-flight, no separate enlist;
* the retry watermark that rides on every reply is the pre-flight's
  value: whichever command loses its reply (or never runs) to a crash
  is applied exactly once and answered as if nothing happened;
* a branch opens with its first write and never silently re-opens;
* a broken frame kills the connection instead of desynchronising it.
"""

import pickle
import socket

import pytest

import repro
from repro.errors import (
    ShardUnavailableError,
    SystemFailure,
    TransactionError,
)
from repro.shard.config import ShardConfig
from repro.shard.router import LocalShard, ProcessShard, ShardRouter
from repro.shard.rpc import MAX_MESSAGE_BYTES
from repro.wal.records import LogRecordKind


def keys_on(router: ShardRouter, idx: int, count: int,
            prefix: bytes = b"k") -> list[bytes]:
    """``count`` distinct keys that route to shard ``idx``."""
    found = []
    for i in range(10_000):
        key = prefix + b"%05d" % i
        if router.shard_of(key) == idx:
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("key space exhausted")


# ----------------------------------------------------------------------
# (a) Calls per client op
# ----------------------------------------------------------------------
@pytest.fixture(params=["inproc", "process"])
def counted(request, monkeypatch):
    """A 3-shard client plus the list every shard request lands in
    (the wrapper sits where ``bench/trace.py`` puts its span)."""
    client = repro.connect(ShardConfig(n_shards=3, transport=request.param))
    transport = LocalShard if request.param == "inproc" else ProcessShard
    requests: list[tuple] = []
    real = transport.call

    def counting(self, command):
        requests.append(command)
        return real(self, command)

    monkeypatch.setattr(transport, "call", counting)
    yield client, requests
    client.close()


class TestCallsPerClientOp:
    def test_autocommit_ops_cost_one_call(self, counted):
        client, requests = counted
        client.put(b"k", b"v")
        assert len(requests) == 1
        assert client.get(b"k") == b"v"
        assert len(requests) == 2
        assert client.delete(b"k") is True
        assert client.delete(b"k") is False
        assert len(requests) == 4

    def test_batch_costs_one_call_per_shard_touched(self, counted):
        client, requests = counted
        router = client.router
        ops = [("put", key, b"v") for idx in (0, 2)
               for key in keys_on(router, idx, 5)]
        client.apply_batch(ops)
        assert sorted(command[0] for command in requests) == ["batch"] * 2

    def test_txn_costs_reads_plus_writes_plus_commit_messages(self, counted):
        client, requests = counted
        router = client.router
        on = {idx: keys_on(router, idx, 3) for idx in range(3)}
        for key in (on[0][0], on[1][0]):
            client.put(key, b"seed")

        def calls_of(reads, writes):
            del requests[:]
            with client.txn() as txn:
                for key in reads:
                    txn.get(key)
                for key in writes:
                    txn.put(key, b"w")
            return len(requests)

        reads = [on[0][0], on[1][0]]
        assert calls_of(reads, []) == 2                    # read-only
        assert calls_of(reads, on[2][:2]) == 2 + 2 + 1     # one shard
        for k in (2, 3):                                   # k shards: 2PC
            writes = [key for idx in range(k) for key in on[idx][1:]]
            assert calls_of(reads, writes) == 2 + len(writes) + 2 * k

    def test_no_request_is_a_preflight_or_an_enlist(self, counted):
        client, requests = counted
        router = client.router
        client.put(b"a", b"1")
        client.delete(b"a")
        client.apply_batch([("put", b"b%d" % i, b"2") for i in range(12)])
        with client.txn() as txn:
            for idx in range(3):
                for key in keys_on(router, idx, 2, prefix=b"t"):
                    txn.put(key, b"3")
                    txn.delete(key)
        verbs = {command[0] for command in requests}
        assert verbs == {"put", "delete", "batch", "txn_put", "txn_delete",
                         "prepare", "resolve"}
        # The first write to each shard carries the open, later ones not.
        for idx in range(3):
            flags = [command[-1] for command in requests
                     if command[0] in ("txn_put", "txn_delete")
                     and router.shard_of(command[2]) == idx]
            assert flags == [True, False, False, False]


# ----------------------------------------------------------------------
# (b) The lost-reply matrix
# ----------------------------------------------------------------------
IDX = 1  # the shard whose reply the crash eats


def _seed(router, items):
    """Committed state that is *not* a risky command (so a case can be
    the first one after boot), yet travels through ``shard.call``."""
    for key, value in items:
        router._call(IDX, "import_slot", router.slot_of(key),
                     [(key, value)], False)


def _cross_shard_commit(router, hook=None):
    """Commit a transaction spanning shards 0 and IDX."""
    txn = router.txn()
    txn.put(keys_on(router, 0, 1, prefix=b"x")[0], b"x")
    txn.put(keys_on(router, IDX, 1, prefix=b"x")[0], b"x")
    router.commit_hook = hook
    txn.commit()
    router.commit_hook = None


def _at_boot(router):
    pass


def _after_reopen(router):
    router.shards[IDX].worker.execute(("crash",))
    router.get(keys_on(router, IDX, 1)[0])
    assert router.reopens == 1


def _after_heal_flushes_resolve(router):
    def partition_after_decision(stage, shard_id):
        if stage == "after_decision":
            router.shards[IDX].partitioned = True

    _cross_shard_commit(router, partition_after_decision)
    router.shards[IDX].partitioned = False
    # The queued resolve goes out — and writes its COMMIT — just before
    # the risky command, inside the same ``_call``.
    assert [command[0] for command in router._pending[IDX]] == ["resolve"]


def _after_phase_two(router):
    _cross_shard_commit(router)


def _put(router, keys):
    return router.put(keys[0], b"new")


def _delete(router, keys):
    return router.delete(keys[0])


def _batch(router, keys):
    return router.apply_batch(IDX, [("put", keys[0], b"new"),
                                    ("put", keys[1], b"new"),
                                    ("delete", keys[2])])


def _txn_commit(router, keys):
    router._call(IDX, "txn_put", 9001, keys[0], b"new", True)
    router._call(IDX, "txn_delete", 9001, keys[2])
    return router._call(IDX, "txn_commit", 9001)


#: name -> (eaten verb, keys seeded beforehand, run, updates logged,
#:          expected reply, expected state of keys[0..2])
_SEEDED = (b"old", None, b"old")
CASES = {
    "put": ("put", (None,) * 3, _put, 1, None, (b"new", None, None)),
    "delete_existing": ("delete", _SEEDED, _delete, 1, True,
                        (None, None, b"old")),
    "delete_absent": ("delete", (None,) * 3, _delete, 0, False,
                      (None, None, None)),
    "batch": ("batch", _SEEDED, _batch, 3, 3, (b"new", b"new", None)),
    "txn_commit": ("txn_commit", _SEEDED, _txn_commit, 2, "commit_lsn",
                   (b"new", None, None)),
}
SITUATIONS = {
    "first_after_boot": _at_boot,
    "after_reopen": _after_reopen,
    "after_heal_flushed_resolve": _after_heal_flushes_resolve,
    "after_phase_two": _after_phase_two,
}


def _log_records(router, kind):
    return [record for record in router.shards[IDX].worker.db.log.all_records()
            if record.kind == kind]


@pytest.mark.parametrize("fate", ["reply_lost", "request_lost"])
@pytest.mark.parametrize("situation", sorted(SITUATIONS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_crash_around_a_risky_command_applies_it_exactly_once(
        case, situation, fate):
    verb, seeded, run, n_updates, expected, final = CASES[case]
    router = ShardRouter(ShardConfig(n_shards=2, transport="inproc"))
    keys = keys_on(router, IDX, 3)
    _seed(router, [(key, value) for key, value in zip(keys, seeded)
                   if value is not None])
    SITUATIONS[situation](router)

    shard = router.shards[IDX]
    real_call, eaten = shard.call, []

    def crash_around(command):
        if command[0] != verb:
            return real_call(command)
        del shard.call  # one crash only
        if fate == "reply_lost":
            eaten.append(real_call(command))
        shard.worker.execute(("crash",))
        raise SystemFailure("lost in the crash")

    updates_before = len(_log_records(router, LogRecordKind.UPDATE))
    reopens_before = router.reopens
    shard.call = crash_around
    if (case, fate) == ("txn_commit", "request_lost"):
        # The crash took the uncommitted branch: the one outcome that
        # is not "as if nothing happened" — and nothing is applied.
        with pytest.raises(TransactionError):
            run(router, keys)
        assert tuple(router.get(key) for key in keys) == seeded
        assert router._call(IDX, "locks") == []
        router.close()
        return
    reply = run(router, keys)

    assert router.reopens == reopens_before + 1
    if expected == "commit_lsn":
        # The last user commit in the log, however it was recorded (the
        # bit on the branch's last write, or a COMMIT record).
        expected = [record.lsn for record
                    in router.shards[IDX].worker.db.log.all_records()
                    if record.commits_user_txn][-1]
    assert reply == expected
    if fate == "reply_lost":
        assert eaten == [reply]
    # Applied once: the log holds the command's updates once, and a
    # second application would also show in the state.
    assert (len(_log_records(router, LogRecordKind.UPDATE)) - updates_before
            == n_updates)
    assert tuple(router.get(key) for key in keys) == final
    assert router._call(IDX, "locks") == []
    router.close()


# ----------------------------------------------------------------------
# (c) First-write enlist
# ----------------------------------------------------------------------
class TestFirstWriteEnlist:
    @pytest.fixture
    def router(self):
        built = ShardRouter(ShardConfig(n_shards=2, transport="inproc"))
        yield built
        built.close()

    def test_later_write_after_a_crash_fails_and_the_txn_aborts_everywhere(
            self, router):
        a1, a2 = keys_on(router, 0, 2)
        (b1,) = keys_on(router, 1, 1)
        txn = router.txn()
        txn.put(a1, b"v")
        txn.put(b1, b"v")
        router.shards[0].worker.execute(("crash",))
        # The crash took the branch and its first write with it;
        # re-opening silently would commit a2 and b1 without a1.
        with pytest.raises(TransactionError):
            txn.put(a2, b"v")
        txn.abort()
        assert [router.get(key) for key in (a1, a2, b1)] == [None] * 3
        for idx in range(2):
            assert router._call(idx, "locks") == []
            assert router.stats()[idx]["shard_live_branches"] == 0

    def test_first_write_to_a_crashed_shard_reopens_and_enlists(self, router):
        (a1,) = keys_on(router, 0, 1)
        router.shards[0].worker.execute(("crash",))
        txn = router.txn()
        txn.put(a1, b"v")
        assert router.reopens == 1 and txn.branches == {0}
        txn.commit()
        assert router.get(a1) == b"v"

    def test_failed_first_write_leaves_no_branch_behind(self, router):
        (a1,) = keys_on(router, 0, 1)
        holder = router.txn()
        holder.put(a1, b"held")
        txn = router.txn()
        with pytest.raises(repro.errors.ReproError):
            txn.put(a1, b"v")  # lock conflict on the opening write
        assert txn.branches == set()
        assert router.stats()[0]["shard_live_branches"] == 1  # the holder's
        holder.abort()
        txn.put(a1, b"v")  # the retry opens the branch afresh
        txn.commit()
        assert router.get(a1) == b"v"

    def test_partitioned_first_write_does_not_enlist(self, router):
        (a1,) = keys_on(router, 0, 1)
        txn = router.txn()
        router.shards[0].partitioned = True
        with pytest.raises(ShardUnavailableError):
            txn.put(a1, b"v")
        assert txn.branches == set()
        router.shards[0].partitioned = False
        txn.put(a1, b"v")
        txn.commit()
        assert router.get(a1) == b"v"


# ----------------------------------------------------------------------
# A framing error ends the connection, typed
# ----------------------------------------------------------------------
def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "little") + payload


BROKEN_REPLIES = {
    "oversized_header": ((MAX_MESSAGE_BYTES + 1).to_bytes(4, "little")
                         + b"x" * 32, False),
    "truncated_body": ((100).to_bytes(4, "little") + b"x" * 10, True),
    "garbage_bytes": (_frame(b"\xff\x00garbage!"), False),
    "not_an_envelope": (_frame(pickle.dumps(42)), False),
    "short_envelope": (_frame(pickle.dumps(("ok", None))), False),
    "unknown_status": (_frame(pickle.dumps(("meh", 1, 2))), False),
    "bytes_after_the_frame": (_frame(pickle.dumps(("ok", "pong", 7)))
                              + b"tail", False),
}


@pytest.mark.parametrize("name", sorted(BROKEN_REPLIES))
def test_broken_reply_fails_typed_and_stays_failed(name):
    reply, hang_up = BROKEN_REPLIES[name]
    client = repro.connect(ShardConfig(n_shards=1, transport="process"))
    shard = client.router.shards[0]
    # Swap the worker for a fake that has already "answered".
    near, far = socket.socketpair()
    shard.call(("close",))  # the real worker leaves its serve loop
    shard._sock.close()
    shard._sock = near
    far.sendall(reply)
    if hang_up:
        far.close()
    try:
        for _ in range(2):  # the second call must not parse leftovers
            with pytest.raises(ShardUnavailableError):
                client.put(b"k", b"v")
        with pytest.raises(ShardUnavailableError):
            shard.call(("ping",))
        assert shard._sock is None
    finally:
        far.close()
        client.close()
    assert not shard._proc.is_alive()
