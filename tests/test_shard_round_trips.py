"""One round trip per client write: the contract of the shard wire.

* a client op costs exactly the calls that carry its work — no
  pre-flight, no separate enlist;
* the retry watermark that rides on every reply is the pre-flight's
  value: whichever command loses its reply (or never runs) to a crash
  is applied exactly once and answered as if nothing happened;
* a branch opens with its first write and never silently re-opens;
* a broken frame kills the connection instead of desynchronising it,
  and no bytes — random, checksummed or one bit off a valid frame —
  decode to anything but a message or a :class:`ConnectionError`.
"""

import socket
import struct
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import (
    BTreeError,
    ShardUnavailableError,
    SystemFailure,
    TransactionError,
)
from repro.shard.config import ShardConfig
from repro.shard.router import LocalShard, ProcessShard, ShardRouter
from repro.shard.rpc import MAX_MESSAGE_BYTES, decode, encode
from repro.wal.records import LogRecordKind
from tests.record_reference import (LogRecord, all_records, record_at,
                                    records_from)


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
    # Phase two appended its COMMIT unforced: it lies past the mark the
    # next risky command carries, so the probe must pass over it.
    shard = router.shards[IDX]
    log = shard.worker.db.log
    (commit,) = [record for record in records_from(log, shard.durable_lsn)
                 if record.kind == LogRecordKind.COMMIT]
    assert record_at(log, commit.prev_lsn).kind == LogRecordKind.PREPARE


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
    return [record for record in all_records(router.shards[IDX].worker.db.log)
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
                    in all_records(router.shards[IDX].worker.db.log)
                    if record.kind == LogRecordKind.COMMIT
                    or record.commits and (record.undo is not None
                                           or record.redo_only)][-1]
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


def _decoded_outcome(records: list, by_lsn: dict, start: int):  # noqa: ANN202
    """``outcome_since`` answered from decoded records — ``records``
    the log's, ``by_lsn`` them by LSN, the mark at index ``start``: the
    first user commit that is not a phase-two COMMIT, and its
    transaction's updates past the mark."""
    for record in records[start:]:
        user_commit = (record.kind == LogRecordKind.COMMIT
                       or record.commits and (record.undo is not None
                                              or record.redo_only))
        prev = by_lsn.get(record.prev_lsn)
        if user_commit and not (record.kind == LogRecordKind.COMMIT
                                and prev is not None
                                and prev.kind == LogRecordKind.PREPARE):
            return record.lsn, sum(1 for other in records[start:]
                                   if other.txn_id == record.txn_id
                                   and other.kind == LogRecordKind.UPDATE)
    return None


def test_the_probe_reads_bytes_as_the_decoded_log_answers():
    """Every mark of a seeded stream — two-phase and single-shard
    commits, rollbacks, autocommit writes, batches, leaf splits — gets
    the answer the decoded records give."""
    import random

    rnd = random.Random(7)
    router = ShardRouter(ShardConfig(n_shards=2, transport="inproc"))
    keys = [b"probe%04d" % i for i in range(60)]
    for _ in range(150):
        roll = rnd.random()
        key = rnd.choice(keys)
        if roll < 0.2:
            router.put(key, b"v" * rnd.randrange(1, 200))
        elif roll < 0.3:
            router.delete(key)
        elif roll < 0.4:
            ops = [("put", k, b"b" * rnd.randrange(1, 90))
                   for k in rnd.sample(keys, 4)
                   if router.shard_of(k) == router.shard_of(key)]
            router.apply_batch(router.shard_of(key), ops)
        else:
            txn = router.txn()
            for k in rnd.sample(keys, rnd.randrange(1, 4)):
                txn.put(k, b"t" * rnd.randrange(1, 120))
            if rnd.random() < 0.1:
                txn.abort()
            else:
                txn.commit()
    for shard in router.shards:
        worker = shard.worker
        records = all_records(worker.db.log)
        by_lsn = {record.lsn: record for record in records}
        answers = [worker.execute(("outcome_since", record.lsn))
                   for record in records]
        assert answers == [_decoded_outcome(records, by_lsn, i)
                           for i in range(len(records))]
        assert any(answer is None for answer in answers)
        assert len({answer for answer in answers if answer}) > 50
    router.close()


@pytest.mark.parametrize("flags", [0x19, 0x0B, 0x08, None],
                         ids=["unknown-bit", "redo-only-with-undo",
                              "redo-only-without-op", "no-flags-byte"])
def test_the_probe_refuses_what_decode_refuses(flags):
    """The UPDATE flags byte under a commit bit is the one payload byte
    the probe reads, and it refuses there what ``LogRecord.decode``
    refuses."""
    from repro.engine.config import EngineConfig
    from repro.errors import LogError
    from repro.shard.worker import ShardWorker

    worker = ShardWorker(0, EngineConfig())
    log = worker.db.log
    mark = log.end_lsn
    worker.execute(("put", b"k", b"v"))
    data = bytearray(log.encoding_at(mark))
    assert data[0] == 0x80 | LogRecordKind.UPDATE and data[21] == 0x09
    if flags is None:
        data = data[:21]
        data[1:3] = struct.pack("<H", 21)
    else:
        data[21] = flags
    hostile = log.append(bytes(data))
    with pytest.raises(LogError):
        LogRecord.decode(bytes(data))
    with pytest.raises(LogError):
        worker.execute(("outcome_since", hostile))
    assert worker.execute(("outcome_since", mark)) == (mark, 1)


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
# (d) Fan-out: every frame in flight before the first reply is read
# ----------------------------------------------------------------------
class TestFanOut:
    @pytest.fixture
    def fleet(self, monkeypatch):
        """A 2-shard process client and the ``(event, shard, verb,
        thread)`` log of every post and call."""
        client = repro.connect(ShardConfig(n_shards=2, transport="process"))
        events: list[tuple] = []
        for name in ("post", "call"):
            real = getattr(ProcessShard, name)

            def logged(self, command, real=real, name=name):
                events.append((name, self.shard_id, command[0],
                               threading.get_ident()))
                return real(self, command)

            monkeypatch.setattr(ProcessShard, name, logged)
        yield client, events
        monkeypatch.undo()
        client.close()

    def test_a_batch_posts_every_frame_before_the_first_read(self, fleet):
        client, events = fleet
        router = client.router
        ops = [("put", key, b"v") for idx in (0, 1)
               for key in keys_on(router, idx, 4)]
        before = threading.active_count()
        assert client.apply_batch(ops) == 8
        assert threading.active_count() == before
        assert [event[:3] for event in events] == [
            ("post", 0, "batch"), ("post", 1, "batch"),
            ("call", 0, "batch"), ("call", 1, "batch")]
        assert {event[3] for event in events} == {threading.get_ident()}
        assert all(client.get(key) == b"v" for _, key, _ in ops)

    def test_a_scan_fans_out_the_same_way(self, fleet):
        client, events = fleet
        router = client.router
        for idx in (0, 1):
            for key in keys_on(router, idx, 3):
                client.put(key, b"v")
        del events[:]
        assert len(client.scan()) == 6
        assert [event[:3] for event in events] == [
            ("post", 0, "scan"), ("post", 1, "scan"),
            ("call", 0, "scan"), ("call", 1, "scan")]

    def test_every_reply_is_read_and_the_first_error_raised(self, fleet):
        client, _events = fleet
        router = client.router
        (bad,) = keys_on(router, 0, 1)
        good = keys_on(router, 1, 2)
        ops = [("put", bad, "not bytes")] + [("put", key, b"v")
                                              for key in good]
        with pytest.raises(BTreeError):
            client.apply_batch(ops)
        # Shard 1's batch ran and its reply was read: both connections
        # are still in step.
        assert [client.get(key) for key in good] == [b"v", b"v"]
        assert client.get(bad) is None
        assert all(shard._sock is not None for shard in router.shards)

    def test_a_shard_that_cannot_be_posted_to_stops_no_other(self):
        client = repro.connect(ShardConfig(n_shards=3, transport="process"))
        router = client.router
        try:
            keys = {idx: keys_on(router, idx, 2) for idx in range(3)}
            sock = router.shards[1]._sock
            sock.close()  # the middle shard's connection is gone
            ops = [("put", key, b"v") for idx in range(3)
                   for key in keys[idx]]
            with pytest.raises(ShardUnavailableError):
                client.apply_batch(ops)
            for idx in (0, 2):
                assert [client.get(key) for key in keys[idx]] == [b"v", b"v"]
            assert router.shards[1]._sock is None
        finally:
            client.close()

    def test_a_queued_message_goes_out_before_the_posted_frame(self, fleet):
        client, events = fleet
        router = client.router
        slot = router.routing.slots_of(1)[0]
        router._pending[1].append(("grant_slot", slot))
        client.apply_batch([("put", key, b"v")
                            for key in keys_on(router, 1, 2)])
        assert [event[:3] for event in events] == [
            ("call", 1, "grant_slot"), ("post", 1, "batch"),
            ("call", 1, "batch")]
        assert not router._pending[1]

    def test_the_shard_stays_locked_from_post_to_reply(self):
        router = ShardRouter(ShardConfig(n_shards=1, transport="process"))
        shard = router.shards[0]
        try:
            shard.post(("scan", b"", None))
            answers = []
            other = threading.Thread(
                target=lambda: answers.append(shard.call(("ping",))))
            other.start()
            other.join(timeout=0.2)
            assert other.is_alive() and answers == []
            assert shard.call(("scan", b"", None)) == []
            other.join(timeout=5)
            assert not other.is_alive() and answers == ["pong"]
        finally:
            router.close()

    def test_a_call_that_does_not_match_the_posted_frame_hangs_up(self):
        router = ShardRouter(ShardConfig(n_shards=1, transport="process"))
        shard = router.shards[0]
        try:
            shard.post(("ping",))
            with pytest.raises(ShardUnavailableError):
                shard.call(("get", b"k"))
            assert shard._sock is None
        finally:
            router.close()


# ----------------------------------------------------------------------
# A framing error ends the connection, typed
# ----------------------------------------------------------------------
def _frame(body: bytes) -> bytes:
    """A frame around ``body`` with a correct count and CRC."""
    counted = struct.pack("<I", len(body) + 4) + body
    return counted + struct.pack("<I", zlib.crc32(counted))


def _flipped(frame: bytes) -> bytes:
    """``frame`` with one bit of its body flipped."""
    damaged = bytearray(frame)
    damaged[5] ^= 0x01
    return bytes(damaged)


BROKEN_REPLIES = {
    "oversized_header": ((MAX_MESSAGE_BYTES + 1).to_bytes(4, "little")
                         + b"x" * 32, False),
    "truncated_body": (encode(("ok", b"v" * 100, 7))[:20], True),
    "garbage_bytes": (_frame(b"\xff\x00garbage!"), False),
    "crc_mismatch": (_flipped(encode(("ok", b"value", 7))), False),
    "not_an_envelope": (encode(42), False),
    "short_envelope": (encode(("ok", None)), False),
    "unknown_status": (encode(("meh", 1, 2)), False),
    "bytes_after_the_frame": (encode(("ok", "pong", 7)) + b"tail", False),
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


# ----------------------------------------------------------------------
# Hostile bytes: a message or a ConnectionError, nothing else
# ----------------------------------------------------------------------
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.binary(max_size=24) | st.text(max_size=12))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.binary(max_size=8)
                                     | st.text(max_size=8)
                                     | st.integers(), inner, max_size=4)),
    max_leaves=24)
_keys = st.binary(max_size=40)
_batch_ops = st.lists(st.tuples(st.just("put"), _keys, st.binary(max_size=60))
                      | st.tuples(st.just("delete"), _keys), max_size=8)
#: every shape a message can take on the wire, and the tagged fallback
_messages = st.one_of(
    st.tuples(st.sampled_from(["get", "delete"]), _keys),
    st.tuples(st.just("put"), _keys, st.binary(max_size=200)),
    st.tuples(st.just("batch"), _batch_ops),
    st.tuples(st.just("ok"),
              st.none() | st.booleans() | st.binary() | st.integers()
              | st.sampled_from(["pong", "eager", "not a word"]),
              st.integers()),
    st.tuples(st.just("ping")),
    st.tuples(st.sampled_from(["txn_commit", "txn_abort"]), st.integers()),
    st.tuples(st.just("prepare"), st.integers(), st.integers()),
    st.tuples(st.just("resolve"), st.integers(), st.booleans()),
    st.tuples(st.just("txn_get"), st.integers(), _keys),
    st.tuples(st.just("txn_delete"), st.integers(), _keys, st.booleans()),
    st.tuples(st.just("txn_put"), st.integers(), _keys, st.binary(max_size=60),
              st.booleans()),
    st.tuples(st.just("err"), st.text(max_size=12), st.text(),
              st.dictionaries(st.text(max_size=8), _values, max_size=3),
              st.integers(min_value=0, max_value=2**40)),
    _values)


def _decodes_or_refuses(frame: bytes) -> None:
    """The decoder's contract on any bytes; a message it accepts must
    survive its own round trip."""
    try:
        message = decode(frame)
    except ConnectionError:
        return
    assert repr(decode(encode(message))) == repr(message)


@settings(max_examples=300)
@given(message=_messages)
def test_every_message_decodes_to_what_was_encoded(message):
    frame = encode(message)
    assert repr(decode(frame)) == repr(message)


@settings(max_examples=400)
@given(data=st.binary(max_size=160))
def test_random_bytes_decode_or_fail_typed(data):
    _decodes_or_refuses(data)


@settings(max_examples=800)
@given(shape=st.integers(min_value=0, max_value=12),
       body=st.binary(max_size=160))
def test_checksummed_garbage_of_every_shape_decodes_or_fails_typed(shape,
                                                                   body):
    # A correct length and CRC get the bytes past the frame checks and
    # into the request and reply decoders.
    _decodes_or_refuses(_frame(bytes((shape,)) + body))


@settings(max_examples=300)
@given(message=_messages, cut=st.integers(min_value=0))
def test_a_truncated_body_with_a_fixed_header_fails_typed(message, cut):
    body = encode(message)[4:-4]
    _decodes_or_refuses(_frame(body[:cut % (len(body) + 1)]))


@pytest.mark.parametrize("message", [
    ("get", b"key"), ("put", b"key", b"v" * 40), ("delete", b"key"),
    ("batch", [("put", b"a", b"1"), ("delete", b"b")]),
    ("ok", b"value", 7), ("ok", None, 7), ("ok", True, 7), ("ok", 12, 7),
    ("ok", "pong", 7), ("txn_put", 3, b"key", b"value", True), ("ping",),
    ("err", "LockConflict", "blocked", {"key": b"k", "holder": 3}, 7),
    ("scan", b"", None),
], ids=lambda message: str(message[0]))
def test_any_one_flipped_bit_of_a_frame_is_refused(message):
    frame = encode(message)
    for bit in range(8 * len(frame)):
        damaged = bytearray(frame)
        damaged[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ConnectionError):
            decode(bytes(damaged))
