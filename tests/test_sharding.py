"""The shard layer: partitioning, RPC framing, worker, transports."""

import pickle
import socket

import pytest

from repro.engine.config import EngineConfig
from repro.errors import (
    ShardError,
    ShardUnavailableError,
    SystemFailure,
    TransactionError,
)
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.shard.routing import RoutingTable, slot_of
from repro.shard.rpc import (
    MAX_MESSAGE_BYTES,
    marshal_error,
    recv_msg,
    send_msg,
    unmarshal_error,
)
from repro.shard.worker import ShardWorker


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_stable_across_calls(self):
        for key in (b"a", b"hello", b"k%06d" % 123456):
            assert slot_of(key, 64) == slot_of(key, 64)

    def test_known_values_pinned(self):
        # CRC-32 is standardized: these must never change, or every
        # persisted deployment would re-route its keys.
        assert slot_of(b"hello", 64) == 907060870 % 64
        assert slot_of(b"", 7) == 0
        # The fleet-creation map: slot mod n_shards.
        assert RoutingTable(64, 4).shard_for(b"hello") == 907060870 % 64 % 4

    def test_covers_all_shards(self):
        n = 8
        table = RoutingTable(64, n)
        hit = {table.shard_for(b"k%06d" % i) for i in range(2000)}
        assert hit == set(range(n))


# ----------------------------------------------------------------------
# RPC framing
# ----------------------------------------------------------------------
class TestRpcFraming:
    def roundtrip(self, obj):
        a, b = socket.socketpair()
        try:
            send_msg(a, obj)
            return recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_roundtrip_objects(self):
        for obj in [("get", b"key"), ("ok", None), ("ok", [(b"a", b"b")]),
                    ("err", "KeyNotFound", "k"), 42]:
            assert self.roundtrip(obj) == obj

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        assert recv_msg(b) is None
        b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        a.sendall(b"\x10\x00\x00\x00abc")  # promises 16 bytes, sends 3
        a.close()
        with pytest.raises(ConnectionError):
            recv_msg(b)
        b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        a.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "little"))
        with pytest.raises(ConnectionError):
            recv_msg(b)
        a.close()
        b.close()

    def test_error_marshalling_taxonomy(self):
        name, message = marshal_error(SystemFailure("crashed"))
        err = unmarshal_error(name, message)
        assert isinstance(err, SystemFailure)
        assert "crashed" in str(err)

    def test_error_marshalling_unknown_class(self):
        err = unmarshal_error("SomethingWeird", "detail")
        assert isinstance(err, ShardError)
        assert "SomethingWeird" in str(err)

    def test_error_marshalling_structured_ctor_falls_back(self):
        # ShardUnavailableError wants (shard, reason); rehydration by
        # message alone must not crash, it degrades to ShardError.
        name, message = marshal_error(ShardUnavailableError(3, "gone"))
        err = unmarshal_error(name, message)
        assert isinstance(err, ShardError)


# ----------------------------------------------------------------------
# The worker
# ----------------------------------------------------------------------
class TestShardWorker:
    @pytest.fixture
    def worker(self):
        return ShardWorker(0, EngineConfig())

    def test_autocommit_roundtrip(self, worker):
        assert worker.execute(("put", b"k", b"v")) is None
        assert worker.execute(("get", b"k")) == b"v"
        assert worker.execute(("delete", b"k")) is True
        assert worker.execute(("get", b"k")) is None

    def test_batch(self, worker):
        ops = [("put", b"a", b"1"), ("put", b"b", b"2"), ("delete", b"a")]
        assert worker.execute(("batch", ops)) == 3
        assert worker.execute(("scan", b"", None)) == [(b"b", b"2")]

    def test_txn_branch_lifecycle(self, worker):
        worker.execute(("txn_put", 9, b"k", b"v", True))
        assert worker.execute(("txn_get", 9, b"k")) == b"v"
        worker.execute(("txn_commit", 9))
        assert worker.execute(("get", b"k")) == b"v"

    def test_txn_abort_rolls_back(self, worker):
        worker.execute(("txn_put", 9, b"k", b"v", True))
        worker.execute(("txn_abort", 9))
        assert worker.execute(("get", b"k")) is None

    def test_unknown_xid_raises(self, worker):
        with pytest.raises(TransactionError):
            worker.execute(("txn_put", 404, b"k", b"v"))

    def test_duplicate_xid_raises(self, worker):
        worker.execute(("txn_put", 9, b"k", b"v", True))
        with pytest.raises(TransactionError):
            worker.execute(("txn_delete", 9, b"k", True))

    def test_txn_begin_is_not_a_verb(self, worker):
        for verb in ("txn_begin", "durable_lsn"):
            with pytest.raises(ShardError):
                worker.execute((verb, 9))

    def test_unknown_verb_raises(self, worker):
        with pytest.raises(ShardError):
            worker.execute(("frobnicate",))

    def test_crash_wipes_branches_and_restart_reports_indoubt(self, worker):
        worker.execute(("txn_put", 1, b"p", b"v", True))
        worker.execute(("prepare", 1, 77))
        worker.execute(("txn_put", 2, b"loser", b"v", True))
        worker.execute(("crash",))
        assert worker._live == {} and worker._prepared == {}
        assert worker.execute(("restart", None)) == [77]
        worker.execute(("resolve", 77, True))
        assert worker.execute(("get", b"p")) == b"v"
        assert worker.execute(("get", b"loser")) is None

    def test_resolve_is_idempotent(self, worker):
        worker.execute(("txn_put", 1, b"k", b"v", True))
        worker.execute(("prepare", 1, 5))
        worker.execute(("resolve", 5, True))
        worker.execute(("resolve", 5, True))  # re-delivery: no-op
        assert worker.execute(("get", b"k")) == b"v"

    def test_crashed_engine_raises_system_failure(self, worker):
        worker.execute(("crash",))
        with pytest.raises(SystemFailure):
            worker.execute(("get", b"k"))

    def test_stats_include_shard_counters(self, worker):
        worker.execute(("put", b"k", b"v"))
        stats = worker.execute(("stats",))
        assert stats["shard_ops_served"] >= 1


# ----------------------------------------------------------------------
# The router over inproc shards
# ----------------------------------------------------------------------
class TestRouterInproc:
    @pytest.fixture
    def router(self):
        built = ShardRouter(ShardConfig(n_shards=4, transport="inproc"))
        yield built
        built.close()

    def test_routes_match_partitioner(self, router):
        for i in range(32):
            key = b"k%06d" % i
            router.put(key, b"v")
            idx = router.shard_of(key)
            assert router.shards[idx].worker.execute(("get", key)) == b"v"

    def test_partitioned_shard_refuses(self, router):
        key = b"somekey"
        idx = router.shard_of(key)
        router.shards[idx].partitioned = True
        with pytest.raises(ShardUnavailableError):
            router.get(key)
        router.shards[idx].partitioned = False
        assert router.get(key) is None

    def test_crashed_shard_reopens_on_demand(self, router):
        router.put(b"k", b"v")
        idx = router.shard_of(b"k")
        router.shards[idx].worker.execute(("crash",))
        assert router.get(b"k") == b"v"
        assert router.reopens == 1

    def test_other_shards_serve_while_one_down(self, router):
        keys = [b"key%06d" % i for i in range(40)]
        for key in keys:
            router.put(key, b"v")
        down = router.shard_of(keys[0])
        router.shards[down].worker.execute(("crash",))
        for key in keys:
            if router.shard_of(key) != down:
                assert router.get(key) == b"v"
        assert router.reopens == 0  # never touched the crashed one

    def test_single_shard_txn_has_no_coordinator_state(self, router):
        txn = router.txn()
        key = b"solo"
        txn.put(key, b"v")
        assert len(txn.branches) == 1
        txn.commit()
        assert len(router.coordinator) == 0
        assert router.get(key) == b"v"

    def test_finished_txn_rejects_further_use(self, router):
        txn = router.txn()
        txn.put(b"k", b"v")
        txn.commit()
        with pytest.raises(TransactionError):
            txn.put(b"k2", b"v")
        with pytest.raises(TransactionError):
            txn.commit()

    def test_read_only_shards_do_not_enlist(self, router):
        router.put(b"read-me", b"x")
        txn = router.txn()
        assert txn.get(b"read-me") == b"x"
        txn.put(b"write-me", b"y")
        assert len(txn.branches) == 1
        txn.commit()


# ----------------------------------------------------------------------
# The process transport (forked workers over sockets)
# ----------------------------------------------------------------------
class TestProcessTransport:
    def test_end_to_end(self):
        router = ShardRouter(ShardConfig(n_shards=2, transport="process"))
        try:
            router.put(b"k1", b"v1")
            assert router.get(b"k1") == b"v1"
            txn = router.txn()
            txn.put(b"a1", b"x")
            txn.put(b"b2", b"y")
            txn.put(b"c3", b"z")
            txn.commit()
            state = dict(router.scan())
            assert state[b"a1"] == b"x" and state[b"c3"] == b"z"
        finally:
            router.close()

    def test_worker_errors_cross_the_boundary_typed(self):
        router = ShardRouter(ShardConfig(n_shards=1, transport="process"))
        try:
            with pytest.raises(TransactionError):
                router._call(0, "txn_put", 404, b"k", b"v")
        finally:
            router.close()

    def test_close_terminates_workers(self):
        router = ShardRouter(ShardConfig(n_shards=2, transport="process"))
        procs = [shard._proc for shard in router.shards]
        router.close()
        assert all(not proc.is_alive() for proc in procs)

    def test_losing_the_router_ends_every_worker(self):
        """A forked worker must not keep a copy of any router-side
        socket — its own or an earlier shard's — or no worker ever sees
        EOF when the router goes away without a ``close`` verb."""
        router = ShardRouter(ShardConfig(n_shards=2, transport="process"))
        procs = [shard._proc for shard in router.shards]
        try:
            router.put(b"k1", b"v1")
            for shard in router.shards:
                shard._sock.close()
            for proc in procs:
                proc.join(timeout=5)
            assert [proc.is_alive() for proc in procs] == [False, False]
        finally:
            for proc in procs:
                proc.terminate()
                proc.join(timeout=5)

