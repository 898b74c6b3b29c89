"""Online shard rebalancing: routing table, slot moves, cutover replay.

The move protocol reuses the recovery machinery end to end: the slot
snapshot travels through the verified full-backup path, the catch-up
delta is read off the source's log (committed records only — presumed
abort for the rest), and the cutover's commit point is a forced epoch
record in the same coordinator log that 2PC decisions live in.
"""

import pytest

from repro.errors import (
    ConfigError,
    ShardUnavailableError,
    TransactionAborted,
    WrongShardError,
)
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.shard.routing import RoutingTable, slot_of
from repro.shard.rpc import marshal_error, unmarshal_error
from repro.shard.twopc import CoordinatorLog


def make_router(n_shards=4, n_slots=64):
    return ShardRouter(ShardConfig(n_shards=n_shards, n_slots=n_slots,
                                   transport="inproc"))


def keys_in_slot(router, slot, count):
    """``count`` distinct keys hashing into ``slot``."""
    chosen = []
    i = 0
    while len(chosen) < count:
        key = b"key%06d" % i
        if router.slot_of(key) == slot:
            chosen.append(key)
        i += 1
    return chosen


def populated_slot(router, min_keys=3):
    """A slot with ``min_keys`` keys written through the router;
    returns ``(slot, keys)``."""
    slot = 0
    keys = keys_in_slot(router, slot, min_keys)
    for i, key in enumerate(keys):
        router.put(key, b"v%d" % i)
    return slot, keys


# ----------------------------------------------------------------------
# Routing table
# ----------------------------------------------------------------------
class TestRoutingTable:
    def test_initial_assignment_matches_legacy_partitioner(self):
        # 4 | 64, so slot routing must equal the old crc32 % n map.
        import zlib
        table = RoutingTable(64, 4)
        for i in range(200):
            key = b"key%06d" % i
            assert table.shard_for(key) == zlib.crc32(key) % 4

    def test_move_bumps_epoch_and_reassigns(self):
        table = RoutingTable(16, 4)
        assert table.epoch == 0
        assert table.owner_of(5) == 1
        assert table.move(5, 3) == 1
        assert table.owner_of(5) == 3
        assert 5 in table.slots_of(3)
        assert 5 not in table.slots_of(1)

    def test_slots_partition_the_slot_space(self):
        table = RoutingTable(16, 3)
        table.move(4, 2)
        all_slots = [s for shard in range(3) for s in table.slots_of(shard)]
        assert sorted(all_slots) == list(range(16))

    def test_out_of_range_rejected(self):
        table = RoutingTable(16, 4)
        with pytest.raises(ConfigError):
            table.move(16, 0)
        with pytest.raises(ConfigError):
            table.move(0, 4)

    def test_fewer_slots_than_shards_rejected(self):
        with pytest.raises(ConfigError):
            RoutingTable(2, 3)
        with pytest.raises(ConfigError):
            ShardConfig(n_shards=3, n_slots=2)

    def test_apply_epochs_replays_in_order(self):
        log = CoordinatorLog()
        log.log_epoch(1, 5, 1, 3)
        log.log_epoch(2, 5, 3, 0)
        log.log_epoch(3, 9, 1, 2)
        table = RoutingTable(16, 4)
        # Shuffled input: replay must sort by epoch.
        records = list(log.durable_epochs())
        assert table.apply_epochs(reversed(records)) == 3
        assert table.owner_of(5) == 0
        assert table.owner_of(9) == 2

    def test_apply_epochs_rejects_gaps(self):
        log = CoordinatorLog()
        log.log_epoch(2, 5, 1, 3)  # epoch 1 is missing
        with pytest.raises(ConfigError):
            RoutingTable(16, 4).apply_epochs(log.durable_epochs())


# ----------------------------------------------------------------------
# Epoch records in the coordinator log
# ----------------------------------------------------------------------
class TestEpochLog:
    def test_epochs_and_decisions_do_not_mix(self):
        log = CoordinatorLog()
        gtid = log.allocate_gtid()
        log.log_decision(gtid, "commit", (0, 1))
        log.log_epoch(1, 5, 0, 1)
        assert log.decision_of(gtid) == "commit"
        assert [d.gtid for d in log.durable_decisions()] == [gtid]
        assert [e.epoch for e in log.durable_epochs()] == [1]

    def test_unforced_epoch_dies_with_the_coordinator(self):
        log = CoordinatorLog()
        log.log_epoch(1, 5, 0, 1, force=False)
        log.crash()
        assert log.durable_epochs() == []


# ----------------------------------------------------------------------
# Worker-side slot ownership
# ----------------------------------------------------------------------
class TestWorkerOwnership:
    def test_foreign_key_refused_with_typed_redirect(self):
        router = make_router()
        key = b"key000000"
        slot = router.slot_of(key)
        idx = router.shard_of(key)
        other = (idx + 1) % router.config.n_shards
        worker = router.shards[other].worker
        with pytest.raises(WrongShardError) as info:
            worker.execute(("get", key))
        assert info.value.slot == slot
        with pytest.raises(WrongShardError):
            worker.execute(("put", key, b"v"))
        router.close()

    def test_scan_filters_unowned_leftovers(self):
        router = make_router()
        key = b"key000000"
        idx = router.shard_of(key)
        router.put(key, b"v")
        # Revoke the slot from its owner without deleting the key: the
        # stale resident must vanish from the worker's scans.
        router.shards[idx].call(("set_slots", router.config.n_slots, ()))
        assert router.shards[idx].call(("scan", b"", None)) == []
        router.close()

    def test_worker_without_assignment_owns_everything(self):
        from repro.engine.config import EngineConfig
        from repro.shard.worker import ShardWorker

        worker = ShardWorker(0, EngineConfig())
        worker.execute(("put", b"any", b"v"))
        assert worker.execute(("get", b"any")) == b"v"

    def test_wrong_shard_error_survives_rpc_marshalling(self):
        original = WrongShardError("shard 1 does not own slot 9",
                                   shard=1, slot=9)
        rebuilt = unmarshal_error(*marshal_error(original))
        assert isinstance(rebuilt, WrongShardError)
        assert "slot 9" in str(rebuilt)
        assert (rebuilt.shard, rebuilt.slot) == (1, 9)


# ----------------------------------------------------------------------
# The move protocol
# ----------------------------------------------------------------------
class TestMoveSlot:
    def test_basic_move_preserves_data_and_reroutes(self):
        router = make_router()
        slot, keys = populated_slot(router)
        src = router.routing.owner_of(slot)
        dst = (src + 1) % router.config.n_shards
        epoch = router.move_slot(slot, dst)
        assert epoch == 1
        assert router.routing.owner_of(slot) == dst
        assert router.shard_of(keys[0]) == dst
        for i, key in enumerate(keys):
            assert router.get(key) == b"v%d" % i
        # The destination actually holds the keys...
        dst_keys = {k for k, _ in router.shards[dst].call(("scan", b"", None))}
        assert set(keys) <= dst_keys
        # ...and the source physically dropped its leftovers.
        src_physical = {k for k, _ in
                        router.shards[src].worker._tree.range_scan(b"", None)}
        assert not (set(keys) & src_physical)
        router.close()

    def test_move_is_durably_logged_as_an_epoch_record(self):
        router = make_router()
        slot, _keys = populated_slot(router)
        src = router.routing.owner_of(slot)
        dst = (src + 2) % router.config.n_shards
        router.move_slot(slot, dst)
        [record] = router.coordinator.durable_epochs()
        assert (record.epoch, record.slot, record.src, record.dst) == \
            (1, slot, src, dst)
        router.close()

    def test_noop_move_to_current_owner(self):
        router = make_router()
        slot = 7
        src = router.routing.owner_of(slot)
        assert router.move_slot(slot, src) == 0
        assert router.coordinator.durable_epochs() == []
        router.close()

    def test_delta_carries_traffic_between_snapshot_and_cutover(self):
        router = make_router()
        slot, keys = populated_slot(router, min_keys=4)
        dst = (router.routing.owner_of(slot) + 1) % router.config.n_shards

        def traffic():
            # The snapshot is already installed on the destination;
            # the source keeps serving.  These must survive the move.
            router.put(keys[0], b"rewritten")
            router.put(b"key-brand-new" if router.slot_of(
                b"key-brand-new") == slot else keys[1], b"fresh")
            router.delete(keys[2])

        router.move_slot(slot, dst, copy_hook=traffic)
        assert router.get(keys[0]) == b"rewritten"
        assert router.get(keys[2]) is None
        assert router.get(keys[3]) == b"v3"
        router.close()

    def test_scan_is_identical_across_a_move(self):
        router = make_router()
        for i in range(40):
            router.put(b"key%06d" % i, b"v%d" % i)
        before = router.scan()
        slot = router.slot_of(b"key000000")
        dst = (router.routing.owner_of(slot) + 1) % router.config.n_shards
        router.move_slot(slot, dst)
        assert router.scan() == before
        router.close()

    def test_move_resolves_indoubt_branches_first(self):
        from tests.test_twopc_matrix import (
            cross_shard_keys,
            interrupted_commit,
        )

        router = make_router()
        keys = cross_shard_keys(router, 2)
        # Decision forced, phase two never ran: both branches sit
        # prepared, holding their locks.
        interrupted_commit(router, keys, "after_decision",
                           crash_shard=False)
        slot = router.slot_of(keys[0])
        src = router.routing.owner_of(slot)
        dst = (src + 1) % router.config.n_shards
        router.move_slot(slot, dst)
        # The in-doubt branch was resolved (commit) before the export,
        # so its effect crossed over with the slot.
        assert router.get(keys[0]) == b"v0"
        assert router.routing.owner_of(slot) == dst
        router.close()

    def test_open_transaction_on_moving_slot_is_force_aborted(self):
        router = make_router()
        slot, keys = populated_slot(router)
        dst = (router.routing.owner_of(slot) + 1) % router.config.n_shards
        txn = router.txn()
        txn.put(keys[0], b"straddler")
        router.move_slot(slot, dst)
        with pytest.raises(TransactionAborted):
            txn.put(keys[1], b"more")
        with pytest.raises(TransactionAborted):
            txn.commit()
        # The aborted branch's locks are gone and its write never
        # landed: the moved slot serves the pre-move value.
        assert router.get(keys[0]) == b"v0"
        router.put(keys[0], b"after")
        assert router.get(keys[0]) == b"after"
        router.close()

    def test_unrelated_open_transaction_survives_the_move(self):
        router = make_router()
        slot, _keys = populated_slot(router)
        dst = (router.routing.owner_of(slot) + 1) % router.config.n_shards
        bystander = keys_in_slot(router, slot + 1, 1)[0]
        txn = router.txn()
        txn.put(bystander, b"unscathed")
        router.move_slot(slot, dst)
        txn.commit()
        assert router.get(bystander) == b"unscathed"
        router.close()

    def test_move_to_crashed_destination_reopens_on_demand(self):
        router = make_router()
        slot, keys = populated_slot(router)
        dst = (router.routing.owner_of(slot) + 1) % router.config.n_shards
        router.shards[dst].worker.execute(("crash",))
        router.move_slot(slot, dst)
        assert router.reopens >= 1
        assert router.get(keys[0]) == b"v0"
        router.close()

    def test_move_with_partitioned_source_is_refused(self):
        router = make_router()
        slot, keys = populated_slot(router)
        src = router.routing.owner_of(slot)
        dst = (src + 1) % router.config.n_shards
        router.shards[src].partitioned = True
        with pytest.raises(ShardUnavailableError):
            router.move_slot(slot, dst)
        # Nothing moved: no epoch, ownership unchanged, data intact.
        assert router.coordinator.durable_epochs() == []
        assert router.routing.owner_of(slot) == src
        router.shards[src].partitioned = False
        assert router.get(keys[0]) == b"v0"
        router.close()

    def test_out_of_range_move_rejected(self):
        router = make_router()
        with pytest.raises(ConfigError):
            router.move_slot(router.config.n_slots, 0)
        with pytest.raises(ConfigError):
            router.move_slot(0, router.config.n_shards)
        router.close()


# ----------------------------------------------------------------------
# Cutover recovery and the redirect race
# ----------------------------------------------------------------------
class TestCutoverRecovery:
    def test_new_router_replays_epochs_from_the_coordinator_log(self):
        router = make_router()
        slot, _keys = populated_slot(router)
        dst = (router.routing.owner_of(slot) + 1) % router.config.n_shards
        router.move_slot(slot, dst)
        other = (router.routing.owner_of(slot + 1) + 2) \
            % router.config.n_shards
        router.move_slot(slot + 1, other)
        assignments = router.routing.assignments()
        log = router.coordinator
        router.close()
        # A successor router handed the durable coordinator log must
        # adopt the cutover history, not the fleet-creation map.
        successor = ShardRouter(
            ShardConfig(n_shards=4, transport="inproc"), coordinator=log)
        assert successor.routing.epoch == 2
        assert successor.routing.assignments() == assignments
        successor.close()

    def test_racing_command_is_redirected_after_resync(self):
        router = make_router()
        key = b"key000000"
        slot = router.slot_of(key)
        idx = router.shard_of(key)
        router.put(key, b"v")
        # Simulate a worker whose slot view lags the routing table (a
        # command racing the cutover): it must refuse, the router must
        # resync it and serve from the table's owner.
        stale = tuple(s for s in router.routing.slots_of(idx) if s != slot)
        router.shards[idx].call(("set_slots", router.config.n_slots, stale))
        assert router.get(key) == b"v"
        assert slot in router.shards[idx].call(("owned_slots",))
        router.close()


# ----------------------------------------------------------------------
# Client facade passthrough
# ----------------------------------------------------------------------
class TestClientRebalance:
    def test_rebalance_slot_through_the_facade(self):
        import repro

        client = repro.connect(ShardConfig(n_shards=4, transport="inproc"))
        client.put(b"key000000", b"v")
        slot = client.router.slot_of(b"key000000")
        src = client.slot_assignments()[slot]
        dst = (src + 1) % 4
        assert client.rebalance_slot(slot, dst) == 1
        assert client.slot_assignments()[slot] == dst
        assert client.get(b"key000000") == b"v"
        client.close()
