"""Differential suite: every backend, same workload, same visible state.

The facade contract is that a :class:`SingleNodeClient` and a
:class:`ShardedClient` — at any shard count, on either transport — are
indistinguishable through the API.  The same deterministic fleet
workload is run against each backend and the full visible state
(``client.scan()``), the per-key model, and the commit/abort tallies
must match exactly.
"""

import random

import pytest

import repro
from repro.errors import TransactionError
from repro.workloads.fleet import ClientFleet, FacadeFleetRunner

SEED = 31
CLIENTS = 4
KEYS = 60
ACTIONS = 20


def run_backend(config):
    client = repro.connect(config)
    try:
        fleet = ClientFleet(n_clients=CLIENTS, seed=SEED, key_space=KEYS)
        runner = FacadeFleetRunner(client, fleet, ACTIONS)
        report = runner.run()
        state = dict(client.scan())
        assert state == runner.model, "backend diverged from its own model"
        return state, report
    finally:
        client.close()


@pytest.fixture(scope="module")
def baseline():
    return run_backend(None)  # one embedded engine


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_sharded_inproc_matches_single_node(baseline, n_shards):
    base_state, base_report = baseline
    state, report = run_backend(repro.ShardConfig(n_shards=n_shards))
    assert state == base_state
    assert (report.committed, report.aborted, report.ops) == \
        (base_report.committed, base_report.aborted, base_report.ops)


def test_sharded_process_matches_single_node(baseline):
    base_state, base_report = baseline
    state, report = run_backend(
        repro.ShardConfig(n_shards=2, transport="process"))
    assert state == base_state
    assert report.committed == base_report.committed


def test_sharded_survives_mid_workload_crashes_with_same_state(baseline):
    """Crash-and-reopen of shards between actions must not change the
    visible end state: committed effects are durable, per-shard restart
    is transparent through the facade."""
    base_state, _ = baseline
    client = repro.connect(repro.ShardConfig(n_shards=3))
    try:
        fleet = ClientFleet(n_clients=CLIENTS, seed=SEED, key_space=KEYS)
        runner = FacadeFleetRunner(client, fleet, ACTIONS)
        shard_cycle = 0
        for seq in range(ACTIONS):
            for client_id in range(fleet.n_clients):
                runner._execute(fleet.next_action(client_id))
            if seq % 5 == 4:  # crash a different shard every 5 rounds
                victim = shard_cycle % 3
                shard_cycle += 1
                client.router.shards[victim].worker.execute(("crash",))
        for i in range(3):
            try:
                client.router._call(i, "finish_restart")
            except repro.ReproError:
                pass
        state = dict(client.scan())
        assert state == runner.model
        assert state == base_state
        assert client.router.reopens >= 1
    finally:
        client.close()


@pytest.mark.parametrize("config", [
    None,
    repro.ShardConfig(n_shards=2),
    repro.ShardConfig(n_shards=2, transport="process"),
], ids=["embedded", "inproc", "process"])
def test_bad_batch_op_is_a_config_error_on_every_backend(config):
    """A malformed or unknown batch op fails typed, the same way on
    every backend, with nothing of the batch applied."""
    with repro.connect(config) as client:
        for bad in (("put", b"k"), ("put",), (), ("frob", b"k", b"v")):
            with pytest.raises(repro.ConfigError):
                client.apply_batch([("put", b"good", b"1"), bad])
            assert client.get(b"good") is None
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"


@pytest.mark.parametrize("config", [None, repro.ShardConfig(n_shards=2)],
                         ids=["embedded", "inproc"])
def test_a_finished_txn_handle_refuses_before_it_locks(config):
    """Using a ``client.txn()`` handle after its block committed fails
    typed, the same way on every backend, before the lock table is
    touched: no key is left locked by the finished transaction."""
    with repro.connect(config) as client:
        with client.txn() as txn:
            txn.put(b"a", b"1")
        for late in (lambda: txn.put(b"b", b"2"), lambda: txn.delete(b"a"),
                     lambda: txn.get(b"a")):
            with pytest.raises(TransactionError, match="already finished"):
                late()
        if config is None:
            assert client.db.locks.holder_of(b"b") is None
            assert client.db.locks.held_keys() == []
        client.put(b"b", b"3")
        assert client.delete(b"a")
        assert (client.get(b"a"), client.get(b"b")) == (None, b"3")


@pytest.mark.parametrize("config", [
    None,
    repro.ShardConfig(n_shards=2),
    repro.ShardConfig(n_shards=2, transport="process"),
], ids=["embedded", "inproc", "process"])
def test_metrics_count_the_same_lookups_on_every_backend(config):
    """``client.metrics()`` answers on every backend, and the same
    seeded stream of present-key gets reads the same ``btree_lookups``
    whether one engine served it or two shards' counters were summed."""
    rng = random.Random(SEED)
    keys = [b"key-%03d" % i for i in range(KEYS)]
    with repro.connect(config) as client:
        client.apply_batch([("put", key, b"v") for key in keys])
        before = client.metrics()
        for _ in range(200):
            assert client.get(rng.choice(keys)) == b"v"
        after = client.metrics()
        assert after["btree_lookups"] - before.get("btree_lookups", 0) == 200
        assert after["log_bytes"] == before["log_bytes"]  # reads log nothing
        shards = 1 if config is None else config.n_shards
        per_shard = [name for name in after if name.startswith("shard_")
                     or name.startswith("sim_clock_seconds")]
        assert len(per_shard) == (0 if config is None else 4 * shards)
        if config is not None:
            assert sum(after[f"shard_ops_served[{i}]"] - before[
                f"shard_ops_served[{i}]"] for i in range(shards)) >= 200
