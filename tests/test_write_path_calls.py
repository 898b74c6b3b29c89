"""A get and a put at the price of their hops, counted in calls.

A warm autocommit rewrite of a live key on a resident three-level tree
may enter at most 50 Python functions of ``repro``, and a warm
``client.get`` at most 17 — the descent and the leaf search are the
get's, and the put shares them.  History: 67 and 29 while frames that
only forwarded stood between the client and the pool (``Database.fix``,
``unfix`` and ``get_root`` in front of the pool and the catalogue, the
client's ``_require_open`` / ``_require_running`` / ``Database.tree``
hops, the autocommit context-manager object, the leaf's throwaway
``SlottedPage``, a second ``read_value`` / ``probe_value`` frame, header
re-reads of a page id the caller held, the force's ``write_cost``); 68
while the put still built a ``LogicalUndo``; 91 while every layer still
went through its own helpers (the commit bit found by a segment lookup
and forced in a second log-mutex hold, ``mark_dirty`` beside ``unfix``,
a four-call record size, a ``Transaction.active`` property asked
twice).

Three more paths hold budgets of their own: a warm autocommit delete of
a live key (72 with the forwarding frames), and the in-process shard
worker's get and put, each one ``LocalShard.call`` (36 and 76 while the
worker also hopped through ``_require_running``, ``_slot_of``, ``_tree``,
``upsert`` and its ``durable_lsn`` property).  The counts are
deterministic: what ``sys.setprofile`` sees, not a clock
(``benchmarks/write_path.py`` prints both and times the stages).
"""

from __future__ import annotations

import repro
from benchmarks.common import python_calls
from repro import EngineConfig, ShardConfig

PUT_CALLS = 50
GET_CALLS = 17
DELETE_CALLS = 51
WORKER_GET_CALLS = 22
WORKER_PUT_CALLS = 55

_CONFIG = dict(page_size=1024, capacity_pages=8192, buffer_capacity=4096)
_KEYS = [b"user%07d" % (7 * i) for i in range(2_000)]


def _resident_client():  # noqa: ANN202
    client = repro.connect(EngineConfig(**_CONFIG))
    client.apply_batch([("put", key, b"v" * 60) for key in _KEYS])
    assert client.db.tree(client.index_id).depth() == 3
    return client, _KEYS[len(_KEYS) // 3]


def _delta(client, before: dict) -> dict:  # noqa: ANN001
    return {name: value - before.get(name, 0)
            for name, value in client.metrics().items()
            if value != before.get(name, 0)}


def test_a_warm_autocommit_put_stays_under_its_call_budget():
    client, key = _resident_client()
    for value in (b"a" * 60, b"b" * 60, b"c" * 60):  # settle any maintenance
        client.put(key, value)
    before = client.metrics()
    calls = python_calls(lambda: client.put(key, b"d" * 60))
    delta = _delta(client, before)
    # The same work: one record, one force, one commit, no split.
    assert delta["log_records"] == 1 and delta["log_forces"] == 1
    assert delta["btree_updates"] == 1 and "btree_splits" not in delta
    assert calls <= PUT_CALLS, f"a warm put made {calls} calls"


def test_a_warm_get_stays_under_its_call_budget():
    client, key = _resident_client()
    for _ in range(3):
        assert client.get(key) == b"v" * 60
    calls = python_calls(lambda: client.get(key))
    assert calls <= GET_CALLS, f"a warm get made {calls} calls"


def test_a_warm_autocommit_delete_stays_under_its_call_budget():
    client, key = _resident_client()
    for _ in range(3):  # a warm leaf: its key directory built
        assert client.get(key) == b"v" * 60
    before = client.metrics()
    removed = []
    calls = python_calls(lambda: removed.append(client.delete(key)))
    delta = _delta(client, before)
    # A live key ghosted: one record, one force, one commit.
    assert removed == [True] and client.get(key) is None
    assert delta["log_records"] == 1 and delta["log_forces"] == 1
    assert delta["btree_deletes"] == 1
    assert calls <= DELETE_CALLS, f"a warm delete made {calls} calls"


def _resident_shard():  # noqa: ANN202
    """The in-process shard owning a key of a resident 2-shard fleet,
    its slot assignment installed, and that key warmed up."""
    client = repro.connect(ShardConfig(n_shards=2, transport="inproc",
                                       engine=EngineConfig(**_CONFIG)))
    client.apply_batch([("put", key, b"v" * 60) for key in _KEYS])
    key = _KEYS[len(_KEYS) // 3]
    router = client.router
    shard = router.shards[router.shard_of(key)]
    assert shard.worker._owned is not None
    for value in (b"a" * 60, b"b" * 60, b"c" * 60):
        shard.call(("put", key, value))
        assert shard.call(("get", key)) == value
    return shard, key


def test_the_shard_workers_warm_get_stays_under_its_call_budget():
    shard, key = _resident_shard()
    calls = python_calls(lambda: shard.call(("get", key)))
    assert calls <= WORKER_GET_CALLS, f"a worker get made {calls} calls"


def test_the_shard_workers_warm_put_stays_under_its_call_budget():
    shard, key = _resident_shard()
    db = shard.worker.db
    before = db.stats.snapshot()
    calls = python_calls(lambda: shard.call(("put", key, b"d" * 60)))
    after = db.stats.snapshot()
    assert after["log_records"] - before["log_records"] == 1
    assert after["log_forces"] - before["log_forces"] == 1
    assert shard.call(("get", key)) == b"d" * 60
    assert calls <= WORKER_PUT_CALLS, f"a worker put made {calls} calls"
