"""A get and a put at the price of their hops, counted in calls.

A warm autocommit rewrite of a live key on a resident three-level tree
may enter at most 47 Python functions of ``repro``, and a warm
``client.get`` at most 17 — the descent and the leaf search are the
get's, and the put shares them.  History: 48 while a page op was an
object built by a dataclass ``__init__`` and encoded by a second
writer (each op kind's builder now returns its bytes); 49 while the log kept a
``LogRecord`` object per record (built, then sized by ``encoded_size``;
``records.encode_update`` now packs the bytes the log keeps); 50 while
a put began a listed transaction and registered its key lock (``Database.begin``,
``TransactionManager.begin``, ``LockManager.acquire`` and
``release_all``, where ``Database.autocommit_write``,
``TransactionManager.begin_unlisted`` and ``LockManager.check`` stand
now); 67 and 29 while frames that only forwarded stood between the
client and the pool (``Database.fix``, ``unfix`` and ``get_root`` in
front of the pool and the catalogue, the client's ``_require_open`` /
``_require_running`` / ``Database.tree`` hops, the autocommit
context-manager object, the leaf's throwaway ``SlottedPage``, a second
``read_value`` / ``probe_value`` frame, header re-reads of a page id
the caller held, the force's ``write_cost``); 68 while the put still
built a ``LogicalUndo``; 91 while every layer still went through its
own helpers (the commit bit found by a segment lookup and forced in a
second log-mutex hold, ``mark_dirty`` beside ``unfix``, a four-call
record size, a ``Transaction.active`` property asked twice).

A ``client.get`` whose leaf is not resident — one clean miss: the
leaf read, inspected and cross-checked against the page recovery index,
a clean victim evicted, nothing written back — may enter at most 40.
History: 60 while frames that only forwarded stood between
``BufferPool.fix`` finding the page absent and the tree holding the
searched leaf (the device's ``_ensure_alive``, ``sector_of`` /
``_check_logical`` and ``_charge_read`` / ``IOProfile.read_cost``, the
recovery index's ``_for_page`` / ``partition_of_data_page``, the pool's
``_load`` and ``_drop_evicted``, ``_slot_words`` on a memo hit, the leaf's
``SlottedPage`` with ``slot_count`` twice, ``key_bisect_left`` and
``record_key``, and the tree's ``_verify`` / ``_as_node`` /
``_fence_mismatch`` with two ``view`` properties for a child that only
needed decoding).

Three more paths hold budgets of their own: a warm autocommit delete of
a live key (50 while its op was an object, 51 with a listed
transaction, 72 with the forwarding frames), and the in-process shard
worker's get and put, each one ``LocalShard.call`` (the put 51 while
its op was an object, 53 with a listed transaction; 36 and 76
while the worker also hopped through ``_require_running``,
``_slot_of``, ``_tree``, ``upsert`` and its ``durable_lsn`` property;
22 and 55 while a point verb asked ``_check_owner`` and ``slot_of`` for
its slot).  So do a warm get and
put of a ``process`` fleet's client, counted on the router's side of
the socket (the worker is another process): 12 each while the client
and the router hopped through ``_require_open`` twice, ``_routed``,
``shard_of`` / ``RoutingTable.shard_for`` / ``slot_of`` and ``_call``
to reach ``ProcessShard.call``.  The counts are
deterministic: what ``sys.setprofile`` sees, not a clock
(``benchmarks/write_path.py`` prints both and times the stages).

Three listed writes hold budgets of their own: a warm ``client.txn()``
of one put, a txn of two gets and two puts and a 32-put ``apply_batch``
of rewrites of keys spread over the tree (65, 141 and 1 174 while a
put's op was an object, its shared before-image found through a helper
of its own).

Last, a structure budget: the first 2 000 records of the bench's
sorted kv load, in its 500-put batches — about a split and an adoption
every 16 records, each one record per page it changes, whose ops the
slotted-page mutators apply — may enter at most 66 805 functions, the
count of a fresh process (a slot count the struct memo of
``repro.page.slotted`` has not seen yet costs one call more, so a
process that ran other tests counts a few less).  History: 67 053
while a page's FORMAT_PAGE record was an object built and then encoded
by ``LogRecord.encode`` and its helpers (each record kind's builder
now returns its bytes); 76 803
while every op was an object built field by field and encoded by a
second, attribute-walking writer (each op kind's builder now returns
its bytes); 77 543
while every op was an object that applied itself (``apply_redo`` per
op, a sequence's insert through ``SlottedPage.insert``; the kernels
read the bytes instead, ``repro.wal.ops.REDO``); 78 082
while the log kept record objects and sized a run's rows and undo keys
with a generator (a call per row; the bytes are now written with none);
93 357
while a structure change logged one record per op, each through
``FosterBTree._log``, ``TransactionManager.log_update``,
``LogManager.append`` and the segment directory, with its own
``LogRecord``, size and PageLSN; 147 309 while those mutators built a
``Record`` per row, read the slotted header through one property per
field and called ``_slot_words`` for their struct, and spelled a prefix
extension as ``remove_run`` + ``insert_run`` (each compacting through
``read_record`` and ``_append_to_heap`` per row), and a leaf run locked
its rows with one ``LockManager.try_acquire`` each
(``benchmarks/load_path.py`` times the load's stages).
"""

from __future__ import annotations

import repro
from benchmarks.common import python_calls
from bench.runner import LOAD_BATCH
from bench.workloads import WORKLOADS, kv_records
from repro import EngineConfig, ShardConfig

PUT_CALLS = 47
GET_CALLS = 17
COLD_GET_CALLS = 40
DELETE_CALLS = 48
WORKER_GET_CALLS = 20
WORKER_PUT_CALLS = 50
ROUTER_GET_CALLS = 6
ROUTER_PUT_CALLS = 6
TXN_PUT_CALLS = 63
TXN_2GET_2PUT_CALLS = 139
BATCH_32_CALLS = 1_142
LOAD_CALLS = 66_805

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


def test_a_clean_miss_get_stays_under_its_call_budget():
    client = repro.connect(EngineConfig(**{**_CONFIG, "buffer_capacity": 24}))
    client.apply_batch([("put", key, b"v" * 60) for key in _KEYS])
    db = client.db
    assert db.tree(client.index_id).depth() == 3
    db.flush_everything()
    db.evict_everything()
    for key in _KEYS[::100]:  # a full pool of clean frames
        client.get(key)
    client.get(_KEYS[1000])  # the root and the branch above 1040 referenced
    before = client.metrics()
    calls = python_calls(lambda: client.get(_KEYS[1040]))
    delta = _delta(client, before)
    # The leaf alone misses; its clean victim is evicted, nothing written.
    assert delta["buffer_misses"] == 1 and delta["buffer_hits"] == 2
    assert delta["pages_fetched_clean"] == delta["pages_evicted"] == 1
    assert "pages_written_back" not in delta
    assert calls <= COLD_GET_CALLS, f"a clean-miss get made {calls} calls"


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


def test_a_warm_one_put_txn_stays_under_its_call_budget():
    client, key = _resident_client()

    def txn() -> None:
        with client.txn() as handle:
            handle.put(key, b"e" * 60)

    for _ in range(3):
        txn()
    calls = python_calls(txn)
    assert client.get(key) == b"e" * 60
    assert calls <= TXN_PUT_CALLS, f"a one-put txn made {calls} calls"


def test_a_warm_two_get_two_put_txn_stays_under_its_call_budget():
    client, key = _resident_client()
    other = _KEYS[2 * len(_KEYS) // 3]

    def txn(value: bytes) -> None:
        with client.txn() as handle:
            handle.get(key)
            handle.get(other)
            handle.put(key, value)
            handle.put(other, value)

    for value in (b"a" * 60, b"b" * 60, b"c" * 60):
        txn(value)
    calls = python_calls(lambda: txn(b"d" * 60))
    assert client.get(key) == client.get(other) == b"d" * 60
    assert calls <= TXN_2GET_2PUT_CALLS, f"a 2-get 2-put txn made {calls} calls"


def test_a_warm_batch_of_32_rewrites_stays_under_its_call_budget():
    client, _key = _resident_client()
    keys = _KEYS[::62][:32]

    def batch(value: bytes) -> None:
        client.apply_batch([("put", key, value) for key in keys])

    for value in (b"a" * 60, b"b" * 60, b"c" * 60):
        batch(value)
    before = client.metrics()
    calls = python_calls(lambda: batch(b"d" * 60))
    delta = _delta(client, before)
    # 32 rewrites of live keys, one commit, no split.
    assert len(set(keys)) == 32 and "btree_splits" not in delta
    assert all(client.get(key) == b"d" * 60 for key in keys)
    assert calls <= BATCH_32_CALLS, f"a 32-put batch made {calls} calls"


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


def _resident_fleet():  # noqa: ANN202
    """A warm 2-shard process fleet and one of its keys."""
    client = repro.connect(ShardConfig(n_shards=2, transport="process",
                                       engine=EngineConfig(**_CONFIG)))
    client.apply_batch([("put", key, b"v" * 60) for key in _KEYS[:200]])
    key = _KEYS[50]
    for value in (b"a" * 60, b"b" * 60, b"c" * 60):
        client.put(key, value)
        assert client.get(key) == value
    return client, key


def test_a_fleet_clients_warm_get_stays_under_its_call_budget():
    client, key = _resident_fleet()
    try:
        calls = python_calls(lambda: client.get(key))
    finally:
        client.close()
    assert calls <= ROUTER_GET_CALLS, f"a fleet get made {calls} calls"


def test_a_fleet_clients_warm_put_stays_under_its_call_budget():
    client, key = _resident_fleet()
    try:
        calls = python_calls(lambda: client.put(key, b"d" * 60))
        assert client.get(key) == b"d" * 60
    finally:
        client.close()
    assert calls <= ROUTER_PUT_CALLS, f"a fleet put made {calls} calls"


def test_the_first_records_of_the_sorted_load_stay_under_their_call_budget():
    client = repro.connect(WORKLOADS["kv_hot_embedded"].engine_config(1))
    records = kv_records(1, 8_000)[:2_000]
    batches = [[("put", key, value) for key, value in records[i:i + LOAD_BATCH]]
               for i in range(0, len(records), LOAD_BATCH)]
    calls = python_calls(lambda: [client.apply_batch(b) for b in batches])
    tree = client.db.tree(client.index_id)
    assert list(tree.range_scan()) == records
    assert calls <= LOAD_CALLS, f"the load's first records made {calls} calls"
