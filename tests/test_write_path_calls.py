"""A put at the price of its work, counted in calls.

A warm autocommit rewrite of a live key on a resident three-level tree
may enter at most 67 Python functions of ``repro`` (68 while it still
built a ``LogicalUndo`` — its record is redo-only now; 91 while every
layer still went through its own helpers: the commit bit found by a
segment lookup and forced in a second log-mutex hold, ``mark_dirty``
beside ``unfix``, a four-call record size, a ``Transaction.active``
property asked twice), and a warm ``client.get`` at most 31 — the
descent and the leaf search are the get's, and the put shares them.
The count is deterministic: it is what ``sys.setprofile`` sees, not a
clock (``benchmarks/write_path.py`` prints both and times the stages).
"""

from __future__ import annotations

import repro
from benchmarks.common import python_calls
from repro import EngineConfig

PUT_CALLS = 67
GET_CALLS = 31


def _resident_client():  # noqa: ANN202
    client = repro.connect(EngineConfig(page_size=1024, capacity_pages=8192,
                                        buffer_capacity=4096))
    keys = [b"user%07d" % (7 * i) for i in range(2_000)]
    client.apply_batch([("put", key, b"v" * 60) for key in keys])
    assert client.db.tree(client.index_id).depth() == 3
    return client, keys[len(keys) // 3]


def test_a_warm_autocommit_put_stays_under_its_call_budget():
    client, key = _resident_client()
    for value in (b"a" * 60, b"b" * 60, b"c" * 60):  # settle any maintenance
        client.put(key, value)
    before = client.metrics()
    calls = python_calls(lambda: client.put(key, b"d" * 60))
    delta = {name: value - before.get(name, 0)
             for name, value in client.metrics().items()
             if value != before.get(name, 0)}
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
