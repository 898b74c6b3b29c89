"""A write whose key or value is not ``bytes`` is refused up front.

Such a write used to get as far as the log: the insert record was
appended, applying it to the leaf then raised a raw ``TypeError``, the
leaf kept a damaged slot (a later ``get`` returned ``b''``) and restart
redo hit the same ``TypeError`` on the logged record, so the database
could not reopen.  A ``None`` value was read as a delete.  The tree now
refuses both with :class:`BTreeError` before it logs or changes a page.
"""

import pytest

import repro
from repro.errors import BTreeError

BAD = [(b"abc", "v"), (b"abc", None), ("abc", b"v")]


def put(client, key, value):  # noqa: ANN001, ANN201
    client.put(key, value)


def txn_put(client, key, value):  # noqa: ANN001, ANN201
    with client.txn() as t:
        t.put(key, value)


def batch_put(client, key, value):  # noqa: ANN001, ANN201
    client.apply_batch([("put", key, value)])


@pytest.mark.parametrize("mode", ["eager", "on_demand"])
@pytest.mark.parametrize("write", [put, txn_put, batch_put])
@pytest.mark.parametrize("key,value", BAD,
                         ids=["str-value", "none-value", "str-key"])
def test_refused_write_leaves_no_trace(key, value, write, mode):
    client = repro.connect()
    db = client.db
    with pytest.raises(BTreeError):
        write(client, key, value)
    assert client.get(b"abc") is None
    assert not db.tm.active and db.locks.held_keys() == []
    assert all(db.pool.pin_count(p) == 0 for p in db.pool.resident_pages())
    client.put(b"abc", b"ok")
    db.crash()
    db.restart(mode=mode)
    assert client.get(b"abc") == b"ok"
    db.drain_pending()
    assert client.get(b"abc") == b"ok"


@pytest.mark.parametrize("write", [put, txn_put, batch_put])
def test_refused_write_through_a_fleet(write):
    client = repro.connect(repro.ShardConfig(n_shards=2, transport="inproc"))
    try:
        with pytest.raises(BTreeError):
            write(client, b"abc", "v")
        assert client.get(b"abc") is None
        client.put(b"abc", b"ok")
        for shard in client.router.shards:
            shard.worker.execute(("crash",))
        assert client.get(b"abc") == b"ok"
    finally:
        client.close()
