"""The shard wire's traffic pinned *across commits*.

One seeded stream of client operations — autocommit gets, puts and
deletes, range scans, ``apply_batch`` calls and router transactions
(reads, writes, single-shard and two-phase commits) — drives a 2-shard
``process`` fleet.  Every byte the router writes to a worker and reads
back is tapped at the socket and decoded with the module's own
:func:`repro.shard.rpc.recv_msg`, so what is pinned is what crossed the
wire, not what the router meant to send.  Per client-op class:

* ``calls`` — request frames sent (one per ``ProcessShard`` round trip);
* ``decoded_sha256`` — the sha256 of the decoded ``(shard, request,
  reply)`` triples, per op in shard order (the replies carry each
  shard's durable LSN, so log growth is pinned too);
* ``request_bytes`` / ``reply_bytes`` — the frame bytes each way.

A change to the transport must reproduce ``calls`` and
``decoded_sha256``.  The byte totals belong to the codec: they may move
only with a change to the frame format, regenerated in the same diff
with the reason in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_wire_traffic.py --regen
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import repro
from repro import EngineConfig, ShardConfig
from repro.shard.rpc import recv_msg

GOLDEN = Path(__file__).with_name("golden_wire_traffic.json")

SEED = 36
N_OPS = 400
N_KEYS = 96
CLASSES = ("get", "put", "delete", "scan", "batch", "txn")
WEIGHTS = (40, 25, 5, 3, 12, 15)


class _Tap:
    """A worker socket that records what passes through it, one
    ``sendall`` or ``recv`` chunk at a time."""

    def __init__(self, sock, sent: list, received: list) -> None:  # noqa: ANN001
        self._sock = sock
        self.sent = sent
        self.received = received

    def sendall(self, data) -> None:  # noqa: ANN001
        self.sent.append(bytes(data))
        self._sock.sendall(data)

    def recv(self, limit: int) -> bytes:
        chunk = self._sock.recv(limit)
        self.received.append(chunk)
        return chunk

    def close(self) -> None:
        self._sock.close()


class _Replay:
    """Hands recorded bytes back one at a time, so ``recv_msg`` never
    reads past the frame it is parsing."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def recv(self, limit: int) -> bytes:  # noqa: ARG002
        chunk = self._data[self._pos:self._pos + 1]
        self._pos += len(chunk)
        return chunk


def _frames(chunks: list[bytes]) -> list:
    """Every message in a recorded byte stream, decoded."""
    replay = _Replay(b"".join(chunks))
    messages = []
    while True:
        message = recv_msg(replay)
        if message is None:
            return messages
        messages.append(message)


def _stream(rnd: random.Random):  # noqa: ANN202
    """``(class, run)`` pairs; ``run(client)`` performs the op."""
    keys = [b"wire%04d" % i for i in range(N_KEYS)]

    def value() -> bytes:
        return b"v%06d|" % rnd.randrange(10**6) + b"x" * rnd.randrange(0, 90)

    for _ in range(N_OPS):
        cls = rnd.choices(CLASSES, WEIGHTS)[0]
        if cls == "get":
            key = rnd.choice(keys)
            yield cls, lambda c, key=key: c.get(key)
        elif cls == "put":
            key, val = rnd.choice(keys), value()
            yield cls, lambda c, key=key, val=val: c.put(key, val)
        elif cls == "delete":
            key = rnd.choice(keys)
            yield cls, lambda c, key=key: c.delete(key)
        elif cls == "scan":
            low, high = sorted(rnd.sample(keys, 2))
            yield cls, lambda c, low=low, high=high: c.scan(low, high)
        elif cls == "batch":
            ops = [("put", key, value()) if rnd.random() < 0.8
                   else ("delete", key)
                   for key in rnd.sample(keys, rnd.randrange(2, 12))]
            yield cls, lambda c, ops=ops: c.apply_batch(ops)
        else:
            steps = [(rnd.random() < 0.3, key, value())
                     for key in rnd.sample(keys, rnd.randrange(1, 5))]

            def txn(c, steps=steps):  # noqa: ANN001, ANN202
                with c.txn() as t:
                    for read, key, val in steps:
                        if read:
                            t.get(key)
                        else:
                            t.put(key, val)

            yield cls, txn


def _run() -> dict:
    client = repro.connect(ShardConfig(n_shards=2, transport="process",
                                       seed=SEED, engine=EngineConfig()))
    shards = client.router.shards
    taps = []
    for shard in shards:
        tap = _Tap(shard._sock, [], [])
        shard._sock = tap
        taps.append(tap)
    digests = {cls: hashlib.sha256() for cls in CLASSES}
    totals = {cls: {"calls": 0, "request_bytes": 0, "reply_bytes": 0}
              for cls in CLASSES}
    try:
        for cls, run in _stream(random.Random(SEED)):
            for tap in taps:
                del tap.sent[:], tap.received[:]
            run(client)
            total = totals[cls]
            for idx, tap in enumerate(taps):
                requests, replies = _frames(tap.sent), _frames(tap.received)
                assert len(requests) == len(replies)
                total["calls"] += len(requests)
                total["request_bytes"] += sum(map(len, tap.sent))
                total["reply_bytes"] += sum(map(len, tap.received))
                for request, reply in zip(requests, replies):
                    digests[cls].update(
                        repr((idx, request, reply)).encode())
    finally:
        for shard, tap in zip(shards, taps):
            shard._sock = tap._sock
        client.close()
    return {cls: {**totals[cls], "decoded_sha256": digests[cls].hexdigest()}
            for cls in CLASSES}


@pytest.fixture(scope="module")
def traffic() -> dict:
    return _run()


@pytest.mark.parametrize("cls", CLASSES)
def test_calls_and_decoded_traffic_reproduce(traffic, cls):
    golden = json.loads(GOLDEN.read_text())[cls]
    assert traffic[cls]["calls"] == golden["calls"]
    assert traffic[cls]["decoded_sha256"] == golden["decoded_sha256"]


@pytest.mark.parametrize("cls", CLASSES)
def test_frame_bytes_reproduce(traffic, cls):
    golden = json.loads(GOLDEN.read_text())[cls]
    assert traffic[cls]["request_bytes"] == golden["request_bytes"]
    assert traffic[cls]["reply_bytes"] == golden["reply_bytes"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(_run(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
