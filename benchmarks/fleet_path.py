"""Time a fleet call alone, hop by hop.

Loads the layered benchmark's ``kv_fleet_process`` set-up (seed 1: its
records into a 2-shard ``process`` fleet with the bench's engine
configuration, and the same records into an ``inproc`` twin), then times
one warm ``get`` of a resident key at every boundary it crosses, from
the client down to a bare socket round trip:

* ``client.get`` / ``router.get`` — the whole call, and the router's
  part of it;
* ``ProcessShard.call`` get / ping — one round trip with and without the
  engine's work;
* ``send_msg``/``recv_msg`` ping — the codec and the sockets, no
  transport bookkeeping;
* ``codec`` — ``encode`` + ``decode`` of the get request and of its
  reply, what the codec adds to one round trip; the same for a
  transaction's ``txn_put`` (a 2PC verb's frame, ``_VERB``);
* worker ``execute(get)`` — the engine's work, in the ``inproc`` twin;
* bytes-only echo — a forked child that sends back what it reads: the
  floor two processes and a socketpair set;
* ``client.apply_batch`` — 32 puts over both shards (the bench's batch),
  every shard's frame in flight before the first reply is read;
* two pings, one to each shard: fanned out (``ShardRouter.fan_out``,
  both frames in flight before the first reply is read) and one after
  the other (two ``ShardRouter._call``) — what a 2PC round to two
  participants could save by fanning out.

The rows alternate call by call, the first row rotating every round, so
drift hits every row alike; each is the median of ``--calls`` calls, in
microseconds.  The run is pinned to one core and the other cores kept
busy (``bench.run.steady_machine``), as the benchmark runs.  Last, how
many functions of ``repro`` a warm get enters on the router's side of
the socket (``tests/test_write_path_calls.py`` holds the budget).

Usage::

    python3 benchmarks/fleet_path.py [--calls N]
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import os
import socket
import statistics
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import repro  # noqa: E402
from bench.run import steady_machine  # noqa: E402
from bench.workloads import BATCH_PUTS, WORKLOADS, kv_records  # noqa: E402
from benchmarks.common import python_calls  # noqa: E402
from repro.shard.rpc import decode, encode, recv_msg, send_msg  # noqa: E402

SEED = 1
LOAD_BATCH = 500
ECHO_BYTES = 32


def _echo(sock) -> None:  # noqa: ANN001
    """The floor's far end: send back every chunk until EOF."""
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            return
        sock.sendall(chunk)


def _loaded(transport: str, records):  # noqa: ANN001, ANN202
    client = repro.connect(
        WORKLOADS["kv_fleet_process"].connect_config(SEED, transport))
    for i in range(0, len(records), LOAD_BATCH):
        client.apply_batch([("put", key, value)
                            for key, value in records[i:i + LOAD_BATCH]])
    return client


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=3000)
    calls = parser.parse_args().calls

    records = kv_records(SEED, WORKLOADS["kv_fleet_process"].records)
    with steady_machine():
        fleet = _loaded("process", records)
        twin = _loaded("inproc", records)
        near, far = socket.socketpair()
        echo = multiprocessing.get_context("fork").Process(
            target=_echo, args=(far,), daemon=True)
        echo.start()
        far.close()
        try:
            _table(fleet, twin, near, records, calls)
        finally:
            near.close()
            echo.join(timeout=5)
            fleet.close()
            twin.close()


def _table(fleet, twin, near, records, calls: int) -> None:  # noqa: ANN001
    router = fleet.router
    key, value = records[len(records) // 3]
    idx = router.shard_of(key)
    shard = router.shards[idx]
    worker = twin.router.shards[idx].worker
    request, reply = ("get", key), ("ok", value, 7)
    txn_put, txn_reply = ("txn_put", 7, key, value, True), ("ok", None, 7)
    ping = b"p" * ECHO_BYTES
    batches = itertools.cycle(
        [[("put", k, v) for k, v in records[i:i + BATCH_PUTS]]
         for i in range(0, 20 * BATCH_PUTS, BATCH_PUTS)])

    def socket_ping() -> None:
        send_msg(shard._sock, ("ping",))
        recv_msg(shard._sock)

    def codec() -> None:
        decode(encode(request))
        decode(encode(reply))

    def txn_codec() -> None:
        decode(encode(txn_put))
        decode(encode(txn_reply))

    def echo() -> None:
        near.sendall(ping)
        near.recv(ECHO_BYTES)

    rows = {
        "client.get": lambda: fleet.get(key),
        "router.get": lambda: router.get(key),
        "ProcessShard.call get": lambda: shard.call(request),
        "ProcessShard.call ping": lambda: shard.call(("ping",)),
        "send_msg/recv_msg ping": socket_ping,
        "codec: get request + reply": codec,
        "codec: txn_put request + reply": txn_codec,
        "worker execute(get)": lambda: worker.execute(request),
        "bytes-only echo": echo,
        "two pings, fanned out": lambda: router.fan_out(
            [(0, ("ping",)), (1, ("ping",))], router._call),
        "two pings, one after the other": lambda: (
            router._call(0, "ping"), router._call(1, "ping")),
    }
    assert fleet.get(key) == value and worker.execute(request) == value
    assert decode(encode(txn_put)) == txn_put
    samples = _interleaved(rows, calls)
    batch = _interleaved(
        {"client.apply_batch, 32 puts": lambda: fleet.apply_batch(
            next(batches))}, max(calls // 10, 1))
    print(f"warm get of a resident key, 2 shards, median of {calls} "
          f"interleaved calls (us)")
    for name, spent in {**samples, **batch}.items():
        print(f"  {name:<30} {statistics.median(spent) / 1e3:8.1f}")
    print(f"router-side functions of repro per get: "
          f"{python_calls(lambda: fleet.get(key))}, per put: "
          f"{python_calls(lambda: fleet.put(key, value))}")


def _interleaved(rows: dict, calls: int) -> dict[str, list[int]]:
    """``calls`` timed calls of every row, one row after the other, the
    first row rotating every round."""
    names = list(rows)
    for fn in rows.values():  # warm-up
        fn()
    spent: dict[str, list[int]] = {name: [] for name in names}
    now = time.perf_counter_ns
    for i in range(calls):
        for name in names[i % len(names):] + names[:i % len(names)]:
            fn = rows[name]
            start = now()
            fn()
            spent[name].append(now() - start)
    return spent


if __name__ == "__main__":
    main()
