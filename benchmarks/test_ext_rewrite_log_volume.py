"""Extension — a value rewrite logs the bytes it changes, once.

The paper prices the page recovery index in log volume: its upkeep
must cost no more log than "today's efficient implementations".  Every
byte an UPDATE record carries is paid again at each force, each log
scan and each single-page repair, which replays the page's chain.  A
rewrite that changes a few bytes of a wide record therefore logs the
lengths of the prefix and suffix its old and new value share and only
the two middles between them (``repro.wal.ops.value_rewrite``, the
idea of PostgreSQL's ``PREFIX_FROM_OLD`` / ``SUFFIX_FROM_OLD``); a
value that shares no edge byte with its predecessor keeps the whole-
value encoding, byte for byte.

Each row is one autocommit put of a live key through ``repro.connect``,
measured as the log bytes it appends, beside what the whole-value
encoding of the same rewrite costs:

* a DBLP-shaped record (SNIPPETS.md): its 10-byte mdate rewritten at
  the front of a 240-byte value — 84 B instead of 544;
* the key-value workloads' rewrite: a random 100-byte value over a
  random one under a 16-byte key — exactly 250 B, as before spans;
* its rollback: the compensation record restores the old middle by the
  inverse splice and is as small.
"""

from __future__ import annotations

import random

import repro
from benchmarks.common import print_table
from repro.engine.config import EngineConfig
from repro.sim.iomodel import NULL_PROFILE
from repro.wal.ops import OpUpdateValue
from repro.wal.records import LogicalUndo, LogRecord, LogRecordKind, UndoAction

DBLP_KEY = b"Graefe_Goetz_0001/2012/p000042"
DBLP_VALUE = (b"2012-06-11\x1fDefinition, detection, and recovery of single-page "
              b"failures, a fourth class of database failures.\x1fHarumi Kuno\x1f"
              b"Proc. VLDB Endow. 5(7)\x1f646-655\x1fhttps://doi.org/10.14778/"
              b"2180912.2180917")
KV_KEY = b"user000000004242"


def _whole_value_size(key: bytes, old: bytes, new: bytes) -> int:
    """What the rewrite logged before spans: both values whole."""
    return LogRecord(LogRecordKind.UPDATE, op=OpUpdateValue(3, old, new),
                     undo=LogicalUndo(UndoAction.RESTORE_VALUE, key,
                                      old)).encoded_size()


def measure() -> list[dict]:
    client = repro.connect(EngineConfig(
        page_size=4096, capacity_pages=1024, buffer_capacity=64,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE))
    log = client.db.log
    rng = random.Random("rewrite-log-volume")
    dblp_old = DBLP_VALUE.ljust(240, b" ")
    dblp_new = b"2024-01-17" + dblp_old[10:]
    kv_old, kv_new = rng.randbytes(100), rng.randbytes(100)
    client.apply_batch([("put", DBLP_KEY, dblp_old), ("put", KV_KEY, kv_old)])
    rows = []
    for name, key, old, new in (
            ("DBLP mdate, 10 of 240 B", DBLP_KEY, dblp_old, dblp_new),
            ("random 100 B value", KV_KEY, kv_old, kv_new)):
        start = log.end_lsn
        client.put(key, new)
        put = log.end_lsn - start
        start = log.end_lsn
        try:
            with client.txn() as txn:
                txn.put(key, old)
                raise LookupError  # roll back: one compensation record
        except LookupError:
            pass
        assert client.get(key) == new
        rows.append({"rewrite": name, "value_bytes": len(new),
                     "logged": put, "whole_value": _whole_value_size(key, old, new),
                     "rollback_clr": _last_clr_size(log)})
    return rows


def _last_clr_size(log) -> int:  # noqa: ANN001
    return next(r.encoded_size() for r in reversed(log.all_records())
                if r.kind == LogRecordKind.COMPENSATION)


def test_ext_rewrite_log_volume(benchmark):
    dblp, kv = benchmark.pedantic(measure, rounds=1, iterations=1)

    # A 10-byte change to a 240-byte value: the two middles, not the
    # two values.
    assert dblp["logged"] <= 84
    assert dblp["whole_value"] >= 544
    assert dblp["rollback_clr"] <= 58
    # A random rewrite shares no span worth its fields: today's bytes.
    assert kv["logged"] == kv["whole_value"] == 250

    print_table(
        "Extension: log bytes of one value rewrite (spanned vs whole value)",
        ["rewrite", "value B", "logged B", "whole-value B", "rollback CLR B"],
        [[r["rewrite"], r["value_bytes"], r["logged"], r["whole_value"],
          r["rollback_clr"]] for r in (dblp, kv)])
