"""Span recording from outside the program under test.

``Tracer.install()`` replaces public methods of the engine's classes with
timing wrappers (class-level ``setattr``, so they survive ``crash()``
rebuilding the pool and lock table) and ``uninstall()`` puts the originals
back.  Nothing under ``src/`` is edited; in-program tracing is a later
issue.  Install *before* an embedded engine is built — the buffer pool
captures ``recovery_manager.fetch_page`` as a bound method at construction —
and *after* a process fleet has forked, so workers stay untraced.

A span is six integers appended to one flat array: id, name id, start ns,
end ns, parent id (-1 = none), client-op id.  The first span of a helper
thread (``apply_batch`` dispatches one per shard) hangs under the client-op
span that was open when it ran.  Spans are kept in memory and written out
by ``dump()`` when the run ends.  A span's self time is its duration minus
the part of that interval its direct children cover — covered once, however
many children overlap there.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from collections import defaultdict

from repro.btree.tree import FosterBTree
from repro.buffer.buffer_pool import BufferPool
from repro.core.recovery_manager import RecoveryManager
from repro.engine.database import Database
from repro.shard.router import LocalShard, ProcessShard, RouterTxn, ShardRouter
from repro.storage.device import StorageDevice
from repro.txn.locks import LockManager
from repro.wal.log_manager import LogManager

#: span name -> (class, method).  The name's first component is the layer.
#: The client layer and the engine's maintenance/recovery entry points are
#: spanned by the runner itself, which makes those calls (begin/end).
TRACED = {
    "shard.router.get": (ShardRouter, "get"),
    "shard.router.put": (ShardRouter, "put"),
    "shard.router.delete": (ShardRouter, "delete"),
    "shard.router.scan": (ShardRouter, "scan"),
    "shard.router.apply_batch": (ShardRouter, "apply_batch"),
    "shard.router.checkpoint_all": (ShardRouter, "checkpoint_all"),
    "shard.router.txn_get": (RouterTxn, "get"),
    "shard.router.txn_put": (RouterTxn, "put"),
    "shard.router.txn_commit": (RouterTxn, "commit"),
    "shard.router.txn_abort": (RouterTxn, "abort"),
    "shard.transport.call": (ProcessShard, "call"),
    "shard.worker.call": (LocalShard, "call"),
    "txn.begin": (Database, "begin"),
    "txn.commit": (Database, "commit"),
    "txn.abort": (Database, "abort"),
    "txn.lock_acquire": (LockManager, "acquire"),
    "txn.lock_release": (LockManager, "release_all"),
    "btree.lookup": (FosterBTree, "lookup"),
    "btree.insert": (FosterBTree, "insert"),
    "btree.update": (FosterBTree, "update"),
    "btree.delete": (FosterBTree, "delete"),
    "btree.range_scan": (FosterBTree, "range_scan"),
    "buffer.fix": (BufferPool, "fix"),
    "buffer.flush_page": (BufferPool, "flush_page"),
    "wal.append": (LogManager, "append"),
    "wal.force": (LogManager, "force"),
    "wal.commit_force": (LogManager, "commit_force"),
    "core.fetch_page": (RecoveryManager, "fetch_page"),
    "core.handle_failure": (RecoveryManager, "handle_failure"),
    "storage.read": (StorageDevice, "read"),
    "storage.write": (StorageDevice, "write"),
}
_GENERATORS = {"btree.range_scan"}

LAYERS = ("client", "shard", "engine", "txn", "btree", "buffer", "wal",
          "core", "storage")
_FIELDS = 6


class _Stack(threading.local):
    def __init__(self) -> None:
        self.spans: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows = array("q")
        self.op_id = -1
        #: the open client-op span: parent of other threads' first spans
        self.root = -1
        self._ids = itertools.count()
        self._stack = _Stack()
        self._originals: list[tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def begin(self) -> int:
        """Open a span in this thread; pair with :meth:`end`."""
        sid = next(self._ids)
        self._stack.spans.append(sid)
        return sid

    def end(self, sid: int, name_id: int, start_ns: int, end_ns: int) -> None:
        spans = self._stack.spans
        spans.pop()
        if spans:
            parent = spans[-1]
        else:
            parent = self.root if sid != self.root else -1
        # One extend = one C call: rows stay aligned when apply_batch's
        # per-shard threads record concurrently.
        self.rows.extend((sid, name_id, start_ns, end_ns, parent, self.op_id))

    def abandon(self) -> None:
        """Drop this thread's open spans (the traced call raised)."""
        self._stack.spans.clear()
        self.root = -1

    def clear(self) -> None:
        """Forget the spans recorded so far (set-up and warm-up)."""
        del self.rows[:]

    def _wrap(self, name: str, fn):  # noqa: ANN001, ANN202
        name_id = self.name_id(name)
        begin, end, now = self.begin, self.end, time.perf_counter_ns

        def traced(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            sid = begin()
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end(sid, name_id, start, now())

        def traced_generator(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            sid = begin()
            start = now()
            try:
                yield from fn(*args, **kwargs)
            finally:
                end(sid, name_id, start, now())

        return traced_generator if name in _GENERATORS else traced

    def install(self) -> None:
        for name, (cls, attr) in TRACED.items():
            original = cls.__dict__[attr]
            self._originals.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            cls, attr, original = self._originals.pop()
            setattr(cls, attr, original)

    # -- reading -------------------------------------------------------
    def spans(self):  # noqa: ANN201 - iterator of 6-tuples
        rows = self.rows
        return (tuple(rows[i:i + _FIELDS]) for i in range(0, len(rows), _FIELDS))

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns",
                                  "parent", "op"],
                       "names": self.names,
                       "spans": self.rows.tolist()}, out)


def _covered(intervals) -> int:  # noqa: ANN001
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0, 0
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class SpanTable:
    """Per-name durations and self times of a finished trace, divided by
    the ``slowdown`` of the run that recorded it (reference speed)."""

    def __init__(self, tracer: Tracer, slowdown: float = 1.0) -> None:
        self.names = tracer.names
        intervals: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.children: dict[int, set[int]] = defaultdict(set)  # id -> child name ids
        spans = list(tracer.spans())
        for _sid, name_id, start, end, parent, _op in spans:
            if parent >= 0:
                intervals[parent].append((start, end))
                self.children[parent].add(name_id)
        #: name -> [(span id, duration ns, self ns, op id), ...]
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for sid, name_id, start, end, _parent, op in spans:
            ns = end - start
            self.by_name[self.names[name_id]].append(
                (sid, ns / slowdown,
                 (ns - _covered(intervals.get(sid, ()))) / slowdown, op))

    def matching(self, prefix: str) -> list[tuple]:
        return [row for name, rows in self.by_name.items()
                if name.startswith(prefix) for row in rows]

    def total_us(self, prefix: str) -> float:
        return sum(row[1] for row in self.matching(prefix)) / 1e3

    def self_us(self, prefix: str) -> float:
        return sum(row[2] for row in self.matching(prefix)) / 1e3

    def with_child(self, name: str, child_name: str) -> list[tuple]:
        """The ``name`` spans that have a direct ``child_name`` child."""
        if child_name not in self.names:
            return []
        child = self.names.index(child_name)
        return [row for row in self.by_name.get(name, [])
                if child in self.children.get(row[0], ())]
