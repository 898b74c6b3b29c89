"""Sharded multi-process deployment of the engine.

A :class:`~repro.shard.router.ShardRouter` hash-partitions the key
space (stable CRC-32, never Python's randomized ``hash()``) across N
:class:`repro.engine.database.Database` instances — each with its own
device, WAL, buffer pool, and pending-recovery registry — behind a
small length-prefixed socket protocol (:mod:`repro.shard.rpc`,
:mod:`repro.shard.worker`).

Single-shard transactions pass through untouched; cross-shard
transactions run a WAL-logged two-phase commit: a PREPARE record in
each participant's log, a coordinator decision log
(:mod:`repro.shard.twopc`), and restart analysis that re-registers
prepared branches as *in doubt* instead of rolling them back — so the
durability oracle holds across any crash point, including coordinator
loss between prepare and decision (presumed abort).

Because each shard is independently and *instantly* recoverable (the
paper's per-page recovery primitives), a crashed shard re-opens on
demand while the other shards keep serving: a shard failure degrades
one key-range slice, not the whole service.
"""

from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.shard.twopc import CoordinatorLog
from repro.shard.worker import ShardWorker

__all__ = ["ShardConfig", "ShardRouter", "ShardWorker", "CoordinatorLog"]
