"""The shard router: slot routing, transports, 2PC, and rebalancing.

The router is the single coordinator of a sharded deployment.  Keys
are partitioned with a *stable* hash (CRC-32 — never Python's
``hash()``, which is randomized per process and would scatter a key
across restarts) into a fixed number of slots; an epoch-versioned
:class:`repro.shard.routing.RoutingTable` assigns slots to shards, so
the key -> shard map is explicit and movable instead of frozen at
fleet creation.  Each shard is reached through a transport:

* :class:`LocalShard` — the worker lives in the router's process and
  commands are direct calls.  Deterministic, so the chaos harness and
  the differential suite run here; a ``partitioned`` flag models a
  network partition by refusing every command.
* :class:`ProcessShard` — the worker is a forked child serving the
  length-prefixed socket protocol.  N shards then run on N real
  cores: the multi-process path the throughput benchmark measures.

Cross-shard transactions commit with WAL-logged two-phase commit
(participant PREPARE records + the router's forced decision log).  The
router also implements *per-shard instant restart*: when a command
hits a crashed shard it re-opens just that shard on demand — restart
analysis reports the gtids the log left in doubt and the router
resolves them straight from the decision log — while every other shard
keeps serving untouched.

:meth:`ShardRouter.move_slot` rebalances online: the slot is snapshot
on the source through the verified full-backup machinery, installed on
the destination while the source keeps serving, caught up from a
committed-changes delta read off the source's log, and cut over by
forcing an epoch record into the coordinator log — the same durable
structure 2PC decisions live in, so a recovering router replays
cutovers exactly as participants replay decisions.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from collections.abc import Sequence

from repro.errors import (
    ConfigError,
    ReproError,
    ShardError,
    ShardUnavailableError,
    SystemFailure,
    TransactionAborted,
    TransactionError,
    WrongShardError,
)
from repro.shard.config import ShardConfig
from repro.shard.routing import RoutingTable, slot_of
from repro.shard.rpc import recv_msg, send_msg, unmarshal_error
from repro.shard.twopc import CoordinatorLog
from repro.shard.worker import ShardWorker, worker_main


#: verbs whose blind re-execution after a crashed reply is unsafe: the
#: first attempt may have committed before the crash ate the answer,
#: so the retry path must consult the log instead (see ``_call``)
_RISKY_VERBS = frozenset({"put", "delete", "batch", "txn_commit"})


def check_batch_op(op: tuple) -> None:
    """The one definition of a well-formed ``apply_batch`` op, for every
    backend: anything else is the caller's :class:`ConfigError`."""
    kind = op[0] if op else None
    if not (kind == "put" and len(op) >= 3
            or kind == "delete" and len(op) >= 2):
        raise ConfigError(
            f"bad batch op {op!r:.80}: expected ('put', key, value) "
            f"or ('delete', key)")


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class LocalShard:
    """In-process transport: direct calls into a :class:`ShardWorker`.

    Exposes the worker (and its engine) for the chaos harness, which
    needs to crash shards and inspect their logs mid-protocol.
    """

    def __init__(self, shard_id: int, config) -> None:  # noqa: ANN001
        self.shard_id = shard_id
        self.worker = ShardWorker(shard_id, config)
        #: network partition switch (the harness flips it)
        self.partitioned = False
        #: the shard log's durable LSN as of the last command — what a
        #: process shard's last reply carried, so the deterministic
        #: transport retries on exactly the information the real one has
        self.durable_lsn = self.worker.durable_lsn

    def call(self, command: tuple):  # noqa: ANN201
        if self.partitioned:
            raise ShardUnavailableError(self.shard_id, "network partition")
        try:
            return self.worker.execute(command)
        finally:
            self.durable_lsn = self.worker.durable_lsn

    def close(self) -> None:
        if not self.partitioned:
            try:
                self.worker.execute(("close",))
            except ReproError:
                pass  # a crashed shard has nothing to close


class ProcessShard:
    """Multi-process transport: a forked worker behind a socketpair.

    Fork (not spawn) on purpose: the child inherits the already-built
    configuration objects, and the engine itself is constructed *in the
    child*, so no device or pool state is ever shared.  One lock per
    shard serializes request/reply pairs on the connection; different
    shards proceed fully in parallel.
    """

    def __init__(self, shard_id: int, config,  # noqa: ANN001
                 earlier: Sequence[ProcessShard] = ()) -> None:
        import multiprocessing
        import socket

        self.shard_id = shard_id
        ctx = multiprocessing.get_context("fork")
        parent_sock, child_sock = socket.socketpair()
        # The fork hands the child a copy of every router-side socket
        # open at that moment: this shard's and each earlier shard's.
        # The child closes them, or no worker would ever read EOF.
        router_side = [parent_sock, *(shard._sock for shard in earlier
                                      if shard._sock is not None)]
        #: ``None`` once the connection is lost or out of step: every
        #: later call fails typed instead of misparsing the stream
        self._sock = parent_sock
        self._lock = threading.Lock()
        #: the durable LSN the last reply carried (``None`` before the
        #: first; the router's boot-time ``set_slots`` supplies one)
        self.durable_lsn: int | None = None
        self._proc = ctx.Process(
            target=worker_main,
            args=(shard_id, config, child_sock, router_side),
            daemon=True, name=f"shard-{shard_id}")
        self._proc.start()
        child_sock.close()  # the child holds its own copy

    def call(self, command: tuple):  # noqa: ANN201
        with self._lock:
            sock = self._sock
            if sock is None:
                raise ShardUnavailableError(
                    self.shard_id, "worker connection closed")
            try:
                send_msg(sock, command)
                reply = recv_msg(sock)
                if reply is None:
                    raise ConnectionError("worker process exited")
                if reply[0] == "ok":
                    _, result, self.durable_lsn = reply
                    return result
                if reply[0] != "err":
                    raise ValueError(f"malformed rpc reply {reply!r:.80}")
                _, name, message, self.durable_lsn = reply
            except BaseException as exc:
                # Anything short of a complete, well-formed reply leaves
                # the byte stream out of step (an unread body would be
                # parsed as the next header): hang up for good.
                self._sock = None
                sock.close()
                if isinstance(exc, (ConnectionError, OSError, TypeError,
                                    ValueError, LookupError)):
                    raise ShardUnavailableError(
                        self.shard_id,
                        f"worker connection lost: {exc}") from exc
                raise
        raise unmarshal_error(name, message)

    def close(self) -> None:
        try:
            self.call(("close",))
        except ReproError:
            pass
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class ShardRouter:
    """Routes keys, drives transactions, recovers and rebalances."""

    def __init__(self, config: ShardConfig | None = None,
                 coordinator: CoordinatorLog | None = None) -> None:
        self.config = (config if config is not None
                       else ShardConfig()).validate()
        self.coordinator = coordinator if coordinator is not None \
            else CoordinatorLog()
        self.shards: list = []
        for i in range(self.config.n_shards):
            engine_config = self.config.shard_engine_config(i)
            self.shards.append(
                LocalShard(i, engine_config)
                if self.config.transport == "inproc"
                else ProcessShard(i, engine_config, earlier=self.shards))
        #: the slot -> shard assignment; rebuilt from the coordinator
        #: log's durable epoch records, so a router handed the log of a
        #: crashed predecessor adopts its cutover history instead of
        #: the fleet-creation map
        self.routing = RoutingTable(self.config.n_slots,
                                    self.config.n_shards)
        self.routing.apply_epochs(self.coordinator.durable_epochs())
        #: undeliverable phase-two / cleanup messages, queued per shard
        #: until it is reachable again (command tuples, in order)
        self._pending: dict[int, deque[tuple]] = {
            i: deque() for i in range(self.config.n_shards)}
        #: open router transactions by xid — ``move_slot`` force-aborts
        #: the ones whose branches touched the moving slot
        self._txns: dict[int, RouterTxn] = {}
        self._next_xid = itertools.count(1)
        self._closed = False
        self.reopens = 0
        #: 2PC failpoint hook: ``hook(stage, shard_id)`` is called at
        #: ``"after_prepare"``/``"after_commit"`` (per participant) and
        #: ``"after_decision"`` (shard_id ``None``).  The chaos harness
        #: raises from it to crash the protocol mid-flight.
        self.commit_hook = None
        for idx in range(self.config.n_shards):
            self._install_ownership(idx)

    # -- partitioning --------------------------------------------------
    def shard_of(self, key: bytes) -> int:
        return self.routing.shard_for(key)

    def slot_of(self, key: bytes) -> int:
        return slot_of(key, self.config.n_slots)

    # -- plumbing ------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ShardError("router is closed")

    def _install_ownership(self, idx: int) -> None:
        """Push shard ``idx``'s slot assignment from the routing table
        (boot, post-restart, and the redirect-retry resync path)."""
        self.shards[idx].call(
            ("set_slots", self.config.n_slots, self.routing.slots_of(idx)))

    def _call(self, idx: int, *command):  # noqa: ANN201
        """One command to shard ``idx``, with on-demand reopen: a
        crashed shard is restarted (and its in-doubt branches resolved
        from the decision log) transparently, then the command retried
        once.  A partitioned shard raises without retry.

        State-changing verbs get an *outcome-aware* retry.  Every reply
        carries the shard log's durable LSN and the transport keeps the
        last one; it is copied *before* the command is sent.  That is
        the shard's durable LSN at the moment the command arrives: the
        worker is passive, so nothing reaches its log between its last
        reply and this request (a queued message flushed just above
        has replied too), and every earlier commit was forced below
        the mark.  If the command dies in a system failure the
        post-restart log is consulted — a user transaction's commit
        past the mark (``LogRecord.commits_user_txn``: the bit on its
        last write, or a COMMIT record)
        means the first attempt succeeded and only its reply was lost,
        so the answer is reconstructed from the log instead of
        re-executing (a blind retry would double-apply the command, or
        report a hard failure for work that is in fact durable).
        """
        self._require_open()
        if self._pending[idx]:
            self._flush_pending(idx)
        shard = self.shards[idx]
        watermark = (shard.durable_lsn if command[0] in _RISKY_VERBS
                     else None)
        try:
            return shard.call(command)
        except SystemFailure:
            indoubt = shard.call(("restart", None))
            # Probe *between* analysis and in-doubt resolution: the
            # resolution path writes fresh commit records that would
            # otherwise be indistinguishable from the lost reply's.
            outcome = (shard.call(("outcome_since", watermark))
                       if watermark is not None else None)
            self._finish_reopen(idx, indoubt)
            if outcome is not None:
                return self._synthesize(command, outcome)
            return shard.call(command)

    @staticmethod
    def _synthesize(command: tuple, outcome: tuple[int, int]):  # noqa: ANN205
        """The reply the crash ate, reconstructed from the log."""
        commit_lsn, n_updates = outcome
        verb = command[0]
        if verb == "txn_commit":
            return commit_lsn
        if verb == "put":
            return None
        if verb == "delete":
            # The autocommit delete wrote an update record iff the key
            # existed — exactly the boolean the lost reply carried.
            return n_updates > 0
        return len(command[1])  # batch

    def _reopen(self, idx: int) -> list[int]:
        """Instant restart of one shard while the others keep serving.

        Restart analysis reports the gtids still in doubt; each is
        resolved immediately from the coordinator's durable decisions
        (absent decision = presumed abort).  Anything queued for the
        shard is superseded by this resolution and dropped.
        """
        indoubt = self.shards[idx].call(("restart", None))
        self._finish_reopen(idx, indoubt)
        return list(indoubt)

    def _finish_reopen(self, idx: int, indoubt) -> None:  # noqa: ANN001
        shard = self.shards[idx]
        self._pending[idx].clear()
        for gtid in indoubt:
            verdict = self.coordinator.decision_of(gtid)
            shard.call(("resolve", gtid, verdict == "commit"))
        # The crash wiped the volatile slot assignment (and any queued
        # grant/drop); reinstall from the routing table — the table is
        # rebuilt from durable epoch records, so a slot dropped before
        # the crash stays dropped.
        self._install_ownership(idx)
        self.reopens += 1

    def _flush_pending(self, idx: int) -> None:
        """Deliver queued messages once ``idx`` is back."""
        queue = self._pending[idx]
        while queue:
            try:
                self.shards[idx].call(queue[0])
            except ShardUnavailableError:
                return  # still partitioned; keep the queue
            except SystemFailure:
                self._reopen(idx)  # reopen resolves and clears the queue
                return
            except ReproError:
                pass  # superseded (e.g. the branch died with a crash)
            queue.popleft()

    def _fire_hook(self, stage: str, shard_id: int | None) -> None:
        if self.commit_hook is not None:
            self.commit_hook(stage, shard_id)

    # -- autocommit operations -----------------------------------------
    def _routed(self, key: bytes, *command):  # noqa: ANN201
        """Key-addressed command with one cutover-race redirect: if the
        owner refuses because its slot view is stale relative to the
        routing table, resync it and retry at the table's owner."""
        idx = self.shard_of(key)
        try:
            return self._call(idx, *command)
        except WrongShardError:
            self._install_ownership(idx)
            return self._call(self.shard_of(key), *command)

    def get(self, key: bytes) -> bytes | None:
        return self._routed(key, "get", key)

    def put(self, key: bytes, value: bytes) -> None:
        self._routed(key, "put", key, value)

    def delete(self, key: bytes) -> bool:
        return self._routed(key, "delete", key)

    def scan(self, low: bytes = b"",
             high: bytes | None = None) -> list[tuple[bytes, bytes]]:
        """Global key order across all shards (k-way merge of the
        per-shard sorted scans; each shard filters to slots it owns,
        so a moved slot's not-yet-dropped leftovers appear once)."""
        per_shard = [self._call(i, "scan", low, high)
                     for i in range(self.config.n_shards)]
        return list(heapq.merge(*per_shard))

    def apply_batch(self, idx: int, ops: list[tuple]) -> int:
        """One shard-local bulk transaction (the benchmark path)."""
        return self._call(idx, "batch", ops)

    def partition_batches(self, ops: list[tuple]) -> dict[int, list[tuple]]:
        """Split ``[("put", k, v) | ("delete", k), ...]`` by shard; a
        bad op fails the whole batch here, before any shard hears of
        it."""
        batches: dict[int, list[tuple]] = {}
        for op in ops:
            check_batch_op(op)
            batches.setdefault(self.shard_of(op[1]), []).append(op)
        return batches

    # -- transactions --------------------------------------------------
    def txn(self) -> "RouterTxn":
        self._require_open()
        txn = RouterTxn(self, next(self._next_xid))
        self._txns[txn.xid] = txn
        return txn

    # -- online rebalancing --------------------------------------------
    def move_slot(self, slot: int, dst: int,
                  copy_hook=None) -> int:  # noqa: ANN001
        """Move one hash slot to shard ``dst`` while the fleet serves.

        The protocol, in commit-point order:

        1. resolve the source's in-doubt branches from the decision
           log (a prepared branch's locks cannot be broken, and the
           export refuses non-quiescent slots);
        2. force-abort open router transactions that wrote the slot
           (their branches would straddle the cutover);
        3. snapshot the slot on the source via the verified
           full-backup path (``export_slot`` — the source keeps
           serving throughout) and install it on the destination
           (``import_slot``);
        4. run ``copy_hook`` if given — the test/benchmark window for
           concurrent traffic against the still-serving source;
        5. catch up from the delta of *committed* changes since the
           snapshot LSN, read off the source's log (``slot_delta``);
        6. force the epoch record into the coordinator log — **the
           cutover's commit point** — then flip the routing table;
        7. grant the slot on the destination and drop it (ownership +
           leftover keys) on the source; either side being unreachable
           queues the message for redelivery after heal.

        Returns the new routing epoch.
        """
        self._require_open()
        if not 0 <= slot < self.routing.n_slots:
            raise ConfigError(
                f"slot {slot} out of range 0..{self.routing.n_slots - 1}")
        if not 0 <= dst < self.config.n_shards:
            raise ConfigError(
                f"shard {dst} out of range 0..{self.config.n_shards - 1}")
        src = self.routing.owner_of(slot)
        if src == dst:
            return self.routing.epoch

        for gtid in self._call(src, "indoubt"):
            verdict = self.coordinator.decision_of(gtid)
            self._call(src, "resolve", gtid, verdict == "commit")
        for txn in list(self._txns.values()):
            if slot in txn._touched_slots:
                txn._force_abort(
                    f"slot {slot} is moving from shard {src} to {dst}")

        snapshot_lsn, items = self._call(src, "export_slot", slot)
        self._call(dst, "import_slot", slot, items, True)
        if copy_hook is not None:
            copy_hook()
        delta = self._call(src, "slot_delta", slot, snapshot_lsn)
        if delta:
            self._call(dst, "import_slot", slot, delta, False)

        self.coordinator.log_epoch(self.routing.epoch + 1, slot, src, dst)
        self.routing.move(slot, dst)

        try:
            self._call(dst, "grant_slot", slot)
        except ShardUnavailableError:
            self._pending[dst].append(("grant_slot", slot))
        try:
            self._call(src, "drop_slot", slot)
        except ShardUnavailableError:
            self._pending[src].append(("drop_slot", slot))
        return self.routing.epoch

    # -- maintenance ---------------------------------------------------
    def checkpoint_all(self) -> list[int]:
        return [self._call(i, "checkpoint")
                for i in range(self.config.n_shards)]

    def stats(self) -> dict[int, dict]:
        return {i: self._call(i, "stats")
                for i in range(self.config.n_shards)}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()


class RouterTxn:
    """One router-level transaction, possibly spanning shards.

    A shard's branch opens with the transaction's first *write* there
    — the write itself carries the open, so enlisting costs no message
    — and reads do not enlist (the read-only participant optimization:
    a branch with nothing to undo or redo has no business in phase
    one).  Commit is a local passthrough for 0/1 participants and
    WAL-logged 2PC for more.
    """

    def __init__(self, router: ShardRouter, xid: int) -> None:
        self.router = router
        self.xid = xid
        self.branches: set[int] = set()
        #: slots this transaction wrote — ``move_slot`` force-aborts
        #: the transactions whose writes straddle a cutover
        self._touched_slots: set[int] = set()
        self._done = False
        self._forced: str | None = None

    # -- operations ----------------------------------------------------
    def _require_active(self) -> None:
        if self._forced is not None:
            raise TransactionAborted(self.xid, self._forced)
        if self._done:
            raise TransactionError(
                f"transaction {self.xid} is already finished")

    def _finish(self) -> None:
        self._done = True
        self.router._txns.pop(self.xid, None)

    def _write(self, verb: str, key: bytes, *operands):  # noqa: ANN202
        """One write in this transaction's branch on ``key``'s shard.
        The first carries ``begin`` and the worker opens the branch in
        the same handler; the shard is enlisted once that write
        succeeded (the worker rolls a failed opening write's branch
        back itself, and a request a partition refused never arrived).
        """
        self._require_active()
        router = self.router
        slot = router.slot_of(key)
        idx = router.routing.owner_of(slot)
        result = router._call(idx, verb, self.xid, key, *operands,
                              idx not in self.branches)
        self.branches.add(idx)
        self._touched_slots.add(slot)
        return result

    def get(self, key: bytes) -> bytes | None:
        self._require_active()
        idx = self.router.shard_of(key)
        if idx in self.branches:
            return self.router._call(idx, "txn_get", self.xid, key)
        return self.router._call(idx, "get", key)

    def put(self, key: bytes, value: bytes) -> None:
        self._write("txn_put", key, value)

    def delete(self, key: bytes) -> bool:
        return self._write("txn_delete", key)

    # -- finish --------------------------------------------------------
    def commit(self) -> None:
        self._require_active()
        participants = sorted(self.branches)
        if not participants:
            self._finish()
            return
        if len(participants) == 1:
            # Single-shard passthrough: the branch's own commit (made
            # durable by its force) is the commit point; no coordinator
            # state at all.
            idx = participants[0]
            try:
                self.router._call(idx, "txn_commit", self.xid)
            except ShardUnavailableError:
                # The branch is stranded behind a partition, still
                # holding its locks.  Queue its abort so the heal
                # releases them (presumed abort: the commit record was
                # never forced); without this the locks leak forever.
                self.router._pending[idx].append(("txn_abort", self.xid))
                raise
            finally:
                # Finish in *all* outcomes — an abort after a failed
                # commit must be an idempotent no-op, not mask the
                # commit's error with "already finished".
                self._finish()
            return
        try:
            self._commit_two_phase(participants)
        finally:
            self._finish()

    def _commit_two_phase(self, participants: list[int]) -> None:
        router = self.router
        gtid = router.coordinator.allocate_gtid()

        # Phase one: force a PREPARE record on every participant.  Any
        # refusal (or unreachable shard) before the decision is logged
        # aborts the whole transaction — presumed abort.
        prepared: list[int] = []
        for idx in participants:
            try:
                router._call(idx, "prepare", self.xid, gtid)
            except ReproError as exc:
                self._abort_after_failed_prepare(gtid, prepared,
                                                 participants)
                raise TransactionAborted(
                    self.xid,
                    f"prepare failed on shard {idx}: {exc}") from exc
            prepared.append(idx)
            router._fire_hook("after_prepare", idx)

        # The commit point: the decision is forced to the coordinator
        # log.  From here the transaction *will* commit everywhere,
        # however many crashes intervene.
        router.coordinator.log_decision(gtid, "commit", participants)
        router._fire_hook("after_decision", None)

        # Phase two: deliver the decision.  An unreachable participant
        # gets its resolution queued; a crashed one is reopened by
        # _call, which resolves it from the decision log before the
        # explicit resolve arrives (making it a no-op).
        for idx in participants:
            try:
                router._call(idx, "resolve", gtid, True)
            except ShardUnavailableError:
                router._pending[idx].append(("resolve", gtid, True))
            router._fire_hook("after_commit", idx)

    def _abort_after_failed_prepare(self, gtid: int, prepared: list[int],
                                    participants: list[int]) -> None:
        router = self.router
        router.coordinator.log_decision(gtid, "abort", participants)
        for idx in prepared:
            try:
                router._call(idx, "resolve", gtid, False)
            except ShardUnavailableError:
                router._pending[idx].append(("resolve", gtid, False))
        for idx in participants:
            if idx in prepared:
                continue
            try:
                router._call(idx, "txn_abort", self.xid)
            except ShardUnavailableError:
                # The un-prepared branch is stranded behind a partition
                # with its locks; queue the abort for the heal.
                router._pending[idx].append(("txn_abort", self.xid))
            except ReproError:
                pass  # branch died with its shard; analysis undoes it

    def abort(self) -> None:
        if self._done:
            return  # idempotent, like the single-node facade's handle
        self._finish()
        self._abort_branches()

    def _force_abort(self, reason: str) -> None:
        """Abort on the router's initiative (a slot this transaction
        wrote is being moved); later use of the handle raises a typed
        :class:`TransactionAborted` carrying ``reason``."""
        if self._done:
            return
        self._forced = reason
        self._finish()
        self._abort_branches()

    def _abort_branches(self) -> None:
        router = self.router
        for idx in sorted(self.branches):
            try:
                router._call(idx, "txn_abort", self.xid)
            except ShardUnavailableError:
                # Partitioned, not dead: the branch survives behind
                # the partition holding its locks — queue the abort so
                # the heal releases them instead of leaking forever.
                router._pending[idx].append(("txn_abort", self.xid))
            except ReproError:
                pass  # a crashed shard's analysis already undid it
