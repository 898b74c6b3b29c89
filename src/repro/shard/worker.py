"""One shard: an engine instance behind the command protocol.

A :class:`ShardWorker` owns a complete :class:`repro.engine.database.
Database` — its own device, WAL, buffer pool, and pending-recovery
registry — plus one default key-value index, and executes the
router's command tuples against it.  The same worker object serves two
transports: in-process (the router calls :meth:`execute` directly —
deterministic, used by the chaos harness and the differential suite)
and multi-process (:func:`worker_main` runs :func:`serve` over a
socket in a forked child, so N shards execute on N real cores).

Transactional state lives here, keyed by router-chosen ids: ``_live``
maps an ``xid`` to its open branch, ``_prepared`` maps a ``gtid`` to a
branch that has forced its PREPARE record and now holds its locks in
doubt.  A ``crash`` command wipes both (volatile state), exactly like
the single-node engine's crash; ``restart`` reruns analysis and
reports which gtids the log says are still in doubt.

Slot ownership: once the router installs an assignment (``set_slots``)
the worker enforces it — a key-addressed command for a slot this shard
does not own is refused with a typed :class:`repro.errors.
WrongShardError` (the redirect signal for commands racing a cutover),
and ``scan`` silently filters unowned keys so a moved-away slot's
not-yet-dropped leftovers are never served twice.  A worker that never
received an assignment owns everything (the embedded/standalone case).
"""

from __future__ import annotations

from repro.btree.tree import FosterBTree
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (
    KeyNotFound,
    ReproError,
    ShardError,
    TransactionError,
    WrongShardError,
)
from repro.shard.routing import slot_of
from repro.shard.rpc import marshal_error, recv_msg, send_msg
from repro.wal.records import LogRecordKind


def _check_batch_op(op: tuple) -> None:
    """A batch op the worker can apply: a put or a delete (the router
    has checked its shape, :func:`repro.shard.router.check_batch_op`)."""
    if op[0] not in ("put", "delete"):
        raise ShardError(f"unknown batch op {op[0]!r}")


class ShardWorker:
    """Executes shard command tuples against one engine instance."""

    def __init__(self, shard_id: int, config: EngineConfig) -> None:
        self.shard_id = shard_id
        self.db = Database(config)
        self.index_id = self.db.create_index().index_id
        self._live: dict[int, object] = {}       # xid -> Transaction
        self._prepared: dict[int, object] = {}   # gtid -> Transaction
        self.ops_served = 0
        #: slots this shard serves; ``None`` = no assignment installed,
        #: every key accepted (standalone workers, pre-routing tests)
        self._owned: set[int] | None = None
        self._n_slots = 0
        #: verb -> bound handler, built once (every ``_cmd_*`` method)
        self._handlers = {
            name[len("_cmd_"):]: getattr(self, name)
            for name in dir(type(self)) if name.startswith("_cmd_")}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, command: tuple):  # noqa: ANN201
        """Run one ``(verb, *operands)`` tuple; exceptions propagate."""
        handler = self._handlers.get(command[0])
        if handler is None:
            raise ShardError(f"unknown shard command {command[0]!r}")
        self.ops_served += 1
        return handler(*command[1:])

    @property
    def _tree(self):  # noqa: ANN202 - FosterBTree
        # Re-fetched every time: a restart rebuilds the catalog, and a
        # cached handle would point at dead buffer-pool state.
        return self.db.catalog.trees[self.index_id]

    def _branch(self, xid: int):  # noqa: ANN202 - Transaction
        txn = self._live.get(xid)
        if txn is None:
            raise TransactionError(
                f"shard {self.shard_id} has no open branch for xid {xid}")
        return txn

    def _slot_of(self, key: bytes) -> int:
        return slot_of(key, self._n_slots)

    def _check_owner(self, key: bytes) -> None:
        if self._owned is None:
            return
        slot = slot_of(key, self._n_slots)
        if slot not in self._owned:
            raise WrongShardError(
                f"shard {self.shard_id} does not own slot {slot} "
                f"(key {key!r})", shard=self.shard_id, slot=slot)

    # ------------------------------------------------------------------
    # Autocommit operations
    # ------------------------------------------------------------------
    def _cmd_ping(self) -> str:
        return "pong"

    # The point verbs test the failed states in place, hit the tree
    # registry themselves and spell Database.run_autocommit out in
    # place, as the embedded client does.  Crashed-state
    # check first: a crashed shard must escalate to a system failure (the
    # router's reopen signal), not refuse on ownership grounds.
    def _cmd_get(self, key: bytes) -> bytes | None:
        db = self.db
        if db._crashed or db._media_failed:
            db._require_running()
        self._check_owner(key)
        tree = db.catalog.trees[self.index_id]
        try:
            return tree.lookup(key)
        except KeyNotFound:
            return None

    def _cmd_put(self, key: bytes, value: bytes) -> None:
        db = self.db
        if db._crashed or db._media_failed:
            db._require_running()
        self._check_owner(key)
        txn = db.begin()
        txn.redo_only = True
        try:
            db.locks.acquire(txn.txn_id, key)
            # FosterBTree.upsert, without its hop to insert()
            db.catalog.trees[self.index_id].insert(txn, key, value,
                                                   replace=True)
        except BaseException:
            db.end_autocommit(txn, failed=True)
            raise
        db.end_autocommit(txn)

    def _cmd_delete(self, key: bytes) -> bool:
        db = self.db
        if db._crashed or db._media_failed:
            db._require_running()
        self._check_owner(key)
        txn = db.begin()
        txn.redo_only = True
        try:
            db.locks.acquire(txn.txn_id, key)
            # FosterBTree.remove, without its hop to delete()
            removed = db.catalog.trees[self.index_id].delete(
                txn, key, missing_ok=True)
        except BaseException:
            db.end_autocommit(txn, failed=True)
            raise
        db.end_autocommit(txn)
        return removed

    def _cmd_batch(self, ops: list[tuple]) -> int:
        """Apply ``[("put", k, v) | ("delete", k), ...]`` in one local
        transaction (the bulk path the benchmarks drive)."""
        db = self.db
        db._require_running()
        for op in ops:
            self._check_owner(op[1])
        db.run_autocommit(self._tree.apply_batch, ops, _check_batch_op)
        return len(ops)

    def _cmd_scan(self, low: bytes = b"",
                  high: bytes | None = None) -> list[tuple[bytes, bytes]]:
        self.db._require_running()
        pairs = self._tree.range_scan(low, high)
        if self._owned is None:
            return list(pairs)
        # Unowned keys (a moved-away slot's not-yet-dropped leftovers)
        # must never be served: the slot's new owner serves them.
        return [(key, value) for key, value in pairs
                if self._slot_of(key) in self._owned]

    def _abort_quietly(self, xid: int) -> None:
        txn = self._live.pop(xid, None)
        if txn is not None:
            self.db.abort_quietly(txn)

    # ------------------------------------------------------------------
    # Transactional branches
    # ------------------------------------------------------------------
    def _branch_write(self, xid: int, key: bytes, begin: bool,
                      write, *operands):  # noqa: ANN001, ANN202
        """One write (``write`` is the tree method) in a router
        transaction's branch.  The transaction's *first* write to this
        shard carries ``begin`` and opens the branch in the same
        message; later writes must find it — re-opening silently after
        a crash wiped ``_live`` would commit the transaction without
        its earlier writes.  A branch exists only once a write
        succeeded: a failed opening write rolls itself back."""
        self._check_owner(key)
        if not begin:
            txn = self._branch(xid)
        elif xid in self._live:
            raise TransactionError(
                f"shard {self.shard_id} already has a branch for xid {xid}")
        else:
            txn = self._live[xid] = self.db.begin()
        try:
            self.db.locks.acquire(txn.txn_id, key)
            return write(self._tree, txn, key, *operands)
        except BaseException:
            if begin:
                self._abort_quietly(xid)
            raise

    def _cmd_txn_get(self, xid: int, key: bytes) -> bytes | None:
        self._check_owner(key)
        self._branch(xid)  # branch must exist; reads see live tree state
        try:
            return self._tree.lookup(key)
        except KeyNotFound:
            return None

    def _cmd_txn_put(self, xid: int, key: bytes, value: bytes,
                     begin: bool = False) -> None:
        self._branch_write(xid, key, begin, FosterBTree.upsert, value)

    def _cmd_txn_delete(self, xid: int, key: bytes,
                        begin: bool = False) -> bool:
        return self._branch_write(xid, key, begin, FosterBTree.remove)

    def _cmd_txn_commit(self, xid: int) -> int:
        txn = self._branch(xid)
        lsn = self.db.commit(txn)
        del self._live[xid]
        return lsn

    def _cmd_txn_abort(self, xid: int) -> None:
        txn = self._branch(xid)
        self.db.abort(txn)
        del self._live[xid]

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------
    def _cmd_prepare(self, xid: int, gtid: int) -> int:
        """Phase one: force a PREPARE record; the branch moves from the
        live table to the prepared table, still holding its locks."""
        txn = self._branch(xid)
        lsn = self.db.prepare(txn, gtid)
        del self._live[xid]
        self._prepared[gtid] = txn
        return lsn

    def _cmd_resolve(self, gtid: int, commit: bool) -> int | None:
        """Phase two: deliver the coordinator's decision.

        Handles both a still-live prepared branch and one recovered as
        in-doubt after a crash; re-delivery to an already-resolved gtid
        is a no-op (the retry path after a lost ack).
        """
        txn = self._prepared.pop(gtid, None)
        if txn is not None:
            if commit:
                return self.db.commit_prepared(txn)
            self.db.abort_prepared(txn)
            return None
        if gtid in self.db.indoubt:
            return self.db.resolve_indoubt(gtid, commit)
        return None

    def _cmd_indoubt(self) -> list[int]:
        gtids = set(self._prepared) | set(self.db.indoubt)
        return sorted(gtids)

    # ------------------------------------------------------------------
    # Slot ownership & online rebalancing
    # ------------------------------------------------------------------
    def _cmd_set_slots(self, n_slots: int, slots) -> None:  # noqa: ANN001
        """Install (or refresh) this shard's slot assignment."""
        self._n_slots = n_slots
        self._owned = set(slots)

    def _cmd_owned_slots(self) -> list[int] | None:
        return None if self._owned is None else sorted(self._owned)

    def _cmd_grant_slot(self, slot: int) -> None:
        if self._owned is not None:
            self._owned.add(slot)

    def _cmd_drop_slot(self, slot: int) -> int:
        """Revoke ownership of ``slot`` and physically delete its
        leftover keys (the new owner serves them now); returns the
        number of keys deleted."""
        if self._owned is not None:
            self._owned.discard(slot)
        if self._n_slots == 0:
            return 0
        self.db._require_running()
        victims = [key for key, _ in self._tree.range_scan(b"", None)
                   if self._slot_of(key) == slot]
        if not victims:
            return 0
        self.db.run_autocommit(self._write_slot, victims, ())
        return len(victims)

    def _cmd_export_slot(self, slot: int) -> tuple[int, list]:
        """Verified snapshot of one slot via the full-backup machinery.

        The backup path checkpoints first and verifies every image
        (in-page checks + PRI LSN cross-check, bad images repaired
        through the pool's per-page chain replay), so the snapshot can
        never carry silent damage.  Live branches still holding locks
        inside the slot are aborted first (the slot must be quiescent
        so every extracted value is committed); a *prepared*/in-doubt
        branch cannot be aborted unilaterally, so its lock surfaces as
        a typed error — the router resolves in-doubt branches from the
        decision log before exporting.  Returns ``(snapshot_lsn,
        [(key, value), ...])``.
        """
        if self._n_slots == 0:
            raise ShardError(
                f"shard {self.shard_id} has no slot assignment; "
                f"set_slots must precede export_slot")
        self.db._require_running()
        for xid, txn in list(self._live.items()):
            held = self.db.locks.locks_held(txn.txn_id)
            if any(self._slot_of(key) == slot for key in held):
                self._abort_quietly(xid)
        backup_id = self.db.take_full_backup()
        snapshot_lsn = self.db.log.backup_full_lsn(backup_id)
        items = self._backup_slot(backup_id, slot)
        for key, _value in items:
            if self.db.locks.holder_of(key) is not None:
                raise ShardError(
                    f"slot {slot} is not quiescent: {key!r} is "
                    f"locked by an unresolved branch")
        items.sort()
        return snapshot_lsn, items

    def _backup_slot(self, backup_id: int, slot: int) -> list:
        """The live ``(key, value)`` records of ``slot`` in the leaf
        images of full backup ``backup_id``, in page order."""
        from repro.btree.node import BTreeNode
        from repro.page.page import Page, PageType

        images = self.db.backup_store.restore_full_backup(backup_id)
        items: list[tuple[bytes, bytes]] = []
        for page_id in sorted(images):
            try:
                page = Page(self.db.config.page_size, images[page_id])
                if page.page_type != PageType.BTREE_LEAF:
                    continue
                node = BTreeNode(page)
            except (ReproError, ValueError):
                continue  # not a parseable B-tree leaf: nothing to export
            for i in range(node.nrecs):
                if node.is_ghost(i):
                    continue
                key = node.full_key(i)
                if self._slot_of(key) == slot:
                    items.append((key, node.value(i)))
        return items

    def _cmd_slot_delta(self, slot: int, since_lsn: int) -> list:
        """Committed changes to the slot's keys since the snapshot
        :meth:`_cmd_export_slot` took at ``since_lsn``.

        An autocommit write logs a redo-only record, which names its
        slot on a page but not its key, so the delta is not read off
        the log: it is the difference between the slot's live records
        and the snapshot, read again from the export's full backup.  A
        changed key whose lock is free is committed state; a locked one
        means the slot is not quiescent and the export protocol was
        violated.  Returns ``[(key, value | None), ...]`` sorted by key
        (``None`` = gone since the snapshot).
        """
        if self._n_slots == 0:
            raise ShardError(
                f"shard {self.shard_id} has no slot assignment; "
                f"set_slots must precede slot_delta")
        self.db._require_running()
        log = self.db.log
        backup_id = next(
            (backup_id for backup_id in self.db.backup_store.full_backup_ids()
             if log.backup_full_lsn(backup_id) == since_lsn), None)
        if backup_id is None:
            raise ShardError(
                f"no snapshot of shard {self.shard_id} at LSN {since_lsn} "
                f"is retained; export slot {slot} again")
        before = dict(self._backup_slot(backup_id, slot))
        live = {key: value for key, value in self._tree.range_scan()
                if self._slot_of(key) == slot}
        delta: list[tuple[bytes, bytes | None]] = []
        for key in sorted(before.keys() | live.keys()):
            value = live.get(key)
            if value == before.get(key):
                continue
            if self.db.locks.holder_of(key) is not None:
                raise ShardError(
                    f"slot {slot} is not quiescent: {key!r} is locked")
            delta.append((key, value))
        return delta

    def _cmd_import_slot(self, slot: int, items, clear: bool = True) -> int:  # noqa: ANN001
        """Install a slot snapshot (``clear=True``: stale residents of
        the slot are deleted first, making re-imports idempotent) or
        apply a catch-up delta (``clear=False``) in one local
        transaction.  ``items`` is ``[(key, value | None), ...]``."""
        db = self.db
        db._require_running()
        stale = []
        if clear and self._n_slots:
            incoming = {key for key, _ in items}
            stale = [key for key, _ in self._tree.range_scan(b"", None)
                     if self._slot_of(key) == slot and key not in incoming]
        db.run_autocommit(self._write_slot, stale, items)
        return len(items)

    def _write_slot(self, txn, stale: list[bytes], items) -> None:  # noqa: ANN001
        """In ``txn``: delete the ``stale`` keys, then apply ``items``
        (``[(key, value | None), ...]``), each write under its key
        lock — the one body of a slot's drop and its import."""
        acquire, tree = self.db.locks.acquire, self._tree
        for key in stale:
            acquire(txn.txn_id, key)
            tree.delete(txn, key)
        for key, value in items:
            acquire(txn.txn_id, key)
            if value is None:
                tree.remove(txn, key)
            else:
                tree.upsert(txn, key, value)

    # ------------------------------------------------------------------
    # Recovery probes (the router's outcome-aware retry path)
    # ------------------------------------------------------------------
    def _cmd_outcome_since(self, lsn: int) -> tuple[int, int] | None:
        """Did a user transaction commit at or after ``lsn``?

        Returns ``(commit_lsn, n_updates)`` for the first such commit
        (the command whose reply the crash ate — the router sends at
        most one state-changing command after the mark it passes), or
        ``None``: nothing committed, the retry is safe.
        """
        self.db._require_running()
        records = self.db.log.records_from(lsn)
        commit = next((r for r in records if r.commits_user_txn), None)
        if commit is None:
            return None
        updates = sum(1 for r in records
                      if r.txn_id == commit.txn_id
                      and r.kind == LogRecordKind.UPDATE)
        return commit.lsn, updates

    def _cmd_locks(self) -> list[bytes]:
        """Every key currently locked on this shard (the chaos oracle
        asserting partitions never leak locks past their heal)."""
        return self.db.locks.held_keys()

    # ------------------------------------------------------------------
    # Failures, recovery, maintenance
    # ------------------------------------------------------------------
    def _cmd_crash(self) -> None:
        self.db.crash()
        self._live.clear()
        self._prepared.clear()

    def _cmd_restart(self, mode: str | None = None) -> list[int]:
        """Recover the shard; returns the gtids the log left in doubt
        (the router resolves them from the coordinator's decisions)."""
        report = self.db.restart(mode)
        return list(report.indoubt_gtids)

    def _cmd_finish_restart(self) -> tuple[int, int]:
        return self.db.finish_restart()

    def _cmd_checkpoint(self) -> int:
        return self.db.checkpoint()

    def _cmd_drain(self, page_budget: int | None = None,
                   loser_budget: int | None = None) -> tuple[int, int]:
        return self.db.drain_pending(page_budget, loser_budget)

    def _cmd_stats(self) -> dict:
        counters = self.db.stats.snapshot()
        counters["shard_ops_served"] = self.ops_served
        counters["shard_live_branches"] = len(self._live)
        counters["shard_prepared_branches"] = len(self._prepared)
        # Simulated seconds this shard's devices have charged; the
        # throughput probe computes the fleet makespan from these.
        counters["sim_clock_seconds"] = self.db.clock.now
        return counters

    def _cmd_close(self) -> None:
        for xid in list(self._live):
            self._abort_quietly(xid)


# ----------------------------------------------------------------------
# Process transport
# ----------------------------------------------------------------------
def serve(worker: ShardWorker, sock) -> None:  # noqa: ANN001
    """Request loop for one connection: read a command tuple, reply
    ``("ok", result, durable_lsn)`` or ``("err", class_name, message,
    durable_lsn)`` — the shard log's durable high-water mark, read after
    the command, crashed shard or not (the durable log outlives a
    crash).  The router keeps the last one it saw; if a state-changing
    command's reply is then lost to a crash, it asks what committed past
    the mark (``outcome_since``) instead of blindly re-executing."""
    log = worker.db.log
    while True:
        try:
            command = recv_msg(sock)
        except (ConnectionError, OSError, EOFError):
            break
        if command is None:
            break
        try:
            result = worker.execute(command)
        except Exception as exc:  # marshalled, never kills the loop
            reply = ("err", *marshal_error(exc), log.durable_lsn)
        else:
            reply = ("ok", result, log.durable_lsn)
        try:
            send_msg(sock, reply)
        except (ConnectionError, OSError, BrokenPipeError):
            break
        if command[0] == "close":
            break


def worker_main(shard_id: int, config: EngineConfig, sock,  # noqa: ANN001
                router_side=()) -> None:  # noqa: ANN001
    """Entry point of a forked shard process: close the inherited copies
    of the router's sockets (``router_side``: while any process holds
    one, its peer never reads EOF), build the engine *in the child*
    (each process gets private device/log/pool state) and serve until
    the router hangs up."""
    for inherited in router_side:
        inherited.close()
    worker = ShardWorker(shard_id, config)
    try:
        serve(worker, sock)
    finally:
        sock.close()
