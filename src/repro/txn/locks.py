"""A minimal exclusive lock manager with wait-for deadlock detection.

Concurrency control is not the paper's subject; this exists so that
user transactions in examples and tests exhibit honest all-or-nothing
behaviour and so that deadlock-induced aborts exercise the
*transaction* failure class of the taxonomy.
"""

from __future__ import annotations

from repro.errors import DeadlockError, TransactionError
from repro.sync import Mutex


class LockConflict(TransactionError):
    """A lock is held by another transaction and no waiting is possible."""

    def __init__(self, txn_id: int, key: bytes, holder: int) -> None:
        super().__init__(
            f"transaction {txn_id} blocked on key {key!r} held by {holder}")
        self.txn_id = txn_id
        self.key = key
        self.holder = holder


class LockManager:
    """Exclusive key locks with cycle detection on a wait-for graph."""

    def __init__(self) -> None:
        self._holders: dict[bytes, int] = {}
        self._held_by_txn: dict[int, set[bytes]] = {}
        self._waits_for: dict[int, int] = {}
        #: guards the three maps; conflicts are raised, not parked, so
        #: the mutex is only ever held for the map lookups themselves
        #: (plus a conflict-resolver rollback, which re-enters)
        self._mutex = Mutex()
        #: instant restart: called with a conflicting holder's txn id;
        #: returns True if the holder was a pending loser transaction
        #: that has now been rolled back (the requester retries)
        self.conflict_resolver = None  # Callable[[int], bool] | None

    def acquire(self, txn_id: int, key: bytes) -> None:
        """Acquire ``key`` exclusively for ``txn_id``.

        Re-acquisition by the holder is a no-op.  A conflict held by a
        pending loser of an on-demand restart triggers that loser's
        rollback via ``conflict_resolver`` and the request retries.
        Otherwise the conflict registers a wait-for edge; if that edge
        closes a cycle the requester is chosen as the deadlock victim
        (:class:`DeadlockError`), otherwise a :class:`LockConflict` is
        raised for the caller to retry — threads never park inside the
        lock manager, so cross-thread waits cannot deadlock here.
        """
        with self._mutex:
            if key in self._holders and self._admit(txn_id, key):
                return  # ours already
            self._holders[key] = txn_id
            self._held_by_txn.setdefault(txn_id, set()).add(key)

    def check(self, txn_id: int, key: bytes) -> None:
        """:meth:`acquire`'s conflict rules, registering nothing: returns
        once no other transaction holds ``key`` (a pending loser in the
        way rolled back), raises what :meth:`acquire` would otherwise.
        For the unlisted write of
        :meth:`repro.engine.database.Database.autocommit_write`, which
        nothing can come between its check and its commit.  A free key
        needs no mutex: with nothing registered, the answer is no
        staler than one given under it."""
        if key in self._holders:
            with self._mutex:
                self._admit(txn_id, key)

    def _admit(self, txn_id: int, key: bytes) -> bool:
        """The conflict rules for ``txn_id``'s request of a held
        ``key`` (the caller holds the mutex): True if ``txn_id`` holds
        it, False once a pending loser in the way is rolled back and
        the key is free; raises if another transaction keeps it."""
        while True:
            holder = self._holders.get(key)
            if holder is None:
                return False
            if holder == txn_id:
                return True
            if (self.conflict_resolver is not None
                    and self.conflict_resolver(holder)):
                continue  # the loser in the way is gone; retry
            self._waits_for[txn_id] = holder
            if self._has_cycle(txn_id):
                del self._waits_for[txn_id]
                raise DeadlockError(txn_id, f"deadlock on key {key!r}")
            del self._waits_for[txn_id]
            raise LockConflict(txn_id, key, holder)

    def try_acquire_run(self, txn_id: int, keys: list[bytes]) -> int:
        """Acquire ``keys`` for ``txn_id`` in order, in one mutex hold,
        up to the first that another transaction holds; returns how
        many are now ``txn_id``'s, nothing registered past them.  For a
        caller that must not wait, resolve a conflict or roll a loser
        back — one holding a page pinned (a leaf run, see
        :meth:`repro.btree.tree.FosterBTree.apply_batch`)."""
        with self._mutex:
            holders = self._holders
            mine = self._held_by_txn.setdefault(txn_id, set())
            for n, key in enumerate(keys):
                holder = holders.get(key)
                if holder is None:
                    holders[key] = txn_id
                    mine.add(key)
                elif holder != txn_id:
                    return n
            return len(keys)

    def _has_cycle(self, start: int) -> bool:
        seen = set()
        node = start
        while node in self._waits_for:
            node = self._waits_for[node]
            if node == start:
                return True
            if node in seen:
                return False
            seen.add(node)
        return False

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (end of transaction).

        Safe from any thread — aborting a transaction that ran on a
        different worker releases its locks atomically, so a retrying
        waiter on another thread either sees the old holder or none.
        """
        with self._mutex:
            for key in self._held_by_txn.pop(txn_id, ()):
                if self._holders.get(key) == txn_id:
                    del self._holders[key]
            self._waits_for.pop(txn_id, None)

    def holder_of(self, key: bytes) -> int | None:
        with self._mutex:
            return self._holders.get(key)

    def locks_held(self, txn_id: int) -> set[bytes]:
        with self._mutex:
            return set(self._held_by_txn.get(txn_id, set()))

    def held_keys(self) -> list[bytes]:
        """Every locked key, sorted — the chaos harness's lock-leak
        oracle (after partitions heal, this must drain to empty)."""
        with self._mutex:
            return sorted(self._holders)
