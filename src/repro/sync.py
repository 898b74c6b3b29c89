"""Copy-safe synchronization primitives for the concurrent engine.

The engine doubles as a *deterministic simulation substrate*: the
chaos harness deep-copies whole :class:`repro.engine.Database` objects
to recover one failure image under two modes, and ``threading`` locks
are not deep-copyable.  Every lock used inside the engine therefore
comes from this module: each primitive deep-copies (and pickles) to a
**fresh, unlocked instance**, which is the right semantics — a cloned
database has no live threads, so it has no lock holders.

Latch order (deadlock discipline, outermost first)::

    Database.latch  (engine read/write latch)
      -> LockManager mutex
      -> BufferPool mutex -> Frame latch
      -> pending-recovery registry mutex
      -> LogManager mutex / commit barrier
      -> leaf locks (device, PRI, log reader, clock, stats)

A thread never acquires a lock to the *left* of one it already holds.
Two refinements keep that true in practice:

* registry **undo** claims a loser under the registry mutex but runs
  the rollback (which fixes pages — pool mutex, frame latches) with
  the mutex *released*, because fix-path hooks acquire the registry
  mutex while holding a frame latch;
* a registry **drain** does enter the pool mutex under the registry
  mutex (``BufferPool.adopt_dirty``) — safe because no thread holding
  the pool mutex calls into the registry or waits for a frame latch (a
  loader takes its fresh frame's latch uncontended; waiters block with
  the pool mutex released);
* the commit barrier is waited on while holding **no** other engine
  lock (sessions release the engine latch before forcing), so riders
  can never wedge a writer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class Mutex(type(threading.RLock())):
    """A reentrant lock that deep-copies to a fresh, unlocked one.

    It *is* the interpreter's ``RLock`` (the C type wherever there is
    one), so ``acquire`` / ``release`` / ``with`` cost what they cost
    there — the engine enters a mutex a dozen times per operation —
    and only copying and pickling are ours.
    """

    __slots__ = ()

    def __deepcopy__(self, memo: dict) -> "Mutex":  # noqa: ARG002
        return type(self)()

    def __reduce__(self) -> tuple:
        return (type(self), ())


class ConditionMutex(Mutex):
    """A :class:`Mutex` with an attached condition variable.

    Waiters must hold the mutex (``with barrier: barrier.wait()``),
    exactly like :class:`threading.Condition`; the two share one
    underlying lock so state checks and waits are atomic.
    """

    __slots__ = ("_cond",)

    def __init__(self) -> None:
        super().__init__()
        self._cond = threading.Condition(self)

    def wait(self, timeout: float | None = None) -> bool:
        return self._cond.wait(timeout)

    def notify_all(self) -> None:
        self._cond.notify_all()


class ReadWriteLatch:
    """A shared/exclusive latch with writer preference.

    Readers run concurrently; a writer excludes everyone.  Writer
    preference (new readers queue behind a waiting writer) keeps a
    stream of readers from starving updates.  The latch is *reentrant
    for writers only*: the holding thread may nest ``exclusive()``
    blocks, and ``shared()`` inside its own exclusive block is a no-op
    downgrade.  Shared holds must not nest a new ``shared()`` or
    upgrade to ``exclusive()`` — that is a deadlock by design, as in
    any real latch implementation.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writer_depth",
                 "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None  # owning thread ident
        self._writer_depth = 0
        self._writers_waiting = 0

    def __deepcopy__(self, memo: dict) -> "ReadWriteLatch":  # noqa: ARG002
        return type(self)()

    def __reduce__(self) -> tuple:
        return (type(self), ())

    # -- shared (read) -------------------------------------------------
    def acquire_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Downgrade inside our own exclusive block: the
                # exclusive hold already grants read access.
                self._writer_depth += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_shared(self) -> None:
        with self._cond:
            if self._writer == threading.get_ident():
                self._writer_depth -= 1
                return
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    # -- exclusive (write) ---------------------------------------------
    def acquire_exclusive(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_exclusive(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("exclusive latch not held by this thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()

    # -- introspection (tests) -----------------------------------------
    @property
    def held_exclusive(self) -> bool:
        return self._writer is not None

    @property
    def active_readers(self) -> int:
        return self._readers
