"""Fleet-scale failure model and the multi-client chaos workload.

Bairavasundaram et al. [2] observed that 9.5 % of nearline (SATA)
disks develop at least one latent sector error per year, often several;
[3] adds silent corruption in the storage stack.  :class:`FleetModel`
turns those annual rates into deterministic per-device fault schedules
so availability experiments can compare engines under realistic error
arrival patterns.

:class:`ClientFleet` is the workload side of the chaos simulation: a
fleet of clients, each with its *own* seeded RNG stream and cursor, so
client ``c``'s ``k``-th action is a pure function of ``(fleet seed,
c, k)`` — independent of how the scheduler interleaves the clients,
of failures, and of which other events a shrunk schedule retains.
That independence is what makes greedy event-deletion shrinking sound:
removing one event never perturbs the actions the surviving events
perform.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sync import Mutex

#: Annual probability that a nearline disk develops >= 1 latent sector
#: error (Bairavasundaram et al., SIGMETRICS 2007).
NEARLINE_LSE_ANNUAL_RATE = 0.095
#: Enterprise disks fared better in the same study.
ENTERPRISE_LSE_ANNUAL_RATE = 0.019

SECONDS_PER_YEAR = 365.25 * 24 * 3600


@dataclass(frozen=True)
class ScheduledFault:
    """One fault at one simulated time on one device."""

    time: float
    device_index: int
    page_id: int
    kind: str  # "read-error" | "bit-rot" | "lost-write"


@dataclass
class FleetOutcome:
    """Aggregate result of a fleet availability experiment."""

    devices: int = 0
    faults_injected: int = 0
    recovered_locally: int = 0
    media_failures: int = 0
    system_failures: int = 0
    total_downtime_seconds: float = 0.0
    transactions_aborted: int = 0

    @property
    def availability(self) -> float:
        """Fraction of device-years without a media/system outage."""
        if self.devices == 0:
            return 1.0
        return 1.0 - (self.media_failures + self.system_failures) / self.devices


class FleetModel:
    """Generates fault schedules for a fleet of devices."""

    def __init__(self, n_devices: int, pages_per_device: int,
                 years: float = 1.0,
                 annual_lse_rate: float = NEARLINE_LSE_ANNUAL_RATE,
                 errors_per_incident: float = 3.0,
                 silent_fraction: float = 0.3,
                 seed: int = 7) -> None:
        self.n_devices = n_devices
        self.pages_per_device = pages_per_device
        self.years = years
        self.annual_lse_rate = annual_lse_rate
        self.errors_per_incident = errors_per_incident
        self.silent_fraction = silent_fraction
        self.seed = seed

    def schedule(self) -> list[ScheduledFault]:
        """Deterministic fault schedule for the whole fleet.

        Each device suffers an "incident" with the annual probability;
        an incident produces a geometric number of page faults (the
        study found errors cluster heavily), a fraction of them silent.
        """
        rng = random.Random(self.seed)
        faults: list[ScheduledFault] = []
        horizon = self.years * SECONDS_PER_YEAR
        p_incident = 1.0 - math.pow(1.0 - self.annual_lse_rate, self.years)
        for device in range(self.n_devices):
            if rng.random() >= p_incident:
                continue
            at = rng.random() * horizon
            n_errors = 1 + min(int(rng.expovariate(
                1.0 / max(self.errors_per_incident - 1, 0.1))), 50)
            for _ in range(n_errors):
                page = rng.randrange(self.pages_per_device)
                if rng.random() < self.silent_fraction:
                    kind = "lost-write" if rng.random() < 0.5 else "bit-rot"
                else:
                    kind = "read-error"
                faults.append(ScheduledFault(at, device, page, kind))
                at += rng.random() * 3600  # clustered within hours
        faults.sort(key=lambda f: f.time)
        return faults


# ----------------------------------------------------------------------
# Multi-client chaos workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClientAction:
    """One complete transaction intent emitted by one fleet client.

    ``ops`` is a list of ``(verb, key_index, payload)`` intents; the
    executor interprets them against current database state (an
    ``update`` of an absent key becomes an insert, a ``delete`` of an
    absent key becomes a lookup), so the *stream* itself never depends
    on state.  ``fate`` is ``"commit"`` or ``"abort"`` — aborts
    exercise the transaction failure class deliberately.
    """

    client: int
    seq: int
    fate: str
    ops: tuple[tuple[str, int, bytes], ...]


class ClientFleet:
    """A resumable fleet of workload clients with independent seeded
    RNG streams.

    Each client owns a ``random.Random`` seeded from ``(seed,
    client)`` and a cursor counting the actions it has emitted.  The
    fleet is *resumable*: it lives outside the database engine, so a
    crash/restore cycle does not disturb any client's stream — the
    interrupted action is simply accounted by the caller (as a loser or
    an uncertain commit) and the stream continues.
    """

    #: intent verbs and their relative weights
    VERBS = (("update", 5), ("insert", 2), ("lookup", 2),
             ("delete", 1))

    def __init__(self, n_clients: int, seed: int, key_space: int,
                 max_ops_per_txn: int = 4, abort_fraction: float = 0.1) -> None:
        if n_clients <= 0:
            raise ConfigError("need at least one client")
        if key_space <= 0:
            raise ConfigError("need a positive key space")
        self.n_clients = n_clients
        self.seed = seed
        self.key_space = key_space
        self.max_ops_per_txn = max_ops_per_txn
        self.abort_fraction = abort_fraction
        self._rngs = [random.Random(f"fleet/{seed}/{client}")
                      for client in range(n_clients)]
        self._cursors = [0] * n_clients
        self._verb_pool = [verb for verb, weight in self.VERBS
                           for _ in range(weight)]

    def next_action(self, client: int) -> ClientAction:
        """Emit client ``client``'s next action and advance its cursor."""
        rng = self._rngs[client]
        seq = self._cursors[client]
        self._cursors[client] = seq + 1
        n_ops = rng.randrange(1, self.max_ops_per_txn + 1)
        ops = []
        for _ in range(n_ops):
            verb = rng.choice(self._verb_pool)
            key_index = rng.randrange(self.key_space)
            payload = b"c%d.%d.%d" % (client, seq, rng.randrange(1_000_000))
            ops.append((verb, key_index, payload))
        fate = "abort" if rng.random() < self.abort_fraction else "commit"
        return ClientAction(client, seq, fate, tuple(ops))

    def actions_emitted(self, client: int) -> int:
        return self._cursors[client]


# ----------------------------------------------------------------------
# Threaded mode: the fleet as real worker threads over Sessions
# ----------------------------------------------------------------------
class ConcurrentOracle:
    """Thread-safe shadow of committed effects, ordered by commit LSN.

    Worker threads race on shared keys; the engine serializes same-key
    writers through the key lock, so the *later* writer of a key always
    carries the *later* commit LSN.  Recording ``(commit_lsn, value)``
    per key and keeping the max-LSN entry therefore reconstructs the
    exact serialization order without the oracle ever holding an engine
    latch.  A value of ``None`` is a committed delete.
    """

    def __init__(self) -> None:
        self._mutex = Mutex()
        self._entries: dict[bytes, tuple[int, bytes | None]] = {}

    def seed(self, key: bytes, value: bytes) -> None:
        """Pre-loaded committed state (ordered before every commit)."""
        with self._mutex:
            self._entries[key] = (-1, value)

    def record_commit(self, commit_lsn: int,
                      staged: dict[bytes, bytes | None]) -> None:
        """A session's commit() returned: its effects are durable and
        serialized at ``commit_lsn``."""
        with self._mutex:
            for key, value in staged.items():
                prev = self._entries.get(key)
                if prev is None or commit_lsn > prev[0]:
                    self._entries[key] = (commit_lsn, value)

    def expected_state(self) -> dict[bytes, bytes]:
        """key -> value for every committed, not-deleted key."""
        with self._mutex:
            return {key: value for key, (_, value) in self._entries.items()
                    if value is not None}


@dataclass
class ThreadedFleetReport:
    """Tally of one threaded fleet run."""

    committed: int = 0
    aborted: int = 0
    conflicts: int = 0
    lookups: int = 0
    abandoned: int = 0
    ops: int = 0  # individual read/write intents executed

    @property
    def transactions(self) -> int:
        return self.committed + self.aborted + self.conflicts + self.abandoned


class ThreadedFleetRunner:
    """Threaded mode of the chaos fleet: N worker threads x M actions.

    Each worker owns one fleet client (so action streams stay the pure
    ``(seed, client, seq)`` functions shrinking relies on) and one
    :class:`repro.engine.session.Session`.  Intents are interpreted
    against *live* tree state under the key lock (an ``update`` of an
    absent key inserts, a ``delete`` of an absent key is a no-op), so
    racing threads stay well-defined; committed effects are recorded in
    a :class:`ConcurrentOracle` keyed by commit LSN.

    :meth:`stop` drains workers at their next action boundary;
    :meth:`abandon` makes every worker walk away *mid-transaction* —
    the in-flight transactions stay active holding locks, which is the
    state a process crash would freeze (the stress battery crashes the
    engine right after and lets restart roll them back as losers).
    """

    #: values are padded to one width so updates replace in place —
    #: the B-tree splits on insert, not on update growth, and a page
    #: already full of same-width records never needs either
    VALUE_WIDTH = 24

    def __init__(self, db, tree, fleet: ClientFleet,  # noqa: ANN001
                 oracle: ConcurrentOracle,
                 actions_per_client: int) -> None:
        self.db = db
        self.tree = tree
        self.fleet = fleet
        self.oracle = oracle
        self.actions_per_client = actions_per_client
        self.report = ThreadedFleetReport()
        self._report_mutex = Mutex()
        self._stop = threading.Event()
        self._abandon = threading.Event()
        self._threads: list[threading.Thread] = []
        self.errors: list[BaseException] = []

    # -- control -------------------------------------------------------
    def start(self) -> None:
        self._threads = [
            threading.Thread(target=self._run_client, args=(client,),
                             name=f"fleet-client-{client}", daemon=True)
            for client in range(self.fleet.n_clients)]
        for thread in self._threads:
            thread.start()

    def join(self, timeout: float | None = None) -> None:
        for thread in self._threads:
            thread.join(timeout)
        if self.errors:
            raise self.errors[0]

    def run(self) -> ThreadedFleetReport:
        """Start, run every client to completion, and join."""
        self.start()
        self.join()
        return self.report

    def stop(self) -> None:
        """Drain workers at their next transaction boundary."""
        self._stop.set()

    def abandon(self) -> None:
        """Make workers walk away mid-transaction (pre-crash state)."""
        self._abandon.set()
        self._stop.set()

    # -- the worker ----------------------------------------------------
    def _tally(self, field_name: str) -> None:
        with self._report_mutex:
            setattr(self.report, field_name,
                    getattr(self.report, field_name) + 1)

    def _run_client(self, client: int) -> None:
        from repro.errors import DeadlockError
        from repro.txn.locks import LockConflict

        session = self.db.session()
        try:
            for _ in range(self.actions_per_client):
                if self._stop.is_set():
                    break
                action = self.fleet.next_action(client)
                try:
                    self._execute(session, action)
                except (LockConflict, DeadlockError):
                    # A genuine transaction failure: roll back and move
                    # on — the oracle never heard about this txn.
                    if session.txn is not None:
                        session.abort()
                    self._tally("conflicts")
        except BaseException as exc:  # noqa: BLE001 - surfaced by join()
            self.errors.append(exc)

    def _execute(self, session, action: ClientAction) -> None:  # noqa: ANN001
        session.begin()
        staged: dict[bytes, bytes | None] = {}
        for verb, key_index, payload in action.ops:
            if self._abandon.is_set():
                # Walk away mid-transaction: locks and the active-table
                # entry stay behind, exactly like a dying process.
                session.forget()
                self._tally("abandoned")
                return
            key = b"k%06d" % key_index
            payload = payload[:self.VALUE_WIDTH].ljust(self.VALUE_WIDTH, b".")
            self._tally("ops")
            if verb == "lookup":
                session.lookup_or_none(self.tree, key)
                self._tally("lookups")
            elif verb == "delete":
                if session.delete(self.tree, key):
                    staged[key] = None
            else:  # update / insert intents both upsert against state
                session.upsert(self.tree, key, payload)
                staged[key] = payload
        if self._abandon.is_set():
            # Caught between the last op and the commit/abort decision:
            # freeze here too, maximizing the in-flight surface a
            # subsequent crash has to clean up.
            session.forget()
            self._tally("abandoned")
            return
        if action.fate == "abort":
            session.abort()
            self._tally("aborted")
        else:
            commit_lsn = session.commit()
            self.oracle.record_commit(commit_lsn, staged)
            self._tally("committed")


# ----------------------------------------------------------------------
# Facade mode: the fleet driven through the public Client API
# ----------------------------------------------------------------------
class FacadeFleetRunner:
    """Runs fleet action streams through any :class:`repro.client.
    Client` — the backend-agnostic driver of the differential suite.

    One client at a time, actions interleaved round-robin across fleet
    clients, every transaction through ``client.txn()``.  Because the
    action streams are pure functions of ``(seed, client, seq)`` and
    execution is sequential, the committed-effects ``model`` is exact:
    any backend given the same fleet must end with ``client.scan()``
    equal to the model — whether it is one engine or eight processes
    behind a 2PC router.
    """

    VALUE_WIDTH = ThreadedFleetRunner.VALUE_WIDTH

    def __init__(self, client, fleet: ClientFleet,  # noqa: ANN001
                 actions_per_client: int) -> None:
        self.client = client
        self.fleet = fleet
        self.actions_per_client = actions_per_client
        self.report = ThreadedFleetReport()
        #: committed key -> value shadow (None entries are removed)
        self.model: dict[bytes, bytes] = {}

    def run(self) -> ThreadedFleetReport:
        for seq in range(self.actions_per_client):
            for client_id in range(self.fleet.n_clients):
                self._execute(self.fleet.next_action(client_id))
        return self.report

    def _execute(self, action: ClientAction) -> None:
        from repro.errors import TransactionAborted

        staged: dict[bytes, bytes | None] = {}
        try:
            with self.client.txn() as t:
                for verb, key_index, payload in action.ops:
                    key = b"k%06d" % key_index
                    payload = payload[:self.VALUE_WIDTH].ljust(
                        self.VALUE_WIDTH, b".")
                    self.report.ops += 1
                    if verb == "lookup":
                        t.get(key)
                        self.report.lookups += 1
                    elif verb == "delete":
                        if t.delete(key):
                            staged[key] = None
                    else:  # update / insert intents both upsert
                        t.put(key, payload)
                        staged[key] = payload
                if action.fate == "abort":
                    raise _IntentionalAbort()
        except _IntentionalAbort:
            self.report.aborted += 1
            return
        except TransactionAborted:
            self.report.conflicts += 1
            return
        self.report.committed += 1
        for key, value in staged.items():
            if value is None:
                self.model.pop(key, None)
            else:
                self.model[key] = value


class _IntentionalAbort(Exception):
    """Raised inside ``client.txn()`` to trigger its abort path for
    actions fated to abort (then swallowed by the runner)."""
