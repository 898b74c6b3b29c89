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
from dataclasses import dataclass

from repro.errors import ConfigError

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
