"""Deterministic fault injection for simulated devices.

Fault kinds map one-to-one onto the real-world causes the paper and its
cited field studies (Bairavasundaram et al. [2, 3]) describe:

* ``READ_ERROR`` -- a latent sector error: the device reports the read
  failed despite retries and ECC.
* ``BIT_ROT`` -- silent corruption: the read succeeds but some bits are
  flipped (persistently, modelling media decay).
* ``LOST_WRITE`` -- the device acknowledges a write but never applies
  it; later reads return the stale prior image.  This is the failure in
  the introduction's RAID-5 anecdote and is exactly what the
  page-recovery-index PageLSN cross-check catches.
* ``MISDIRECTED_WRITE`` -- a write lands on the wrong sector, damaging
  two pages at once (one stale, one overwritten with a foreign page).
* ``WEAR_OUT`` -- flash endurance: after a per-sector write budget is
  exhausted, reads of that sector start failing.

All randomness is drawn from a seeded ``random.Random`` so experiments
are reproducible.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    READ_ERROR = "read-error"
    BIT_ROT = "bit-rot"
    LOST_WRITE = "lost-write"
    MISDIRECTED_WRITE = "misdirected-write"
    WEAR_OUT = "wear-out"


@dataclass
class _SectorState:
    """Pending / standing fault state of one physical sector."""

    read_error: bool = False
    rot_bits: int = 0
    rot_nonce: int = 0
    lose_next_writes: int = 0
    misdirect_to: int | None = None
    worn_out: bool = False


@dataclass
class FaultInjector:
    """Programmable fault source keyed by *physical* sector number.

    The device consults the injector on every read and write.  Faults
    can be scheduled explicitly (deterministic single-fault
    experiments) or probabilistically (fleet-scale availability
    experiments), both driven by the same seeded RNG.
    """

    seed: int = 0
    #: per-read probability of a spontaneous latent sector error
    read_error_rate: float = 0.0
    #: per-read probability of spontaneous silent corruption
    bit_rot_rate: float = 0.0
    #: per-write probability that the write is silently lost
    lost_write_rate: float = 0.0
    #: writes a sector endures before wearing out (None = unlimited)
    wear_limit: int | None = None

    _rng: random.Random = field(init=False, repr=False)
    _sectors: dict[int, _SectorState] = field(default_factory=dict, repr=False)
    _write_counts: dict[int, int] = field(default_factory=dict, repr=False)
    injected_log: list[tuple[FaultKind, int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def _state(self, sector: int) -> _SectorState:
        return self._sectors.setdefault(sector, _SectorState())

    # ------------------------------------------------------------------
    # Explicit scheduling
    # ------------------------------------------------------------------
    def inject_read_error(self, sector: int) -> None:
        """All subsequent reads of ``sector`` fail (latent sector error)."""
        self._state(sector).read_error = True
        self.injected_log.append((FaultKind.READ_ERROR, sector))

    def inject_bit_rot(self, sector: int, nbits: int = 3) -> None:
        """Persistently flip ``nbits`` random bits of ``sector``."""
        self._state(sector).rot_bits += nbits
        self.injected_log.append((FaultKind.BIT_ROT, sector))

    def inject_lost_write(self, sector: int, count: int = 1) -> None:
        """The next ``count`` writes to ``sector`` are silently dropped."""
        self._state(sector).lose_next_writes += count
        self.injected_log.append((FaultKind.LOST_WRITE, sector))

    def inject_misdirected_write(self, sector: int, victim: int) -> None:
        """The next write to ``sector`` lands on ``victim`` instead."""
        self._state(sector).misdirect_to = victim
        self.injected_log.append((FaultKind.MISDIRECTED_WRITE, sector))

    def wear_out(self, sector: int) -> None:
        """Immediately mark ``sector`` as worn out."""
        self._state(sector).worn_out = True
        self.injected_log.append((FaultKind.WEAR_OUT, sector))

    def clear(self, sector: int) -> None:
        """Remove all standing faults on ``sector`` (sector remapped)."""
        self._sectors.pop(sector, None)

    def apply_fault(self, kind: FaultKind, sector: int, *,
                    victim: int | None = None, nbits: int = 3,
                    count: int = 1) -> None:
        """Uniform dispatcher from a :class:`FaultKind` to the matching
        ``inject_*`` method, so schedulers can carry fault events as
        plain ``(kind, sector)`` data (the chaos harness's schedulable
        fault hook)."""
        if kind is FaultKind.READ_ERROR:
            self.inject_read_error(sector)
        elif kind is FaultKind.BIT_ROT:
            self.inject_bit_rot(sector, nbits=nbits)
        elif kind is FaultKind.LOST_WRITE:
            self.inject_lost_write(sector, count=count)
        elif kind is FaultKind.MISDIRECTED_WRITE:
            if victim is None:
                raise ValueError("misdirected write needs a victim sector")
            self.inject_misdirected_write(sector, victim)
        elif kind is FaultKind.WEAR_OUT:
            self.wear_out(sector)
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ValueError(f"unknown fault kind {kind!r}")

    # ------------------------------------------------------------------
    # Device hooks
    # ------------------------------------------------------------------
    def before_write(self, sector: int) -> tuple[bool, int]:
        """Consulted by the device before applying a write.

        Returns ``(apply, target_sector)``: whether to apply the write
        at all, and where it should land.
        """
        state = self._sectors.get(sector)
        target = sector
        if state is not None:
            if state.misdirect_to is not None:
                target = state.misdirect_to
                state.misdirect_to = None
                return True, target
            if state.lose_next_writes > 0:
                state.lose_next_writes -= 1
                return False, sector
        if self.lost_write_rate and self._rng.random() < self.lost_write_rate:
            self.injected_log.append((FaultKind.LOST_WRITE, sector))
            return False, sector
        return True, target

    def after_write(self, sector: int) -> None:
        """Account the write for wear tracking."""
        count = self._write_counts.get(sector, 0) + 1
        self._write_counts[sector] = count
        if self.wear_limit is not None and count > self.wear_limit:
            state = self._state(sector)
            if not state.worn_out:
                state.worn_out = True
                self.injected_log.append((FaultKind.WEAR_OUT, sector))

    def on_read(self, sector: int, data: bytearray) -> bool:
        """Consulted by the device on every read.

        Mutates ``data`` in place for silent corruption.  Returns True
        if the read succeeds (possibly with corrupted data) and False
        if the device must report a read error.
        """
        state = self._sectors.get(sector)
        if state is not None:
            if state.worn_out or state.read_error:
                return False
            if state.rot_bits:
                # A flaky sector returns different garbage on each
                # read; the nonce varies the flipped positions while
                # keeping the whole run deterministic.
                self._flip_bits(data, state.rot_bits, sector, state.rot_nonce)
                state.rot_nonce += 1
        if self.read_error_rate and self._rng.random() < self.read_error_rate:
            self.injected_log.append((FaultKind.READ_ERROR, sector))
            # Spontaneous latent sector errors are persistent.
            self._state(sector).read_error = True
            return False
        if self.bit_rot_rate and self._rng.random() < self.bit_rot_rate:
            self.injected_log.append((FaultKind.BIT_ROT, sector))
            state = self._state(sector)
            state.rot_bits += 3
            self._flip_bits(data, 3, sector, state.rot_nonce)
            state.rot_nonce += 1
        return True

    def _flip_bits(self, data: bytearray, nbits: int, sector: int,
                   nonce: int = 0) -> None:
        """Flip ``nbits`` deterministic pseudo-random bits of ``data``."""
        rng = random.Random(f"{self.seed}/{sector}/{nbits}/{nonce}")
        for _ in range(nbits):
            bit = rng.randrange(len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
