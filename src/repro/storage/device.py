"""A page-granular simulated storage device.

The device stores fixed-size pages in numbered *physical sectors* and
exposes *logical page ids* through a translation table, like a flash
translation layer or a disk's defect-management layer.  The
translation layer is what makes the paper's recovery step "the page can
be moved to a new location [and] the old, failed location ...
registered in ... [a] bad block list" (Section 5.2.3) cheap: the engine
calls :meth:`remap` and keeps using the same logical page id.

Writes are optionally *proof-read* ("After writing a page, it is
immediately 'proof-read' and remapped if errors are detected",
Section 2).  Proof-reading catches write-time damage but — exactly as
the paper observes — cannot catch faults that develop later or writes
that were silently lost.

All I/O charges simulated time and bumps shared counters.
"""

from __future__ import annotations

from repro.errors import MediaFailure, StorageError
from repro.sim.clock import SimClock
from repro.sim.iomodel import IOProfile
from repro.sim.stats import Stats
from repro.storage.badblocks import BadBlockList
from repro.storage.faults import FaultInjector
from repro.sync import Mutex


class DeviceReadError(StorageError):
    """The device could not read a sector (latent sector error)."""

    def __init__(self, device_name: str, page_id: int, sector: int) -> None:
        super().__init__(
            f"device '{device_name}': unrecoverable read error on "
            f"page {page_id} (sector {sector})")
        self.device_name = device_name
        self.page_id = page_id
        self.sector = sector


class DeviceWriteError(StorageError):
    """A write could not be completed even after remapping."""


class StorageDevice:
    """Simulated page store with logical-to-physical translation.

    Args:
        name: device name used in error messages and media failures.
        page_size: bytes per page/sector.
        capacity_pages: number of *logical* pages exposed.
        clock: simulated clock charged for every I/O.
        profile: I/O cost model.
        stats: shared counters (``device_reads``, ``device_writes`` ...).
        injector: optional fault source.
        spare_fraction: extra physical sectors reserved for remapping,
            as a fraction of ``capacity_pages``.
        proof_read: verify every write by reading it back, remapping on
            mismatch (write-time bad-block mapping).
    """

    def __init__(self, name: str, page_size: int, capacity_pages: int,
                 clock: SimClock, profile: IOProfile, stats: Stats,
                 injector: FaultInjector | None = None,
                 spare_fraction: float = 0.05,
                 proof_read: bool = False) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.page_size = page_size
        self.capacity_pages = capacity_pages
        self.clock = clock
        self.profile = profile
        self.stats = stats
        self.injector = injector or FaultInjector()
        self.proof_read = proof_read
        spare = max(8, int(capacity_pages * spare_fraction))
        self._num_sectors = capacity_pages + spare
        self._sectors: list[bytes | None] = [None] * self._num_sectors
        # Identity mapping initially; remap() changes individual entries.
        self._l2p: dict[int, int] = {}
        self._next_spare = capacity_pages
        self.bad_blocks = BadBlockList()
        self._failed = False
        self._last_sector_touched = -1
        counter = stats.counter
        self._device_reads = counter("device_reads")
        self._device_writes = counter("device_writes")
        self._device_reads_here = counter(f"device_reads[{name}]")
        self._device_writes_here = counter(f"device_writes[{name}]")
        self._device_read_errors = counter("device_read_errors")
        self._device_remaps = counter("device_remaps")
        self._proof_read_failures = counter("proof_read_failures")
        # Serializes page I/O, remapping, and fault application so a
        # concurrently injected fault never interleaves with a read's
        # byte copy (torn pages come from the injector, not from races).
        self._mutex = Mutex()

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------
    def _check_logical(self, page_id: int) -> None:
        if not 0 <= page_id < self.capacity_pages:
            raise ValueError(
                f"page id {page_id} out of range [0, {self.capacity_pages})")

    def sector_of(self, page_id: int) -> int:
        """Current physical sector of logical page ``page_id``."""
        self._check_logical(page_id)
        return self._l2p.get(page_id, page_id)

    def remap(self, page_id: int, reason: str) -> int:
        """Move ``page_id`` to a fresh spare sector.

        The old sector is quarantined on the bad-block list and any
        standing faults on the new sector are (by construction of the
        spare pool) absent.  Returns the new physical sector.  The
        caller is responsible for re-writing the page contents.
        """
        with self._mutex:
            old = self.sector_of(page_id)
            new = self._allocate_spare()
            self.bad_blocks.add(old, reason, self.clock.now)
            self._l2p[page_id] = new
            self._device_remaps.inc()
            return new

    def _allocate_spare(self) -> int:
        while self._next_spare < self._num_sectors:
            sector = self._next_spare
            self._next_spare += 1
            if sector not in self.bad_blocks:
                return sector
        raise MediaFailure(self.name, "spare sector pool exhausted")

    # ------------------------------------------------------------------
    # Whole-device failure (a traditional media failure)
    # ------------------------------------------------------------------
    def fail_device(self, reason: str = "simulated head crash") -> None:
        """Render the entire device unusable (media failure)."""
        self._failed = True
        self._fail_reason = reason

    @property
    def failed(self) -> bool:
        return self._failed

    def _ensure_alive(self) -> None:
        if self._failed:
            raise MediaFailure(self.name, self._fail_reason)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> bytearray:
        """Read a logical page; raises :class:`DeviceReadError` on LSE.

        Returns the raw bytes — possibly silently corrupted or stale —
        in a fresh ``bytearray`` the caller owns (the fetch path adopts
        it as the page's buffer; the stored image is never aliased).
        Detection of such corruption is the job of the layer above
        (checksums, plausibility checks, PageLSN cross-check).
        """
        with self._mutex:
            self._ensure_alive()
            sector = self.sector_of(page_id)
            self._charge_read(sector)
            stored = self._sectors[sector]
            if stored is None:
                # Never-written page reads back as zeroes (fresh device).
                data = bytearray(self.page_size)
            else:
                data = bytearray(stored)
            if not self.injector.on_read(sector, data):
                self._device_read_errors.inc()
                raise DeviceReadError(self.name, page_id, sector)
            return data

    def write(self, page_id: int, data: bytes | bytearray,
              sequential: bool = False) -> None:
        """Write a logical page, with optional proof-reading."""
        with self._mutex:
            self._ensure_alive()
            if len(data) != self.page_size:
                raise ValueError(f"write of {len(data)} bytes to "
                                 f"{self.page_size}-byte pages")
            sector = self.sector_of(page_id)
            self._charge_write(sector, sequential)
            apply, target = self.injector.before_write(sector)
            # One immutable snapshot serves both the sector store and
            # the proof-read comparison.
            snapshot = bytes(data)
            if apply:
                self._sectors[target] = snapshot
            self.injector.after_write(sector)
            if self.proof_read:
                self._proof_read(page_id, snapshot)

    def _proof_read(self, page_id: int, expected: bytes) -> None:
        """Read back a just-written page; remap and retry on mismatch.

        Catches write-time damage (including misdirected and lost
        writes that happen *at write time*); per Section 2, a later
        read failure is beyond its reach.
        """
        for _attempt in range(4):
            sector = self.sector_of(page_id)
            self._charge_read(sector)
            check = bytearray(self._sectors[sector] or b"\x00" * self.page_size)
            ok = self.injector.on_read(sector, check)
            if ok and bytes(check) == expected:
                return
            self._proof_read_failures.inc()
            new_sector = self.remap(page_id, "proof-read failure")
            self._charge_write(new_sector, False)
            apply, target = self.injector.before_write(new_sector)
            if apply:
                self._sectors[target] = expected
            self.injector.after_write(new_sector)
        raise DeviceWriteError(
            f"device '{self.name}': page {page_id} unwritable after remaps")

    def _charge_read(self, sector: int) -> None:
        sequential = sector == self._last_sector_touched + 1
        self.clock.advance(self.profile.read_cost(self.page_size, sequential))
        self._last_sector_touched = sector
        self._device_reads.inc()
        self._device_reads_here.inc()

    def _charge_write(self, sector: int, sequential_hint: bool) -> None:
        sequential = sequential_hint or sector == self._last_sector_touched + 1
        self.clock.advance(self.profile.write_cost(self.page_size, sequential))
        self._last_sector_touched = sector
        self._device_writes.inc()
        self._device_writes_here.inc()

    # ------------------------------------------------------------------
    # Fault-injection conveniences (translate logical -> physical)
    # ------------------------------------------------------------------
    def inject_read_error(self, page_id: int) -> None:
        self.injector.inject_read_error(self.sector_of(page_id))

    def inject_bit_rot(self, page_id: int, nbits: int = 3) -> None:
        self.injector.inject_bit_rot(self.sector_of(page_id), nbits)

    def inject_lost_write(self, page_id: int, count: int = 1) -> None:
        self.injector.inject_lost_write(self.sector_of(page_id), count)

    def inject_misdirected_write(self, page_id: int, victim_page: int) -> None:
        self.injector.inject_misdirected_write(
            self.sector_of(page_id), self.sector_of(victim_page))

    def wear_out(self, page_id: int) -> None:
        self.injector.wear_out(self.sector_of(page_id))

    def apply_fault(self, kind, page_id: int,  # noqa: ANN001 - FaultKind
                    victim_page: int | None = None, nbits: int = 3,
                    count: int = 1) -> None:
        """Schedulable fault hook: apply ``kind`` to a *logical* page,
        translating to the current physical sector (and the victim's,
        for misdirected writes)."""
        with self._mutex:
            victim = (None if victim_page is None
                      else self.sector_of(victim_page))
            self.injector.apply_fault(kind, self.sector_of(page_id),
                                      victim=victim, nbits=nbits, count=count)

    # ------------------------------------------------------------------
    # Raw access for composite devices and backups (no fault injection)
    # ------------------------------------------------------------------
    def raw_image(self, page_id: int) -> bytes | None:
        """Current stored bytes of a page, bypassing faults and costs."""
        with self._mutex:
            return self._sectors[self.sector_of(page_id)]

    def size_bytes(self) -> int:
        return self.capacity_pages * self.page_size
