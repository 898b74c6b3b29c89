"""I/O cost profiles for simulated storage devices.

A profile models a device with a fixed per-operation access latency
(seek + rotation for disks, controller latency for flash) plus a
streaming bandwidth.  The paper's Section 6 uses exactly this kind of
first-order model: "restoring a backup with 100 GB of data at 100 MB/s
requires 1,000 s"; "dozens of I/Os ... pure I/O time should perhaps be
1 s".

Profiles are deliberately simple and explicit; experiments that need a
different device simply construct their own :class:`IOProfile`.

A bulk transfer is priced by bandwidth, not per page, and so is a run of
consecutive page writes issued as one **device request**
(:class:`WriteRequests`, which the data device and the backup store
each keep): inside a request, a write to the location right after the
request's previous write continues that write's extent and pays only
``page_size / bandwidth``; any other write opens a new extent at the
full :meth:`IOProfile.write_cost`, and a read on the device ends the
extent.  A write outside any request is its own extent, priced as
before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import TracebackType


@dataclass(frozen=True)
class IOProfile:
    """First-order cost model of a storage device.

    Attributes:
        name: human-readable profile name.
        read_latency: seconds of fixed cost per random read.
        write_latency: seconds of fixed cost per random write.
        bandwidth: streaming throughput in bytes per second.
        sequential_factor: multiplier (< 1) applied to per-operation
            latency when an access is sequential with respect to the
            previous one, modelling elevator-friendly access patterns.
        sequential_write_latency: derived, ``write_latency *
            sequential_factor`` — the fixed cost of a sequential write,
            taken once (the log's force reads it in place).
    """

    name: str
    read_latency: float
    write_latency: float
    bandwidth: float
    sequential_factor: float = 0.0
    sequential_write_latency: float = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if self.read_latency < 0 or self.write_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.sequential_factor <= 1.0:
            raise ValueError("sequential_factor must be in [0, 1]")
        object.__setattr__(self, "sequential_write_latency",
                           self.write_latency * self.sequential_factor)

    def read_cost(self, nbytes: int, sequential: bool = False) -> float:
        """Seconds needed to read ``nbytes`` in one operation."""
        latency = self.read_latency
        if sequential:
            latency *= self.sequential_factor
        return latency + nbytes / self.bandwidth

    def write_cost(self, nbytes: int, sequential: bool = False) -> float:
        """Seconds needed to write ``nbytes`` in one operation."""
        latency = (self.sequential_write_latency if sequential
                   else self.write_latency)
        return latency + nbytes / self.bandwidth


class WriteRequests:
    """The device-request rule for one device (module docstring).

    ``with requests:`` opens a request (a nested one joins the request
    already open).  :meth:`continues` is asked once per page write and
    says whether the write continues the open extent; a read on the
    device ends the extent by clearing :attr:`next` (in place: the read
    path pays no call for it).
    """

    __slots__ = ("_depth", "next")

    def __init__(self) -> None:
        self._depth = 0
        #: the location a write must target to continue the open extent
        #: (None: no extent is open)
        self.next: int | None = None

    def __enter__(self) -> "WriteRequests":
        self._depth += 1
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self._depth -= 1
        if not self._depth:
            self.next = None

    def continues(self, location: int) -> bool:
        """Whether a write to ``location`` continues the open extent;
        either way it is the extent's last write from now on."""
        continued = location == self.next
        self.next = location + 1 if self._depth else None
        return continued


#: A nearline (SATA) magnetic disk: ~8 ms random access, 100 MB/s.
#: The 100 MB/s figure matches the paper's backup-restore arithmetic.
HDD_PROFILE = IOProfile(
    name="hdd",
    read_latency=0.008,
    write_latency=0.008,
    bandwidth=100 * 1024 * 1024,
    sequential_factor=0.05,
)

#: A modern (for 2012) enterprise disk: 200 MB/s streaming, used by the
#: paper for the 2 TB restore example.
HDD_2012_PROFILE = IOProfile(
    name="hdd-2012",
    read_latency=0.006,
    write_latency=0.006,
    bandwidth=200 * 1024 * 1024,
    sequential_factor=0.05,
)

#: Flash / SSD storage: fast random reads, slower writes, high bandwidth.
FLASH_PROFILE = IOProfile(
    name="flash",
    read_latency=0.0001,
    write_latency=0.0005,
    bandwidth=500 * 1024 * 1024,
    sequential_factor=1.0,
)

#: Archive media (e.g. tape or cold object storage): enormous first-byte
#: latency.  The paper notes a sequentially compressed whole-database
#: backup is "less than ideal" for single-page recovery; this profile
#: quantifies why.
ARCHIVE_PROFILE = IOProfile(
    name="archive",
    read_latency=30.0,
    write_latency=30.0,
    bandwidth=150 * 1024 * 1024,
    sequential_factor=0.0,
)

#: In-memory "device", effectively free I/O; used by unit tests that do
#: not care about timing.
NULL_PROFILE = IOProfile(
    name="null",
    read_latency=0.0,
    write_latency=0.0,
    bandwidth=float(1 << 60),
    sequential_factor=1.0,
)
