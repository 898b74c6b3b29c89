"""Simulated storage substrate.

The paper's failure class is defined by what the *storage stack* can do
to a page: latent sector errors (explicit read failures), silent bit
rot, lost writes, misdirected writes, and flash wear-out.  This package
provides a page-granular simulated device with deterministic, seeded
injection of all of those fault kinds, plus the composite devices the
paper's introduction discusses (a RAID-5 array).

Every read and write charges its modeled cost to a shared
:class:`~repro.sim.SimClock`, so experiments can report the simulated
durations the paper reasons about.
"""

from repro.storage.badblocks import BadBlockList
from repro.storage.device import DeviceReadError, DeviceWriteError, StorageDevice
from repro.storage.faults import FaultInjector, FaultKind
from repro.storage.raid import Raid5Array

__all__ = [
    "StorageDevice",
    "DeviceReadError",
    "DeviceWriteError",
    "FaultInjector",
    "FaultKind",
    "BadBlockList",
    "Raid5Array",
]
