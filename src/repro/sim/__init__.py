"""Simulated time, I/O cost models, counters, and chaos simulation.

The reproduction performs all page-level work for real, but charges the
*cost* of every device and log I/O to a simulated clock.  This is how
the benchmarks reproduce the paper's Section-6 arithmetic (e.g. a
100 GB restore at 100 MB/s taking about 1000 s) at laptop scale.

On top of the clock sits the deterministic chaos layer: the seeded
any-failure-any-time core (:mod:`repro.sim.chaos`) and its two
plug-ins, one engine (:mod:`repro.sim.harness`) and a sharded fleet
(:mod:`repro.sim.shard_harness`).  None of them is imported here (the
plug-ins pull in the whole engine, and the core is a ``python -m``
entry point); use ``from repro.sim.chaos import ...``.
"""

from repro.sim.clock import SimClock
from repro.sim.iomodel import (
    ARCHIVE_PROFILE,
    FLASH_PROFILE,
    HDD_PROFILE,
    IOProfile,
)
from repro.sim.stats import Stats

__all__ = [
    "SimClock",
    "IOProfile",
    "HDD_PROFILE",
    "FLASH_PROFILE",
    "ARCHIVE_PROFILE",
    "Stats",
]
