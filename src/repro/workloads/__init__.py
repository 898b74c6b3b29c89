"""The fleet failure model and the chaos fleet."""

from repro.workloads.fleet import (
    ClientAction,
    ClientFleet,
    FleetModel,
    FleetOutcome,
)

__all__ = [
    "FleetModel",
    "FleetOutcome",
    "ClientFleet",
    "ClientAction",
]
