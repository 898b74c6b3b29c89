"""Unit tests: the fleet failure model."""

import pytest

from repro.workloads.fleet import (
    NEARLINE_LSE_ANNUAL_RATE,
    FleetModel,
    FleetOutcome,
)


class TestFleetModel:
    def test_schedule_deterministic(self):
        a = FleetModel(200, 1000, seed=5).schedule()
        b = FleetModel(200, 1000, seed=5).schedule()
        assert a == b

    def test_schedule_sorted_by_time(self):
        faults = FleetModel(300, 1000, seed=2).schedule()
        times = [f.time for f in faults]
        assert times == sorted(times)

    def test_incident_rate_tracks_study(self):
        """About 9.5% of nearline devices per year develop LSEs [2]."""
        model = FleetModel(4000, 1000, years=1.0,
                           annual_lse_rate=NEARLINE_LSE_ANNUAL_RATE, seed=11)
        devices_hit = len({f.device_index for f in model.schedule()})
        rate = devices_hit / 4000
        assert 0.07 <= rate <= 0.12

    def test_errors_cluster_within_devices(self):
        """The study found dozens of errors on affected drives."""
        faults = FleetModel(2000, 1000, errors_per_incident=5.0,
                            seed=3).schedule()
        per_device: dict[int, int] = {}
        for fault in faults:
            per_device[fault.device_index] = per_device.get(fault.device_index, 0) + 1
        assert max(per_device.values()) > 1

    def test_fault_kinds_mixed(self):
        faults = FleetModel(2000, 1000, silent_fraction=0.4, seed=4).schedule()
        kinds = {f.kind for f in faults}
        assert "read-error" in kinds
        assert kinds & {"bit-rot", "lost-write"}

    def test_outcome_availability(self):
        outcome = FleetOutcome(devices=100, media_failures=3,
                               system_failures=2)
        assert outcome.availability == pytest.approx(0.95)
        assert FleetOutcome().availability == 1.0
