"""The chaos simulation layer: events, clock deadlines, schedulable
faults, per-client fleet streams, the durability oracle, and the
chaos core itself over both plug-ins (reproducibility, campaigns,
shrinking, CLI).

The nightly CI job runs :class:`TestNightlyCampaign` (``slow`` marker)
with hundreds of random seeds and uploads failing traces as artifacts;
PR CI runs the fixed-seed smoke below.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.sim.chaos import (
    Event,
    _write_artifact,
    execute_schedule,
    failure_kinds,
    generate_schedule,
    main,
    run_campaign,
    run_chaos,
    shrink_schedule,
)
from repro.sim.clock import SimClock
from repro.sim.harness import MODE_COMBOS, ChaosConfig, DurabilityOracle
from repro.sim.shard_harness import ShardChaosConfig
from repro.sim.stats import Stats
from repro.storage.faults import FaultInjector, FaultKind
from repro.workloads.fleet import ClientFleet


#: the two plug-ins, by CLI name
PLUGIN_CONFIGS = {"engine": ChaosConfig, "fleet": ShardChaosConfig}
both_plugins = pytest.mark.parametrize("plugin", sorted(PLUGIN_CONFIGS))


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
class TestEventScheduler:
    def test_describe_is_deterministic(self):
        event = Event(3.0, 7, "corrupt", {"rank": 5, "fault": "bit-rot"})
        assert event.describe() == "t=3 corrupt fault='bit-rot' rank=5"


# ----------------------------------------------------------------------
# Clock deadlines (mid-operation interruption)
# ----------------------------------------------------------------------
class TestClockDeadline:
    def test_fires_when_advance_crosses_deadline(self):
        clock = SimClock()
        fired = []
        clock.arm(1.0, lambda: fired.append(clock.now))
        clock.advance(0.5)
        assert not fired and clock.armed
        clock.advance(0.6)  # crosses 1.0 mid-advance
        assert fired == [1.1]
        assert not clock.armed  # single-shot

    def test_callback_may_raise_through_advance(self):
        clock = SimClock()

        def boom() -> None:
            raise RuntimeError("interrupted")

        clock.arm(0.1, boom)
        with pytest.raises(RuntimeError):
            clock.advance(1.0)
        assert not clock.armed

    def test_disarm_cancels(self):
        clock = SimClock()
        clock.arm(1.0, lambda: pytest.fail("should not fire"))
        clock.disarm()
        clock.advance(5.0)

    def test_double_arm_rejected(self):
        clock = SimClock()
        clock.arm(1.0, lambda: None)
        with pytest.raises(ValueError):
            clock.arm(2.0, lambda: None)


class TestStatsGauges:
    def test_note_max_keeps_high_water_mark(self):
        stats = Stats()
        gauge = "chaos_max_pending_after_recovery"
        stats.note_max(gauge, 3)
        stats.note_max(gauge, 1)
        stats.note_max(gauge, 9)
        assert stats.get_max(gauge) == 9
        assert stats.get_max("missing") == 0
        stats.reset()
        assert stats.get_max(gauge) == 0


# ----------------------------------------------------------------------
# Schedulable faults
# ----------------------------------------------------------------------
class TestApplyFault:
    def test_dispatches_every_kind(self):
        injector = FaultInjector(seed=1)
        injector.apply_fault(FaultKind.READ_ERROR, 1)
        injector.apply_fault(FaultKind.BIT_ROT, 2, nbits=5)
        injector.apply_fault(FaultKind.LOST_WRITE, 3, count=2)
        injector.apply_fault(FaultKind.MISDIRECTED_WRITE, 4, victim=5)
        injector.apply_fault(FaultKind.WEAR_OUT, 6)
        kinds = [kind for kind, _sector in injector.injected_log]
        assert kinds == [FaultKind.READ_ERROR, FaultKind.BIT_ROT,
                         FaultKind.LOST_WRITE, FaultKind.MISDIRECTED_WRITE,
                         FaultKind.WEAR_OUT]

    def test_misdirected_requires_victim(self):
        with pytest.raises(ValueError):
            FaultInjector(seed=1).apply_fault(FaultKind.MISDIRECTED_WRITE, 4)

    def test_device_translates_logical_pages(self, device):
        device.remap(3, "test")  # move page 3 off the identity mapping
        device.apply_fault(FaultKind.READ_ERROR, 3)
        sector = device.sector_of(3)
        assert (FaultKind.READ_ERROR, sector) in device.injector.injected_log
        assert sector != 3


# ----------------------------------------------------------------------
# Fleet streams
# ----------------------------------------------------------------------
class TestClientFleet:
    def test_streams_are_independent_of_interleaving(self):
        """Client 1's k-th action is identical whether or not other
        clients acted in between — the property that makes schedule
        shrinking sound."""
        solo = ClientFleet(3, seed=9, key_space=50)
        solo_actions = [solo.next_action(1) for _ in range(5)]
        mixed = ClientFleet(3, seed=9, key_space=50)
        mixed_actions = []
        for i in range(5):
            mixed.next_action(0)
            mixed_actions.append(mixed.next_action(1))
            mixed.next_action(2)
            mixed.next_action(0)
        assert solo_actions == mixed_actions

    def test_streams_differ_between_clients(self):
        fleet = ClientFleet(2, seed=9, key_space=50)
        assert fleet.next_action(0).ops != fleet.next_action(1).ops

    def test_resumable_cursor(self):
        fleet = ClientFleet(1, seed=9, key_space=50)
        first = fleet.next_action(0)
        assert (first.seq, fleet.actions_emitted(0)) == (0, 1)
        assert fleet.next_action(0).seq == 1

    def test_some_actions_abort(self):
        fleet = ClientFleet(1, seed=9, key_space=50, abort_fraction=0.5)
        fates = {fleet.next_action(0).fate for _ in range(40)}
        assert fates == {"commit", "abort"}


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        config = ChaosConfig(seed=5)
        assert generate_schedule(config) == generate_schedule(config)

    def test_different_seeds_differ(self):
        assert (generate_schedule(ChaosConfig(seed=5))
                != generate_schedule(ChaosConfig(seed=6)))

    def test_all_failure_kinds_guaranteed(self):
        config = ChaosConfig(seed=1)
        kinds = {e.kind for e in generate_schedule(config)}
        assert failure_kinds(config) == (
            "corrupt", "crash", "device_loss", "backup_loss", "double")
        assert set(failure_kinds(config)) <= kinds


class TestHarnessReproducibility:
    def test_trace_bit_identical_across_runs(self):
        config = ChaosConfig(seed=3, n_events=25, shrink=False)
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.ok, first.violations
        assert first.trace == second.trace
        assert first.trace_text() == second.trace_text()

    def test_cli_output_bit_identical(self, capsys):
        assert main(["engine", "--seed", "3", "--events", "25"]) == 0
        first = capsys.readouterr().out
        assert main(["engine", "--seed", "3", "--events", "25"]) == 0
        assert capsys.readouterr().out == first
        assert "RESULT PASS" in first

    @both_plugins
    def test_quiet_cli_run_prints_header_and_verdict(self, plugin, capsys):
        assert main([plugin, "--seed", "3", "--events", "25", "--quiet"]) == 0
        header, verdict = capsys.readouterr().out.splitlines()
        assert "seed=3" in header and header.endswith("events=25")
        assert verdict == "RESULT PASS"

    @pytest.mark.parametrize("restart_mode,restore_mode",
                             [("eager", "eager"),
                              ("on_demand", "on_demand")])
    def test_determinism_survives_concurrency_refactor(
            self, restart_mode, restore_mode):
        """Regression guard for the concurrent-engine refactor: the
        chaos harness stays single-threaded and never arms the
        cross-thread commit barrier, so ``(seed, config)`` must still
        expand to bit-identical traces *and* identical engine-visible
        event counts across two fresh executions — including schedules
        heavy on crashes and mode-specific lazy recovery."""
        config = ChaosConfig(seed=11, n_events=30, shrink=False,
                             restart_mode=restart_mode,
                             restore_mode=restore_mode)
        events = generate_schedule(config)
        first = execute_schedule(config, events)
        second = execute_schedule(config, events)
        assert first.ok, first.violations
        assert first.trace_text() == second.trace_text()
        assert first.event_counts == second.event_counts
        assert first.counters == second.counters


class TestDurabilityOracle:
    def test_detects_lost_committed_key(self, db):
        tree = db.create_index()
        oracle = DurabilityOracle()
        txn = db.begin()
        tree.insert(txn, b"k1", b"v1")
        db.commit(txn)
        oracle.commit_applied({b"k1": b"v1"})
        oracle.model[b"k2"] = b"never-written"  # simulate lost commit
        violations = oracle.full_check(db, "test")
        assert any("committed keys lost" in v for v in violations)

    def test_detects_phantom_key(self, db):
        tree = db.create_index()
        oracle = DurabilityOracle()
        txn = db.begin()
        tree.insert(txn, b"k1", b"v1")
        db.commit(txn)  # never reported to the oracle
        violations = oracle.full_check(db, "test")
        assert any("uncommitted keys visible" in v for v in violations)

    def test_uncertain_commit_resolved_from_log(self, db):
        """A commit whose acknowledgement was lost counts iff its
        COMMIT record survived in the durable log."""
        tree = db.create_index()
        oracle = DurabilityOracle()
        txn = db.begin()
        tree.insert(txn, b"ack-lost", b"v")
        db.commit(txn)
        oracle.record_uncertain(txn.txn_id, {b"ack-lost": b"v"})
        oracle.resolve_uncertain(db)
        assert oracle.model == {b"ack-lost": b"v"}
        # And a transaction that never committed resolves to nothing.
        loser = db.begin()
        tree.insert(loser, b"doomed", b"v")
        db.abort(loser)
        oracle.record_uncertain(loser.txn_id, {b"doomed": b"v"})
        oracle.resolve_uncertain(db)
        assert b"doomed" not in oracle.model
        assert not oracle.full_check(db, "test")


class TestChaosSmoke:
    """Fixed-seed smoke campaign: every mode combination, every failure
    kind, oracle clean.  This is the PR-CI chaos gate."""

    @pytest.mark.parametrize("modes", MODE_COMBOS,
                             ids=["/".join(m) for m in MODE_COMBOS])
    def test_schedule_passes_oracle(self, modes):
        restart_mode, restore_mode = modes
        config = ChaosConfig(seed=11, n_events=30,
                             restart_mode=restart_mode,
                             restore_mode=restore_mode, shrink=False)
        result = execute_schedule(config, generate_schedule(config))
        assert result.ok, result.trace_text()
        assert result.counters["recoveries"] > 0
        assert result.counters["committed_txns"] > 0

    def test_small_campaign_covers_taxonomy(self):
        campaign = run_campaign(
            ChaosConfig(n_events=30, shrink=False).campaign(4, base_seed=60))
        assert campaign.ok, [f.trace_text() for f in campaign.failures]
        assert campaign.all_failure_kinds_covered()
        assert ({(c.restart_mode, c.restore_mode) for c in campaign.configs}
                == set(MODE_COMBOS))
        summary = campaign.summary()
        assert summary["schedules"] == 4
        assert summary["failed"] == 0


class TestShrinking:
    """``poison`` is a row of weight 0 in both event tables, so the
    detection and shrinking machinery is proven on either plug-in."""

    @both_plugins
    def test_poison_schedule_shrinks_to_the_poison(self, plugin):
        """A deliberately divergent event (a commit the oracle never
        hears about) must be detected, and greedy deletion must strip
        the surrounding noise down to (almost) just the poison."""
        config = PLUGIN_CONFIGS[plugin](seed=13, n_events=20, shrink=False)
        events = [e for e in generate_schedule(config)
                  if e.kind not in failure_kinds(config)]
        poisoned = events + [Event(999.0, 10_000, "poison")]
        result = execute_schedule(config, poisoned)
        assert not result.ok
        shrunk = shrink_schedule(config, poisoned)
        assert any(e.kind == "poison" for e in shrunk)
        assert len(shrunk) <= 2
        assert not execute_schedule(config, shrunk).ok

    @both_plugins
    def test_failing_run_attaches_shrunk_schedule(self, plugin):
        config = PLUGIN_CONFIGS[plugin](seed=13, n_events=12)

        # run_chaos generates its own events; emulate by running the
        # poisoned schedule through execute + shrink exactly as
        # run_chaos does for a failing seed.
        events = generate_schedule(config)
        poisoned = events + [Event(999.0, 10_000, "poison")]
        result = execute_schedule(config, poisoned)
        assert not result.ok
        assert "poison" in result.event_counts
        result.shrunk = shrink_schedule(config, poisoned)
        assert "SHRUNK to 1 events:\n  t=999 poison" in result.trace_text()

    @pytest.mark.parametrize("plugin,options", [
        ("engine", {"buffer_capacity": 2}),
        ("fleet", {"buffer_capacity": 2}),
        ("fleet", {"n_shards": 0}),
    ])
    def test_setup_failure_is_a_result_not_an_exception(self, plugin,
                                                        options):
        """A config the system under test refuses must come back as a
        failed result from every entry point — run, shrink, campaign —
        never as an exception out of them."""
        config = PLUGIN_CONFIGS[plugin](seed=1, n_events=6, **options)
        result = run_chaos(config)
        assert not result.ok
        assert result.violations[0].startswith("setup raised ")
        assert result.shrunk == []
        campaign = run_campaign(config.campaign(2))
        assert len(campaign.failures) == 2


class TestArtifacts:
    @both_plugins
    def test_failing_cli_run_writes_trace(self, plugin, tmp_path, capsys):
        """A seed that fails from the command line leaves its trace in
        ``--artifacts`` (here the failure is a config the system
        refuses; a violation takes the same path)."""
        assert main([plugin, "--seed", "99", "--buffer-capacity", "2",
                     "--artifacts", str(tmp_path)]) == 1
        assert "trace written to" in capsys.readouterr().out
        (path,) = tmp_path.iterdir()
        content = path.read_text()
        assert "RESULT FAIL" in content
        assert "seed=99" in content
        assert "VIOLATION setup raised ConfigError" in content

    def test_failing_run_names_its_repairs(self, tmp_path):
        """A failing seed's artifact says which pages the run repaired,
        from which source, replaying how many records — the engine's
        repair ring as it stood when the run ended."""
        config = ChaosConfig(seed=13, n_events=30, shrink=False)
        poisoned = generate_schedule(config) + [Event(999.0, 10_000, "poison")]
        result = execute_schedule(config, poisoned)
        assert not result.ok and result.repairs
        content = open(_write_artifact(str(tmp_path), result)).read()
        assert content.startswith(result.trace_text() + "\n")
        repairs = [line for line in content.splitlines()
                   if line.startswith("REPAIR ")]
        assert repairs == ["REPAIR " + line for line in result.repairs]
        assert re.fullmatch(
            r"REPAIR page \d+: [a-z-]+ -> single-page recovery \(source "
            r"(backup_chain|replica), \d+ records replayed, \d+ log pages "
            r"read, \d+ backup fetches, \d+\.\d+ s simulated\)", repairs[0])


@pytest.mark.slow
class TestNightlyCampaign:
    """Nightly chaos: hundreds of random seeds (base seed printed for
    replay), failing traces written to ``CHAOS_ARTIFACTS``."""

    def test_campaign(self):
        n_schedules = int(os.environ.get("CHAOS_SCHEDULES", "500"))
        base_seed = int(os.environ.get("CHAOS_BASE_SEED", "0"))
        artifacts = os.environ.get("CHAOS_ARTIFACTS", "chaos-traces")
        print(f"chaos nightly: schedules={n_schedules} "
              f"base_seed={base_seed}")
        campaign = run_campaign(
            ChaosConfig(n_events=40).campaign(n_schedules, base_seed))
        for failure in campaign.failures:
            print("failing trace:", _write_artifact(artifacts, failure))
        assert campaign.ok, (
            f"{len(campaign.failures)} of {n_schedules} schedules failed; "
            f"traces in {artifacts}/")
        assert campaign.all_failure_kinds_covered()
        assert ({(c.restart_mode, c.restore_mode) for c in campaign.configs}
                == set(MODE_COMBOS))
