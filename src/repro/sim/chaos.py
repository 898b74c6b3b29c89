"""The chaos core: one seeded generate -> execute -> shrink -> campaign loop.

The paper's claim is structural: single-page failures join transaction,
media, and system failures in one taxonomy, and all of them — singly
or *composed* — are repaired without losing committed work.  The
point-wise matrices (``tests/test_crash_matrix.py``,
``tests/test_media_matrix.py``) pin hand-picked protocol points; this
module is the FoundationDB-style generalization: a **seeded
discrete-event harness** that interleaves a multi-client workload with
injected failures at *arbitrary* points, against the real system, and
proves after every recovery that committed data survived.

Everything that is not an event or an oracle lives here, once:

* :func:`generate_schedule` — expands ``(seed, config)`` into an
  ordered list of :class:`Event` objects drawn from the config's event
  table.
* :func:`execute_schedule` — a pure function of ``(config, events)``:
  same inputs, bit-identical trace.  That purity is what makes
  failures replayable from their seed and shrinkable.  It never raises:
  a set-up or run exception is a violation in the result.
* :func:`shrink_schedule` — greedy event deletion: a failing schedule
  is minimized by repeatedly re-running with one event removed,
  keeping removals that still fail.  Per-client RNG streams make this
  sound: deleting an event never changes what surviving events do.
* :func:`run_chaos` / :func:`run_campaign` — one seed, or a stream of
  configs aggregated into one :class:`CampaignResult`.
* :func:`main` — the one command line.

What differs between harnesses is a **plug-in** (:class:`Plugin`): an
ordered table of :class:`EventKind` rows — name, weight, payload draw,
handler, whether it is a failure, and which configs enable it — plus
the :class:`ChaosRun` subclass whose state and oracles the handlers
work on.  A config class names its plug-in (``config.plugin``), so
every function here takes any plug-in's config:

* ``engine`` — :mod:`repro.sim.harness`: one
  :class:`repro.engine.database.Database`, the five failure classes,
  the replication and prefetch event families, the durability oracle.
* ``fleet`` — :mod:`repro.sim.shard_harness`: a sharded router, shard
  crashes at 2PC failpoints, partitions, online rebalancing, the
  atomicity and single-owner oracles.

Registering an event kind — or a whole family — is one more row in a
plug-in's table; nothing in this module changes.

Command line::

    PYTHONPATH=src python -m repro.sim.chaos engine --seed 7
    PYTHONPATH=src python -m repro.sim.chaos engine --campaign 200 --events 40
    PYTHONPATH=src python -m repro.sim.chaos fleet --seed 7 --shards 4
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable, Iterator

#: CLI name -> (module, config class) of each plug-in; imported lazily
#: because the plug-ins import this module (and the whole engine)
PLUGINS = {
    "engine": ("repro.sim.harness", "ChaosConfig"),
    "fleet": ("repro.sim.shard_harness", "ShardChaosConfig"),
}


def key_of(i: int) -> bytes:
    return b"k%06d" % i


def apply_staged(model: dict[bytes, bytes],
                 staged: dict[bytes, bytes | None]) -> None:
    """Fold a transaction's staged effects into a key -> value model
    (a staged value of ``None`` is a delete)."""
    for key, value in staged.items():
        if value is None:
            model.pop(key, None)
        else:
            model[key] = value


# ----------------------------------------------------------------------
# Events, event tables, plug-ins
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Event:
    """One scheduled event on the virtual timeline.

    Event time is a virtual ordering key (ties break on ``seq``, the
    position the schedule was generated in); the
    :class:`repro.sim.clock.SimClock` measures modeled I/O cost.  The
    engine plug-in bridges the two where it matters, arming clock
    deadlines so failures fire *mid-operation*.
    """

    time: float
    seq: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)

    def sort_key(self) -> tuple[float, int]:
        return (self.time, self.seq)

    def describe(self) -> str:
        """Compact, deterministic one-line rendering (trace format)."""
        if not self.payload:
            return f"t={self.time:g} {self.kind}"
        inner = " ".join(f"{key}={self.payload[key]!r}"
                         for key in sorted(self.payload))
        return f"t={self.time:g} {self.kind} {inner}"


@dataclass(frozen=True)
class EventKind:
    """One row of a plug-in's event table."""

    name: str
    #: relative weight in a generated schedule (0: never drawn, only
    #: hand-built schedules contain it)
    weight: int
    #: ``handler(run, payload)``: a method of the plug-in's run class
    handler: Callable[[Any, dict], None]
    #: ``draw(rng, config) -> payload``; what a config draws is a pure
    #: function of the RNG stream, so the draw order inside is pinned
    draw: Callable[[random.Random, Any], dict] = lambda rng, config: {}
    #: failure kinds are guaranteed once in every long-enough schedule
    failure: bool = False
    #: which configs draw this kind at all — the only gate there is
    enabled: Callable[[Any], bool] = lambda config: True


@dataclass(frozen=True)
class Plugin:
    """What one harness adds to the core."""

    #: RNG stream label: schedules draw from ``Random(f"{label}/{seed}")``
    label: str
    #: the :class:`ChaosRun` subclass the handlers are methods of
    run: type[ChaosRun]
    #: the event table; its order is the order the weighted pool is
    #: expanded in, so appending is free and reordering moves every seed
    kinds: tuple[EventKind, ...]
    #: names of the per-run counters a result reports
    counters: tuple[str, ...]
    #: a schedule of at least ``guarantee_factor`` events per enabled
    #: failure kind starts with one of each, then ``also_guaranteed``
    guarantee_factor: int
    also_guaranteed: tuple[str, ...] = ()
    #: post-pass over a generated schedule (draws nothing)
    pin: Callable[[list[Event]], None] = lambda events: None


@dataclass
class BaseChaosConfig:
    """The part of "everything needed to reproduce one run" that every
    plug-in shares; subclasses add fields and may change defaults."""

    #: set by the plug-in module once its table is built
    plugin: ClassVar[Plugin]

    seed: int = 0
    n_events: int = 40
    n_clients: int = 4
    n_keys: int = 120
    #: shrink a failing schedule by greedy event deletion
    shrink: bool = True
    max_shrink_runs: int = 150
    #: engine sizing
    capacity_pages: int = 1024
    buffer_capacity: int = 48

    def header(self) -> str:
        """First line of a trace: the flags that replay this run."""
        raise NotImplementedError

    def campaign(self, n_schedules: int,
                 base_seed: int = 0) -> Iterator[BaseChaosConfig]:
        """This config over seeds ``base_seed .. base_seed + n - 1``."""
        for seed in range(base_seed, base_seed + n_schedules):
            yield dataclasses.replace(self, seed=seed)


def failure_kinds(config: BaseChaosConfig) -> tuple[str, ...]:
    """The failure kinds ``config`` draws from, in table order."""
    return tuple(kind.name for kind in config.plugin.kinds
                 if kind.failure and kind.enabled(config))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ChaosResult:
    """Outcome of one executed schedule."""

    config: BaseChaosConfig
    events: list[Event]
    ok: bool = True
    violations: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    #: event kind -> times executed
    event_counts: Counter = field(default_factory=Counter)
    #: the plug-in's counters (``config.plugin.counters``)
    counters: dict[str, int] = field(default_factory=dict)
    #: the system's most recent page repairs and escalations when the
    #: run ended (``Database.recent_failures()``, one line each)
    repairs: list[str] = field(default_factory=list)
    shrunk: list[Event] | None = None

    def trace_text(self, quiet: bool = False) -> str:
        """The whole run as text; ``quiet`` leaves out the per-event
        trace lines and keeps header, verdict and findings."""
        lines = [f"{self.config.header()} events={len(self.events)}",
                 *([] if quiet else self.trace),
                 "RESULT " + ("PASS" if self.ok else "FAIL")]
        lines.extend(f"VIOLATION {v}" for v in self.violations)
        if self.shrunk is not None:
            lines.append(f"SHRUNK to {len(self.shrunk)} events:")
            lines.extend("  " + event.describe() for event in self.shrunk)
        return "\n".join(lines)


@dataclass
class CampaignResult:
    """Aggregate outcome of a multi-schedule chaos campaign."""

    #: every config run, in order
    configs: list[BaseChaosConfig] = field(default_factory=list)
    failures: list[ChaosResult] = field(default_factory=list)
    #: event kind -> times executed, over all schedules
    coverage: Counter = field(default_factory=Counter)
    #: the results' counters, summed
    counters: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures

    def all_failure_kinds_covered(self) -> bool:
        """Every failure kind some config enabled was executed."""
        return all(self.coverage[kind] > 0
                   for config in self.configs
                   for kind in failure_kinds(config))

    def summary(self) -> dict:
        return {
            "schedules": len(self.configs),
            "failed": len(self.failures),
            **self.counters,
            "event_coverage": {k: self.coverage[k]
                               for k in sorted(self.coverage)},
            "all_failure_kinds_covered": self.all_failure_kinds_covered(),
        }


# ----------------------------------------------------------------------
# One schedule: generate, execute, shrink
# ----------------------------------------------------------------------
class ChaosRun:
    """Mutable state of one schedule execution.  A plug-in subclasses
    it with the system under test, its oracles and one handler method
    per event kind."""

    def __init__(self, config: BaseChaosConfig, events: list[Event]) -> None:
        self.config = config
        self.result = ChaosResult(
            config, list(events),
            counters=dict.fromkeys(config.plugin.counters, 0))

    def trace(self, line: str) -> None:
        self.result.trace.append(line)

    def violation(self, message: str) -> None:
        self.result.violations.append(message)
        self.result.ok = False

    def count(self, counter: str, n: int = 1) -> None:
        self.result.counters[counter] += n

    def step(self, kind: EventKind, event: Event) -> None:
        """Execute one event (override to wrap the handler call)."""
        kind.handler(self, event.payload)

    def finish(self) -> None:
        """Epilogue of a run that got this far clean: final recovery
        and the final oracles."""

    def close(self) -> None:
        """Release whatever the run holds, pass or fail, after noting
        the system's repair ring in ``result.repairs``."""


def generate_schedule(config: BaseChaosConfig) -> list[Event]:
    """Expand ``(seed, config)`` into an ordered chaos schedule.

    When the schedule is long enough, one event of each failure kind
    is guaranteed, so a default campaign run covers the whole failure
    taxonomy; everything else is drawn by weight from the kinds the
    config enables.
    """
    plugin = config.plugin
    rng = random.Random(f"{plugin.label}/{config.seed}")
    table = {kind.name: kind for kind in plugin.kinds if kind.enabled(config)}
    guaranteed = failure_kinds(config)
    names: list[str] = []
    if config.n_events >= plugin.guarantee_factor * len(guaranteed):
        names.extend(guaranteed)
        names.extend(plugin.also_guaranteed)
    pool = [kind.name for kind in table.values() for _ in range(kind.weight)]
    while len(names) < config.n_events:
        names.append(rng.choice(pool))
    rng.shuffle(names)
    events = [Event(float(step), step - 1, name, table[name].draw(rng, config))
              for step, name in enumerate(names, start=1)]
    plugin.pin(events)
    return events


def execute_schedule(config: BaseChaosConfig,
                     events: list[Event]) -> ChaosResult:
    """Execute a schedule; a pure function of ``(config, events)``.

    Never raises: an unexpected exception becomes a violation in the
    result (so campaigns and the shrinker treat crashes-of-the-harness-
    itself as failures to reproduce, not as aborts)."""
    plugin = config.plugin
    try:
        run = plugin.run(config, events)
    except Exception as exc:  # noqa: BLE001 - report, don't abort
        return ChaosResult(
            config, list(events), ok=False,
            violations=[f"setup raised {type(exc).__name__}: {exc}"])
    table = {kind.name: kind for kind in plugin.kinds}
    result = run.result
    try:
        try:
            for event in sorted(events, key=Event.sort_key):
                result.event_counts[event.kind] += 1
                run.step(table[event.kind], event)
                if not result.ok:
                    break
            if result.ok:
                run.finish()
        finally:
            run.close()
    except Exception as exc:  # noqa: BLE001 - report, don't abort
        run.violation(f"unhandled {type(exc).__name__}: {exc}")
    return result


def shrink_schedule(config: BaseChaosConfig,
                    events: list[Event]) -> list[Event]:
    """Minimize a failing schedule by greedy event deletion.

    Repeatedly re-executes the schedule with one event removed and
    keeps every removal that still fails, looping to a fixed point
    (bounded by ``config.max_shrink_runs`` executions).  Sound because
    per-client RNG streams make each event's behaviour independent of
    which other events survive.
    """
    current = list(events)
    runs = 0
    changed = True
    while changed and runs < config.max_shrink_runs:
        changed = False
        index = 0
        while index < len(current) and runs < config.max_shrink_runs:
            candidate = current[:index] + current[index + 1:]
            runs += 1
            if execute_schedule(config, candidate).ok:
                index += 1
            else:
                current = candidate
                changed = True
    return current


def run_chaos(config: BaseChaosConfig) -> ChaosResult:
    """Generate, execute, and (on failure) shrink one chaos schedule."""
    events = generate_schedule(config)
    result = execute_schedule(config, events)
    if not result.ok and config.shrink:
        result.shrunk = shrink_schedule(config, events)
    return result


def run_campaign(configs: Iterable[BaseChaosConfig],
                 on_result: Callable[[ChaosResult], None] | None = None,
                 ) -> CampaignResult:
    """Run one schedule per config (see
    :meth:`BaseChaosConfig.campaign`) and aggregate the outcomes."""
    campaign = CampaignResult()
    for config in configs:
        result = run_chaos(config)
        campaign.configs.append(config)
        campaign.coverage.update(result.event_counts)
        campaign.counters.update(result.counters)
        if not result.ok:
            campaign.failures.append(result)
        if on_result is not None:
            on_result(result)
    return campaign


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _write_artifact(directory: str, result: ChaosResult) -> str:
    os.makedirs(directory, exist_ok=True)
    name = "-".join(result.config.header().split()) + ".trace"
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(result.trace_text() + "\n")
        fh.writelines(f"REPAIR {line}\n" for line in result.repairs)
    return path


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--campaign", type=int, metavar="N",
                        help="run N schedules (seeds base..base+N-1) "
                             "instead of the one --seed names")
    shared.add_argument("--base-seed", type=int, default=0,
                        help="first seed of a campaign")
    shared.add_argument("--artifacts", metavar="DIR",
                        help="write failing traces into DIR")
    shared.add_argument("--quiet", action="store_true",
                        help="suppress per-event trace output")
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.chaos",
        description="Seeded deterministic chaos simulation; every "
                    "plug-in flag below is a field of its config.")
    plugins = parser.add_subparsers(dest="plugin", required=True)
    for name, (module, config_name) in PLUGINS.items():
        config_cls = getattr(importlib.import_module(module), config_name)
        sub = plugins.add_parser(name, parents=[shared],
                                 help=config_cls.__doc__)
        sub.set_defaults(config_cls=config_cls)
        for spec in dataclasses.fields(config_cls):
            flag = "--" + spec.name.removeprefix("n_").replace("_", "-")
            parse = ({"action": argparse.BooleanOptionalAction}
                     if isinstance(spec.default, bool)
                     else {"type": type(spec.default)})
            sub.add_argument(flag, dest=spec.name, default=spec.default,
                             help=f"default {spec.default}", **parse)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = args.config_cls(**{spec.name: getattr(args, spec.name)
                                for spec in dataclasses.fields(args.config_cls)})

    def save(result: ChaosResult) -> None:
        if not result.ok and args.artifacts:
            path = _write_artifact(args.artifacts, result)
            print(f"trace written to {path}")

    if args.campaign is None:
        result = run_chaos(config)
        print(result.trace_text(quiet=args.quiet))
        save(result)
        return 0 if result.ok else 1

    def report(result: ChaosResult) -> None:
        counters = " ".join(f"{k}={v}" for k, v in result.counters.items())
        print(f"{result.config.header()} {counters} "
              + ("ok" if result.ok else "FAIL"))
        if not result.ok and not args.artifacts:
            print(result.trace_text(quiet=args.quiet))
        save(result)

    campaign = run_campaign(config.campaign(args.campaign, args.base_seed),
                            on_result=report)
    summary = campaign.summary()
    coverage = summary.pop("event_coverage")
    print("campaign " + " ".join(f"{k}={v}" for k, v in summary.items()))
    print(f"coverage {coverage}")
    if not summary["all_failure_kinds_covered"]:
        print("WARNING: not all failure kinds were exercised")
    return 0 if campaign.ok else 1


if __name__ == "__main__":
    # Run the importable module, not this ``__main__`` copy of it: the
    # plug-ins import ``repro.sim.chaos``, and a config must meet the
    # same classes there as here.
    from repro.sim.chaos import main as _main

    sys.exit(_main())
