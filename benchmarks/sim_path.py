"""Where the simulated time goes: by runner phase and by I/O site.

Runs the layered benchmark's workloads through ``bench/``'s runner — the
same seed, records, rounds and op stream as ``python3 -m bench.run
--seconds S`` — with ``SimClock.advance`` wrapped from outside, and
splits each workload's ``sim_us_per_op`` two ways:

* by **runner phase**: each client op class, each failure event (crash,
  device loss, full backup), the maintenance checkpoints and the
  budgeted recovery drains;
* by **I/O site**: what charged the clock (a log force, a device read
  or write, a backup-store read or write, a log read) and the engine
  step it charged inside — eviction write-backs, miss reads, restore
  writes, repair writes and copy-forward page copies by name, the rest
  as "charge (step)".  Beside each write site: the pages it wrote and
  pages per device request, i.e. per extent of consecutive locations
  (``repro.sim.iomodel.WriteRequests``), of which only the first write
  paid a latency.

Only the timed rounds count, and the runner's off-the-books work (fault
injection, the oracle's re-reads) is left out, as the bench leaves it
out, so each table sums to the bench's ``sim_us_per_op``.  The process
fleet runs on the in-process transport, whose shards' clocks the
wrapper reaches: its rows add the shards up, where the bench reports
the slowest shard per round, so the fleet's total is printed beside
that figure.  Simulated time is exact: every run prints the same table.

Usage::

    python3 benchmarks/sim_path.py [--workload W] [--seed N] [--seconds S]
                                   [--scale smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
from collections import Counter

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.run import DEFAULT_SECONDS, SMOKE_ROUND_OPS, SMOKE_ROUNDS  # noqa: E402
from bench.runner import Runner  # noqa: E402
from bench.workloads import ROUNDS, WORKLOADS  # noqa: E402
from benchmarks.common import print_table  # noqa: E402
from repro.sim.clock import SimClock  # noqa: E402
from repro.sim.iomodel import WriteRequests  # noqa: E402

#: engine steps an I/O is charged inside, by ``(module, qualified name)``
#: of the function; the innermost one on the stack names the step
STEP_NAMES = {
    ("repro.buffer.buffer_pool", "BufferPool._make_room"): "eviction",
    ("repro.buffer.buffer_pool", "BufferPool.flush_all"): "flush",
    ("repro.buffer.buffer_pool", "BufferPool.evict_all"): "flush",
    ("repro.core.recovery_manager", "RecoveryManager.fetch_page"): "miss",
    ("repro.engine.pending_recovery", "PendingRecovery._fetch"): "miss",
    ("repro.core.single_page", "SinglePageRecovery.recover"): "repair",
    ("repro.core.single_page", "SinglePageRecovery.recover_many"): "repair",
    ("repro.engine.system_recovery", "run_restart"): "restart",
    ("repro.engine.pending_recovery", "DeviceImage.image"): "restart",
    ("repro.engine.pending_recovery", "DeviceImage.deliver"): "restart",
    ("repro.engine.media_recovery", "run_media_recovery"): "restore",
    ("repro.engine.pending_recovery", "BackupImage.image"): "restore",
    ("repro.engine.pending_recovery", "BackupImage.deliver"): "restore",
    ("repro.engine.pending_recovery", "BackupImage.prefetch_images"):
        "restore",
    ("repro.engine.checkpointer", "Checkpointer.checkpoint"): "checkpoint",
    ("repro.engine.checkpointer", "Checkpointer.take_full_backup"):
        "full backup",
    ("repro.engine.checkpointer", "Checkpointer.on_before_write"):
        "page copy",
    ("repro.engine.checkpointer",
     "Checkpointer._copy_forward_pinning_pages"): "copy-forward",
}



def _code_of(module: str, qualname: str):  # noqa: ANN202
    """The code object of the function ``qualname`` in ``module``."""
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target.__code__


#: :data:`STEP_NAMES` keyed by the functions' code objects, which name a
#: frame's function exactly (a method inherited by a subclass included)
#: on every Python this package supports; ``co_qualname`` is 3.11+
STEPS = {_code_of(module, qualname): step
         for (module, qualname), step in STEP_NAMES.items()}

#: the sites named on their own, by ``(charge, step)``
NAMED = {
    ("device write", "eviction"): "eviction write-back",
    ("device read", "miss"): "miss read",
    ("device write", "restore"): "restore write",
    ("device write", "repair"): "repair write",
    ("backup write", "copy-forward"): "copy-forward",
}


def charge_of(module: str, name: str) -> str:
    """What kind of I/O the function ``name`` that advanced the clock
    models."""
    if module == "repro.wal.log_manager":
        return "log force"
    if module == "repro.wal.log_reader":
        return "log read"
    if module == "repro.storage.device":
        return "device read" if "read" in name else "device write"
    if module == "repro.core.backup":
        return "backup write" if name.startswith("store_") else "backup read"
    if module == "repro.engine.checkpointer":
        return "device scan"  # a full backup's sequential read
    return name


def site_of(frame) -> str:  # noqa: ANN001
    """The I/O site of an advance whose caller is ``frame``."""
    charge = charge_of(frame.f_globals.get("__name__", ""),
                       frame.f_code.co_name)
    if charge == "log force":
        return charge
    step = "other"
    outer = frame
    while outer is not None:
        found = STEPS.get(outer.f_code)
        if found is not None:
            step = found
            break
        outer = outer.f_back
    return NAMED.get((charge, step)) or f"{charge} ({step})"


class SimPath:
    """Simulated seconds of the timed rounds, by phase and by site."""

    def __init__(self) -> None:
        self.phases: Counter[str] = Counter()
        self.sites: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: per write site, the pages written and the device requests
        #: (extents) they formed
        self.pages: Counter[str] = Counter()
        self.requests: Counter[str] = Counter()
        #: innermost runner phase; None: off the books
        self._stack: list[str | None] = [None]
        #: in a timed round (not set-up, not the warm-up round)
        self.counting = False

    def charge(self, seconds: float, frame) -> None:  # noqa: ANN001
        phase = self._stack[-1]
        if self.counting and phase is not None and seconds:
            self.phases[phase] += seconds
            self.sites[site_of(frame)] += seconds

    def wrote(self, continued: bool, frame) -> None:  # noqa: ANN001
        """One page write, made by ``frame`` (the frame that charges it)."""
        if self.counting and self._stack[-1] is not None:
            site = site_of(frame)
            self.pages[site] += 1
            self.requests[site] += not continued

    @contextlib.contextmanager
    def enter(self, phase: str | None):  # noqa: ANN201
        self._stack.append(phase)
        try:
            yield
        finally:
            self._stack.pop()

    def wrap(self, phase: str, fn):  # noqa: ANN001, ANN201
        def phased(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            if self.counting:
                self.calls[phase] += 1
            with self.enter(phase):
                return fn(*args, **kwargs)
        return phased

    def instrument(self, runner: Runner) -> None:
        """Phase the runner's handlers; count from the first timed round
        on (``Runner.run`` plays one warm-up round first)."""
        for table, prefix in ((runner._handlers, "op"),
                              (runner._events, "event")):
            for kind, handler in table.items():
                table[kind] = self.wrap(f"{prefix}: {kind}", handler)
        runner._maintenance = self.wrap("maintenance", runner._maintenance)
        runner._drain = self.wrap("drain", runner._drain)
        off_the_books = runner._off_the_books

        @contextlib.contextmanager
        def uncounted(rnd):  # noqa: ANN001, ANN202
            with self.enter(None), off_the_books(rnd):
                yield
        runner._off_the_books = uncounted
        run_round, played = runner.run_round, [0]

        def counted_round(ops):  # noqa: ANN001, ANN202
            played[0] += 1
            self.counting = played[0] > 1  # the first is the warm-up
            with self.enter("unphased"):
                return run_round(ops)
        runner.run_round = counted_round


def measure(name: str, seed: int = 1, seconds: float = DEFAULT_SECONDS,
            smoke: bool = False) -> dict:
    """One workload's run: ``ops``, the bench's ``sim_seconds`` over the
    timed rounds, and the seconds ``phases`` / ``sites`` / phase
    ``calls`` / write sites' ``pages`` and ``requests`` as counted
    here."""
    workload = WORKLOADS[name]
    n_records = workload.records // 20 if smoke else workload.records
    round_ops = SMOKE_ROUND_OPS if smoke else workload.round_ops(seconds)
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    path = SimPath()
    advance, continues = SimClock.advance, WriteRequests.continues

    def charged(clock: SimClock, seconds_: float) -> float:
        path.charge(seconds_, sys._getframe(1))
        return advance(clock, seconds_)

    def counted(requests: WriteRequests, location: int) -> bool:
        continued = continues(requests, location)
        path.wrote(continued, sys._getframe(1))
        return continued

    runner = Runner(workload, seed, n_records, round_ops, rounds,
                    transport="inproc")
    SimClock.advance, WriteRequests.continues = charged, counted
    try:
        runner.setup()
        path.instrument(runner)
        timed = runner.run()
    finally:
        SimClock.advance, WriteRequests.continues = advance, continues
        runner.close()
    if runner.failed:
        raise AssertionError(f"{name}: {runner.failed} operations failed")
    return {"ops": sum(rnd.ops for rnd in timed),
            "sim_seconds": sum(rnd.sim_seconds for rnd in timed),
            "phases": path.phases, "sites": path.sites, "calls": path.calls,
            "pages": path.pages, "requests": path.requests}


def report(name: str, result: dict) -> None:
    ops = result["ops"]
    total = sum(result["phases"].values())
    bench_us = result["sim_seconds"] * 1e6 / ops
    fleet = WORKLOADS[name].fleet
    title = (f"{name}: {total * 1e6 / ops:.3f} simulated us/op"
             + (f" summed over shards (the bench's slowest-shard figure: "
                f"{bench_us:.3f})" if fleet else ""))
    calls = result["calls"]
    print_table(f"{title} -- by runner phase",
                ["phase", "calls", "us/op", "share", "us/call"],
                [[phase, calls[phase], seconds * 1e6 / ops, seconds / total,
                  seconds * 1e6 / calls[phase] if calls[phase] else 0.0]
                 for phase, seconds in sorted(
                     ((phase, result["phases"][phase])
                      for phase in {*calls, *result["phases"]}),
                     key=lambda row: (-row[1], row[0]))])
    pages, requests = result["pages"], result["requests"]
    print_table(f"{name} -- by I/O site",
                ["site", "us/op", "share", "pages", "pages/request"],
                [[site, seconds * 1e6 / ops, seconds / total,
                  pages[site] if requests[site] else "",
                  pages[site] / requests[site] if requests[site] else ""]
                 for site, seconds in result["sites"].most_common()])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="the bench's --seconds: sets ops per round")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    for name in [args.workload] if args.workload else list(WORKLOADS):
        report(name, measure(name, args.seed, args.seconds,
                             args.scale == "smoke"))


if __name__ == "__main__":
    main()
