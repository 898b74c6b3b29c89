"""Post-failure latency-dip curves: ``python benchmarks/dip.py``.

Instant restart (PR 2) makes the engine *available* immediately after
a crash, but availability is not the same as performance: every first
touch of a cold pending page pays on-demand redo, so per-operation
latency dips hard right after the failure and climbs back as recovery
work drains.  This harness measures that dip and what predictive
prefetching (PR 9) does to it.

The probe runs one fixed seeded workload twice — ``prefetch_mode
="off"`` and ``"semantic"`` — on *simulated* time (HDD cost profiles),
so every latency is a deterministic function of the I/O the engine
actually issued, with zero wall-clock noise:

1. load a keyspace, flush, then commit an unflushed update wave that
   dirties every leaf (the restart-pending set);
2. drive mixed traffic — hot-set lookups over the highest pages plus a
   *descending* sequential scan — measuring each op's simulated
   latency; between ops the harness runs one prefetch service tick
   (speculative I/O is never charged to an operation);
3. crash, reopen with ``restart_mode="on_demand"``, and keep driving
   the same traffic, with one small budgeted ``drain_restart`` between
   ops (identical budget in both modes; only the *order* differs:
   ascending page id when off, predicted-next-access when semantic);
4. slide a window over the per-op series and report p50/p99 curves and
   **time-to-p99-recovery**: the first post-crash op from which three
   consecutive windows hold p99 at or below threshold (1.5x the off
   run's pre-crash p99, floored at 1 ms — an eighth of one random
   HDD read, so a "recovered" window is one whose ops run from memory).

The descending scan is deliberately adversarial to the classic
ascending-id drain: the scan's next pages are the *last* ones an
ascending sweep reaches, while the semantic run both read-ahead-covers
the scan front and ranks the drain toward it.  The off run is the
honest baseline, not a strawman: it gets the identical drain budget.

The probe also proves visible-state equivalence: after both runs fully
recover, their log record shapes and committed scans must be
identical (prefetching may reorder recovery work but never change
state), and the semantic run's prefetch waste ratio is gated at <= 25%.

Snapshot lands in ``BENCH_dip.json``, gated by
``benchmarks/check_regression.py``.

Usage::

    PYTHONPATH=src python benchmarks/dip.py [--scale full|smoke] [out-dir]
"""

from __future__ import annotations

import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (_ROOT, os.path.join(_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.core.backup import BackupPolicy  # noqa: E402
from repro.engine.config import EngineConfig  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.sim.iomodel import HDD_PROFILE  # noqa: E402

#: simulated-seconds floor under the recovery threshold: 1 ms, an
#: eighth of one random HDD read — a window passes only if its p99 op
#: ran (essentially) from memory
THRESHOLD_FLOOR_S = 0.001
#: threshold multiplier over the off run's pre-crash baseline p99
THRESHOLD_FACTOR = 1.5

SCALES = {
    # n_keys sizes the tree; pre/post are measured op counts around the
    # crash; window/step size the sliding percentile; hot_keys is the
    # hot set (highest keys = highest page ids); scan_stride is keys
    # per descending-scan step; drain_pages is the per-op drain budget.
    "full": dict(n_keys=6000, pre_ops=800, post_ops=1600,
                 window=100, step=25, hot_keys=300, scan_stride=7,
                 drain_pages=1, tick_budget=2, buffer_capacity=384),
    "smoke": dict(n_keys=1500, pre_ops=300, post_ops=700,
                  window=60, step=15, hot_keys=100, scan_stride=5,
                  drain_pages=1, tick_budget=2, buffer_capacity=256),
}


def key_of(i: int) -> bytes:
    return b"k%06d" % i


def value_of(i: int, version: int) -> bytes:
    return b"v%d.%d|" % (i, version) + b"x" * 64


def build_db(mode: str, params: dict) -> tuple[Database, object]:
    """Fresh database on HDD profiles, loaded and primed for the dip.

    The buffer holds the whole tree, so the pre-crash steady state runs
    from memory and the post-crash dip isolates *recovery* I/O.  The
    final update wave dirties every leaf and is committed but never
    flushed: at the crash, all of it is pending restart redo.
    """
    config = EngineConfig(
        capacity_pages=2048,
        buffer_capacity=params["buffer_capacity"],
        device_profile=HDD_PROFILE,
        log_profile=HDD_PROFILE,
        backup_profile=HDD_PROFILE,
        restart_mode="on_demand",
        backup_policy=BackupPolicy(every_n_updates=10_000),
        prefetch_mode=mode,
    )
    db = Database(config)
    tree = db.create_index()
    n_keys = params["n_keys"]
    txn = db.begin()
    for i in range(n_keys):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.checkpoint()
    db.flush_everything()
    # The update wave: one update per ~half leaf, so every leaf is
    # dirty (and therefore restart-pending after the crash).
    txn = db.begin()
    for i in range(0, n_keys, 16):
        tree.update(txn, key_of(i), value_of(i, 1))
    db.commit(txn)
    return db, tree


class Traffic:
    """The deterministic op stream: hot lookups + a descending scan.

    Op ``t`` is a hot-set lookup unless ``t % 2 == 0``, which advances
    the scan cursor ``scan_stride`` keys downward (wrapping at zero).
    Hot keys are the highest — the pages an ascending drain reaches
    last — and the hot probe walks them round-robin.
    """

    def __init__(self, params: dict) -> None:
        self.n_keys = params["n_keys"]
        self.hot_keys = params["hot_keys"]
        self.stride = params["scan_stride"]
        self.cursor = self.n_keys - 1
        self.hot_i = 0

    def next_key(self, t: int) -> bytes:
        if t % 2 == 0:
            key = key_of(self.cursor)
            self.cursor -= self.stride
            if self.cursor < 0:
                self.cursor = self.n_keys - 1
            return key
        key = key_of(self.n_keys - 1 - (self.hot_i % self.hot_keys))
        self.hot_i += 3
        return key


def drive(db: Database, tree, traffic: Traffic, n_ops: int,  # noqa: ANN001
          params: dict, drain: bool) -> list[float]:
    """Run ``n_ops`` measured lookups; returns per-op simulated seconds.

    Between ops (outside the measured span) the engine gets one
    prefetch service tick and — when ``drain`` — one budgeted restart
    drain, the background work a real system would overlap with
    traffic.  Both run in every mode; with prefetching off the tick is
    a no-op and the drain falls back to the ascending sweep.
    """
    series: list[float] = []
    clock = db.clock
    for t in range(n_ops):
        t0 = clock.now
        tree.lookup(traffic.next_key(t))
        series.append(clock.now - t0)
        db.prefetch_tick(params["tick_budget"])
        if drain:
            db.drain_restart(page_budget=params["drain_pages"],
                             loser_budget=1)
    return series


def percentile(data: list[float], q: float) -> float:
    data = sorted(data)
    if not data:
        return 0.0
    rank = (len(data) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


def windowed(series: list[float], window: int, step: int) -> list[dict]:
    """Sliding p50/p99 windows over a latency series (ms)."""
    out = []
    for start in range(0, max(1, len(series) - window + 1), step):
        chunk = series[start:start + window]
        out.append({
            "op": start,
            "p50_ms": round(percentile(chunk, 50) * 1000, 3),
            "p99_ms": round(percentile(chunk, 99) * 1000, 3),
        })
    return out


def time_to_recovery(windows: list[dict], threshold_s: float) -> int | None:
    """First op index from which 3 consecutive windows hold p99 <=
    threshold; None if the series never settles."""
    threshold_ms = threshold_s * 1000
    run = 0
    for i, win in enumerate(windows):
        run = run + 1 if win["p99_ms"] <= threshold_ms else 0
        if run >= 3:
            return windows[i - 2]["op"]
    return None


def log_shape(db: Database) -> list[tuple]:
    return [(r.lsn, r.kind, r.txn_id, r.page_id) for r in db.log.all_records()]


def run_mode(mode: str, params: dict) -> dict:
    """One full dip measurement under one prefetch mode."""
    db, tree = build_db(mode, params)
    traffic = Traffic(params)
    pre = drive(db, tree, traffic, params["pre_ops"], params, drain=False)
    before = db.stats.snapshot()
    db.crash()
    db.restart(mode="on_demand")
    tree = db.tree(tree.index_id)
    report_pending = (db.pending_recovery.pending_page_count
                      if db.pending_recovery else 0)
    post = drive(db, tree, traffic, params["post_ops"], params, drain=True)
    recovery_stats = db.stats.delta(before)
    # Settle to the common end state for the identity check.
    db.finish_restart()
    scan = dict(tree.range_scan())
    return {
        "mode": mode,
        "pre": pre,
        "post": post,
        "pending_at_crash": report_pending,
        "recovery_stats": {k: v for k, v in sorted(recovery_stats.items())
                           if k.startswith(("prefetch", "fetch", "restart",
                                            "lazy"))},
        "log_shape": log_shape(db),
        "scan": scan,
    }


def run_probe(scale: str = "full") -> dict:
    params = SCALES[scale]
    off = run_mode("off", params)
    sem = run_mode("semantic", params)

    window, step = params["window"], params["step"]
    baseline_p99_s = percentile(off["pre"], 99)
    threshold_s = max(THRESHOLD_FACTOR * baseline_p99_s, THRESHOLD_FLOOR_S)

    snapshot: dict = {
        "scale": scale,
        "workload": dict(params),
        "threshold_ms": round(threshold_s * 1000, 3),
        "baseline_p99_ms": round(baseline_p99_s * 1000, 3),
    }
    results = {}
    for res in (off, sem):
        wins = windowed(res["post"], window, step)
        ttr = time_to_recovery(wins, threshold_s)
        results[res["mode"]] = {
            "pending_at_crash": res["pending_at_crash"],
            "pre_p99_ms": round(percentile(res["pre"], 99) * 1000, 3),
            "post_p50_ms": round(percentile(res["post"], 50) * 1000, 3),
            "post_p99_ms": round(percentile(res["post"], 99) * 1000, 3),
            "dip_curve": wins,
            "time_to_p99_recovery_ops": ttr,
            "recovery_stats": res["recovery_stats"],
        }
    snapshot["off"] = results["off"]
    snapshot["semantic"] = results["semantic"]

    # Prefetch accounting (semantic run, whole lifetime).
    stats = results["semantic"]["recovery_stats"]
    issued = stats.get("fetch_prefetch", 0)
    wasted = stats.get("prefetch_wasted", 0)
    hits = stats.get("prefetch_hits", 0)
    snapshot["prefetch"] = {
        "issued": issued,
        "hits": hits,
        "wasted": wasted,
        "waste_ratio": round(wasted / issued, 4) if issued else 0.0,
        "hit_ratio": round(hits / issued, 4) if issued else 0.0,
    }

    off_ttr = results["off"]["time_to_p99_recovery_ops"]
    sem_ttr = results["semantic"]["time_to_p99_recovery_ops"]
    if off_ttr and sem_ttr is not None:
        snapshot["improvement"] = round(1.0 - sem_ttr / off_ttr, 4)
    else:
        snapshot["improvement"] = None
    snapshot["visible_state_identical"] = (
        off["log_shape"] == sem["log_shape"] and off["scan"] == sem["scan"])
    return snapshot


def check_dip_snapshot(snapshot: dict) -> list[str]:
    """Pass criteria — all on simulated time, so they are exact."""
    failures = []
    off_ttr = snapshot["off"]["time_to_p99_recovery_ops"]
    sem_ttr = snapshot["semantic"]["time_to_p99_recovery_ops"]
    if off_ttr is None:
        failures.append("dip: off run never recovered to threshold p99")
    if sem_ttr is None:
        failures.append("dip: semantic run never recovered to threshold p99")
    improvement = snapshot.get("improvement")
    if improvement is not None and improvement < 0.30:
        failures.append(
            f"dip: time-to-p99-recovery improved only {improvement:.0%} "
            f"(semantic {sem_ttr} vs off {off_ttr} ops); need >= 30%")
    waste = snapshot["prefetch"]["waste_ratio"]
    if waste > 0.25:
        failures.append(f"dip: prefetch waste ratio {waste:.0%} > 25%")
    if not snapshot["prefetch"]["issued"]:
        failures.append("dip: semantic run issued no speculative fetches")
    if not snapshot["visible_state_identical"]:
        failures.append("dip: off and semantic end states diverge "
                        "(log shape or committed scan)")
    return failures


def main() -> int:
    args = sys.argv[1:]
    scale = "full"
    if "--scale" in args:
        i = args.index("--scale")
        scale = args[i + 1]
        del args[i:i + 2]
    out_dir = args[0] if args else _ROOT

    snapshot = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "dip": run_probe(scale),
    }
    failures = check_dip_snapshot(snapshot["dip"])
    snapshot["probe_failures"] = failures

    path = os.path.join(out_dir, "BENCH_dip.json")
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    summary = {k: snapshot["dip"][k] for k in
               ("threshold_ms", "improvement", "visible_state_identical")}
    summary["off_ttr_ops"] = snapshot["dip"]["off"]["time_to_p99_recovery_ops"]
    summary["sem_ttr_ops"] = (
        snapshot["dip"]["semantic"]["time_to_p99_recovery_ops"])
    summary["prefetch"] = snapshot["dip"]["prefetch"]
    print(json.dumps(summary, indent=2))
    if failures:
        print("PROBE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
