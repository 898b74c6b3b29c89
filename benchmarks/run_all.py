"""Perf-snapshot entry point: ``python benchmarks/run_all.py``.

Runs the headline performance probes on the simulated substrate and
writes a ``BENCH_<tag>.json`` snapshot next to the repo root:

* **single-page recovery I/Os** at growing total log volume (the
  segmented-WAL acceptance check: reads stay O(chain length));
* **log append throughput** (records/s and MB/s, wall time) including
  chain-head index maintenance;
* **group-commit effect**: forces needed for a burst of small
  transactions, batched vs. unbatched;
* **instant restart**: time-to-first-transaction after a crash, eager
  vs. on-demand, as the dirty-page count grows 10x;
* **instant restore**: time-to-first-transaction after a media
  failure, eager vs. on-demand, as the device grows 10x — plus a
  byte-identical differential oracle across the two modes;
* **replication** (``benchmarks/test_ext_replication.py``): the warm
  replica as a repair source (zero backup fetches, zero chain replay)
  versus the backup + chain path, the simulated per-commit cost of
  ``local_durable`` vs. ``replicated_durable`` acks with and without
  group commit — written to ``BENCH_replication.json``;
* **sharded throughput**: the same batched workload through
  ``repro.connect`` against one embedded engine and against four
  engine processes behind the sharded client — the 4-process run
  must clear >= 2.5x the single engine's ops/s — written to
  ``BENCH_sharding.json``;
* **online rebalancing**: a 90/10-skewed workload whose hot slots all
  start on shard 0, measured on simulated per-shard makespan before
  and after ``move_slot`` spreads them over the fleet (gated at
  >= 1.5x speedup with a no-lost-key scan diff) — written to
  ``BENCH_rebalance.json``;
* **per-operation latency** (``benchmarks/latency.py``): p50/p99/p999
  for insert, lookup and commit plus single-thread ops/s on the
  free-I/O profile, best-of-5, gated at >= 3x the pre-rewrite
  throughput — written to its own ``BENCH_latency.json``.

Chaos campaigns are not perf probes: the tier-1 suites
(``tests/test_chaos_sim.py``, ``tests/test_chaos_property.py``,
``tests/test_shard_chaos.py``) and CI's ``chaos-smoke`` job own them.

Every probe carries explicit pass criteria; the process exits
non-zero if any probe fails, so the CI benchmarks job cannot pass
vacuously.  All RNGs are seeded deterministically up front.  CI runs
this after the test suites so every build leaves a comparable perf
artifact (``benchmarks/check_regression.py`` diffs it against the
committed snapshot).  Usage::

    PYTHONPATH=src python benchmarks/run_all.py [output-dir]
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (_ROOT, os.path.join(_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.common import fast_db, key_of, value_of  # noqa: E402
from benchmarks.test_ext_segmented_log import (  # noqa: E402
    CHAIN_LENGTH,
    run_recovery_with_foreign_traffic,
)
from repro.sim.clock import SimClock  # noqa: E402
from repro.sim.iomodel import NULL_PROFILE  # noqa: E402
from repro.sim.stats import Stats  # noqa: E402
from repro.wal.log_manager import LogManager  # noqa: E402
from repro.wal.lsn import NULL_LSN  # noqa: E402
from repro.wal.ops import OpInsert  # noqa: E402
from repro.wal.records import LogRecord, LogRecordKind  # noqa: E402


def bench_recovery_ios() -> dict:
    """Recovery log reads as the log grows (should stay flat)."""
    points = []
    for foreign in (0, 2000, 8000):
        result, log_bytes, segments = run_recovery_with_foreign_traffic(foreign)
        points.append({
            "foreign_updates": foreign,
            "log_bytes": log_bytes,
            "segments": segments,
            "log_pages_read": result.log_pages_read,
            "records_applied": result.records_applied,
            "total_random_ios": result.total_random_ios,
        })
    reads = [p["log_pages_read"] for p in points]
    return {
        "chain_length": CHAIN_LENGTH,
        "points": points,
        "reads_flat": max(reads) <= max(1, min(reads)) + 2,
    }


def bench_append_throughput(n_records: int = 50_000) -> dict:
    """Wall-time throughput of the segmented append path."""
    log = LogManager(SimClock(), NULL_PROFILE, Stats())
    prev = {pid: NULL_LSN for pid in range(128)}
    payload = b"v" * 48
    t0 = time.perf_counter()
    for i in range(n_records):
        pid = i % 128
        prev[pid] = log.append(LogRecord(
            LogRecordKind.UPDATE, txn_id=1, page_id=pid,
            page_prev_lsn=prev[pid], op=OpInsert(0, b"key", payload)))
    elapsed = time.perf_counter() - t0
    return {
        "records": n_records,
        "seconds": round(elapsed, 4),
        "records_per_second": round(n_records / elapsed),
        "mb_per_second": round(log.encoded_size() / elapsed / 1e6, 2),
        "segments": log.segment_count,
    }


def bench_group_commit(n_txns: int = 200) -> dict:
    """Log forces for a burst of one-op transactions, both flavours."""
    out = {}
    for label, batched in (("unbatched", False), ("batched", True)):
        db, tree = fast_db(50)
        before = db.stats.get("log_forces")
        if batched:
            with db.group_commit():
                for i in range(n_txns):
                    txn = db.begin()
                    tree.update(txn, key_of(i % 50), value_of(i, 1))
                    db.commit(txn)
        else:
            for i in range(n_txns):
                txn = db.begin()
                tree.update(txn, key_of(i % 50), value_of(i, 1))
                db.commit(txn)
        out[label] = {
            "commits": n_txns,
            "log_forces": db.stats.get("log_forces") - before,
        }
    return out


def seed_everything(seed: int = 0) -> None:
    """Deterministic runs: the engine's fault injectors already carry
    explicit seeds; this pins the remaining ambient RNGs.  (Hash
    randomization is fixed at interpreter startup and cannot be pinned
    here — no probe depends on dict/set iteration order.)"""
    random.seed(seed)
    try:
        import numpy

        numpy.random.seed(seed)
    except ImportError:
        pass


def bench_instant_restart() -> dict:
    """Time-to-first-transaction after a crash, both restart modes."""
    from benchmarks.test_ext_instant_restart import (
        crashed_db,
        time_to_first_transaction,
    )

    points = []
    for n_keys in (1200, 12000):
        row: dict = {"keys": n_keys}
        for mode in ("eager", "on_demand"):
            db = crashed_db(n_keys)
            seconds, report = time_to_first_transaction(db, mode)
            row[mode] = {
                "ttft_seconds": round(seconds, 4),
                "dirty_pages": report.dirty_pages_at_analysis_end,
                "pending_redo_pages": report.pending_redo_pages,
            }
        points.append(row)
    small, large = points
    return {
        "points": points,
        "eager_grows": (large["eager"]["ttft_seconds"]
                        >= 5 * small["eager"]["ttft_seconds"]),
        "on_demand_flat": (large["on_demand"]["ttft_seconds"]
                           <= 2 * small["on_demand"]["ttft_seconds"]),
    }


def bench_instant_restore() -> dict:
    """Time-to-first-transaction after a media failure, both restore
    modes, plus the eager-vs-on-demand differential oracle."""
    from benchmarks.test_ext_instant_restore import (
        failed_db,
        restore_both_modes,
        time_to_first_transaction,
    )
    from tests.conftest import assert_identical_recovery

    points = []
    for n_keys in (1200, 24000):
        row: dict = {"keys": n_keys}
        for mode in ("eager", "on_demand"):
            db, backup_id = failed_db(n_keys)
            seconds, report = time_to_first_transaction(db, backup_id, mode)
            row[mode] = {
                "ttft_seconds": round(seconds, 4),
                "pages_restored": report.pages_restored,
                "pending_restore_pages": report.pending_restore_pages,
            }
        points.append(row)
    small, large = points

    eager_db, lazy_db = restore_both_modes(1200)
    try:
        assert_identical_recovery(eager_db, lazy_db)
        byte_identical = True
    except AssertionError:
        byte_identical = False

    return {
        "points": points,
        "eager_grows": (large["eager"]["ttft_seconds"]
                        >= 5 * small["eager"]["ttft_seconds"]),
        "on_demand_flat": (large["on_demand"]["ttft_seconds"]
                           <= 2 * small["on_demand"]["ttft_seconds"]),
        "modes_byte_identical": byte_identical,
    }


def bench_commit_throughput(commits_per_thread: int = 120) -> dict:
    """Forces-per-commit as committing threads grow (cross-thread
    group commit).

    Each point runs N worker threads over Sessions against one engine,
    every thread committing single-update transactions on its own key
    range (no lock conflicts — the probe isolates the commit barrier).
    At one thread every commit leads its own force (forces/commit =
    1.0); as threads grow, committers ride the in-flight leader's
    force, so the ratio must collapse: the pass criterion is the
    8-thread value <= 0.5x the single-thread value.
    """
    import threading

    points = []
    for n_threads in (1, 4, 8):
        keys_per_thread = 200
        db, tree = fast_db(n_threads * keys_per_thread,
                           commit_window_seconds=0.003)
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(thread_no: int, db=db, tree=tree, barrier=barrier,
                   errors=errors) -> None:
            try:
                session = db.session()
                barrier.wait()
                base = thread_no * keys_per_thread
                for i in range(commits_per_thread):
                    session.begin()
                    session.update(tree, key_of(base + i % keys_per_thread),
                                   value_of(base + i % keys_per_thread, 1))
                    session.commit()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        db.session()  # arm the barrier before measuring
        before = db.stats.get("log_forces")
        t0 = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        elapsed = time.perf_counter() - t0
        commits = n_threads * commits_per_thread
        forces = db.stats.get("log_forces") - before
        points.append({
            "threads": n_threads,
            "commits": commits,
            "log_forces": forces,
            "forces_per_commit": round(forces / commits, 4),
            "group_commit_riders": db.stats.get("group_commit_riders"),
            "commits_per_second_wall": round(commits / elapsed),
        })
    single, eight = points[0], points[-1]
    return {
        "points": points,
        "amortization_ratio": round(
            eight["forces_per_commit"] / single["forces_per_commit"], 4),
        "amortizes": (eight["forces_per_commit"]
                      <= 0.5 * single["forces_per_commit"]),
        "riders_appear": eight["group_commit_riders"] > 0,
    }


def bench_sharded_throughput(n_txns: int = 1200, n_shards: int = 4) -> dict:
    """Commit throughput through the facade: one embedded engine vs.
    ``n_shards`` engine *processes* behind the sharded client.

    The workload is OLTP-shaped — ``n_txns`` independent single-key
    autocommit transactions, each forcing its own commit record — and
    identical per transaction on both backends.  The single engine
    serializes every force on one log device; the fleet hash-spreads
    the same transactions over ``n_shards`` processes, each with its
    own WAL device, so the fleet's makespan is the *slowest shard's*
    simulated time.  Commits/s is computed from simulated seconds
    (deterministic: the cost model, not the CI host's core count,
    decides it), with wall time reported informationally; the pass
    criterion is the scale-out claim itself — the 4-shard fleet must
    clear >= 2.5x the single engine's commits/s, with the gap to the
    ideal 4x set by hash skew.
    """
    import repro
    from repro.core.backup import BackupPolicy

    def engine_template():  # noqa: ANN202
        return repro.EngineConfig(
            buffer_capacity=512,
            backup_policy=BackupPolicy(every_n_updates=1_000_000))

    workload = [(b"s%07d" % i, b"v%07d|" % i + b"x" * 16)
                for i in range(n_txns)]

    single = repro.connect(engine_template())
    try:
        sim_before = single.db.clock.now
        t0 = time.perf_counter()
        for key, value in workload:
            single.put(key, value)
        single_wall = time.perf_counter() - t0
        single_sim = single.db.clock.now - sim_before
        if single.get(workload[-1][0]) != workload[-1][1]:
            raise AssertionError("throughput probe lost a write")
    finally:
        single.close()

    sharded = repro.connect(repro.ShardConfig(
        n_shards=n_shards, transport="process", engine=engine_template()))
    try:
        router = sharded.router
        before = [router._call(i, "stats")["sim_clock_seconds"]
                  for i in range(n_shards)]
        t0 = time.perf_counter()
        for key, value in workload:
            sharded.put(key, value)
        sharded_wall = time.perf_counter() - t0
        per_shard_sim = [
            router._call(i, "stats")["sim_clock_seconds"] - before[i]
            for i in range(n_shards)]
        if sharded.get(workload[-1][0]) != workload[-1][1]:
            raise AssertionError("throughput probe lost a write")
    finally:
        sharded.close()

    makespan = max(per_shard_sim)
    single_cps = n_txns / single_sim
    fleet_cps = n_txns / makespan
    speedup = fleet_cps / single_cps
    return {
        "txns": n_txns,
        "n_shards": n_shards,
        "single": {
            "sim_seconds": round(single_sim, 4),
            "commits_per_second_sim": round(single_cps, 1),
            "wall_seconds": round(single_wall, 4),
        },
        "sharded": {
            "sim_seconds_makespan": round(makespan, 4),
            "sim_seconds_per_shard": [round(s, 4) for s in per_shard_sim],
            "commits_per_second_sim": round(fleet_cps, 1),
            "wall_seconds": round(sharded_wall, 4),
        },
        "speedup": round(speedup, 3),
        "parallel_speedup_ok": speedup >= 2.5,
    }


def bench_rebalance(n_ops: int = 1200, n_shards: int = 4) -> dict:
    """Online rebalancing pays on skewed workloads: a 90/10 workload
    whose hot keys all hash into four slots that the default routing
    table places on shard 0, measured before and after
    ``move_slot`` spreads three of those slots over shards 1-3.

    Both measurement windows run the identical op sequence (same RNG
    seed) of single-key autocommit puts, and both are scored on
    *simulated* per-shard time — the makespan is the hottest shard's
    sim-clock delta, so the number is the cost model's verdict on load
    placement, not the CI host's.  Before the moves the hot shard
    serializes ~92% of the work; after, the hot slots are spread
    evenly, so the ideal gain approaches 4x.  Pass criteria: >= 1.5x
    makespan speedup, and a full-scan key-set diff across the moves
    (the no-lost-key oracle over the backup + delta + cutover path).
    """
    import repro
    from repro.core.backup import BackupPolicy
    from repro.shard.routing import slot_of

    engine = repro.EngineConfig(
        buffer_capacity=512,
        backup_policy=BackupPolicy(every_n_updates=1_000_000))
    client = repro.connect(repro.ShardConfig(
        n_shards=n_shards, transport="inproc", engine=engine))
    router = client.router
    n_slots = router.config.n_slots

    # Four slots that epoch 0 (slot % n_shards) all places on shard 0.
    hot_slots = [s for s in range(0, n_slots, n_shards)][:4]
    hot_keys = []
    i = 0
    while len(hot_keys) < 16 * len(hot_slots):
        key = b"h%07d" % i
        if slot_of(key, n_slots) in hot_slots:
            hot_keys.append(key)
        i += 1
    cold_keys = [b"c%07d" % i for i in range(200)]

    rng = random.Random(0xB10C)
    ops = [rng.choice(hot_keys) if rng.random() < 0.9
           else rng.choice(cold_keys)
           for _ in range(n_ops)]

    def run_window() -> tuple[float, list[float]]:
        before = [router._call(i, "stats")["sim_clock_seconds"]
                  for i in range(n_shards)]
        for n, key in enumerate(ops):
            client.put(key, b"%s|%06d" % (key, n))
        deltas = [router._call(i, "stats")["sim_clock_seconds"] - before[i]
                  for i in range(n_shards)]
        return max(deltas), deltas

    try:
        for key in hot_keys + cold_keys:
            client.put(key, key + b"|seed")
        keys_before = {k for k, _ in client.scan()}

        skewed_makespan, skewed_per_shard = run_window()

        epochs = [client.rebalance_slot(slot, dst)
                  for slot, dst in zip(hot_slots[1:], range(1, n_shards))]
        keys_after = {k for k, _ in client.scan()}

        spread_makespan, spread_per_shard = run_window()
        last = ops[-1]
        if client.get(last) != b"%s|%06d" % (last, n_ops - 1):
            raise AssertionError("rebalance probe lost a write")
    finally:
        client.close()

    speedup = skewed_makespan / spread_makespan
    return {
        "ops": n_ops,
        "n_shards": n_shards,
        "hot_slots": hot_slots,
        "moves": len(epochs),
        "final_epoch": max(epochs),
        "skewed": {
            "sim_seconds_makespan": round(skewed_makespan, 4),
            "sim_seconds_per_shard": [round(s, 4)
                                      for s in skewed_per_shard],
        },
        "rebalanced": {
            "sim_seconds_makespan": round(spread_makespan, 4),
            "sim_seconds_per_shard": [round(s, 4)
                                      for s in spread_per_shard],
        },
        "speedup": round(speedup, 3),
        "speedup_ok": speedup >= 1.5,
        "no_keys_lost": keys_before == keys_after,
    }


#: probe name -> (section key, list of boolean pass-criterion keys)
PROBE_CRITERIA = {
    "recovery_ios_vs_log_volume": ["reads_flat"],
    "instant_restart_ttft": ["eager_grows", "on_demand_flat"],
    "instant_restore_ttft": ["eager_grows", "on_demand_flat",
                             "modes_byte_identical"],
}


def check_snapshot(snapshot: dict) -> list[str]:
    """Evaluate every probe's pass criteria; returns failure strings."""
    failures = []
    for section, criteria in PROBE_CRITERIA.items():
        data = snapshot.get(section)
        if data is None:
            failures.append(f"{section}: probe missing from snapshot")
            continue
        for key in criteria:
            if not data.get(key):
                failures.append(f"{section}.{key} is falsy")
    group = snapshot.get("group_commit", {})
    batched = group.get("batched", {}).get("log_forces")
    unbatched = group.get("unbatched", {}).get("log_forces")
    if not (batched and unbatched and batched < unbatched):
        failures.append("group_commit: batched does not beat unbatched")
    append = snapshot.get("log_append_throughput", {})
    if not append.get("records_per_second", 0) > 0:
        failures.append("log_append_throughput: no throughput recorded")
    return failures


def check_replication_snapshot(snapshot: dict) -> list[str]:
    """Pass criteria of the replication snapshot."""
    failures = []
    repair = snapshot.get("repair_source", {})
    for key in ("replica_zero_replay", "chain_replays", "replica_fewer_ios"):
        if not repair.get(key):
            failures.append(f"repair_source.{key} is falsy")
    acks = snapshot.get("ack_modes", {})
    for key in ("replicated_costs_more", "ack_amortizes"):
        if not acks.get(key):
            failures.append(f"ack_modes.{key} is falsy")
    return failures


def check_concurrency_snapshot(snapshot: dict) -> list[str]:
    """Pass criteria of the concurrency snapshot."""
    failures = []
    data = snapshot.get("commit_throughput", {})
    for key in ("amortizes", "riders_appear"):
        if not data.get(key):
            failures.append(f"commit_throughput.{key} is falsy")
    points = data.get("points", [])
    if points and points[0].get("forces_per_commit", 0) > 1.0:
        failures.append("commit_throughput: single-thread forces/commit > 1")
    return failures


def check_sharding_snapshot(snapshot: dict) -> list[str]:
    """Pass criteria of the sharding snapshot."""
    failures = []
    data = snapshot.get("sharded_throughput", {})
    if not data.get("parallel_speedup_ok"):
        failures.append("sharded_throughput.parallel_speedup_ok is falsy "
                        f"(speedup={data.get('speedup')})")
    return failures


def check_rebalance_snapshot(snapshot: dict) -> list[str]:
    """Pass criteria of the rebalance snapshot."""
    failures = []
    data = snapshot.get("skewed_rebalance", {})
    for key in ("speedup_ok", "no_keys_lost"):
        if not data.get(key):
            failures.append(f"skewed_rebalance.{key} is falsy "
                            f"(speedup={data.get('speedup')})")
    return failures


def main() -> int:
    seed_everything(0)
    out_dir = sys.argv[1] if len(sys.argv) > 1 else _ROOT
    snapshot = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "recovery_ios_vs_log_volume": bench_recovery_ios(),
        "log_append_throughput": bench_append_throughput(),
        "group_commit": bench_group_commit(),
        "instant_restart_ttft": bench_instant_restart(),
        "instant_restore_ttft": bench_instant_restore(),
    }
    failures = check_snapshot(snapshot)
    snapshot["probe_failures"] = failures
    path = os.path.join(out_dir, "BENCH_segmented_wal.json")
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(snapshot, indent=2))

    # Concurrency snapshot: the cross-thread group-commit probe keeps
    # its own file so its (wall-clock-sensitive) numbers don't churn
    # the deterministic simulated-cost snapshot above.
    concurrency = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "commit_throughput": bench_commit_throughput(),
    }
    concurrency_failures = check_concurrency_snapshot(concurrency)
    concurrency["probe_failures"] = concurrency_failures
    failures = failures + concurrency_failures
    path = os.path.join(out_dir, "BENCH_concurrency.json")
    with open(path, "w") as fh:
        json.dump(concurrency, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(concurrency, indent=2))

    # Replication snapshot (PR 7): deterministic simulated costs of
    # the replica repair source and the two commit-ack modes.
    from benchmarks.test_ext_replication import (
        run_ack_mode_costs,
        run_repair_source_comparison,
    )

    replication = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "repair_source": run_repair_source_comparison(),
        "ack_modes": run_ack_mode_costs(),
    }
    replication_failures = check_replication_snapshot(replication)
    replication["probe_failures"] = replication_failures
    failures = failures + replication_failures
    path = os.path.join(out_dir, "BENCH_replication.json")
    with open(path, "w") as fh:
        json.dump(replication, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(replication, indent=2))

    # Sharding snapshot (PR 8): the multi-process speedup is wall
    # clock (it measures real cores), so it keeps its own file like
    # the concurrency probe.
    sharding = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "sharded_throughput": bench_sharded_throughput(),
    }
    sharding_failures = check_sharding_snapshot(sharding)
    sharding["probe_failures"] = sharding_failures
    failures = failures + sharding_failures
    path = os.path.join(out_dir, "BENCH_sharding.json")
    with open(path, "w") as fh:
        json.dump(sharding, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(sharding, indent=2))

    # Rebalance snapshot (PR 10): the probe scores on simulated
    # per-shard time, so the numbers are deterministic; the skewed
    # workload must speed up >= 1.5x after the hot slots move.
    rebalance = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "skewed_rebalance": bench_rebalance(),
    }
    rebalance_failures = check_rebalance_snapshot(rebalance)
    rebalance["probe_failures"] = rebalance_failures
    failures = failures + rebalance_failures
    path = os.path.join(out_dir, "BENCH_rebalance.json")
    with open(path, "w") as fh:
        json.dump(rebalance, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(rebalance, indent=2))

    # Latency snapshot: wall-clock percentiles live in their own file
    # for the same reason as the concurrency probe.
    from benchmarks.latency import check_latency_snapshot, run_best_of

    latency = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "latency": run_best_of("full", repeats=5),
    }
    latency_failures = check_latency_snapshot(latency["latency"])
    latency["probe_failures"] = latency_failures
    failures = failures + latency_failures
    path = os.path.join(out_dir, "BENCH_latency.json")
    with open(path, "w") as fh:
        json.dump(latency, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(latency, indent=2))

    if failures:
        print("PROBE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
