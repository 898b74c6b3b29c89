"""Extension — what spreading the log force buys: threads, shards, slots.

A log-bound engine's scarce resource is the force every commit must
otherwise pay.  Three experiments, each scored on a quantity the cost
model or a counter decides, not the host:

* **cross-thread group commit**: forces per commit as committing
  threads grow — riders share the leader's force;
* **scale-out**: the same independent single-key commits through one
  engine and through four engine processes, each with its own WAL
  device — the fleet's makespan is its slowest shard's simulated time;
* **online rebalancing**: a 90/10-skewed workload whose hot slots all
  start on one shard, before and after ``rebalance_slot`` spreads them.
"""

from __future__ import annotations

import random
import threading

import repro
from benchmarks.common import fast_db, key_of, print_table, value_of
from repro.core.backup import BackupPolicy
from repro.shard.routing import slot_of

N_SHARDS = 4


def fleet_engine() -> repro.EngineConfig:
    """Default (HDD) cost profiles, page copies out of the way."""
    return repro.EngineConfig(
        buffer_capacity=512,
        backup_policy=BackupPolicy(every_n_updates=1_000_000))


def shard_seconds(client) -> list[float]:  # noqa: ANN001
    """Every shard's simulated clock, read through the public stats."""
    stats = client.router.stats()
    return [stats[i]["sim_clock_seconds"] for i in range(N_SHARDS)]


def test_cross_thread_commit_amortizes(benchmark):
    """Each point runs N threads over Sessions against one engine,
    every thread committing single-update transactions on its own key
    range (no lock conflicts — the barrier is what is measured).  At
    one thread every commit leads its own force; as threads grow,
    committers ride the in-flight leader's force."""
    commits_per_thread, keys_per_thread = 120, 200

    def run_point(n_threads: int) -> list:
        db, tree = fast_db(n_threads * keys_per_thread,
                           commit_window_seconds=0.003)
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(thread_no: int) -> None:
            try:
                session = db.session()
                barrier.wait()
                base = thread_no * keys_per_thread
                for i in range(commits_per_thread):
                    n = base + i % keys_per_thread
                    session.begin()
                    session.update(tree, key_of(n), value_of(n, 1))
                    session.commit()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        db.session()  # arm the barrier before counting
        before = db.stats.get("log_forces")
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        commits = n_threads * commits_per_thread
        forces = db.stats.get("log_forces") - before
        return [n_threads, commits, forces, forces / commits,
                db.stats.get("group_commit_riders")]

    rows = benchmark.pedantic(lambda: [run_point(n) for n in (1, 4, 8)],
                              rounds=1, iterations=1)
    print_table("Cross-thread group commit: forces per commit",
                ["threads", "commits", "log forces", "forces/commit",
                 "riders"], rows)

    per_commit = {row[0]: row[3] for row in rows}
    assert per_commit[1] <= 1.0
    assert per_commit[8] <= 0.5 * per_commit[1]
    assert rows[-1][4] > 0  # riders appear


def test_fleet_commit_throughput_scales(benchmark):
    """1 200 independent single-key autocommit transactions, each
    forcing its own commit, identical on both backends.  The single
    engine serializes every force on one log device; the fleet
    hash-spreads them over four, so the gap to the ideal 4x is hash
    skew."""
    workload = [(b"s%07d" % i, b"v%07d|" % i + b"x" * 16)
                for i in range(1200)]

    def run() -> tuple[float, list[float]]:
        with repro.connect(fleet_engine()) as single:
            start = single.db.clock.now
            for key, value in workload:
                single.put(key, value)
            single_seconds = single.db.clock.now - start
            assert single.get(workload[-1][0]) == workload[-1][1]

        with repro.connect(repro.ShardConfig(
                n_shards=N_SHARDS, transport="process",
                engine=fleet_engine())) as fleet:
            before = shard_seconds(fleet)
            for key, value in workload:
                fleet.put(key, value)
            after = shard_seconds(fleet)
            assert fleet.get(workload[-1][0]) == workload[-1][1]
        return single_seconds, [b - a for a, b in zip(before, after)]

    single_seconds, per_shard = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    makespan = max(per_shard)
    speedup = single_seconds / makespan
    print_table(
        "Scale-out: 1 200 single-key commits (simulated seconds)",
        ["backend", "makespan", "commits/s", "per shard"],
        [["1 engine", single_seconds, len(workload) / single_seconds, "-"],
         [f"{N_SHARDS} processes", makespan, len(workload) / makespan,
          " ".join(f"{s:.4f}" for s in per_shard)]])

    # The scale-out claim is >= 2.5x; the bounds hold today's 4.0x.
    assert speedup >= 2.5
    assert speedup >= 3.0
    assert makespan <= 0.151
    assert single_seconds <= 0.60475


def test_rebalance_spreads_skew(benchmark):
    """Four slots that the default table places on shard 0 take 90 % of
    the puts.  Both windows run the identical op sequence; between
    them three of the hot slots move to shards 1-3 while the fleet
    serves, and a full-scan key-set diff across the moves is the
    no-lost-key oracle over the backup + delta + cutover path."""
    n_ops = 1200

    def run() -> tuple[list[float], list[float], set, set]:
        with repro.connect(repro.ShardConfig(
                n_shards=N_SHARDS, transport="inproc",
                engine=fleet_engine())) as client:
            n_slots = client.router.config.n_slots
            hot_slots = list(range(0, n_slots, N_SHARDS))[:4]
            assert {client.slot_assignments()[s] for s in hot_slots} == {0}
            hot_keys: list[bytes] = []
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

            def window() -> list[float]:
                before = shard_seconds(client)
                for n, key in enumerate(ops):
                    client.put(key, b"%s|%06d" % (key, n))
                return [b - a for a, b in
                        zip(before, shard_seconds(client))]

            for key in hot_keys + cold_keys:
                client.put(key, key + b"|seed")
            keys_before = {k for k, _ in client.scan()}
            skewed = window()
            for slot, dst in zip(hot_slots[1:], range(1, N_SHARDS)):
                client.rebalance_slot(slot, dst)
            keys_after = {k for k, _ in client.scan()}
            spread = window()
            assert client.get(ops[-1]) == b"%s|%06d" % (ops[-1], n_ops - 1)
        return skewed, spread, keys_before, keys_after

    skewed, spread, keys_before, keys_after = benchmark.pedantic(
        run, rounds=1, iterations=1)
    speedup = max(skewed) / max(spread)
    print_table(
        "Online rebalancing: 90/10 skew, per-shard simulated seconds",
        ["placement", "makespan", *(f"shard {i}" for i in range(N_SHARDS))],
        [["hot slots on shard 0", max(skewed), *skewed],
         ["three hot slots moved", max(spread), *spread]])

    assert keys_before == keys_after
    # The claim is >= 1.5x; the bounds hold today's 3.3x.
    assert speedup >= 1.5
    assert speedup >= 2.49
    assert max(skewed) <= 0.55275
    assert max(spread) <= 0.166125
