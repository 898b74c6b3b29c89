"""Section 6 — bounding recovery time with the page-backup policy.

"Fast single-page recovery can be ensured with a page backup after a
number of updates or after a period since the last page backup. ...
The number of log records that must be retrieved and applied to the
backup page equals the number of updates since the last page backup."

The sweep varies the every-N-updates policy and measures, for the same
failure, the log records applied, the random I/Os, and the simulated
recovery time — plus the space the copies cost.  The paper's linear
relationship (records applied == updates since backup) must hold
exactly; recovery time must fall as backups get fresher.
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import HDD_PROFILE

TOTAL_UPDATES = 240


def run_policy(every_n: int | None):
    policy = (BackupPolicy(every_n_updates=every_n)
              if every_n else BackupPolicy.disabled())
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=2048, buffer_capacity=64,
        device_profile=HDD_PROFILE, log_profile=HDD_PROFILE,
        backup_profile=HDD_PROFILE, backup_policy=policy))
    tree = db.create_index()
    txn = db.begin()
    for i in range(200):
        tree.insert(txn, key_of(i), b"v" * 24)
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    page, _n, _pid = tree._descend(key_of(0), for_write=False)
    victim = page.page_id
    db.pool.unfix(victim)
    db.evict_everything()
    # Sustained update traffic on one page, with periodic write-back so
    # the policy can trigger.
    from repro.btree.node import BTreeNode

    page = db.pool.fix(victim)
    hot_key = BTreeNode(page).full_key(0)
    db.pool.unfix(victim)
    for version in range(TOTAL_UPDATES):
        txn = db.begin()
        tree.update(txn, hot_key, b"u%06d" % version)
        db.commit(txn)
        if version % 20 == 19:
            db.flush_everything()
    db.flush_everything()
    db.evict_everything()
    db.device.inject_read_error(victim)
    t0 = db.clock.now
    value = tree.lookup(hot_key)
    elapsed = db.clock.now - t0
    assert value == b"u%06d" % (TOTAL_UPDATES - 1)
    result = db.single_page.history[-1]
    return {
        "policy": f"every {every_n} updates" if every_n else "no page backups",
        "copies_taken": db.stats.get("page_copies_taken"),
        "live_copies": db.backup_store.live_page_copies,
        "records_applied": result.records_applied,
        "random_ios": result.total_random_ios,
        "sim_seconds": elapsed,
    }


def test_sec6_backup_policy_sweep(benchmark):
    def run():
        return [run_policy(n) for n in (None, 160, 80, 40, 10)]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    applied = [r["records_applied"] for r in results]
    seconds = [r["sim_seconds"] for r in results]
    # Fresher backups -> monotonically less replay and less time.
    assert applied == sorted(applied, reverse=True)
    assert seconds[-1] < seconds[0]
    # With the policy at N, the chain length is bounded by about N
    # (write-back granularity adds slack within one flush interval).
    for r, n in zip(results[1:], (160, 80, 40, 10)):
        assert r["records_applied"] <= n + 25, (r, n)
    # Old copies are freed: live copies stay bounded by the number of
    # distinct backed-up pages (a handful of leaves), while the hot
    # page alone took dozens of copies under the tightest policy.
    tightest = results[-1]
    assert tightest["copies_taken"] > 10
    for r in results[1:]:
        assert r["live_copies"] <= 6

    print_table(
        f"Section 6: backup policy vs recovery cost "
        f"({TOTAL_UPDATES} updates on the failed page)",
        ["policy", "copies taken", "live copies", "records applied",
         "random I/Os", "recovery sim s"],
        [[r["policy"], r["copies_taken"], r["live_copies"],
          r["records_applied"], r["random_ios"], r["sim_seconds"]]
         for r in results])


def test_sec6_bench_policy_check(benchmark):
    """Wall cost of the policy decision on the write-back path."""
    policy = BackupPolicy(every_n_updates=100, max_age_seconds=3600)

    def check():
        return policy.due(update_count=57, age_seconds=120.0)

    assert benchmark(check) is False
