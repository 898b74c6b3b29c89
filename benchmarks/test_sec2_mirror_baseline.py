"""Section 2 — the only prior automatic page repair: database mirroring.

SQL Server's mirror-based repair freezes the failed page "until the
mirror has applied the entire stream of log records", and "completely
fails to exploit the per-page log chain already present in the ...
recovery log".

The sweep grows the outstanding log volume between failures and
compares, for the *same* failed page:

* mirror repair: records applied to the mirror (the whole stream);
* single-page recovery: records applied (the victim's chain only).

Mirror work grows linearly with total log volume; single-page recovery
grows only with the victim's share of it.
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table, value_of
from repro.baselines.mirror_repair import LogShippingMirror
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import HDD_PROFILE, NULL_PROFILE

N_KEYS = 1200


def build():
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=4096, buffer_capacity=256,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE,
        backup_policy=BackupPolicy.disabled()))
    tree = db.create_index()
    txn = db.begin()
    for i in range(N_KEYS):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    return db, tree


def run_volume(total_updates: int):
    db, tree = build()
    # Fresh page copies so both competitors start from "backup current".
    for pid in range(db.config.data_start, db.allocated_pages()):
        page = db.pool.fix(pid)
        if page.page_type.name.startswith("BTREE"):
            db.take_page_copy(page)
        db.pool.unfix(pid)
    db.flush_everything()
    db.evict_everything()
    mirror = LogShippingMirror(db.log, db.clock, HDD_PROFILE, db.stats,
                               db.config.page_size)
    images = {pid: db.device.raw_image(pid)
              for pid in range(db.allocated_pages())
              if db.device.raw_image(pid) is not None}
    mirror.seed_from_images(images, db.log.end_lsn)
    page, _n, _pid = tree._descend(key_of(0), for_write=False)
    victim = page.page_id
    db.pool.unfix(victim)
    db.evict_everything()
    # Spread updates evenly over the whole key range (stride walk).
    txn = db.begin()
    for v in range(total_updates):
        i = (v * 997) % N_KEYS
        tree.update(txn, key_of(i), value_of(i, v + 1))
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    # Competitor A: mirror repair.
    t0 = db.clock.now
    _page, mirror_result = mirror.repair_page(victim)
    mirror_seconds = db.clock.now - t0
    # Competitor B: single-page recovery of the same page.
    db.device.inject_read_error(victim)
    tree.lookup(key_of(0))
    spf_result = db.single_page.history[-1]
    return {
        "updates": total_updates,
        "mirror_records": mirror_result.records_applied_to_mirror,
        "mirror_pages": mirror_result.mirror_pages_written,
        "mirror_seconds": mirror_seconds,
        "spf_records": spf_result.records_applied,
        "spf_ios": spf_result.total_random_ios,
    }


def test_sec2_mirror_vs_single_page(benchmark):
    def run():
        return [run_volume(n) for n in (200, 1000, 4000)]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    for r in results:
        # The mirror applies (at least) the whole update stream; the
        # chain walk applies only the victim's share.
        assert r["mirror_records"] >= r["updates"]
        assert r["spf_records"] < r["mirror_records"] / 5
    # Mirror work grows linearly with log volume...
    mirror_growth = results[-1]["mirror_records"] / results[0]["mirror_records"]
    assert mirror_growth > 10
    # ... single-page recovery grows with the victim's share only.
    spf_growth = (results[-1]["spf_records"] + 1) / (results[0]["spf_records"] + 1)
    assert spf_growth < mirror_growth

    print_table(
        "Section 2: mirror-based repair vs single-page recovery "
        "(same failed page)",
        ["updates since sync", "mirror: records applied",
         "mirror: pages written", "mirror: sim s",
         "SPF: records applied", "SPF: random I/Os"],
        [[r["updates"], r["mirror_records"], r["mirror_pages"],
          r["mirror_seconds"], r["spf_records"], r["spf_ios"]]
         for r in results])


def test_sec2_bench_mirror_catch_up(benchmark):
    """Wall time of mirror catch-up over a 1000-update stream."""
    def setup():
        db, tree = build()
        mirror = LogShippingMirror(db.log, db.clock, NULL_PROFILE, db.stats,
                                   db.config.page_size)
        images = {pid: db.device.raw_image(pid)
                  for pid in range(db.allocated_pages())
                  if db.device.raw_image(pid) is not None}
        mirror.seed_from_images(images, db.log.end_lsn)
        txn = db.begin()
        for v in range(1000):
            tree.update(txn, key_of(v % N_KEYS), value_of(v, v))
        db.commit(txn)
        return (mirror,), {}

    applied, _written = benchmark.pedantic(
        lambda mirror: mirror.catch_up(), setup=setup, rounds=3)
    assert applied >= 1000
