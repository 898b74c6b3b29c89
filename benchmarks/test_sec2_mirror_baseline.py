"""Section 2 — the only prior automatic page repair: database mirroring.

SQL Server's mirror-based repair freezes the failed page "until the
mirror has applied the entire stream of log records", and "completely
fails to exploit the per-page log chain already present in the ...
recovery log".

The mirror is the engine's own log-shipped hot standby
(:mod:`repro.engine.replication`) with its shipping link held down
between failures: a repair is ``link.restore()`` — the whole
outstanding stream applied to every page — then
``standby.serve_page(victim)``.  The sweep grows the outstanding log
volume and compares, for the *same* failed page:

* mirror repair: records applied to the mirror (the whole stream,
  counted from the headers of the span that was shipped) and the pages
  they touch;
* single-page recovery: records applied (the victim's chain only).

Mirror work grows linearly with total log volume; single-page recovery
grows only with the victim's share of it.  The claim is about records
applied, so the table prices no simulated seconds for the mirror: the
standby's own shipping costs are not the cost model of a remote mirror
writing each touched page back.
"""

from __future__ import annotations

from benchmarks.common import (
    key_of,
    mirror_catch_up,
    mirrored,
    print_table,
    shipped_page_updates,
    value_of,
)
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import NULL_PROFILE
from repro.wal.lsn import NULL_LSN

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
    standby, link = mirrored(db)
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
    # Competitor A: mirror repair — the whole stream, then the page.
    mirror_records, mirror_pages = mirror_catch_up(db, link)
    assert standby.serve_page(victim, NULL_LSN) is not None
    # Competitor B: single-page recovery of the same page, with no
    # standby to serve it as the fifth repair source.
    db.detach_standby()
    db.device.inject_read_error(victim)
    tree.lookup(key_of(0))
    spf_result = db.single_page.history[-1]
    return {
        "updates": total_updates,
        "mirror_records": mirror_records,
        "mirror_pages": len(mirror_pages),
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
         "mirror: pages touched",
         "SPF: records applied", "SPF: random I/Os"],
        [[r["updates"], r["mirror_records"], r["mirror_pages"],
          r["spf_records"], r["spf_ios"]]
         for r in results])


def test_sec2_bench_mirror_catch_up(benchmark):
    """Wall time of the mirror's catch-up, ``link.restore()``, over a
    1000-update stream."""
    mirrors = []

    def setup():
        db, tree = build()
        _standby, link = mirrored(db)
        txn = db.begin()
        for v in range(1000):
            tree.update(txn, key_of(v % N_KEYS), value_of(v, v))
        db.commit(txn)
        mirrors.append((db, link, link.shipped_lsn))
        return (link,), {}

    benchmark.pedantic(lambda link: link.restore(), setup=setup, rounds=3)
    for db, link, start in mirrors:
        applied, _pages = shipped_page_updates(db.log, start, link.shipped_lsn)
        assert applied >= 1000
