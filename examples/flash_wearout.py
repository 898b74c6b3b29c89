#!/usr/bin/env python3
"""Flash endurance: surviving wear-out one page at a time.

The paper's motivation: "in a system that relies on flash memory for
all its storage, [treating a page failure as a media failure] would
turn a single-page failure into a system-wide hardware failure".

This example runs a write-heavy, skewed workload on a simulated flash
device whose sectors wear out after a fixed write budget.  Hot sectors
die one after another; the engine absorbs every death as a single-page
failure — remap, recover from the per-page chain, quarantine — and the
node keeps serving.  The same workload on a traditional engine ends at
the first worn-out read.

Run:  python examples/flash_wearout.py
"""

import random

from repro import Database, EngineConfig, MediaFailure, SystemFailure
from repro.baselines.media_only import traditional_config
from repro.core.backup import BackupPolicy
from repro.sim.iomodel import FLASH_PROFILE
from repro.storage.faults import FaultInjector

WEAR_LIMIT = 20          # writes per sector before it wears out
ROUNDS = 40              # update waves
WAVE = 120               # updates per wave
N_KEYS = 800
SKEW = 1.1               # Zipf exponent: key i is picked ~ 1 / (i + 1) ** SKEW
ZIPF = [1.0 / (rank + 1) ** SKEW for rank in range(N_KEYS)]


def key(i: int) -> bytes:
    return b"k%011d" % i


def value(i: int, version: int) -> bytes:
    return (b"v%d.%d|" % (i, version)).ljust(32, b"x")


def run(spf: bool) -> dict:
    if spf:
        cfg = EngineConfig(
            page_size=4096, capacity_pages=2048, buffer_capacity=48,
            device_profile=FLASH_PROFILE, log_profile=FLASH_PROFILE,
            backup_profile=FLASH_PROFILE, single_device_node=True,
            backup_policy=BackupPolicy(every_n_updates=64))
    else:
        cfg = traditional_config(
            single_device_node=True,
            page_size=4096, capacity_pages=2048, buffer_capacity=48,
            device_profile=FLASH_PROFILE, log_profile=FLASH_PROFILE,
            backup_profile=FLASH_PROFILE)
    injector = FaultInjector(seed=2, wear_limit=WEAR_LIMIT)
    db = Database(cfg, injector=injector)
    tree = db.create_index()
    rng = random.Random(5)
    order = list(range(N_KEYS))
    rng.shuffle(order)

    txn = db.begin()
    for i in order:
        tree.insert(txn, key(i), value(i, 0))
    db.commit(txn)
    db.flush_everything()

    waves_survived = 0
    outage = None
    for round_no in range(ROUNDS):
        try:
            txn = db.begin()
            hot = rng.choices(range(N_KEYS), ZIPF, k=WAVE)
            for version, i in enumerate(hot, 1):
                tree.update(txn, key(i), value(i, version))
            db.commit(txn)
            db.flush_everything()
            db.evict_everything()
            # Touch data again: worn sectors surface as read failures.
            for probe in (0, 100, 400, 799):
                tree.lookup(key(probe))
            waves_survived += 1
        except (MediaFailure, SystemFailure) as failure:
            outage = f"{type(failure).__name__} in wave {round_no}"
            break
    return {
        "engine": "single-page failures supported" if spf else "traditional",
        "waves_survived": waves_survived,
        "outage": outage or "none",
        "wear_outs": db.stats.get("spf[device-read-error]"),
        "recoveries": db.stats.get("single_page_recoveries"),
        "remaps": db.stats.get("device_remaps"),
        "bad_blocks": len(db.device.bad_blocks),
    }


def main() -> None:
    print(f"flash device, {WEAR_LIMIT}-write endurance per sector, "
          f"Zipf-skewed update waves\n")
    for spf in (True, False):
        result = run(spf)
        print(f"== {result['engine']} ==")
        print(f"  update waves survived : {result['waves_survived']}/{ROUNDS}")
        print(f"  outage                : {result['outage']}")
        print(f"  single-page recoveries: {result['recoveries']}")
        print(f"  sectors remapped      : {result['remaps']}")
        print(f"  bad-block list        : {result['bad_blocks']}")
        print()
    print("the traditional node turns its first worn-out sector into a "
          "system failure;\nthe SPF node keeps retiring sectors and "
          "serving transactions.")


if __name__ == "__main__":
    main()
