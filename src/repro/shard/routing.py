"""Epoch-versioned slot routing for the sharded deployment.

PR 8 partitioned keys with an implicit ``crc32 % n_shards`` — a map
frozen at fleet-creation time, so a hot shard stayed hot forever.
This module makes the map explicit and movable: keys hash into a fixed
number of **slots** (``slot_of``, CRC-32 — stable across processes,
never Python's randomized ``hash()``), and a :class:`RoutingTable`
assigns each slot to a shard.  Every assignment change bumps a
monotonically increasing **epoch**; the router makes a cutover durable
by forcing an :class:`repro.shard.twopc.EpochRecord` into the
coordinator log *before* applying it to its table, so a recovering
router replays the exact cutover history (:meth:`RoutingTable.
apply_epochs`) instead of falling back to the fleet-creation map.

The initial assignment, ``slot % n_shards``, makes the routing table
byte-compatible with the old implicit map whenever ``n_shards``
divides ``n_slots`` (the default 64/4 deployment routes every key
exactly as PR 8 did until the first move).
"""

from __future__ import annotations

import zlib

from repro.errors import ConfigError

#: default number of hash slots a fleet's key space is divided into
DEFAULT_SLOTS = 64


#: the stable key hash slots are taken from: ``slot_of`` is
#: ``slot_hash(key) % n_slots``, and the router's and worker's point
#: verbs spell exactly that in place (no frame on the warm path)
slot_hash = zlib.crc32


def slot_of(key: bytes, n_slots: int) -> int:
    """Stable hash slot of ``key`` (CRC-32 mod the slot count)."""
    return slot_hash(key) % n_slots


class RoutingTable:
    """The slot -> shard assignment, versioned by a cutover epoch.

    Epoch 0 is the fleet-creation assignment; every :meth:`move` (or
    replayed :class:`~repro.shard.twopc.EpochRecord`) advances it by
    exactly one.  The table itself is volatile — durability lives in
    the coordinator log's epoch records, which :meth:`apply_epochs`
    replays in order.
    """

    def __init__(self, n_slots: int, n_shards: int) -> None:
        if n_slots < n_shards:
            raise ConfigError(
                f"n_slots ({n_slots}) must be >= n_shards ({n_shards}); "
                f"every shard needs at least one slot to own")
        self.n_slots = n_slots
        self.n_shards = n_shards
        self.epoch = 0
        #: slot -> owning shard (index = slot); read in place by the
        #: router's point verbs, changed only by :meth:`move` and
        #: :meth:`apply_epochs`
        self.owners = [slot % n_shards for slot in range(n_slots)]

    # -- queries -------------------------------------------------------
    def owner_of(self, slot: int) -> int:
        """The shard currently assigned ``slot``."""
        return self.owners[slot]

    def shard_for(self, key: bytes) -> int:
        """The shard currently serving ``key``."""
        return self.owners[slot_of(key, self.n_slots)]

    def slots_of(self, shard: int) -> tuple[int, ...]:
        """Every slot assigned to ``shard``, ascending."""
        return tuple(slot for slot, owner in enumerate(self.owners)
                     if owner == shard)

    def assignments(self) -> tuple[int, ...]:
        """The full slot -> shard map (index = slot)."""
        return tuple(self.owners)

    # -- mutation ------------------------------------------------------
    def move(self, slot: int, dst: int) -> int:
        """Reassign ``slot`` to ``dst``; returns the new epoch.

        The caller (the router's ``move_slot``) must have forced the
        matching epoch record to the coordinator log *first* — the
        record, not this in-memory flip, is the cutover's commit point.
        """
        if not 0 <= slot < self.n_slots:
            raise ConfigError(f"slot {slot} out of range 0..{self.n_slots - 1}")
        if not 0 <= dst < self.n_shards:
            raise ConfigError(f"shard {dst} out of range 0..{self.n_shards - 1}")
        self.owners[slot] = dst
        self.epoch += 1
        return self.epoch

    def apply_epochs(self, records) -> int:  # noqa: ANN001 - EpochRecords
        """Replay durable cutover records (recovery path).

        Records are applied in epoch order regardless of input order;
        gaps are rejected — a missing epoch means the durable history
        is corrupt, and guessing would let two routers disagree about
        ownership.  Returns the resulting epoch.
        """
        for record in sorted(records, key=lambda r: r.epoch):
            if record.epoch != self.epoch + 1:
                raise ConfigError(
                    f"epoch record {record.epoch} does not follow "
                    f"current epoch {self.epoch}")
            self.owners[record.slot] = record.dst
            self.epoch = record.epoch
        return self.epoch
