"""Seeded input generators: the records and op streams of every workload.

Everything the engine sees is generated here from ``--seed``; the engine
never draws a random number on the benchmark's behalf.  An op is a tuple
whose first element names its class::

    ("get", key)                      ("put", key, value)
    ("delete", key)                   ("scan", low, high)
    ("txn", (k1, k2), ((k3, v3), (k4, v4)))      # 2 reads + 2 writes
    ("batch", [("put", key, value), ...])        # one apply_batch call

The failure workload interleaves *events* the runner acts on instead of
sending to the client::

    ("fault", kind, u)   # kind in FAULT_KINDS, u in [0, 1) picks the page
    ("backup",)  ("media",)  ("crash",)  ("verify",)

Streams are infinite generators; the runner takes a fixed count, so a
shorter run replays a byte-identical prefix of a longer one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from repro import FLASH_PROFILE, EngineConfig, ShardConfig

# ----------------------------------------------------------------------
# Uniform key-value records (kv_hot_embedded, kv_fleet_process, failures)
# ----------------------------------------------------------------------
KV_VALUE_BYTES = 100
TXN_SHARE, BATCH_SHARE, PUT_SHARE = 0.12, 0.02, 0.38   # rest: get (48 %)
BATCH_PUTS = 32


def kv_key(i: int) -> bytes:
    """16-byte key; zero-padded so byte order is numeric order."""
    return b"user%012d" % i


def kv_records(seed: int, n: int) -> list[tuple[bytes, bytes]]:
    rng = random.Random(f"kv-records/{seed}")
    return [(kv_key(i), rng.randbytes(KV_VALUE_BYTES)) for i in range(n)]


def kv_ops(seed: int, n_records: int) -> Iterator[tuple]:
    """48 % get, 38 % put, 12 % 4-key txn, 2 % 32-put batch; uniform keys.

    Every key exists and every value is KV_VALUE_BYTES long, so no write
    grows a record (``tree.update`` cannot run out of leaf space).
    """
    rng = random.Random(f"kv-ops/{seed}")
    value = lambda: rng.randbytes(KV_VALUE_BYTES)  # noqa: E731
    while True:
        r = rng.random()
        if r < BATCH_SHARE:
            keys = rng.sample(range(n_records), BATCH_PUTS)
            yield ("batch", [("put", kv_key(i), value()) for i in keys])
        elif r < BATCH_SHARE + TXN_SHARE:
            a, b, c, d = rng.sample(range(n_records), 4)
            yield ("txn", (kv_key(a), kv_key(b)),
                   ((kv_key(c), value()), (kv_key(d), value())))
        elif r < BATCH_SHARE + TXN_SHARE + PUT_SHARE:
            yield ("put", kv_key(rng.randrange(n_records)), value())
        else:
            yield ("get", kv_key(rng.randrange(n_records)))


# ----------------------------------------------------------------------
# Failure schedule over the kv records (failures_embedded)
# ----------------------------------------------------------------------
FAULT_KINDS = ("bit_rot", "read_error", "lost_write")
FAULT_EVERY = 20            # client ops between injected page faults
CRASHES_PER_ROUND = 4
VERIFY_AFTER = 200          # client ops between a recovery and its re-read
EVENT_KINDS = frozenset({"fault", "backup", "media", "crash", "verify"})


def failure_ops(seed: int, n_records: int, round_ops: int) -> Iterator[tuple]:
    """70 % get / 30 % put, plus per round of ``round_ops`` client ops:
    one full backup at the start, one media failure a sixth in, four
    crashes at the remaining sixths, a page fault every FAULT_EVERY ops
    and an oracle re-read VERIFY_AFTER ops after each recovery (sooner
    when a smoke-sized round leaves less room than that)."""
    rng = random.Random(f"failure-ops/{seed}")
    sixth = round_ops // 6
    recoveries = {sixth * k for k in range(1, 2 + CRASHES_PER_ROUND)}
    verify_after = min(VERIFY_AFTER, sixth // 2)
    n = faults = 0
    while True:
        at = n % round_ops
        if at == 0:
            yield ("backup",)
        if at == sixth:
            yield ("media",)
        elif at in recoveries:
            yield ("crash",)
        if at - verify_after in recoveries:
            yield ("verify",)
        if n % FAULT_EVERY == FAULT_EVERY - 1:
            yield ("fault", FAULT_KINDS[faults % len(FAULT_KINDS)], rng.random())
            faults += 1
        key = kv_key(rng.randrange(n_records))
        if rng.random() < 0.30:
            yield ("put", key, rng.randbytes(KV_VALUE_BYTES))
        else:
            yield ("get", key)
        n += 1


# ----------------------------------------------------------------------
# DBLP-shaped bibliographic records (dblp_cold_embedded)
# ----------------------------------------------------------------------
# Record shape after the DBLP slice in SNIPPETS.md: one publication per
# record, keyed author/year/id so one author's papers are contiguous and
# an author-year is a prefix range.  Value = mdate, title, co-authors,
# venue, pages, ee, separated by 0x1f.
DBLP_AUTHORS = 4000
DBLP_MAX_ENTRY = 512        # the tree's page_size // 8 limit on key + value
DBLP_MIN_VALUE, DBLP_MAX_VALUE = 120, 470
_SEP = b"\x1f"

_GIVEN = ("Nikolaus Daniel Christine Thomas Willi Alexander Konstantin Michael "
          "Chen Goetz Harumi Sherif Farzaneh Farhana Mohammad Joanna Waleed "
          "Anna Jim Pat Hector Jennifer Surajit Renee Donald Laura Raghu "
          "Samuel Natassa Tim Wei Yannis Divesh Magdalena Alon Zachary").split()
_SYLLABLES = ("aug sten ko cher mann mil ler hut ter scha thiel gra fe ku no "
              "stone bra ker hel ler stein wid om gar cia mo li na cha udh "
              "uri ram ak rish nan").split()
_TITLE_WORDS = ("adaptive approximate b-tree buffer byzantine cache checkpoint "
                "column compression concurrency consistent cost-based crash "
                "data database detection distributed durable efficient "
                "elastic exact failure fast flash flexible graph hash index "
                "instant join learned lock log-structured memory optimal "
                "page parallel partition prefetch query recovery replicated "
                "restore robust scalable scheme semantic similarity "
                "single-page storage stream transaction two-level versioned "
                "write-ahead").split()
_VENUES = ("Proc. VLDB Endow.", "SIGMOD Conference", "ICDE", "EDBT", "CIDR",
           "VLDB J.", "ACM Trans. Database Syst.", "Proc. ACM Manag. Data",
           "BTW", "DaMoN")


def _author_names(rng: random.Random) -> list[bytes]:
    names = []
    for i in range(DBLP_AUTHORS):
        last = "".join(rng.choices(_SYLLABLES, k=rng.randint(2, 3))).title()
        # The 4-digit homonym suffix is DBLP's own ("Chen Li 0001") and
        # keeps the key prefix unique per author.
        names.append(f"{last} {rng.choice(_GIVEN)} {i:04d}".encode())
    return names


def _mdate(rng: random.Random) -> bytes:
    return b"20%02d-%02d-%02d" % (rng.randint(10, 25), rng.randint(1, 12),
                                  rng.randint(1, 28))


class DblpCorpus:
    """The synthetic bibliography: records plus the generator state the
    op stream needs (who is alive, who owns what)."""

    def __init__(self, seed: int, n_records: int) -> None:
        rng = random.Random(f"dblp-records/{seed}")
        self.authors = _author_names(rng)
        # Zipf(1.0) ownership: author of rank r writes ~1/r of the papers.
        self.author_cdf = list(accumulate(1.0 / (r + 1)
                                          for r in range(DBLP_AUTHORS)))
        self.year_cdf = list(accumulate(range(1, 31)))   # 1995..2024, recent-heavy
        self.values: dict[bytes, bytes] = {}
        #: live keys per author (swap-remove keeps deletes O(1))
        self.by_author: list[list[bytes]] = [[] for _ in range(DBLP_AUTHORS)]
        self._serial = 0
        for _ in range(n_records):
            self.new_paper(rng)
        self.records = sorted(self.values.items())

    def pick_author(self, rng: random.Random) -> int:
        return rng.choices(range(DBLP_AUTHORS), cum_weights=self.author_cdf)[0]

    def new_paper(self, rng: random.Random) -> tuple[bytes, bytes]:
        author = self.pick_author(rng)
        year = 1995 + rng.choices(range(30), cum_weights=self.year_cdf)[0]
        self._serial += 1
        key = b"%s/%d/p%06d" % (self.authors[author].replace(b" ", b"_"),
                                year, self._serial)
        title = " ".join(rng.choices(_TITLE_WORDS, k=rng.randint(4, 20)))
        coauthors = b"; ".join(self.authors[self.pick_author(rng)]
                               for _ in range(rng.randint(0, 5)))
        first_page = rng.randint(1, 3000)
        fields = [
            _mdate(rng), title.capitalize().encode() + b".", coauthors,
            b"%s %d(%d)" % (rng.choice(_VENUES).encode(), rng.randint(1, 40),
                            rng.randint(1, 12)),
            b"%d-%d" % (first_page, first_page + rng.randint(4, 25)),
            b"https://doi.org/10.%d/%d.%d" % (rng.randint(1000, 99999),
                                              rng.randint(10 ** 6, 10 ** 7),
                                              rng.randint(10 ** 6, 10 ** 7)),
        ]
        value = _SEP.join(fields)
        limit = min(DBLP_MAX_VALUE, DBLP_MAX_ENTRY - len(key))
        if len(value) > limit:
            fields[1] = fields[1][:len(fields[1]) - (len(value) - limit)]
        elif len(value) < DBLP_MIN_VALUE:
            fields[1] += b" " * (DBLP_MIN_VALUE - len(value))
        value = _SEP.join(fields)
        self.values[key] = value
        self.by_author[author].append(key)
        return key, value

    def pick_live(self, rng: random.Random) -> tuple[int, int]:
        """(author, index into by_author[author]) of an author-skewed key."""
        while True:
            author = self.pick_author(rng)
            if self.by_author[author]:
                return author, rng.randrange(len(self.by_author[author]))


def dblp_ops(seed: int, corpus: DblpCorpus) -> Iterator[tuple]:
    """70 % get, 10 % author-year scan, 12 % same-length mdate rewrite,
    5 % new paper, 3 % delete; targets follow the Zipf authorship.

    Rewrites keep the value length because ``tree.update`` raises
    ``PageFullError`` when a value outgrows its leaf (README, traps).
    The generator mutates ``corpus`` as it goes, so it always names live
    keys; the runner's oracle replays the same ops independently.
    """
    rng = random.Random(f"dblp-ops/{seed}")
    while True:
        r = rng.random()
        if r < 0.05:
            yield ("put", *corpus.new_paper(rng))
            continue
        author, i = corpus.pick_live(rng)
        keys = corpus.by_author[author]
        key = keys[i]
        if r < 0.08:
            keys[i] = keys[-1]
            keys.pop()
            del corpus.values[key]
            yield ("delete", key)
        elif r < 0.20:
            value = _mdate(rng) + corpus.values[key][10:]
            corpus.values[key] = value
            yield ("put", key, value)
        elif r < 0.30:
            prefix = key[:key.rindex(b"/") + 1]          # author/year/
            yield ("scan", prefix, prefix[:-1] + b"0")   # "0" == "/" + 1
        else:
            yield ("get", key)


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------
ROUNDS = 6                  # timed rounds, after one discarded warm-up round


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    records: int
    buffer_capacity: int
    #: client ops per second of ``--seconds``: calibrated once on the
    #: 2-core container so the six timed rounds last about that long, then
    #: frozen — op counts, not durations, are what repeats exactly
    ops_per_second: int
    kind: str = "kv"            # "kv" | "dblp" | "failures"
    fleet: bool = False

    def engine_config(self, seed: int) -> EngineConfig:
        on_demand = "on_demand" if self.kind == "failures" else "eager"
        return EngineConfig(
            page_size=4096,
            # 5 % of the capacity is the spare-sector pool every repair
            # draws from, and 2 x 256 PRI pages cover the trees built here
            # (README, sizing traps).
            capacity_pages=65536,
            pri_region_pages_per_partition=256,
            buffer_capacity=self.buffer_capacity,
            device_profile=FLASH_PROFILE, log_profile=FLASH_PROFILE,
            backup_profile=FLASH_PROFILE,
            commit_ack_mode="local_durable", group_commit=True,
            prefetch_mode="off",
            restart_mode=on_demand, restore_mode=on_demand,
            seed=seed)

    def connect_config(self, seed: int, transport: str = "process"):  # noqa: ANN201
        engine = self.engine_config(seed)
        if not self.fleet:
            return engine
        return ShardConfig(n_shards=2, transport=transport, engine=engine,
                           seed=seed)

    def round_ops(self, seconds: float) -> int:
        return max(60, int(self.ops_per_second * seconds) // ROUNDS)

    def inputs(self, seed: int, n_records: int, round_ops: int):  # noqa: ANN201
        """(records to load, infinite op stream) for ``seed``."""
        if self.kind == "dblp":
            corpus = DblpCorpus(seed, n_records)
            return corpus.records, dblp_ops(seed, corpus)
        records = kv_records(seed, n_records)
        if self.kind == "failures":
            return records, failure_ops(seed, n_records, round_ops)
        return records, kv_ops(seed, n_records)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="kv_hot_embedded",
        why="pure CPU path: client, txn, btree and wal do the work, "
            "buffer always hits, storage/core/shard idle; hot-path, "
            "codec, lock and tracing-overhead changes must show here, "
            "cache and recovery ones must not",
        records=8_000, buffer_capacity=4096, ops_per_second=2500),
    Workload(
        name="dblp_cold_embedded",
        why="working set far larger than the pool: buffer "
            "miss/evict/write-back, storage reads, checksum and PRI-LSN "
            "detection, page copies and variable-length splits "
            "dominate; scans and deletes beside point ops",
        records=6_000, buffer_capacity=72, ops_per_second=3600,
        kind="dblp"),
    Workload(
        name="kv_fleet_process",
        why="byte-identical prefix of the kv_hot stream through 2 "
            "worker processes: router, pickle framing, sockets and 2PC "
            "do most of the work; the per-class difference to "
            "kv_hot_embedded is the fleet's cost",
        records=8_000, buffer_capacity=4096, ops_per_second=1300, fleet=True),
    Workload(
        name="failures_embedded",
        why="the paper's headline: a page fault every 20 ops plus "
            "crashes and media failures on a cold pool; single-page "
            "repair, on-demand restart and on-demand restore do most of "
            "the work here and none elsewhere",
        records=8_000, buffer_capacity=128, ops_per_second=3800,
        kind="failures"),
)}
