"""The closed loop: one client thread drives one op stream through
``repro.connect(...)`` and public methods only, checks every answer
against a shadow oracle, and keeps per-round timings and counter deltas.

Two clocks, never mixed in one number: wall time is ``perf_counter_ns``
around each call the runner makes (client ops, maintenance, recovery
entry points; the runner's own bookkeeping between calls is not counted),
simulated time is the engine's ``SimClock`` — the FLASH cost model.

Wall time is reported **at reference speed**.  The container's own speed
drifts by +-10 % from one minute to the next (README, "Noise"), so the
runner times a fixed pure-Python kernel every REFERENCE_EVERY client ops
(and after every load batch of set-up) and divides the run's wall-clock
durations by the kernel's time / REFERENCE_NS: single durations, which
feed percentiles, by its median (``slowdown``), sums of durations, which
feed throughput, by its mean — a stolen millisecond inflates a sum but
not a median.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import statistics
import time
from collections import Counter, defaultdict

import repro
from repro.errors import ReproError

from bench.workloads import EVENT_KINDS, Workload

MAINTENANCE_EVERY = 5000    # client ops between checkpoint + truncate_log
DRAIN_EVERY = 100           # client ops between budgeted recovery drains
DRAIN_PAGE_BUDGET = 16
VERIFY_SAMPLE = 500         # keys re-read against the oracle after a recovery
POST_RESTART_OPS = 200      # ops after each restart timed as their own class
LOAD_BATCH = 500
REFERENCE_EVERY = 500       # client ops between two runs of the kernel
REFERENCE_LOOPS = 100_000
REFERENCE_NS = 7_500_000    # the kernel's time on a machine at reference speed

now = time.perf_counter_ns


def reference_ns() -> int:
    """Time the reference kernel once."""
    start = now()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return now() - start


class Round:
    """What one round of ``round_ops`` client ops cost."""

    def __init__(self) -> None:
        self.lat: dict[str, list[int]] = defaultdict(list)   # class -> ns
        self.busy_ns = 0            # sum of every timed call in the round
        self.ops = 0
        self.user_bytes = 0         # key + value bytes the client wrote
        self.scan_rows = 0
        self.counters: dict[str, int] = {}
        self.sim_seconds = 0.0
        #: counter and sim-clock deltas of the runner's own doing (fault
        #: injection, oracle re-reads), kept out of the two above
        self.off_books: Counter[str] = Counter()
        self.off_books_sim = 0.0


class Runner:
    """One fresh deployment of ``workload`` and the stream that drives it."""

    def __init__(self, workload: Workload, seed: int, n_records: int,
                 round_ops: int, rounds: int, tracer=None,  # noqa: ANN001
                 transport: str = "process") -> None:
        self.workload = workload
        self.seed = seed
        self.n_records = n_records
        self.round_ops = round_ops
        self.rounds = rounds
        self.tracer = tracer
        self.transport = transport
        self.track_repairs = workload.kind == "failures"
        self.attempted = self.failed = 0
        self.errors: Counter[str] = Counter()
        self.n_ops = 0
        #: op id -> class, kept for the span table when tracing
        self.op_class: list[str] = []
        #: durations (ns) of the engine entry points the runner calls itself
        self.calls: dict[str, list[int]] = defaultdict(list)
        self.restart_open_ns: list[int] = []
        self.restore_open_ns: list[int] = []
        self.post_restart_ns: list[int] = []
        #: one RecoveryResult per single-page repair (engine telemetry)
        self.repair_results: list = []
        self._harvested = 0
        self._open_since: tuple[list[int], int] | None = None
        self._post_restart_left = 0
        self._repairs_seen = 0
        self._backup_id: int | None = None
        self._check_rng = random.Random(f"verify/{seed}")
        self._reference: list[int] = []     # kernel timings, this window
        #: how much slower than reference speed the machine ran the rounds
        self.slowdown = 1.0
        self._handlers = {"get": self._get, "put": self._put,
                          "delete": self._delete, "scan": self._scan,
                          "txn": self._txn, "batch": self._batch}
        self._events = {"fault": self._fault, "backup": self._backup,
                        "media": self._media, "crash": self._crash,
                        "verify": self._verify}

    # ------------------------------------------------------------------
    # Set-up: inputs from the seed, a fresh deployment, the initial load
    # ------------------------------------------------------------------
    def setup(self) -> float:
        """Generate inputs, connect, load, checkpoint; returns seconds
        at reference speed."""
        start = time.perf_counter()
        records, stream = self.workload.inputs(
            self.seed, self.n_records, self.round_ops)
        self.stream_rounds = [self._take_round(stream)
                              for _ in range(self.rounds + 1)]
        self.oracle = dict(records)
        self.sorted_keys = sorted(self.oracle)
        # Trace an embedded engine from before it is built (the pool binds
        # its fetcher at construction), a process fleet only after it has
        # forked (workers stay untraced).
        forks = self.workload.fleet and self.transport == "process"
        if self.tracer is not None and not forks:
            self.tracer.install()
        self.client = repro.connect(
            self.workload.connect_config(self.seed, self.transport))
        if self.tracer is not None and forks:
            self.tracer.install()
        fleet = self.workload.fleet
        self.db = None if fleet else self.client.db
        self.router = self.client.router if fleet else None
        for i in range(0, len(records), LOAD_BATCH):
            self.client.apply_batch(
                [("put", key, value) for key, value in records[i:i + LOAD_BATCH]])
            self._reference.append(reference_ns())
        self._maintenance(Round())
        seconds = time.perf_counter() - start - sum(self._reference) / 1e9
        return seconds / self._measured_slowdown()[1]

    def _measured_slowdown(self) -> tuple[float, float]:
        """Close the current window of kernel timings: (median, mean)
        slowdown against reference speed."""
        samples, self._reference = self._reference, []
        if not samples:
            return 1.0, 1.0
        return (statistics.median(samples) / REFERENCE_NS,
                statistics.mean(samples) / REFERENCE_NS)

    def _take_round(self, stream) -> list[tuple]:  # noqa: ANN001
        """The next ``round_ops`` client ops with the events before them."""
        ops, n = [], 0
        for op in stream:
            ops.append(op)
            if op[0] not in EVENT_KINDS:
                n += 1
                if n == self.round_ops:
                    return ops
        raise AssertionError("op streams are infinite")

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        self.client.close()

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def run(self) -> list[Round]:
        """One discarded warm-up round, then the timed rounds."""
        self.run_round(self.stream_rounds[0])
        self.calls.clear()
        for samples in (self.restart_open_ns, self.restore_open_ns,
                        self.post_restart_ns, self.repair_results):
            samples.clear()
        if self.tracer is not None:
            self.tracer.clear()
        self._reference.clear()
        rounds = [self.run_round(ops) for ops in self.stream_rounds[1:]]
        self.slowdown, mean_slowdown = self._measured_slowdown()
        slowdown = self.slowdown
        for rnd in rounds:
            rnd.busy_ns /= mean_slowdown
            for cls, samples in rnd.lat.items():
                rnd.lat[cls] = [ns / slowdown for ns in samples]
        for samples in (*self.calls.values(), self.restart_open_ns,
                        self.restore_open_ns, self.post_restart_ns):
            samples[:] = [ns / slowdown for ns in samples]
        return rounds

    def run_round(self, ops: list[tuple]) -> Round:
        rnd = Round()
        before, sim_before = self._counters()
        tracer, handlers, events = self.tracer, self._handlers, self._events
        for op in ops:
            kind = op[0]
            if kind in EVENT_KINDS:
                events[kind](op, rnd)
                self._sync_repairs()
                continue
            if tracer is not None:
                tracer.op_id = self.n_ops
                self.op_class.append(kind)
            self.n_ops += 1
            self.attempted += 1
            try:
                ok = handlers[kind](op, rnd)
            except ReproError as exc:
                ok = False
                self.errors[type(exc).__name__] += 1
                if tracer is not None:
                    tracer.abandon()
            if not ok:
                self.failed += 1
            if tracer is not None:
                tracer.op_id = -1
            if self.n_ops % REFERENCE_EVERY == 0:
                self._reference.append(reference_ns())
            if self.n_ops % MAINTENANCE_EVERY == 0:
                self._maintenance(rnd)
                self._sync_repairs()
            elif self.track_repairs and self.n_ops % DRAIN_EVERY == 0:
                self._drain(rnd)
                self._sync_repairs()
        rnd.ops = self.round_ops
        self._harvest_repairs()
        after, sim_after = self._counters()
        rnd.counters = {name: value - before.get(name, 0) - rnd.off_books[name]
                        for name, value in after.items()}
        # A fleet's shards run in parallel: its simulated makespan is the
        # slowest shard's clock.
        rnd.sim_seconds = (max(a - b for a, b in zip(sim_after, sim_before))
                           - rnd.off_books_sim)
        return rnd

    def _counters(self) -> tuple[dict[str, int], list[float]]:
        if self.db is not None:
            return self.db.stats.snapshot(), [self.db.clock.now]
        total: Counter[str] = Counter()
        clocks = []
        for shard in self.router.stats().values():
            clocks.append(shard.pop("sim_clock_seconds"))
            total.update(shard)
        return total, clocks

    # ------------------------------------------------------------------
    # Client ops.  ``_client`` times exactly the client call; each handler
    # then compares with (and updates) the oracle outside that interval.
    # ------------------------------------------------------------------
    def _begin(self) -> int | None:
        """Open the client-op span when tracing."""
        if self.tracer is None:
            return None
        self.tracer.root = span = self.tracer.begin()
        return span

    def _end(self, span: int | None, cls: str, t0: int, t1: int,
             rnd: Round) -> None:
        dt = t1 - t0
        rnd.busy_ns += dt
        rnd.lat[cls].append(dt)
        if span is not None:
            self.tracer.end(span, self.tracer.name_id("client." + cls), t0, t1)
            self.tracer.root = -1
        if self._open_since is not None:
            # First successful client op after a crash or device loss.
            samples, since = self._open_since
            samples.append(t1 - since)
            self._open_since = None
        if self._post_restart_left:
            self._post_restart_left -= 1
            self.post_restart_ns.append(dt)
        if self.track_repairs:
            # A repair op: single-page recovery ran somewhere inside it.
            repairs = self.db.stats.get("single_page_recoveries")
            moved = repairs != self._repairs_seen
            self._repairs_seen = repairs
            rnd.lat[("repair_" if moved else "healthy_") + cls].append(dt)

    def _sync_repairs(self) -> None:
        """Repairs done outside client ops (drains, backups) must not
        make the next op look like a repair op."""
        if self.track_repairs:
            self._repairs_seen = self.db.stats.get("single_page_recoveries")

    def _wrote(self, key: bytes, value: bytes, rnd: Round) -> None:
        if key not in self.oracle:
            bisect.insort(self.sorted_keys, key)
        self.oracle[key] = value
        rnd.user_bytes += len(key) + len(value)

    def _client(self, cls: str, rnd: Round, fn, *args):  # noqa: ANN001, ANN002, ANN202
        """Time one client call (and span it when tracing)."""
        span = self._begin()
        t0 = now()
        result = fn(*args)
        t1 = now()
        self._end(span, cls, t0, t1, rnd)
        return result

    def _get(self, op: tuple, rnd: Round) -> bool:
        key = op[1]
        return self._client("get", rnd, self.client.get, key) == self.oracle.get(key)

    def _put(self, op: tuple, rnd: Round) -> bool:
        self._client("put", rnd, self.client.put, op[1], op[2])
        self._wrote(op[1], op[2], rnd)
        return True

    def _delete(self, op: tuple, rnd: Round) -> bool:
        key = op[1]
        existed = self._client("delete", rnd, self.client.delete, key)
        expected = self.oracle.pop(key, None) is not None
        if expected:
            del self.sorted_keys[bisect.bisect_left(self.sorted_keys, key)]
        rnd.user_bytes += len(key)
        return existed == expected

    def _scan(self, op: tuple, rnd: Round) -> bool:
        low, high = op[1], op[2]
        rows = self._client("scan", rnd, self.client.scan, low, high)
        rnd.scan_rows += len(rows)
        keys = self.sorted_keys
        expected = keys[bisect.bisect_left(keys, low):bisect.bisect_left(keys, high)]
        return rows == [(key, self.oracle[key]) for key in expected]

    def _txn(self, op: tuple, rnd: Round) -> bool:
        reads, writes = op[1], op[2]

        def two_reads_two_writes() -> list:
            with self.client.txn() as txn:
                got = [txn.get(key) for key in reads]
                for key, value in writes:
                    txn.put(key, value)
            return got

        got = self._client("txn", rnd, two_reads_two_writes)
        ok = got == [self.oracle.get(key) for key in reads]
        for key, value in writes:
            self._wrote(key, value, rnd)
        return ok

    def _batch(self, op: tuple, rnd: Round) -> bool:
        applied = self._client("batch", rnd, self.client.apply_batch, op[1])
        for _put, key, value in op[1]:
            self._wrote(key, value, rnd)
        return applied == len(op[1])

    # ------------------------------------------------------------------
    # Engine entry points the runner calls on its own behalf: the
    # maintenance policy and the failure schedule.
    # ------------------------------------------------------------------
    def _timed(self, name: str, rnd: Round, fn, *args):  # noqa: ANN001, ANN002, ANN202
        span = self.tracer.begin() if self.tracer is not None else None
        t0 = now()
        result = fn(*args)
        t1 = now()
        if span is not None:
            self.tracer.end(span, self.tracer.name_id("engine." + name), t0, t1)
        rnd.busy_ns += t1 - t0
        self.calls[name].append(t1 - t0)
        return result

    def _settle(self, rnd: Round) -> None:
        """Finish pending on-demand recovery before the next checkpoint,
        backup or failure, which would otherwise do it implicitly (a
        checkpoint drains everything) or compound two failures."""
        db = self.db
        if db is not None and (db.restart_pending or db.restore_pending):
            self._timed("finish_recovery", rnd, self._finish_recovery)

    def _finish_recovery(self) -> None:
        self.db.finish_restart()
        self.db.finish_restore()

    def _maintenance(self, rnd: Round) -> None:
        """The same policy on every commit measured: checkpoint and
        truncate the log (a fleet has no public truncate: checkpoints)."""
        self._settle(rnd)
        if self.db is not None:
            self._timed("checkpoint", rnd, self._checkpoint)
        else:
            self._timed("checkpoint", rnd, self.router.checkpoint_all)

    def _checkpoint(self) -> None:
        self.db.checkpoint()
        self.db.truncate_log()

    def _drain(self, rnd: Round) -> None:
        db = self.db
        if db.restart_pending:
            self._timed("drain", rnd, db.drain_restart, DRAIN_PAGE_BUDGET)
        if db.restore_pending:
            self._timed("drain", rnd, db.drain_restore, DRAIN_PAGE_BUDGET)

    @contextlib.contextmanager
    def _off_the_books(self, rnd: Round):  # noqa: ANN202
        """What happens inside is the environment's or the oracle's doing:
        neither timed nor counted as the engine's work."""
        before, (sim_before,) = self._counters()
        yield
        after, (sim_after,) = self._counters()
        rnd.off_books.update({name: value - before.get(name, 0)
                              for name, value in after.items()})
        rnd.off_books_sim += sim_after - sim_before

    def _fault(self, op: tuple, rnd: Round) -> None:
        """One page fault on a seeded-random allocated data page, found
        and made cold with public calls only; only its repair is the
        engine's work."""
        with self._off_the_books(rnd):
            self._inject(op[1], op[2])

    def _inject(self, fault: str, u: float) -> None:
        db = self.db
        first = db.config.data_start
        page_id = first + int(u * (db.allocated_pages() - first))
        device, pool = db.device, db.pool
        if fault == "lost_write" and device.raw_image(page_id) is None:
            # Losing a page's *first* write-back breaks restart redo
            # (README, traps): such a page gets bit rot instead.
            fault = "bit_rot"
        if fault == "lost_write":
            # Drops the next write-back: this one if the page is dirty
            # now, else whenever it next is.
            device.inject_lost_write(page_id)
        if pool.resident(page_id) and pool.pin_count(page_id) == 0:
            pool.flush_page(page_id)
            pool.evict(page_id)
        if fault == "bit_rot":
            device.inject_bit_rot(page_id)
        elif fault == "read_error":
            device.inject_read_error(page_id)

    def _harvest_repairs(self, rebuilt: bool = False) -> None:
        """Collect the engine's per-repair telemetry; ``crash()`` and
        ``recover_media()`` rebuild the object that holds it."""
        if self.track_repairs:
            history = self.db.single_page.history
            self.repair_results.extend(history[self._harvested:])
            self._harvested = 0 if rebuilt else len(history)

    def _backup(self, op: tuple, rnd: Round) -> None:
        self._settle(rnd)
        self._backup_id = self._timed("full_backup", rnd,
                                      self.db.take_full_backup)

    def _crash(self, op: tuple, rnd: Round) -> None:
        self._settle(rnd)
        self._harvest_repairs(rebuilt=True)
        since = now()
        self._timed("crash", rnd, self.db.crash)
        self._timed("restart", rnd, self.db.restart)
        self._open_since = (self.restart_open_ns, since)
        self._post_restart_left = POST_RESTART_OPS

    def _media(self, op: tuple, rnd: Round) -> None:
        self._settle(rnd)
        self._harvest_repairs(rebuilt=True)
        since = now()
        self.db.device.fail_device()
        self._timed("recover_media", rnd, self.db.recover_media,
                    self._backup_id)
        self._open_since = (self.restore_open_ns, since)

    def _verify(self, op: tuple, rnd: Round) -> None:
        """Re-read a key sample after a recovery, VERIFY_AFTER ops later
        so it does not pre-fix the pages whose on-demand redo the
        post-restart ops are there to measure."""
        sample = self._check_rng.sample(
            self.sorted_keys, min(VERIFY_SAMPLE, len(self.sorted_keys)))
        with self._off_the_books(rnd):
            for key in sample:
                if self.client.get(key) != self.oracle[key]:
                    self.failed += 1

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def verify_final(self) -> bool:
        """A full scan must equal the oracle, row for row."""
        ok = self.client.scan() == [(key, self.oracle[key])
                                    for key in self.sorted_keys]
        if not ok:
            self.failed += 1
        return ok

    def live_user_bytes(self) -> int:
        return sum(len(key) + len(value) for key, value in self.oracle.items())

    def stored_bytes(self) -> int:
        """Device pages + page copies + retained log (embedded only)."""
        db = self.db
        return (db.allocated_pages() * db.config.page_size
                + db.backup_store.copies_bytes() + db.log.retained_bytes())
