"""Predictive page prefetching (GrASP-style semantic read-ahead).

The prefetcher learns page-access patterns online from the buffer
pool's demand-fix stream and predicts the pages traffic will touch
next, from three signals:

* **sequential runs** — a fix whose page id extends a recent ±1 run
  (heap scans, key-ordered B-tree sweeps) predicts the next pages in
  that direction;
* **B-tree sibling chains** — a fixed B-tree node whose fence-key
  metadata carries a foster pointer predicts the foster child (the
  sibling the next key-ordered probe descends into);
* **recent-window correlation** — pages that historically follow the
  just-fixed page within a small window (per client stream) are
  predicted regardless of address locality.

Predictions are *queued*, never fetched inline: speculative I/O runs
only at explicit service points (:meth:`service`, reached through
``Database.prefetch_tick`` and budgeted recovery drains), between
operations, with no frame latch held.  That keeps the latch order of
:mod:`repro.buffer.buffer_pool` intact — the pool mutex is never held
across a speculative fetch, and a speculative fix takes exactly the
demand path (placeholder + frame latch), so a racing demand fix of the
same page blocks on the latch instead of re-running recovery — and it
keeps the deterministic chaos simulation bit-reproducible, because
speculative work happens at scheduled events, not behind arbitrary
fixes.

The same model ranks the pending-page set of a pending recovery
(restart or restore): :meth:`rank` orders it by predicted next access,
so budgeted background drains warm the pages traffic will
actually hit first instead of sweeping in page-id order.  Pages the
model knows nothing about keep their ascending-id order, so with no
signal a ranked drain degenerates to exactly the classic sweep.  The
learned summary deliberately survives :meth:`repro.engine.database.
Database.crash` — it is a few hundred counters, the moral equivalent
of the persisted access maps real warmup systems keep — which is what
lets the first post-crash drains target the pre-crash working set.
Correctness never depends on it: every speculative fix runs the same
recovery-on-first-fix hooks as a demand fix, exactly once.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.page.page import Page
from repro.sim.stats import Stats

#: decay applied to every page's heat per observed access (EWMA-ish:
#: recent traffic dominates, ancient history fades)
_HEAT_DECAY = 0.98
#: cap on tracked correlation edges and heat entries (oldest evicted)
_MAX_TRACKED = 4096


class Prefetcher:
    """Online access-pattern model + bounded speculative fetch queue."""

    def __init__(self, stats: Stats | None = None, mode: str = "semantic",
                 depth: int = 4, window: int = 8,
                 queue_limit: int = 64) -> None:
        if mode not in ("sequential", "semantic"):
            raise ValueError(
                f"prefetcher mode must be 'sequential' or 'semantic', "
                f"got {mode!r}")
        self.stats = stats or Stats()
        self._prefetch_queue_overflow = self.stats.counter(
            "prefetch_queue_overflow")
        self.mode = mode
        self.depth = depth
        self.window = window
        self.queue_limit = queue_limit
        #: recent demand accesses per client stream (stream 0 = the
        #: engine's single-threaded default)
        self._recent: dict[int, deque[int]] = {}
        self._stream = 0
        #: page -> {successor page -> count} within the recent window
        self._succ: OrderedDict[int, dict[int, int]] = OrderedDict()
        #: page -> decayed access heat (insertion-ordered for eviction)
        self._heat: OrderedDict[int, float] = OrderedDict()
        #: page -> foster sibling discovered from fence-key metadata
        self._links: OrderedDict[int, int] = OrderedDict()
        #: predicted pages awaiting a service point, FIFO with dedup
        self._queue: OrderedDict[int, None] = OrderedDict()
        self._ticks = 0
        #: True while service() runs: fixes issued *by* prefetching
        #: (the speculative reads themselves, and bookkeeping reads
        #: like the allocator's metadata lookup behind the pool's page
        #: bound) must not train the model or enqueue new predictions,
        #: or servicing would feed itself forever
        self._servicing = False

    # ------------------------------------------------------------------
    # Learning (called by BufferPool.fix on every demand access)
    # ------------------------------------------------------------------
    def set_stream(self, stream: int) -> None:
        """Select the client stream subsequent accesses belong to."""
        self._stream = stream

    def observe(self, page_id: int, page: Page | None = None) -> None:
        """Learn from one demand access and queue its predictions."""
        if self._servicing:
            return
        self._ticks += 1
        recent = self._recent.setdefault(
            self._stream, deque(maxlen=self.window))

        # Heat: decayed access frequency, the drain-ranking backbone.
        heat = self._heat.pop(page_id, 0.0)
        self._heat[page_id] = heat * _HEAT_DECAY + 1.0
        while len(self._heat) > _MAX_TRACKED:
            self._heat.popitem(last=False)

        if self.mode == "semantic":
            # Correlation: this page follows each page in the window.
            for prev in recent:
                if prev == page_id:
                    continue
                edges = self._succ.get(prev)
                if edges is None:
                    edges = self._succ[prev] = {}
                    while len(self._succ) > _MAX_TRACKED:
                        self._succ.popitem(last=False)
                edges[page_id] = edges.get(page_id, 0) + 1
                if len(edges) > 2 * self.depth:
                    weakest = min(edges, key=lambda p: (edges[p], -p))
                    del edges[weakest]
            if page is not None:
                link = sibling_hint(page)
                if link is not None:
                    self._links.pop(page_id, None)
                    self._links[page_id] = link
                    while len(self._links) > _MAX_TRACKED:
                        self._links.popitem(last=False)

        for candidate in self._predict(page_id, recent):
            self._enqueue(candidate)
        recent.append(page_id)

    def _predict(self, page_id: int, recent: deque[int]) -> list[int]:
        """Ranked next-access candidates for one just-fixed page."""
        candidates: list[int] = []
        # Sequential run, either direction: p follows p-1 (or p-2, to
        # survive interleaved root/branch fixes) -> predict ahead.
        if any(page_id - step in recent for step in (1, 2)):
            candidates.extend(page_id + d for d in range(1, self.depth + 1))
        elif any(page_id + step in recent for step in (1, 2)):
            candidates.extend(page_id - d for d in range(1, self.depth + 1)
                              if page_id - d > 0)
        if self.mode == "semantic":
            link = self._links.get(page_id)
            if link is not None and link not in candidates:
                candidates.append(link)
            edges = self._succ.get(page_id)
            if edges:
                ranked = sorted(edges, key=lambda p: (-edges[p], p))
                candidates.extend(p for p in ranked[:self.depth]
                                  if p not in candidates)
        return candidates[:2 * self.depth]

    def _enqueue(self, page_id: int) -> None:
        if page_id in self._queue:
            return
        if len(self._queue) >= self.queue_limit:
            self._queue.popitem(last=False)  # oldest prediction staled
            self._prefetch_queue_overflow.inc()
        self._queue[page_id] = None

    # ------------------------------------------------------------------
    # Servicing (the only place speculative I/O happens)
    # ------------------------------------------------------------------
    def service(self, pool, budget: int | None = None) -> int:  # noqa: ANN001
        """Issue up to ``budget`` queued fetches through ``pool``.

        Runs between operations with no latch held; every bound check
        (residency, frame headroom, allocated range) is the pool's.
        Returns the number of pages actually fetched.
        """
        issued = 0
        backlog = len(self._queue)  # only what was queued at entry
        self._servicing = True
        try:
            while (self._queue and backlog > 0
                   and (budget is None or issued < budget)):
                backlog -= 1
                page_id, _ = self._queue.popitem(last=False)
                if pool.prefetch(page_id):
                    issued += 1
        finally:
            self._servicing = False
        return issued

    @property
    def queued(self) -> list[int]:
        return list(self._queue)

    # ------------------------------------------------------------------
    # Recovery-drain ranking
    # ------------------------------------------------------------------
    def rank(self, page_ids: list[int]) -> list[int]:
        """Order a pending-page set by predicted next access.

        Score = access heat + adjacency to recently hot pages (the
        sequential front) + correlation from recently hot pages +
        sibling links.  Zero-score pages keep ascending-id order, so
        an unheated model ranks exactly like the classic sweep.
        """
        scores: dict[int, float] = {}
        pending = set(page_ids)
        for page_id, heat in self._heat.items():
            if page_id in pending:
                scores[page_id] = scores.get(page_id, 0.0) + heat
            # Neighbours of hot pages sit on the sequential front.
            for step in range(1, self.depth + 1):
                bonus = heat / (1.0 + step)
                for neighbour in (page_id + step, page_id - step):
                    if neighbour in pending:
                        scores[neighbour] = scores.get(neighbour, 0.0) + bonus
            if self.mode == "semantic":
                link = self._links.get(page_id)
                if link is not None and link in pending:
                    scores[link] = scores.get(link, 0.0) + heat
                edges = self._succ.get(page_id)
                if edges:
                    for succ, count in edges.items():
                        if succ in pending:
                            scores[succ] = (scores.get(succ, 0.0)
                                            + heat * count)
        return sorted(page_ids,
                      key=lambda pid: (-scores.get(pid, 0.0), pid))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """A system failure: in-flight predictions and the per-stream
        windows die with the volatile state; the learned summary (heat,
        correlation, links) survives, like a persisted access map."""
        self._queue.clear()
        self._recent.clear()

    def snapshot(self) -> dict:
        """Introspection for tests and benchmarks."""
        return {
            "mode": self.mode,
            "tracked_heat": len(self._heat),
            "tracked_edges": len(self._succ),
            "tracked_links": len(self._links),
            "queued": len(self._queue),
            "ticks": self._ticks,
        }


def sibling_hint(page: Page) -> int | None:
    """Foster sibling of a B-tree page, from its fence-key metadata.

    Best-effort and read-only: returns ``None`` for non-B-tree pages
    and for anything that fails to parse (the prefetcher must never
    raise on behalf of a speculative hint).  Imported lazily so the
    buffer layer keeps no static dependency on the B-tree layer.
    """
    from repro.btree.node import BTreeNode

    return BTreeNode.peek_foster(page)
