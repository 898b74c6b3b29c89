"""Clock (second-chance) eviction policy."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from repro.buffer.buffer_pool import Frame


class ClockEviction:
    """Clock sweep over the pool's frames that weighs what a victim costs.

    The policy keeps the ring (page ids in admission order) and the
    hand; the reference bit is the frame's own ``referenced`` flag, set
    by the pool when it admits a frame and on every hit — the
    pool's frame table is the one residency table.  Two rules weigh
    the second-chance sweep:

    * a dirty frame costs a page write to evict, ``dirty_sweeps`` times
      what the read that brings a page back costs (the pool's device
      profile, rounded down), so it is evicted only once it has gone
      unreferenced for that many sweeps — a clean one after one (as in
      CFLRU, Park et al. 2006).  With equal costs (``dirty_sweeps`` 1)
      dirt changes nothing;
    * a B-tree branch (``Frame.branch``) is on the path to every leaf
      below it, so it is a victim only when no other unpinned frame is
      (index pages weigh more, as in Nicola, Dan and Dias 1992).

    The policy only chooses *which* frame to evict — and, for a dirty
    victim, which dirty frames to clean beside it (:meth:`dirty_ahead`);
    the buffer pool handles flushing and the Figure-11 write-back
    protocol.
    """

    def __init__(self, dirty_sweeps: int = 1) -> None:
        self._ring: list[int] = []
        self._hand = 0
        #: unreferenced sweeps a dirty frame takes to become a victim
        self.dirty_sweeps = dirty_sweeps

    def admitted(self, page_id: int) -> None:
        self._ring.append(page_id)

    def removed(self, page_id: int) -> None:
        ring = self._ring
        # The victim the sweep just chose sits right behind the hand;
        # any other page has to be searched for.
        index = self._hand - 1
        if ring[index] != page_id:
            index = ring.index(page_id)
        elif index < 0:
            index += len(ring)
        ring.pop(index)
        if self._hand > index:
            self._hand -= 1
        if ring and self._hand >= len(ring):
            self._hand = 0

    def choose_victim(self, frames: Mapping[int, Frame]) -> int | None:
        """Pick a victim among the unpinned frames of ``frames`` (the
        pool's table, page id -> frame, covering the whole ring)."""
        ring = self._ring
        if not ring:
            return None
        size = len(ring)
        # A dirty frame is passed over this many times more than a clean
        # one (``Frame.passes`` counts them down), so every unpinned
        # frame but a branch is a victim by the sweep after its last.
        passes = self.dirty_sweeps - 1
        for _ in range((passes + 2) * size + 1):
            page_id = ring[self._hand]
            self._hand = (self._hand + 1) % size
            frame = frames[page_id]
            if frame.pin_count or frame.branch:
                continue
            if frame.referenced:
                frame.referenced = False
                frame.passes = passes
                continue
            if frame.dirty and frame.passes:
                frame.passes -= 1
                continue
            return page_id
        # Every unpinned frame but a branch met its last sweep above, so
        # what is left is branches and pins; give up only if nothing is
        # evictable at all.
        for page_id in ring:
            if not frames[page_id].pin_count:
                return page_id
        return None

    def dirty_ahead(self, frames: Mapping[int, Frame], limit: int) -> list[int]:
        """Up to ``limit`` frames to write back beside a dirty victim:
        dirty, unpinned (a loading placeholder is pinned by its loader)
        and with the reference bit clear, in the order the sweep meets
        them from the hand.  That takes in frames the weighed sweep
        still passes over — a dirty frame with sweeps left, a branch —
        not only the next victims: a run cut to frames that have used
        up their sweeps is shorter, and more runs log more
        ``PRI_UPDATE`` records.  Reads the bits, clears none: which
        frame is the next victim does not change, only whether it is
        still dirty."""
        ring = self._ring
        size = len(ring)
        hand = self._hand
        found: list[int] = []
        # The victim just chosen sits right behind the hand: stop there.
        for i in range(size - 1):
            page_id = ring[(hand + i) % size]
            frame = frames[page_id]
            if frame.dirty and not frame.pin_count and not frame.referenced:
                found.append(page_id)
                if len(found) == limit:
                    break
        return found

    def pages(self) -> Iterable[int]:
        return list(self._ring)
