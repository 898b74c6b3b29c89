"""Clock (second-chance) eviction policy."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from repro.buffer.buffer_pool import Frame


class ClockEviction:
    """Classic clock sweep over the pool's frames.

    The policy keeps the ring (page ids in admission order) and the
    hand; the reference bit is the frame's own ``referenced`` flag, set
    by the pool when it admits a frame and on every hit — the
    pool's frame table is the one residency table.  The policy only
    chooses *which* frame to evict; the buffer pool handles flushing and
    the Figure-11 write-back protocol.
    """

    def __init__(self) -> None:
        self._ring: list[int] = []
        self._hand = 0

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
        for _ in range(2 * size + 1):
            page_id = ring[self._hand]
            self._hand = (self._hand + 1) % size
            frame = frames[page_id]
            if frame.pin_count:
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            return page_id
        # Two full sweeps cleared every reference bit they could; give
        # up only if nothing is evictable at all.
        for page_id in ring:
            if not frames[page_id].pin_count:
                return page_id
        return None

    def pages(self) -> Iterable[int]:
        return list(self._ring)
