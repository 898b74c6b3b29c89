"""Clock (second-chance) eviction policy."""

from __future__ import annotations

from typing import Callable, Iterable


class ClockEviction:
    """Classic clock sweep over a set of page ids.

    The policy only chooses *which* unpinned page to evict; the buffer
    pool handles flushing and the Figure-11 write-back protocol.
    """

    def __init__(self) -> None:
        self._ring: list[int] = []
        self._hand = 0
        self._ref: dict[int, bool] = {}

    def admitted(self, page_id: int) -> None:
        self._ring.append(page_id)
        self._ref[page_id] = True

    def touched(self, page_id: int) -> None:
        if page_id in self._ref:
            self._ref[page_id] = True

    def removed(self, page_id: int) -> None:
        if page_id in self._ref:
            del self._ref[page_id]
            ring = self._ring
            # The victim the sweep just chose sits right behind the
            # hand; any other page has to be searched for.
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

    def choose_victim(self, evictable: Callable[[int], bool]) -> int | None:
        """Pick a victim among pages for which ``evictable`` is true."""
        if not self._ring:
            return None
        sweeps = 0
        max_steps = 2 * len(self._ring) + 1
        while sweeps < max_steps:
            page_id = self._ring[self._hand]
            self._hand = (self._hand + 1) % len(self._ring)
            sweeps += 1
            if not evictable(page_id):
                continue
            if self._ref.get(page_id, False):
                self._ref[page_id] = False
                continue
            return page_id
        # Second full sweep cleared all reference bits; give up only if
        # nothing is evictable at all.
        for page_id in self._ring:
            if evictable(page_id):
                return page_id
        return None

    def pages(self) -> Iterable[int]:
        return list(self._ring)
