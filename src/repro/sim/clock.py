"""A deterministic simulated clock.

Components that perform "expensive" operations (device reads and
writes, log forces, backup restores) advance the clock by the modeled
cost of the operation.  Experiments read elapsed simulated time in
seconds, which is the quantity the paper reasons about in Section 6.
"""

from __future__ import annotations

from repro.sync import Mutex


class SimClock:
    """Monotonic simulated clock measured in seconds.

    A single *deadline* can be armed on the clock (:meth:`arm`): the
    first :meth:`advance` that reaches it disarms it and invokes its
    callback.  Because every modeled device and log I/O advances the
    clock, an armed callback fires *in the middle* of whatever
    multi-step engine operation happens to cross the deadline — this is
    how the chaos harness injects failures at arbitrary protocol
    points rather than only between operations (the callback typically
    raises, unwinding the interrupted operation like a process crash
    would).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)
        self._deadline: float | None = None
        self._on_deadline = None  # Callable[[], None] | None
        # Concurrent sessions advance the clock from many threads; the
        # single-threaded chaos paths see only an uncontended acquire.
        self._mutex = Mutex()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        with self._mutex:
            self._now += seconds
            if self._deadline is not None and self._now >= self._deadline:
                callback = self._on_deadline
                self.disarm()
                callback()
            return self._now

    def arm(self, deadline: float, callback) -> None:  # noqa: ANN001
        """Arm ``callback`` to fire at the first advance reaching
        ``deadline``.  Only one deadline may be armed at a time."""
        with self._mutex:
            if self._on_deadline is not None:
                raise ValueError("a clock deadline is already armed")
            if callback is None:
                raise ValueError("deadline callback must be callable")
            self._deadline = float(deadline)
            self._on_deadline = callback

    def disarm(self) -> None:
        """Cancel the armed deadline, if any."""
        with self._mutex:
            self._deadline = None
            self._on_deadline = None

    @property
    def armed(self) -> bool:
        """Is a deadline currently armed?"""
        return self._on_deadline is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


class StopWatch:
    """Measure a span of simulated time on a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "StopWatch":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = self._clock.now - self._start
