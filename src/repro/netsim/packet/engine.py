"""Discrete-event scheduling engines.

Two interchangeable schedulers drive the packet simulator:

* :class:`EventScheduler` — a binary heap (the default).  Events are
  ``(time, sequence, callback)`` tuples; the sequence number breaks ties
  so that events scheduled earlier run earlier and comparison never
  falls through to the (non-comparable) callback.
* :class:`CalendarScheduler` — a calendar queue (Brown 1988): a ring of
  time buckets, each a small sorted list.  When the event horizon is
  short relative to the bucket width — as it is at steady state, where
  almost every pending event lies within one RTT — scheduling degrades
  from the heap's O(log n) comparisons to an O(1) bucket append, at the
  cost of a bucket scan when events are sparse.

Both schedulers deliver the *exact same event order* for the same calls
(time, then scheduling sequence); the property and fuzz tests in
``tests/netsim/test_scheduler_property.py`` pin this, which is what lets
the network builder switch between them without perturbing a single
simulation result.  :func:`make_scheduler` is the factory the builder
uses; the heap is the default, and the calendar queue runs only when a
caller asks for ``"calendar"`` (it is slower than the heap on the
simulations this package runs; see ``docs/performance.md``).
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from collections.abc import Callable

__all__ = ["EventScheduler", "CalendarScheduler", "SCHEDULERS", "make_scheduler"]


class EventScheduler:
    """A simple discrete-event scheduler backed by a binary heap.

    Example
    -------
    >>> sched = EventScheduler()
    >>> fired = []
    >>> sched.schedule(1.0, lambda: fired.append("a"))
    >>> sched.schedule(0.5, lambda: fired.append("b"))
    >>> sched.run(until=2.0)
    >>> fired
    ['b', 'a']
    """

    #: Registry name used by :func:`make_scheduler`.
    kind = "heap"

    #: Cancelled-entry count above which :meth:`cancel` rebuilds the heap.
    _COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        #: Ids of cancelled events still in the heap (dropped when popped).
        self._cancelled: set[int] = set()
        #: Current simulation time in seconds.  A plain attribute, read on
        #: every send and service event; only the scheduler advances it.
        self.now = 0.0
        #: Lifetime count of callbacks executed (the events/sec numerator
        #: of the performance model; see ``docs/performance.md``).
        #: :meth:`run` adds its events when it returns (or raises).
        self.events_processed = 0
        #: Lifetime count of events ever inserted (processed + cancelled
        #: + still pending); part of the uniform counter schema both
        #: scheduler kinds report (:class:`repro.obs.metrics.EngineCounters`).
        #: Also the id of the next scheduled event.
        self.events_scheduled = 0

    def schedule(self, time: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run at absolute ``time``.

        Returns an event id usable with :meth:`cancel`.  Scheduling in the
        past, or at a NaN time, raises ``ValueError``.
        """
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule an event at {time} before current time {self.now}"
            )
        event_id = self.events_scheduled
        self.events_scheduled = event_id + 1
        heapq.heappush(self._heap, (float(time), event_id, callback))
        return event_id

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, callback)

    def cancel(self, event_id: int) -> None:
        """Cancel a previously scheduled event.

        Cancelling an id that is not pending (unknown, already run, or
        already cancelled) is a no-op; pending means still in the heap,
        which this checks with a linear scan (nothing in the simulator
        cancels, so the hot path keeps no pending-id index).  Cancelled
        entries are dropped lazily at pop time; once they outnumber the
        live events the heap is compacted, so neither the heap nor the
        cancelled-id set grows without bound.
        """
        cancelled = self._cancelled
        if event_id in cancelled or all(e[1] != event_id for e in self._heap):
            return
        cancelled.add(event_id)
        if len(cancelled) > self._COMPACT_THRESHOLD and 2 * len(cancelled) > len(self._heap):
            self._heap = [e for e in self._heap if e[1] not in cancelled]
            heapq.heapify(self._heap)
            cancelled.clear()

    def __len__(self) -> int:
        """Number of live (non-cancelled) pending events."""
        return len(self._heap) - len(self._cancelled)

    def run(self, until: float) -> None:
        """Run events in time order until the clock reaches ``until``."""
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        processed = 0
        try:
            while heap and heap[0][0] <= until:
                time, event_id, callback = pop(heap)
                if event_id in cancelled:
                    cancelled.discard(event_id)
                    continue
                self.now = time
                processed += 1
                callback()
        finally:
            self.events_processed += processed
        if until > self.now:
            self.now = until

    def step(self) -> bool:
        """Run a single event.  Returns False when no events remain."""
        while self._heap:
            time, event_id, callback = heapq.heappop(self._heap)
            if event_id in self._cancelled:
                self._cancelled.discard(event_id)
                continue
            self.now = time
            self.events_processed += 1
            callback()
            return True
        return False


class CalendarScheduler:
    """A calendar-queue scheduler: a ring of ``buckets`` sorted lists.

    Events land in bucket ``int(time / bucket_s) % buckets``; each bucket
    is kept sorted by ``(time, sequence)``, so within a bucket — and
    therefore globally — events fire in exactly the order the heap
    scheduler would fire them.  The pop path walks the ring one *day*
    (bucket width) at a time from the current day; an event more than a
    full ring revolution (one *year*) ahead stays in its bucket until the
    walk reaches its year, and a fully empty revolution falls back to a
    direct scan for the earliest bucket head, so arbitrarily sparse
    futures (a traffic source's pre-generated arrivals, for example)
    remain correct — just not O(1).

    The sweet spot is the saturated steady state: nearly every pending
    event (service completions, ack deliveries, pacing timers) lies
    within one RTT, so with ``bucket_s`` near the per-event spacing each
    bucket holds O(1) entries and both insert and pop touch a handful of
    list elements instead of an O(log n) heap path.

    Parameters
    ----------
    bucket_s:
        Bucket (day) width in seconds.  Pick the expected spacing between
        events — the network builder uses the MSS serialization time of
        its bottleneck.
    buckets:
        Ring size.  ``bucket_s * buckets`` is the year length: the
        horizon within which an event is reachable without a year check.
    """

    kind = "calendar"

    #: Cancelled-entry count above which :meth:`cancel` rebuilds the ring.
    _COMPACT_THRESHOLD = 64

    #: Default ring size: large enough that one year covers several RTTs
    #: at MSS-sized ticks, small enough that an empty-ring scan is cheap.
    DEFAULT_BUCKETS = 1024

    def __init__(self, bucket_s: float, buckets: int = DEFAULT_BUCKETS) -> None:
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        if buckets < 2:
            raise ValueError("buckets must be at least 2")
        self._bucket_s = float(bucket_s)
        self._n = int(buckets)
        self._buckets: list[list[tuple[float, int, Callable[[], None]]]] = [
            [] for _ in range(self._n)
        ]
        self._counter = itertools.count()
        #: Current simulation time in seconds (see :attr:`EventScheduler.now`).
        self.now = 0.0
        self._day = 0  # ring cursor: no live event lies before this day
        self._pending: set[int] = set()
        self._cancelled: set[int] = set()
        self.events_processed = 0
        #: Same contract as :attr:`EventScheduler.events_scheduled`.
        self.events_scheduled = 0

    def schedule(self, time: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` at absolute ``time``; returns an event id."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule an event at {time} before current time {self.now}"
            )
        event_id = next(self._counter)
        time = float(time)
        bucket = self._buckets[int(time / self._bucket_s) % self._n]
        if bucket and bucket[-1][0] <= time:
            # Common case at steady state: append in order, no bisect.
            bucket.append((time, event_id, callback))
        else:
            insort(bucket, (time, event_id, callback))
        self._pending.add(event_id)
        self.events_scheduled += 1
        return event_id

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, callback)

    def cancel(self, event_id: int) -> None:
        """Cancel a previously scheduled event (lazy, like the heap's)."""
        if event_id not in self._pending:
            return
        self._pending.discard(event_id)
        self._cancelled.add(event_id)
        if (
            len(self._cancelled) > self._COMPACT_THRESHOLD
            and len(self._cancelled) > len(self._pending)
        ):
            for i, bucket in enumerate(self._buckets):
                self._buckets[i] = [e for e in bucket if e[1] not in self._cancelled]
            self._cancelled.clear()

    def __len__(self) -> int:
        """Number of live (non-cancelled) pending events."""
        return len(self._pending)

    def _pop_next(self) -> tuple[float, int, Callable[[], None]] | None:
        """Remove and return the earliest live event, or None when empty.

        Walks the ring from the day cursor; a bucket's head belongs to
        the current day iff its own day index matches (computed with the
        *same* ``int(time / bucket_s)`` expression used at insert time,
        so float rounding cannot strand an event between two days).
        """
        width = self._bucket_s
        n = self._n
        buckets = self._buckets
        cancelled = self._cancelled
        while self._pending:
            day = self._day
            for _ in range(n):
                bucket = buckets[day % n]
                while bucket:
                    head = bucket[0]
                    if head[1] in cancelled:
                        cancelled.discard(head[1])
                        bucket.pop(0)
                        continue
                    if int(head[0] / width) <= day:
                        self._day = day
                        self._pending.discard(head[1])
                        return bucket.pop(0)
                    break  # head lies in a later year of this bucket
                day += 1
            # A full revolution found nothing this year: jump the cursor
            # straight to the day of the earliest bucket head (rare —
            # only when every pending event is more than a year away).
            heads = [b[0] for b in buckets if b]
            if not heads:
                break  # every remaining entry was cancelled
            earliest = min(heads)
            self._day = int(earliest[0] / width)
        return None

    def run(self, until: float) -> None:
        """Run events in time order until the clock reaches ``until``."""
        while True:
            entry = self._pop_next()
            if entry is None:
                break
            time, event_id, callback = entry
            if time > until:
                # Put it back (cheap: it is the minimum, so it re-sorts
                # to the front of its bucket) and stop.  The pop walked
                # the day cursor up to this event's day — rewind it to
                # the clock's day, because events scheduled later (at
                # times >= now but < this event) may land in the days in
                # between and must still be reachable in order.
                insort(self._buckets[int(time / self._bucket_s) % self._n], entry)
                self._pending.add(event_id)
                self._day = int(self.now / self._bucket_s)
                break
            self.now = time
            self.events_processed += 1
            callback()
        if until > self.now:
            self.now = until

    def step(self) -> bool:
        """Run a single event.  Returns False when no events remain."""
        entry = self._pop_next()
        if entry is None:
            return False
        self.now = entry[0]
        self.events_processed += 1
        entry[2]()
        return True


#: Scheduler implementations selectable by name in :func:`make_scheduler`.
SCHEDULERS: dict[str, type] = {
    EventScheduler.kind: EventScheduler,
    CalendarScheduler.kind: CalendarScheduler,
}


def make_scheduler(
    kind: str = "heap",
    *,
    bucket_s: float | None = None,
    buckets: int = CalendarScheduler.DEFAULT_BUCKETS,
) -> EventScheduler | CalendarScheduler:
    """Construct a scheduler by name: ``"heap"`` or ``"calendar"``.

    The calendar queue needs its bucket width ``bucket_s`` (typically one
    MSS serialization time at the bottleneck); the heap ignores it.
    """
    if kind == "heap":
        return EventScheduler()
    if kind == "calendar":
        if bucket_s is None:
            raise ValueError("the calendar scheduler needs a bucket_s width")
        return CalendarScheduler(bucket_s, buckets=buckets)
    raise ValueError(f"unknown scheduler {kind!r}; expected one of {sorted(SCHEDULERS)}")
