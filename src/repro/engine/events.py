"""Event primitives for the simulator.

Events are ordered by (time, sequence number) so same-time events run in
scheduling order — a deterministic tie-break that keeps every simulation
run bit-reproducible.

The heap stores plain ``(time_ns, seq, event)`` tuples rather than the
events themselves: tuple comparison of two ints runs entirely in C,
while a rich-comparison dunder on the event class would execute Python
bytecode on every sift — at hundreds of thousands of heap operations per
simulated second the difference is a measurable slice of the tick-heavy
budget. ``seq`` is unique, so the comparison never reaches the event.

Recurring events (PCU ticks, EET polls, RAPL refreshes, meters) reuse
one :class:`Event` and :meth:`EventQueue.rearm` it after each firing,
instead of allocating and pushing a new one.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    ``action`` receives the event's firing time (integer ns). Cancelled
    events stay in the heap but are skipped when popped (lazy deletion);
    a cancelled event stays cancelled across re-arms.
    """

    __slots__ = ("time_ns", "seq", "action", "label", "cancelled")

    def __init__(self, time_ns: int, seq: int,
                 action: Callable[[int], None], label: str = "") -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time_ns}, seq={self.seq}, "
                f"label={self.label!r}{state})")


class EventQueue:
    """Min-heap of events with lazy deletion.

    A heap entry is live while its event is not cancelled and still
    carries the entry's sequence number: :meth:`rearm` gives an event a
    fresh number, which turns any entry it left queued into a stale one
    that the pops skip.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._next_seq = 0

    def push(self, time_ns: int, action: Callable[[int], None], label: str = "") -> Event:
        if time_ns < 0:
            raise SimulationError(f"cannot schedule event at negative time {time_ns}")
        time_ns = int(time_ns)
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time_ns, seq, action, label)
        heapq.heappush(self._heap, (time_ns, seq, event))
        return event

    def rearm(self, event: Event, time_ns: int,
              action: Callable[[int], None], seq: int | None = None) -> None:
        """Queue ``event`` again at ``time_ns``, running ``action``.

        A recurring event reuses one :class:`Event`: the re-arm takes the
        next sequence number (or ``seq``, one handed out by
        :meth:`reserve_seqs`) exactly as a fresh push would, so same-time
        order is unchanged. ``action`` is restored on every re-arm — an
        observer may have wrapped the popped event's action, and a kept
        wrapper would wrap itself again on the next pop.
        """
        if seq is None:
            seq = self._next_seq
            self._next_seq = seq + 1
        event.time_ns = time_ns
        event.seq = seq
        event.action = action
        heapq.heappush(self._heap, (time_ns, seq, event))

    @property
    def next_seq(self) -> int:
        """The sequence number the next push or re-arm will take."""
        return self._next_seq

    def reserve_seqs(self, n: int) -> int:
        """Hand out the next ``n`` sequence numbers; returns the first."""
        base = self._next_seq
        self._next_seq = base + n
        return base

    def head(self, exclude: tuple[Event, ...] = ()) -> tuple[int, int] | None:
        """``(time_ns, seq)`` of the first live event not in ``exclude``,
        or None. Leaves the queue as it is."""
        entry = self.head_entry(exclude)
        return None if entry is None else entry[:2]

    def head_entry(self, exclude: tuple[Event, ...] = ()
                   ) -> tuple[int, int, Event] | None:
        """The heap entry ``(time_ns, seq, event)`` of :meth:`head`.

        A descent of the heap from its root: no entry sorts before its
        parent, so the walk stops below a live entry that is not
        excluded, and below any entry not before the best one found.
        Only dead and excluded entries are looked through.
        """
        heap = self._heap
        size = len(heap)
        best = None
        stack = [0] if size else []
        while stack:
            i = stack.pop()
            entry = heap[i]
            if best is not None and entry > best:
                continue
            event = entry[2]
            if not (event.cancelled or entry[1] != event.seq
                    or event in exclude):
                best = entry
                continue
            child = 2 * i + 1
            if child + 1 < size:
                stack.append(child + 1)
            if child < size:
                stack.append(child)
        return best

    def pop_next_until(self, t_ns: int) -> Event | None:
        """Pop the next live event firing at or before ``t_ns``.

        Returns None (leaving the event queued) when the next live event
        fires later, or when the queue is empty. Dead entries on the way
        (cancelled, or left behind by a re-arm) are dropped.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled or head[1] != event.seq:
                pop(heap)
                continue
            if head[0] > t_ns:
                return None
            pop(heap)
            return event
        return None
