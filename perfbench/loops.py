"""Load generators: a closed loop and an open (scheduled) loop.

A closed loop sends its next operation only when the previous one has
completed, so a slow system receives less load.  An open loop sends on
a fixed schedule regardless; each operation's latency is measured from
the time it was *due*, so a stall also charges the wait it imposes on
every later operation, and ``lag`` records how late the generator
itself started each one.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple


class Record(NamedTuple):
    """One completed operation."""

    kind: str
    #: Seconds from send (closed loop) or due time (open loop) to reply.
    latency: float
    ok: bool
    #: Seconds the open-loop generator started late (0 in closed loops).
    lag: float
    #: Clock readings when the operation was sent and answered.
    sent: float
    done: float


class Source:
    """A fixed operation stream, generated and answered by the oracle
    before timing starts, so answer precomputation never runs while a
    load loop is timed.  A closed loop ends when it is used up."""

    def __init__(self, ops: Iterable):
        self.ops: list = list(ops)
        self._next = 0

    def pop(self):
        if self._next >= len(self.ops):
            return None
        op = self.ops[self._next]
        self._next += 1
        return op


def closed_loop(
    source: Source,
    execute: Callable[[object], bool],
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
    kind_of: Callable[[object], str] = lambda op: op.kind,
    stop: Optional[threading.Event] = None,
) -> Tuple[List[Record], float]:
    """Run ``execute`` back to back for ``seconds``, or until ``source``
    runs out.

    Loops sharing ``stop`` end together: a loop whose source runs out
    sets it, and every loop ends once it is set.  Returns the records
    and the measured wall time.
    """
    records: List[Record] = []
    start = clock()
    while clock() - start < seconds:
        if stop is not None and stop.is_set():
            break
        op = source.pop()
        if op is None:
            if stop is not None:
                stop.set()
            break
        t0 = clock()
        ok = execute(op)
        t1 = clock()
        records.append(Record(kind_of(op), t1 - t0, ok, 0.0, t0, t1))
    return records, clock() - start


def open_loop(
    schedule: Iterable[Tuple[float, object]],
    execute: Callable[[object], bool],
    start: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    kind_of: Callable[[object], str] = lambda op: op.kind,
) -> List[Record]:
    """Send each ``(offset, op)`` at ``start + offset``.

    Latency runs from the due time, not the send time, so a stalled
    reply delays (and is charged to) every operation queued behind it.
    """
    records: List[Record] = []
    for offset, op in schedule:
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        ok = execute(op)
        done = clock()
        records.append(
            Record(kind_of(op), done - due, ok, max(0.0, now - due), now, done)
        )
    return records


def fixed_rate(rate: float, duration: float, offset: float = 0.0) -> List[float]:
    """Due offsets for ``rate`` sends per second over ``duration`` s."""
    count = int(rate * duration)
    return [offset + i / rate for i in range(count)]
