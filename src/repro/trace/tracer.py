"""The tracer: a bounded ring buffer of events plus running counters.

Design constraints, in order:

1. **Zero perturbation.** The tracer only *reads* the deterministic
   clock; it never charges it. Cycle totals with tracing enabled are
   byte-for-byte identical to totals with tracing disabled.
2. **Cheap when off.** The module-level :data:`TRACER` defaults to a
   shared :class:`NullTracer` whose ``enabled`` attribute is False, so
   every instrumentation site costs one attribute check when tracing is
   disabled::

       t = tracer.TRACER
       if t.enabled:
           t.emit(...)

3. **Bounded.** Events live in a fixed-capacity ring buffer; overflow
   drops the oldest events but the per-kind/per-name counters keep
   counting, so top-N reports stay exact even for long runs.

Enable tracing for one kernel::

    with tracing(kernel) as t:
        ...        # run the workload

or ambiently for every kernel booted inside the block (what the
``reprotrace`` CLI does, and what ``REPRO_TRACE=1`` does for the life
of the process) through the ``trace`` slot of
:mod:`repro.kernel.arming`::

    with tracing(kinds=["FAULT", "LINK_RESOLVE"]):
        system = boot()    # creates the tracer, bound to this clock
        events = TRACER.events()
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import KernelError, TraceCursorError
from repro.kernel import arming
from repro.trace.events import (
    ALL_MASK,
    Event,
    EventKind,
    kinds_mask,
)

DEFAULT_CAPACITY = 1 << 16


class _NullSpan:
    """Context manager that does nothing (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def emit(self, kind: EventKind, name: str = "", pid: int = 0,
             addr: int = 0, value: int = 0, dur: int = 0) -> None:
        return None

    def span(self, kind: EventKind, name: str = "", pid: int = 0,
             addr: int = 0, value: int = 0) -> _NullSpan:
        return _NULL_SPAN

    def events(self) -> List[Event]:
        return []


NULL_TRACER = NullTracer()


class _Span:
    """A timed region: emits one event (with ``dur``) on exit.

    The event's ``cycle`` is the region's *entry* stamp, so nested
    spans render correctly as Chrome complete events.
    """

    __slots__ = ("_tracer", "kind", "name", "pid", "addr", "value",
                 "_start")

    def __init__(self, tracer: "Tracer", kind: EventKind, name: str,
                 pid: int, addr: int, value: int) -> None:
        self._tracer = tracer
        self.kind = kind
        self.name = name
        self.pid = pid
        self.addr = addr
        self.value = value
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = self._tracer.now()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tracer._record(Event(self.kind, self._start, self.pid, self.addr,
                             self.name, self.value,
                             tracer.now() - self._start,
                             tracer.boot_index))


class Tracer:
    """Bounded event recorder with a per-kind enable mask (fixed at
    construction) and counters."""

    enabled = True

    def __init__(self, clock=None, capacity: int = DEFAULT_CAPACITY,
                 kinds: Optional[Iterable[Union[EventKind, str]]] = None,
                 ) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self._clock = clock                  # anything with .cycles
        self.capacity = capacity
        self.mask = ALL_MASK if kinds is None else kinds_mask(kinds)
        self.boot_index = 0
        self._ring: List[Event] = []
        self._head = 0                       # next write slot once full
        self.emitted = 0                     # total accepted events
        # Exact aggregates, unaffected by ring overflow.
        self.counts_by_kind: Dict[EventKind, int] = {}
        self.counts_by_name: Dict[Tuple[EventKind, str], int] = {}
        self.counts_by_pid: Dict[Tuple[EventKind, int], int] = {}
        self.cycles_by_name: Dict[Tuple[EventKind, str], int] = {}

    # ------------------------------------------------------------------
    # clock binding
    # ------------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Stamp subsequent events from *clock* (a new booted kernel)."""
        self._clock = clock
        self.boot_index += 1

    def now(self) -> int:
        clock = self._clock
        return clock.cycles if clock is not None else 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def emit(self, kind: EventKind, name: str = "", pid: int = 0,
             addr: int = 0, value: int = 0, dur: int = 0) -> None:
        """Record one event (if *kind* passes the enable mask)."""
        if not self.mask & (1 << kind):
            return
        self._record(Event(kind, self.now(), pid, addr, name, value,
                           dur, self.boot_index))

    def span(self, kind: EventKind, name: str = "", pid: int = 0,
             addr: int = 0, value: int = 0) -> "_Span | _NullSpan":
        """A context manager timing a region; nests freely."""
        if not self.mask & (1 << kind):
            return _NULL_SPAN
        return _Span(self, kind, name, pid, addr, value)

    def _record(self, event: Event) -> None:
        if len(self._ring) < self.capacity:
            self._ring.append(event)
        else:
            self._ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
        self.emitted += 1
        kind, name, pid = event.kind, event.name, event.pid
        self.counts_by_kind[kind] = self.counts_by_kind.get(kind, 0) + 1
        self.counts_by_name[(kind, name)] = \
            self.counts_by_name.get((kind, name), 0) + 1
        self.counts_by_pid[(kind, pid)] = \
            self.counts_by_pid.get((kind, pid), 0) + 1
        if event.dur:
            self.cycles_by_name[(kind, name)] = \
                self.cycles_by_name.get((kind, name), 0) + event.dur

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer overflow."""
        return self.emitted - len(self._ring)

    def events(self) -> List[Event]:
        """Retained events, oldest first (wraparound unfolded)."""
        return self._ring[self._head:] + self._ring[:self._head]

    def cursor(self) -> int:
        """The sequence number the *next* accepted event will get.

        Sequence numbers count accepted events from the tracer's
        creation and are never reused, so they survive ring-buffer
        wraparound: a cursor taken at a checkpoint addresses a fixed
        point in the event stream no matter how many events are later
        dropped. ``cursor() == emitted`` by construction."""
        return self.emitted

    def events_since(self, cursor: int) -> List[Event]:
        """Retained events with sequence number >= *cursor*, oldest
        first — exactly once and in emit order.

        Raises :class:`~repro.errors.TraceCursorError` if the ring has
        already dropped events past *cursor* (replaying from such a
        cursor would silently skip the gap) or if *cursor* lies beyond
        everything emitted (a stale or corrupt checkpoint)."""
        if cursor < 0 or cursor > self.emitted:
            raise TraceCursorError(
                f"cursor {cursor} is outside the emitted range "
                f"0..{self.emitted}")
        oldest = self.emitted - len(self._ring)
        if cursor < oldest:
            raise TraceCursorError(
                f"ring overflow dropped events {cursor}..{oldest - 1}; "
                f"raise the tracer capacity or checkpoint more often")
        return self.events()[cursor - oldest:]

    def clear(self) -> None:
        self._ring = []
        self._head = 0
        self.emitted = 0
        self.counts_by_kind.clear()
        self.counts_by_name.clear()
        self.counts_by_pid.clear()
        self.cycles_by_name.clear()

    def __len__(self) -> int:
        return len(self._ring)


# ----------------------------------------------------------------------
# the global tracer
# ----------------------------------------------------------------------

#: What every instrumentation site consults. Reassigned, never mutated
#: in place, so sites must read ``tracer.TRACER`` (the module attribute)
#: rather than import the object.
TRACER: Union[Tracer, NullTracer] = NULL_TRACER


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    """Install *tracer* globally (None restores the no-op tracer)."""
    global TRACER
    TRACER = tracer if tracer is not None else NULL_TRACER


def _bind_on_boot(make: Callable[[], Tracer]) -> Callable[[object], None]:
    """The trace slot's hook: the first boot installs ``make()``; later
    boots rebind it to their clock while it stays installed."""
    tracer: Optional[Tracer] = None

    def attach(kernel) -> None:
        nonlocal tracer
        global TRACER
        if tracer is None:
            tracer = TRACER = make()
        if TRACER is tracer:
            tracer.bind_clock(kernel.clock)
    return attach


@contextmanager
def tracing(kernel=None,
            kinds: Optional[Iterable[Union[EventKind, str]]] = None,
            capacity: int = DEFAULT_CAPACITY) -> Iterator[Optional[Tracer]]:
    """``with tracing(kernel) as t:`` — scoped tracing of one kernel.

    Without a kernel it is the ambient arm (``reprotrace``): the tracer
    is created at the first boot inside the block, rebound to each
    later boot's clock (the events' ``boot`` field tells boots apart),
    and read back through :data:`TRACER`; the no-op tracer is restored
    on exit.
    """
    global TRACER
    if kernel is None:
        try:
            with arming.armed("trace", _bind_on_boot(
                    lambda: Tracer(capacity=capacity, kinds=kinds))):
                yield None
        finally:
            TRACER = NULL_TRACER
        return
    tracer = Tracer(clock=kernel.clock, capacity=capacity, kinds=kinds)
    previous, TRACER = TRACER, tracer
    try:
        yield tracer
    finally:
        TRACER = previous


def _environment_tracer() -> Tracer:
    """The tracer REPRO_TRACE_KINDS=FAULT,LINK_RESOLVE and
    REPRO_TRACE_CAPACITY=N describe; bad values are a KernelError."""
    kinds_env = os.environ.get("REPRO_TRACE_KINDS", "")
    kinds = [k for k in kinds_env.split(",") if k.strip()] or None
    capacity = os.environ.get("REPRO_TRACE_CAPACITY",
                              str(DEFAULT_CAPACITY))
    try:
        return Tracer(capacity=int(capacity), kinds=kinds)
    except KeyError as error:
        raise KernelError(
            f"REPRO_TRACE_KINDS: unknown event kind {error}") from None
    except ValueError:
        raise KernelError(
            f"REPRO_TRACE_CAPACITY must be a positive integer, "
            f"got {capacity!r}") from None


# REPRO_TRACE=1 arms ambient tracing for every boot of the process.
if os.environ.get("REPRO_TRACE"):
    arming.arm("trace", _bind_on_boot(_environment_tracer))
