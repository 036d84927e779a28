"""Structured trace events.

The paper's comparisons are all *event-count* arguments — faults taken,
symbols resolved, segments mapped — so the tracing subsystem records
exactly those occurrences as compact structured events stamped with the
deterministic clock's cycle counter. Nothing here touches the clock or
any other simulation state: a trace is a pure observation, and two
identical runs produce identical event streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Union


class EventKind(enum.IntEnum):
    """What happened. One bit per kind in a Tracer's enable mask."""

    SYSCALL = 0        # one kernel service call (name = syscall name)
    FAULT = 1          # a page fault: raised, resolved, or unresolved
    SIGNAL = 2         # a signal handler invocation
    SWITCH = 3         # one scheduling slice of a process (a span)
    MAP = 4            # address-space / segment mapping traffic
    LINK_RESOLVE = 5   # one symbol resolved (or one module linked: a span)
    ISLAND = 6         # a branch island or PLT stub emitted
    IPC = 7            # message-queue traffic
    DISK = 8           # disk traffic: cold-file seeks, journal records
    TLB = 9            # software-TLB traffic (value = entry/hit count)
    INJECT = 10        # one injected fault (name = plane:kind:site)
    RECOVER = 11       # boot-time recovery traffic (replay, torn tail)
    NET = 12           # cluster traffic: frames and coherence protocol
    SAN = 13           # sanitizer findings (races, heap misuse)
    HA = 14            # node failures, membership, lease reclamation

    @property
    def bit(self) -> int:
        return 1 << int(self)


ALL_KINDS: FrozenSet[EventKind] = frozenset(EventKind)

#: Enable mask covering every kind.
ALL_MASK: int = sum(kind.bit for kind in EventKind)


def kinds_mask(kinds: Iterable[Union[EventKind, str]]) -> int:
    """Build an enable mask from kinds (or their names)."""
    mask = 0
    for kind in kinds:
        if isinstance(kind, str):
            kind = EventKind[kind.strip().upper()]
        mask |= EventKind(kind).bit
    return mask


@dataclass
class Event:
    """One traced occurrence.

    Attributes:
        kind: what happened.
        cycle: deterministic clock reading when it happened (for spans,
            when the region was *entered*).
        pid: the process involved, 0 when no process context exists.
        addr: the relevant virtual address (fault address, mapping base,
            resolved symbol address), 0 when not applicable.
        name: short identifier — syscall name, symbol, module, path.
        value: kind-specific integer payload (byte count, protection
            bits, present flag, inode number).
        dur: cycles spent inside the region for span events, 0 for
            instantaneous events.
        boot: which booted kernel the event came from, for programs
            that boot several simulated machines in one process.
    """

    __slots__ = ("kind", "cycle", "pid", "addr", "name", "value", "dur",
                 "boot")

    kind: EventKind
    cycle: int
    pid: int
    addr: int
    name: str
    value: int
    dur: int
    boot: int

    def to_dict(self) -> Dict[str, object]:
        """A plain dict with a fixed key order (JSONL determinism)."""
        return {
            "kind": self.kind.name,
            "cycle": self.cycle,
            "pid": self.pid,
            "addr": self.addr,
            "name": self.name,
            "value": self.value,
            "dur": self.dur,
            "boot": self.boot,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Event {self.kind.name} @{self.cycle} pid={self.pid} "
            f"addr=0x{self.addr:x} {self.name!r} value={self.value} "
            f"dur={self.dur}>"
        )
