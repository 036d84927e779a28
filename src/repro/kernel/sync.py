"""Kernel synchronization: advisory file locks and semaphores.

``ldl`` "uses file locking to synchronize the creation of shared
segments" (§4, footnote 3); semaphores are the kernel-supported
mechanism §5's synchronization discussion starts from.

The scheduler is cooperative and deterministic: a process that cannot
take a lock is moved to BLOCKED and re-runs the blocking operation when
woken. Native (Python-bodied) processes run their kernel calls to
completion within a quantum, so for them a contended lock is reported
with an exception rather than a block — which the Hemlock runtime never
triggers, because its critical sections are quantum-atomic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import KernelError, SyscallError
from repro.fs.inode import Inode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Process


class WouldBlock(Exception):
    """Internal: the current operation must block and be retried."""


class WaitQueue:
    """Deterministic FIFO wait queue with per-core arrival accounting.

    Under repro.smp, contended sleeps are one of the few cross-core
    ordering points, so the queue discipline must be a pure function of
    the schedule: every arrival is stamped with a queue-local monotonic
    sequence number, and wakeups hand off strictly in stamp order. The
    SMP round scheduler serializes kernel entry (sub-slices run in core
    order), so arrival stamps — and therefore handoff order — are
    identical on every run of the same ``(workload, ncores)``.

    ``enqueued_by_core`` keeps per-core contention counts for the
    introspection the SMP tests and benchmarks use; it never influences
    handoff order.
    """

    __slots__ = ("_entries", "_next_seq", "enqueued_by_core")

    def __init__(self) -> None:
        self._entries: List[tuple] = []   # (stamp, process), FIFO
        self._next_seq = 0
        self.enqueued_by_core: Dict[int, int] = {}

    def push(self, process: "Process") -> int:
        """Queue *process*; returns its arrival stamp."""
        stamp = self._next_seq
        self._next_seq += 1
        self._entries.append((stamp, process))
        core = getattr(process, "core", 0)
        self.enqueued_by_core[core] = \
            self.enqueued_by_core.get(core, 0) + 1
        return stamp

    def pop(self) -> "Process":
        """Dequeue the longest-waiting process."""
        return self._entries.pop(0)[1]

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


class FileLockTable:
    """Whole-file advisory exclusive locks, keyed by inode.

    Each pid's held locks are indexed too, so process exit releases
    them in O(locks held) without scanning the file system.
    """

    def __init__(self) -> None:
        self._waiters: Dict[int, WaitQueue] = {}
        # pid -> {id(inode): inode}, in acquisition order
        self._held: Dict[int, Dict[int, Inode]] = {}

    def acquire(self, process: "Process", inode: Inode,
                blocking: bool = True) -> bool:
        """Take the lock; True on success.

        On contention: False when non-blocking; raises :class:`WouldBlock`
        (after queueing the process) when blocking.
        """
        if inode.lock_owner is None or inode.lock_owner == process.pid:
            self._own(process.pid, inode)
            return True
        if not blocking:
            return False
        queue = self._waiters.get(id(inode))
        if queue is None:
            queue = self._waiters[id(inode)] = WaitQueue()
        queue.push(process)
        raise WouldBlock()

    def release(self, process: "Process", inode: Inode) -> Optional["Process"]:
        """Drop the lock; returns the woken next owner, if any."""
        if inode.lock_owner != process.pid:
            raise SyscallError(
                "EPERM", f"pid {process.pid} does not hold the lock"
            )
        held = self._held[process.pid]
        del held[id(inode)]
        if not held:
            del self._held[process.pid]
        queue = self._waiters.get(id(inode))
        if queue:
            next_owner = queue.pop()
            self._own(next_owner.pid, inode)
            return next_owner
        inode.lock_owner = None
        return None

    def held_by(self, process: "Process") -> List[Inode]:
        """The locks *process* holds, oldest acquisition first."""
        return list(self._held.get(process.pid, {}).values())

    def _own(self, pid: int, inode: Inode) -> None:
        inode.lock_owner = pid
        self._held.setdefault(pid, {})[id(inode)] = inode


class Semaphore:
    """A counting semaphore with a FIFO wait queue."""

    def __init__(self, key: int, value: int = 1) -> None:
        if value < 0:
            raise KernelError("semaphore initial value must be >= 0")
        self.key = key
        self.value = value
        self.waiters = WaitQueue()
        # Hoare-style handoff: V transfers the count directly to a woken
        # waiter, so its retried P succeeds even if others run first.
        self._granted: set = set()

    def try_p(self, process: "Process") -> bool:
        """Non-blocking P; True on success."""
        if process.pid in self._granted:
            self._granted.discard(process.pid)
            return True
        if self.value > 0:
            self.value -= 1
            return True
        return False

    def p(self, process: "Process") -> None:
        """Blocking P: queue and raise :class:`WouldBlock` on contention."""
        if not self.try_p(process):
            self.waiters.push(process)
            raise WouldBlock()

    def v(self) -> Optional["Process"]:
        """V; returns a woken process (which owns the decrement), if any."""
        if self.waiters:
            woken = self.waiters.pop()
            self._granted.add(woken.pid)
            return woken
        self.value += 1
        return None


class SemaphoreTable:
    """semget-style registry of semaphores by integer key."""

    def __init__(self) -> None:
        self._sems: Dict[int, Semaphore] = {}

    def get(self, key: int, value: int = 1, create: bool = True) -> Semaphore:
        sem = self._sems.get(key)
        if sem is None:
            if not create:
                raise SyscallError("ENOENT", f"no semaphore with key {key}")
            sem = Semaphore(key, value)
            self._sems[key] = sem
        return sem

    def remove(self, key: int) -> None:
        self._sems.pop(key, None)
