"""Message queues — the kernel IPC Hemlock is compared against.

§1 claim 4: "When supported by hardware, shared memory is generally
faster than either messages or files, since operating system overhead
and copying costs can often be avoided." Experiment E5 measures exactly
that, so these baselines charge the honest costs: a syscall per
operation, a copy into the kernel and a copy out, plus queueing
overhead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from repro.errors import SyscallError
from repro.kernel.sync import WouldBlock
from repro.trace import tracer as _trace
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Process

MAX_QUEUE_BYTES = 64 * 1024


class MessageQueue:
    """A System V-flavoured message queue (single message type)."""

    def __init__(self, key: int) -> None:
        self.key = key
        self.messages: Deque[bytes] = deque()
        self.bytes_queued = 0
        self.readers: List["Process"] = []  # blocked in msgrcv
        self.writers: List["Process"] = []  # blocked in msgsnd

    def send(self, process: "Process", data: bytes,
             blocking: bool = True) -> bool:
        if self.bytes_queued + len(data) > MAX_QUEUE_BYTES:
            if not blocking:
                return False
            self.writers.append(process)
            raise WouldBlock()
        self.messages.append(bytes(data))
        self.bytes_queued += len(data)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.IPC, name="msgsnd", pid=process.pid,
                        addr=self.key, value=len(data))
        return True

    def receive(self, process: "Process",
                blocking: bool = True) -> Optional[bytes]:
        if not self.messages:
            if not blocking:
                return None
            self.readers.append(process)
            raise WouldBlock()
        data = self.messages.popleft()
        self.bytes_queued -= len(data)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.IPC, name="msgrcv", pid=process.pid,
                        addr=self.key, value=len(data))
        return data


class MessageQueueTable:
    """msgget-style registry by integer key."""

    def __init__(self) -> None:
        self._queues: Dict[int, MessageQueue] = {}

    def get(self, key: int, create: bool = True) -> MessageQueue:
        queue = self._queues.get(key)
        if queue is None:
            if not create:
                raise SyscallError("ENOENT", f"no message queue {key}")
            queue = MessageQueue(key)
            self._queues[key] = queue
        return queue

    def remove(self, key: int) -> None:
        self._queues.pop(key, None)

    def drained(self) -> bool:
        """True when no queue holds an undelivered message (the cluster
        scheduler's quiescence check)."""
        return all(not q.messages for q in self._queues.values())

    def backlog(self) -> int:
        """Total undelivered messages across every queue (the cluster
        scheduler's progress signature)."""
        return sum(len(q.messages) for q in self._queues.values())
