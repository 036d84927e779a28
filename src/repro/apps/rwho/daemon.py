"""rwhod as an actual daemon process.

The paper's rwhod "periodically broadcasts local status information ...
and receives analogous information from its peers". Here the network is
a kernel message queue: peer broadcasts arrive as packed datagrams; the
daemon runs as a native process, unpacking each datagram and updating
its database — per-machine files or the shared-memory database,
depending on which implementation it was started with.
"""

from __future__ import annotations

from typing import List

from repro.apps.rwho.common import HostStatus
from repro.errors import SimulationError
from repro.apps.rwho.fileimpl import FileRwhod, pack_status, unpack_status
from repro.apps.rwho.shmimpl import ShmRwhod
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process

RWHO_QUEUE_KEY = 0x5257

# A zero-length datagram tells the daemon to shut down.
_SHUTDOWN = b""


def broadcaster_body(statuses: List[HostStatus]):
    """A native-process body that injects peer broadcasts, then the
    shutdown datagram."""

    def body(kernel: Kernel, proc: Process):
        sys = kernel.syscalls
        qid = sys.msgget(proc, RWHO_QUEUE_KEY)
        for index, status in enumerate(statuses):
            sys.msgsnd(proc, qid, pack_status(status))
            if index % 16 == 15:
                yield  # let the daemon drain the queue now and then
        sys.msgsnd(proc, qid, _SHUTDOWN)
        return len(statuses)

    return body


def daemon_body(implementation: str, nhosts: int):
    """The rwhod main loop as a native-process body.

    *implementation* is ``"file"`` or ``"shm"``.
    """

    def body(kernel: Kernel, proc: Process):
        if implementation == "file":
            database = FileRwhod(kernel, proc)
        else:
            database = ShmRwhod(kernel, proc, nhosts=nhosts)
        sys = kernel.syscalls
        qid = sys.msgget(proc, RWHO_QUEUE_KEY)
        received = 0
        while True:
            # A long-lived daemon rides out injected faults: a failed
            # receive retries next slice, a datagram lost mid-update is
            # one stale record, never a dead daemon.
            try:
                datagram = sys.msgrcv(proc, qid, blocking=False)
            except SimulationError:
                injector = kernel.injector
                if injector is not None:
                    injector.note_retry()
                yield
                continue
            if datagram is None:
                yield  # queue empty: sleep until rescheduled
                continue
            if datagram == _SHUTDOWN:
                break
            try:
                database.receive(unpack_status(datagram))
            except SimulationError:
                injector = kernel.injector
                if injector is not None:
                    injector.note_contained("rwhod-receive")
                yield
                continue
            received += 1
        return received

    return body


def run_network(kernel: Kernel, statuses: List[HostStatus],
                implementation: str) -> int:
    """Spawn a daemon + a broadcaster, run to completion.

    Returns the number of broadcasts the daemon processed.
    """
    nhosts = len({status.hostname for status in statuses})
    daemon = kernel.create_native_process(
        f"rwhod-{implementation}", daemon_body(implementation, nhosts)
    )
    kernel.create_native_process("network", broadcaster_body(statuses))
    kernel.schedule()
    if daemon.death_reason is not None:
        raise RuntimeError(f"rwhod died: {daemon.death_reason}")
    assert daemon.native is not None
    return daemon.native.result
