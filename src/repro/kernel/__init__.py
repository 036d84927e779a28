"""The simulated Unix kernel.

Provides what Hemlock's user-level machinery needs from IRIX: processes
with ``fork``/``exec``, a syscall layer over the VFS, signal delivery
with restartable faults (SIGSEGV in particular), mmap/munmap/mprotect,
the new address↔path translation calls, advisory file locks and
message queues (the baselines shared memory is compared against), a
deterministic round-robin scheduler, and a cycle-accounting clock.
"""

from repro.kernel.timing import Clock, CostModel
from repro.kernel.signals import Signal, SigInfo
from repro.kernel.process import Process, ProcessState, NativeContext
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Syscalls

__all__ = [
    "Clock",
    "CostModel",
    "Signal",
    "SigInfo",
    "Process",
    "ProcessState",
    "NativeContext",
    "Kernel",
    "Syscalls",
]
