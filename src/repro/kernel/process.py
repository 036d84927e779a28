"""Processes: protection domain + thread of control + kernel state.

Two flavours share the same kernel state (address space, fd table,
environment, signal handlers):

* **machine processes** execute simulated ISA code on a :class:`Cpu`;
  the scheduler steps them instruction by instruction;
* **native processes** are Python generator bodies standing in for
  compiled C programs (the rwho/xfig/Presto applications of §4). They
  interact with the kernel through :class:`~repro.kernel.syscalls.Syscalls`
  and touch shared memory through :mod:`repro.runtime.views`, which runs
  every access under the same fault-handler machinery machine code gets.
  ``yield`` marks their voluntary preemption points.

The paper's "process" is the traditional Unix notion (protection domain +
single thread), and so is ours.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.errors import SyscallError
from repro.fs.vfs import OpenFile
from repro.hw.cpu import Cpu
from repro.kernel.signals import SigInfo, Signal
from repro.vm.address_space import AddressSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

# A handler gets (process, siginfo) and says whether it resolved things.
SignalHandler = Callable[["Process", SigInfo], bool]

# A native process body: generator function over (kernel, process).
NativeBody = Callable[["Kernel", "Process"], Generator[None, None, object]]


class ProcessState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"


class NativeContext:
    """Execution context of a native (Python-bodied) process."""

    def __init__(self, body: NativeBody) -> None:
        self.body = body
        self.generator: Optional[Generator[None, None, object]] = None
        self.result: object = None


class Process:
    """One simulated process."""

    def __init__(self, pid: int, ppid: int, uid: int,
                 address_space: AddressSpace, name: str = "<proc>") -> None:
        self.pid = pid
        self.ppid = ppid
        self.uid = uid
        self.address_space = address_space
        self.name = name
        self.state = ProcessState.READY
        self.exit_code: Optional[int] = None
        self.death_reason: Optional[str] = None
        self.reaped = False  # wait() already collected this zombie
        self.cwd = "/"
        self.environ: Dict[str, str] = {}
        self.fds: Dict[int, OpenFile] = {}
        self._next_fd = 3
        # Signal handlers, innermost-first. The Hemlock runtime installs
        # its SIGSEGV handler at index 0; a program-provided handler
        # registered through the wrapped signal() call goes after it (§2).
        self.signal_handlers: Dict[Signal, List[SignalHandler]] = {}
        # Machine execution state (None for native processes).
        self.cpu: Optional[Cpu] = None
        # Native execution state (None for machine processes).
        self.native: Optional[NativeContext] = None
        # Program break for brk/sbrk.
        self.brk = 0
        # Per-process Hemlock runtime instance (set by repro.runtime).
        self.runtime: object = None
        # stdout bytes captured by the console device.
        self.stdout = bytearray()
        # What blocks us, if anything (lock inode, message queue, pid...).
        self.block_reason: Optional[str] = None
        self.block_object: object = None
        # Home core under repro.smp (pid % ncores, fixed for life;
        # always 0 on a uniprocessor boot).
        self.core = 0

    # ------------------------------------------------------------------
    # descriptors
    # ------------------------------------------------------------------

    def install_fd(self, handle: OpenFile) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self.fds[fd] = handle
        return fd

    def fd(self, number: int) -> OpenFile:
        handle = self.fds.get(number)
        if handle is None:
            raise SyscallError("EBADF", f"bad file descriptor {number}")
        return handle

    def close_fd(self, number: int) -> None:
        handle = self.fds.pop(number, None)
        if handle is None:
            raise SyscallError("EBADF", f"bad file descriptor {number}")
        handle.refcount -= 1

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    def push_handler(self, signal: Signal, handler: SignalHandler) -> None:
        """Install *handler* ahead of existing ones for *signal*."""
        self.signal_handlers.setdefault(signal, []).insert(0, handler)

    def append_handler(self, signal: Signal, handler: SignalHandler) -> None:
        """Install *handler* after existing ones (program handlers go
        behind the runtime's, per the wrapped signal() call)."""
        self.signal_handlers.setdefault(signal, []).append(handler)

    # ------------------------------------------------------------------

    @property
    def is_machine(self) -> bool:
        return self.cpu is not None

    @property
    def alive(self) -> bool:
        return self.state is not ProcessState.ZOMBIE

    def getenv(self, name: str, default: str = "") -> str:
        return self.environ.get(name, default)

    def setenv(self, name: str, value: str) -> None:
        self.environ[name] = value

    def stdout_text(self) -> str:
        return self.stdout.decode("latin-1")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "machine" if self.is_machine else "native"
        return (
            f"<Process pid={self.pid} {self.name!r} {kind} "
            f"{self.state.value}>"
        )
