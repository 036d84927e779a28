"""Exception hierarchy for the Hemlock reproduction.

Every error raised by the simulation derives from :class:`SimulationError`,
so callers can distinguish simulated-system failures (a bad address, a
missing module, a link error) from genuine Python bugs.

The hierarchy mirrors the layering of the system: hardware faults at the
bottom, then virtual-memory and kernel errors, then file-system errors,
then linker errors at the top.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Root of all errors raised by the simulated system."""


# ---------------------------------------------------------------------------
# Hardware / VM level
# ---------------------------------------------------------------------------

class HardwareError(SimulationError):
    """Errors raised by the simulated CPU or its memory system."""


class InvalidInstructionError(HardwareError):
    """The CPU fetched a word that does not decode to a valid instruction."""

    def __init__(self, pc: int, word: int) -> None:
        super().__init__(f"invalid instruction 0x{word:08x} at pc=0x{pc:08x}")
        self.pc = pc
        self.word = word


class AlignmentError(HardwareError):
    """A load, store, or jump used a misaligned address."""

    def __init__(self, address: int, alignment: int) -> None:
        super().__init__(
            f"address 0x{address:08x} is not {alignment}-byte aligned"
        )
        self.address = address
        self.alignment = alignment


class ExecutionBudgetExceeded(HardwareError):
    """A bounded run elapsed without reaching a trap (likely a hang)."""


class VMError(SimulationError):
    """Errors raised by the virtual-memory subsystem."""


class MappingError(VMError):
    """A map/unmap/mprotect request was invalid (overlap, bad range...)."""


class OutOfMemoryError(VMError):
    """The simulated physical memory pool is exhausted."""


# ---------------------------------------------------------------------------
# Kernel level
# ---------------------------------------------------------------------------

class KernelError(SimulationError):
    """Errors raised by the simulated kernel proper."""


class SyscallError(KernelError):
    """A system call failed.

    Carries a Unix-flavoured symbolic errno so callers can match on the
    failure kind rather than on message text.
    """

    def __init__(self, errno: str, message: str) -> None:
        super().__init__(f"[{errno}] {message}")
        self.errno = errno
        self.message = message


class NoSuchProcessError(KernelError):
    """A pid did not name a live process."""


# ---------------------------------------------------------------------------
# File-system level
# ---------------------------------------------------------------------------

class FilesystemError(SimulationError):
    """Errors raised by the in-memory file systems."""


class FileNotFoundSimError(FilesystemError):
    """Path resolution failed (ENOENT analogue)."""


class FileExistsSimError(FilesystemError):
    """Exclusive creation hit an existing entry (EEXIST analogue)."""


class NotADirectorySimError(FilesystemError):
    """A path component was not a directory (ENOTDIR analogue)."""


class IsADirectorySimError(FilesystemError):
    """A file operation was applied to a directory (EISDIR analogue)."""


class PermissionSimError(FilesystemError):
    """Access check failed (EACCES analogue)."""


class BusySimError(FilesystemError):
    """A mount point was removed or renamed (EBUSY analogue)."""


class FileLimitError(FilesystemError):
    """An SFS limit was exceeded (inode count or max file size)."""


class AddressMapError(FilesystemError):
    """An address-map registration overlapped or duplicated a live
    segment (the translation tables must stay injective both ways)."""


# ---------------------------------------------------------------------------
# Durable block store (repro.disk)
# ---------------------------------------------------------------------------

class DiskError(SimulationError):
    """Errors raised by the simulated block device and its journal."""


class DiskFormatError(DiskError):
    """An on-disk structure (superblock, checkpoint, record) is invalid."""


class RecoveryError(DiskFormatError):
    """A stage of crash recovery refused the image: ``stage`` is
    "superblock", "checkpoint", "journal" or "replay"."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


class DiskFullError(DiskError):
    """The device, journal region, or checkpoint slot is out of space."""


class DiskCrashedError(DiskError):
    """An operation was attempted on a crashed (powered-off) device."""


# ---------------------------------------------------------------------------
# Cluster fabric (repro.net)
# ---------------------------------------------------------------------------

class NetError(SimulationError):
    """Errors raised by the simulated cluster network and its
    coherence protocol (a synchronous exchange that exhausted its
    retransmission budget, a malformed frame, a protocol violation)."""


# ---------------------------------------------------------------------------
# Trace and record/replay level
# ---------------------------------------------------------------------------

class TraceCursorError(SimulationError):
    """A tracer cursor no longer addresses retained events: either the
    ring buffer dropped events past it (the gap would otherwise vanish
    silently into a replay) or the cursor is ahead of everything
    emitted (a stale or corrupt checkpoint)."""


class RRError(SimulationError):
    """Record/replay failed: a malformed ``.rrr`` recording, a
    checkpoint that cannot be materialized (live native generators are
    not serializable), or a seek outside the recorded run."""


class DivergenceError(RRError):
    """A replay diverged from its recording. Carries the first
    divergent event (or cycle-count mismatch) so CI can report the
    exact cycle nondeterminism crept in."""

    def __init__(self, message: str, cycle: int = -1,
                 index: int = -1) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.index = index


# ---------------------------------------------------------------------------
# Object-file and linker level
# ---------------------------------------------------------------------------

class ObjectFormatError(SimulationError):
    """An object file was malformed or had an unsupported feature."""


class AssemblerError(SimulationError):
    """The assembler rejected its input."""

    def __init__(self, message: str, line: int = 0) -> None:
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


class CompileError(SimulationError):
    """The toy compiler rejected its input."""

    def __init__(self, message: str, line: int = 0) -> None:
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


class LinkError(SimulationError):
    """A static or dynamic link step failed."""


class UndefinedSymbolError(LinkError):
    """A reference could not be resolved and the policy demands an error."""

    def __init__(self, symbols: "list[str] | tuple[str, ...] | str") -> None:
        if isinstance(symbols, str):
            symbols = [symbols]
        names = ", ".join(sorted(symbols))
        super().__init__(f"undefined symbol(s): {names}")
        self.symbols = tuple(sorted(symbols))


class DuplicateSymbolError(LinkError):
    """Two modules in the same scope defined the same global symbol."""

    def __init__(self, symbol: str, first: str, second: str) -> None:
        super().__init__(
            f"symbol {symbol!r} defined in both {first!r} and {second!r}"
        )
        self.symbol = symbol
        self.modules = (first, second)


class ModuleNotFoundLinkError(LinkError):
    """A module named on a link line could not be located on any path."""

    def __init__(self, name: str, searched: "list[str]") -> None:
        where = ", ".join(searched) if searched else "<empty search path>"
        super().__init__(f"module {name!r} not found (searched: {where})")
        self.name = name
        self.searched = list(searched)


class RelocationError(LinkError):
    """A relocation could not be applied (overflow, bad type...)."""


class InjectedFaultError(SimulationError):
    """Mixin-base of every fault raised by the :mod:`repro.inject` planes.

    Concrete injected errors multiply inherit from this class *and* from
    the natural error type of their plane (``SyscallError``,
    ``FilesystemError``, ...), so existing containment code — errno
    translation in the machine-syscall dispatcher, ``except
    SyscallError`` in the runtime — handles injected faults through
    exactly the paths a real failure would take, while tests and the
    kernel's containment counters can still identify them.

    The injector stamps instance attributes after construction:
    ``plane``/``site``/``fault_kind`` locate the choke point, and
    ``transient`` marks faults that a bounded retry (``ldl``'s
    deterministic backoff) is allowed to absorb.
    """

    plane = ""
    site = ""
    fault_kind = ""
    transient = False


class InjectedSyscallError(InjectedFaultError, SyscallError):
    """An injected failure of one system call (the syscall plane)."""


class InjectedIOError(InjectedFaultError, FilesystemError):
    """An injected device error on file I/O (the io plane)."""


class InjectedDiskFullError(InjectedFaultError, FileLimitError):
    """An injected ENOSPC (the io plane, write side)."""


class InjectedLinkError(InjectedFaultError, LinkError):
    """An injected failure inside the linker (the linker plane)."""


class InjectedNetError(InjectedFaultError, NetError):
    """An injected network failure that exhausted the fabric's bounded
    retransmission (the net plane). Travels the same typed channel as a
    genuine protocol timeout would."""


class InjectedModuleNotFoundError(InjectedFaultError,
                                  ModuleNotFoundLinkError):
    """An injected module-lookup miss (the linker plane's MISSING kind).

    Subclasses :class:`ModuleNotFoundLinkError` so ``ldl``'s existing
    missing-module tolerance (warn at link, fault at use) applies.
    """


class LintError(LinkError):
    """The static verifier (repro.analyze) refused an object.

    Raised by the opt-in post-link gate in ``lds``/``ldl`` *before* the
    offending image is mapped, and by ``reprolint --strict``. Carries
    the rendered findings so callers can report individual diagnostics.
    """

    def __init__(self, findings: "list[str]", subject: str = "") -> None:
        self.findings = list(findings)
        self.subject = subject
        head = f"{subject}: " if subject else ""
        summary = "; ".join(self.findings[:3])
        more = len(self.findings) - 3
        if more > 0:
            summary += f"; ... and {more} more"
        super().__init__(
            f"{head}static verification failed "
            f"({len(self.findings)} finding(s)): {summary}"
        )
