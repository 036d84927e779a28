"""libshared — the user-level half of Hemlock (§2).

The SIGSEGV handler here "serves two purposes: it cooperates with ldl to
implement lazy linking, and it allows the process to follow pointers
into segments that may or may not yet be mapped. When triggered, the
handler checks to see if the faulting address lies in the shared portion
of the process's address space. If so, it uses a (new) kernel call to
translate the address into a path name and, access rights permitting,
maps the named segment into the process's address space. If the address
lies in a module that has been set up for lazy linking, the handler
invokes ldl ... Otherwise, the handler opens and maps the file. It then
restarts the faulting instruction."

The runtime also wraps ``signal()``: a program-provided SIGSEGV handler
is invoked only when the dynamic linking system's handler cannot resolve
a fault.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    FilesystemError,
    InjectedFaultError,
    SimulationError,
    SyscallError,
)
from repro.fs.vfs import O_CREAT, O_EXCL, O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, SignalHandler
from repro.kernel.signals import SigInfo, Signal
from repro.linker.jumptable import (
    patched_plt_entry,
    plt_entry_base,
    plt_symbol_at,
)
from repro.linker.ldl import LDL_MAX_RETRIES, Ldl
from repro.linker.segments import read_segment_meta
from repro.objfile.format import ObjectFile
from repro.runtime.views import Mem
from repro.sfs.sharedfs import MAX_FILE_SIZE
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.util.bits import align_up
from repro.vm.address_space import MAP_SHARED, PROT_RWX, PROT_RX
from repro.vm.faults import AccessKind
from repro.vm.layout import PAGE_SIZE


class HemlockRuntime:
    """Per-process runtime state: ldl + fault handler + library calls."""

    # Machine-code signal handlers return here; the address is never
    # mapped, so control transfer to it marks handler completion.
    HANDLER_RETURN_SENTINEL = 0x7FFE0000
    HANDLER_INSTRUCTION_BUDGET = 200_000

    def __init__(self, kernel: Kernel, proc: Process,
                 lazy: bool = True, scoped: bool = True,
                 verify: Optional[bool] = None) -> None:
        self.kernel = kernel
        self.proc = proc
        self.ldl = Ldl(kernel, proc, lazy=lazy, scoped=scoped,
                       verify=verify)
        self.mem = Mem(kernel, proc)
        self.executable: Optional[ObjectFile] = None
        self.segments_mapped = 0
        proc.runtime = self
        proc.push_handler(Signal.SIGSEGV, self._segv_handler)
        if proc.cpu is not None:
            # Machine programs may register their own handler through
            # the wrapped signal() call (SYS_SIGNAL); it runs after the
            # dynamic linking system's handler declines (§2).
            proc.append_handler(Signal.SIGSEGV,
                                self._machine_program_handler)

    # ------------------------------------------------------------------
    # crt0-time start-up
    # ------------------------------------------------------------------

    def start(self, executable: ObjectFile) -> None:
        """The special crt0's pre-main work: run ldl."""
        self.executable = executable
        self.ldl.bootstrap(executable)

    def start_native(self, search_dirs: Optional[list] = None,
                     modules: Optional[list] = None) -> None:
        """Bootstrap for a native process (no machine image): builds a
        synthetic root whose scope is *search_dirs* + *modules*, so the
        process can link in dynamic modules and resolve symbols."""
        from repro.objfile.format import ObjectKind

        root = ObjectFile(f"{self.proc.name}:root", ObjectKind.EXECUTABLE)
        root.link_info.search_path = list(search_dirs or [])
        root.link_info.dynamic_modules = list(modules or [])
        self.start(root)

    def _ensure_root(self) -> None:
        if self.ldl.root is None:
            self.start_native()

    # ------------------------------------------------------------------
    # the SIGSEGV handler
    # ------------------------------------------------------------------

    def _segv_handler(self, proc: Process, info: SigInfo) -> bool:
        # A module set up for lazy linking? (private or public portion)
        try:
            if self.ldl.handle_fault(info.address):
                return True
        except InjectedFaultError as error:
            # The fault stops at the handler boundary: the victim's
            # fault stays unresolved (and kills the victim), but the
            # kernel and every other process are untouched.
            self._contain(error)
            return False
        # On a clustered machine the coherence agent gets first claim on
        # public faults: it resolves remote segments and write-upgrades
        # of read-only replicas (present=True faults the classic path
        # below would refuse). None = not cluster-managed, fall through.
        coherence = self.kernel.coherence
        if coherence is not None \
                and self.kernel.is_public_address(info.address):
            handled = coherence.on_fault(proc, info)
            if handled is not None:
                return handled
        # A pointer into a shared segment not yet part of this address
        # space? Translate address -> path and map, rights permitting.
        if self.kernel.is_public_address(info.address) \
                and not info.present:
            return self._map_segment_at(info.address, info)
        return False

    def _contain(self, error: InjectedFaultError) -> None:
        self.kernel.note_contained(error)
        # Remembered so the victim's terminate reason names the real
        # cause instead of a bare "unresolved fault".
        self.proc.pending_fault_error = error

    def _map_segment_at(self, address: int, info: SigInfo) -> bool:
        attempt = 0
        while True:
            try:
                return self._map_segment_once(address, info)
            except InjectedFaultError as error:
                if error.transient and attempt < LDL_MAX_RETRIES:
                    attempt += 1
                    self.ldl.stats.transient_retries += 1
                    self.kernel.clock.backoff(attempt)
                    injector = self.kernel.injector
                    if injector is not None:
                        injector.note_retry()
                    continue
                self._contain(error)
                return False
            except SimulationError:
                return False

    def _map_segment_once(self, address: int, info: SigInfo) -> bool:
        sys = self.kernel.syscalls
        path, _offset = sys.addr_to_path(self.proc, address)

        # Is it a linked module segment? Then bring it in through ldl so
        # its symbols and pending relocations are honoured.
        try:
            read_segment_meta(self.kernel, self.proc, path)
            is_module = True
        except InjectedFaultError:
            raise
        except SimulationError:
            is_module = False
        if is_module:
            self._ensure_root()
            assert self.ldl.root is not None
            module = self.ldl.ensure_module_from_path(path,
                                                      self.ldl.root)
            self.ldl.link_module(module)
            self.segments_mapped += 1
            return True
        return self._map_plain_segment(path, info)

    def _map_plain_segment(self, path: str, info: SigInfo) -> bool:
        """Open and map a non-module segment file at its address."""
        sys = self.kernel.syscalls
        want_write = info.access is AccessKind.WRITE
        try:
            fd = sys.open(self.proc, path, O_RDWR)
            prot = PROT_RWX
        except (SyscallError, FilesystemError) as error:
            if getattr(error, "transient", False):
                raise  # let _map_segment_at retry with backoff
            if want_write:
                return False  # no write rights: the fault stands
            try:
                fd = sys.open(self.proc, path, O_RDONLY)
            except (SyscallError, FilesystemError) as error:
                if getattr(error, "transient", False):
                    raise
                return False
            prot = PROT_RX
        try:
            info_stat = sys.fstat(self.proc, fd)
            base = sys.path_to_addr(self.proc, path)
            length = align_up(max(info_stat.st_size, 1), PAGE_SIZE)
            sys.mmap(self.proc, base, length, prot, MAP_SHARED, fd,
                     name=path)
            self.segments_mapped += 1
            return True
        finally:
            sys.close(self.proc, fd)

    # ------------------------------------------------------------------
    # machine-code program handlers (registered via SYS_SIGNAL)
    # ------------------------------------------------------------------

    def _machine_program_handler(self, proc: Process,
                                 info: SigInfo) -> bool:
        """Run a program-registered machine-code SIGSEGV handler.

        The handler executes on the process's own CPU with the faulting
        address in ``a0`` and a sentinel return address in ``ra``; it
        reports resolution through ``v0`` (non-zero = retry the faulting
        instruction). Registers are saved and restored around the call,
        the way a real signal trampoline's sigcontext would.
        """
        handler_pc = getattr(proc, "machine_sig_handler", 0)
        cpu = proc.cpu
        if not handler_pc or cpu is None:
            return False
        from repro.hw import isa
        from repro.hw.cpu import Trap
        from repro.vm.faults import PageFaultError

        saved_regs = cpu.snapshot_regs()
        saved_pc = cpu.pc
        cpu.set_reg(isa.REG_A0, info.address)
        cpu.set_reg(isa.REG_RA, self.HANDLER_RETURN_SENTINEL)
        cpu.pc = handler_pc
        resolved = False
        try:
            for _ in range(self.HANDLER_INSTRUCTION_BUDGET):
                if cpu.pc == self.HANDLER_RETURN_SENTINEL:
                    resolved = cpu.regs[isa.REG_V0] != 0
                    break
                try:
                    cpu.step()
                except SyscallError:
                    break  # a failing syscall aborts the handler
                except Trap as trap:
                    from repro.hw.cpu import SyscallTrap

                    if isinstance(trap, SyscallTrap):
                        self.kernel.syscalls.dispatch_machine(proc)
                        if not proc.alive:
                            return False
                    else:
                        break
                except PageFaultError:
                    break  # a faulting handler cannot resolve anything
        finally:
            cpu.restore_regs(saved_regs)
            cpu.pc = saved_pc
        return resolved

    # ------------------------------------------------------------------
    # the wrapped signal() call
    # ------------------------------------------------------------------

    def signal(self, handler: SignalHandler) -> None:
        """Install a program-provided SIGSEGV handler.

        "When the dynamic linking system's fault handler is unable to
        resolve a fault, a program-provided handler for SIGSEGV is
        invoked, if one exists."
        """
        self.proc.append_handler(Signal.SIGSEGV, handler)

    # ------------------------------------------------------------------
    # segment library calls for applications
    # ------------------------------------------------------------------

    def create_segment(self, path: str, size: int,
                       exclusive: bool = True,
                       reservation: Optional[int] = None) -> int:
        """Create a shared segment file of *size* bytes; returns its
        globally agreed base address. The segment is NOT mapped — the
        first touch maps it via the fault handler.

        On a 64-bit kernel, *reservation* sets how much address space
        the segment may grow into (default 16 MiB); on the 32-bit
        prototype every segment gets the fixed 1 MiB slot and larger
        requests are rejected, per the paper's limits.
        """
        if not self.kernel.wide_addresses and size > MAX_FILE_SIZE:
            raise SyscallError("EFBIG", f"segment larger than "
                                        f"{MAX_FILE_SIZE} bytes")
        sys = self.kernel.syscalls
        flags = O_WRONLY | O_CREAT | (O_EXCL if exclusive else 0)
        if self.kernel.wide_addresses:
            span = max(reservation or 0, size)
            context = self.kernel.sfs.reserving(span) if span \
                else _null_context()
        else:
            context = _null_context()
        with context:
            fd = sys.open(self.proc, path, flags)
        try:
            sys.ftruncate(self.proc, fd, size)
            base = self.kernel.sfs.address_of_inode(
                sys.fstat(self.proc, fd).st_ino
            )
            sanitizer = self.kernel.sanitizer
            if sanitizer is not None:
                sanitizer.segment_created(self.kernel, self.proc, base)
            return base
        finally:
            sys.close(self.proc, fd)

    def segment_base(self, path: str) -> int:
        """Base address of an existing segment.

        On a clustered machine a path that does not resolve locally is
        looked up in the cluster directory, so a process can take the
        base of a segment published by another node and let the first
        touch fetch it."""
        try:
            return self.kernel.syscalls.path_to_addr(self.proc, path)
        except (SyscallError, FilesystemError):
            coherence = self.kernel.coherence
            if coherence is not None:
                from repro.fs.path import normalize

                base = coherence.lookup_path(
                    normalize(path, self.proc.cwd))
                if base is not None:
                    return base
            raise

    def delete_segment(self, path: str) -> None:
        """Explicit destruction (manual cleanup, §5 Garbage Collection).

        Any mapping in this process is removed first.
        """
        sys = self.kernel.syscalls
        base = None
        try:
            base = sys.path_to_addr(self.proc, path)
            mapping = self.proc.address_space.mapping_at(base)
            if mapping is not None:
                sys.munmap(self.proc, mapping.start,
                           mapping.end - mapping.start)
        except SyscallError:
            pass
        from repro.fs.path import normalize

        normalized = normalize(path, self.proc.cwd)
        self.ldl.forget(normalized)
        sys.unlink(self.proc, path)
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None and base is not None:
            sanitizer.segment_closed(self.kernel, self.proc, base,
                                     normalized)

    def resolve_symbol(self, name: str) -> Optional[int]:
        """Language-level name -> address, through the linking DAG."""
        self._ensure_root()
        assert self.ldl.root is not None
        return self.ldl.scoped_resolve(self.ldl.root, name)

    # ------------------------------------------------------------------
    # the explicit dld / dlopen-style interface (§3)
    # ------------------------------------------------------------------
    #
    # "Several dynamic linkers, including the Free Software Foundation's
    # dld and those of SunOS and SVR4, provide library routines that
    # allow the user to link object modules into a running program."
    # Hemlock subsumes this style, but provides it for comparison: like
    # dld, dlopen resolves the new module's undefined references
    # (allowing them to point into the main program or other loaded
    # modules); like both, it does NOT resolve undefined references in
    # the main program — it "simply returns pointers to the
    # newly-available symbols" through dlsym.

    def dlopen(self, path: str, lazy: bool = False):
        """Explicitly link the module at *path* into this program.

        Returns an opaque module handle. With ``lazy=False`` (the
        dld/dlopen default) the module is fully linked immediately.
        """
        self._ensure_root()
        assert self.ldl.root is not None
        module = self.ldl.ensure_module_from_path(path, self.ldl.root)
        if not lazy:
            self.ldl.link_module(module)
        return module

    def dlsym(self, handle, name: str) -> Optional[int]:
        """Pointer to symbol *name* in the dlopen'ed *handle*, or None.

        Unlike Hemlock's transparent linking, the caller gets a raw
        pointer and must do its own indirection — the loss of
        "language-level naming, type checking, and scope rules" §3
        attributes to pointer-returning interfaces.
        """
        return handle.exports().get(name)

    # ------------------------------------------------------------------
    # jump-table (PLT) resolution — the SunOS-style baseline
    # ------------------------------------------------------------------

    def plt_resolve(self, trap_pc: int) -> int:
        """Resolve the PLT entry containing *trap_pc*; returns the entry
        base the CPU should restart at."""
        if self.executable is None:
            raise SimulationError("PLT resolve before runtime start")
        symbol = plt_symbol_at(self.executable, trap_pc)
        base = plt_entry_base(self.executable, trap_pc)
        assert self.ldl.root is not None
        target = self.ldl.scoped_resolve(self.ldl.root, symbol)
        if target is None:
            raise SimulationError(
                f"PLT: symbol {symbol!r} is undefined at the root"
            )
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.LINK_RESOLVE, name=symbol,
                        pid=self.proc.pid, addr=target)
        self.proc.address_space.write_bytes(base, patched_plt_entry(target),
                                            force=True)
        return base


def _null_context():
    class _Null:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return None

    return _Null()


def attach_runtime(kernel: Kernel, lazy: bool = True,
                   scoped: bool = True,
                   verify: Optional[bool] = None) -> None:
    """Register the runtime with *kernel* so every exec'd machine
    program gets crt0/ldl behaviour automatically.

    *verify* arms ldl's reprolint gate (None = the REPRO_LINT env)."""

    def on_exec(proc: Process, image: ObjectFile) -> None:
        runtime = HemlockRuntime(kernel, proc, lazy=lazy, scoped=scoped,
                                 verify=verify)
        runtime.start(image)

    kernel.on_exec = on_exec


def runtime_for(kernel: Kernel, proc: Process,
                lazy: bool = True) -> HemlockRuntime:
    """The process's runtime, creating one for native processes that
    have not exec'd a machine image."""
    if isinstance(proc.runtime, HemlockRuntime):
        return proc.runtime
    return HemlockRuntime(kernel, proc, lazy=lazy)
