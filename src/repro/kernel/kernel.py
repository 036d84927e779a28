"""The kernel proper: boot, processes, scheduling, fault delivery.

Boot assembles the machine: physical memory, a root file system, the
shared file system mounted at ``/shared`` (the special partition of §3),
the syscall layer, lock/semaphore/message tables, and the clock.

Scheduling is the deterministic round schedule of
:class:`repro.kernel.smp.SmpCoordinator`, the one scheduler at every
core count. Machine processes run a fixed instruction quantum; native
processes run to their next ``yield``. A page fault suspends the
faulting instruction, delivers SIGSEGV through the process's handler
chain (the Hemlock runtime installs the handler that implements lazy
linking and pointer chasing), and — if some handler resolves it —
restarts the instruction. Unresolved faults kill the process, exactly
as an unhandled SIGSEGV would.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    HardwareError,
    InjectedFaultError,
    KernelError,
    NoSuchProcessError,
    SimulationError,
    SyscallError,
)
from repro.fs.filesystem import Filesystem
from repro.fs.inode import Inode
from repro.fs.vfs import Vfs
from repro.hw.cpu import ArithmeticTrap, BreakTrap, Cpu, SyscallTrap
from repro.kernel import arming
from repro.kernel.ipc import MessageQueueTable
from repro.kernel.loader import load_executable
from repro.kernel.process import (
    NativeBody,
    NativeContext,
    Process,
    ProcessState,
)
from repro.kernel.signals import SigInfo, Signal
from repro.kernel.smp import SmpCoordinator
from repro.kernel.sync import FileLockTable, SemaphoreTable, WouldBlock
from repro.kernel.syscalls import Syscalls
from repro.kernel.timing import Clock
from repro.objfile.format import ObjectFile
from repro.sfs.sharedfs import SharedFilesystem
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.vm.address_space import AddressSpace
from repro.vm.faults import PageFaultError
from repro.vm.pages import PhysicalMemory

DEFAULT_QUANTUM = 2000          # instructions per machine-process slice
MAX_FAULT_RETRIES = 64          # same instruction faulting repeatedly
SFS_MOUNT = "/shared"


def flatten(groups: Iterable[Tuple[str, object]]) -> Dict[str, int]:
    """One flat dump, sorted by key, of ``(prefix, counters)`` pairs.
    *counters* is a dict, a namespace or None (a layer not armed): an
    int (or bool) in it becomes ``prefix.name``, a dict of ints
    ``prefix.name.key``; anything else, such as a recovery's trail, is
    a log rather than a counter and is left out. A key that recurs is
    summed, so repeating a prefix adds up per-process counters."""
    flat: Counter = Counter()
    for prefix, counters in groups:
        if counters is None:
            continue
        if not isinstance(counters, dict):
            counters = vars(counters)
        for name, value in counters.items():
            if isinstance(value, dict):
                flat.update({f"{prefix}.{name}.{key}": count
                             for key, count in value.items()})
            elif isinstance(value, int):
                flat[f"{prefix}.{name}"] += value
    return dict(sorted(flat.items()))


class Kernel:
    """One booted instance of the simulated system."""

    def __init__(self, wide_addresses: bool = False,
                 disk=None, ncores: Optional[int] = None) -> None:
        self.physmem = PhysicalMemory()
        self.clock = Clock()
        # The simulated CPU count (repro.smp). None consults the
        # ambient REPRO_CORES so every boot in a process — including
        # the ones tools like reprorr make internally — runs SMP; the
        # default is 1. The coordinator is the scheduler at every core
        # count, and it alone validates the count.
        if ncores is None:
            ncores = os.environ.get("REPRO_CORES") or 1
        self.smp = SmpCoordinator(self, ncores)
        self.ncores = self.smp.ncores
        self.clock.ncores = self.ncores
        self.rootfs = Filesystem(self.physmem, name="rootfs")
        if wide_addresses:
            # The paper's 64-bit future work (§3): per-inode address
            # fields, a B-tree reverse map, relaxed limits.
            from repro.sfs.sfs64 import SharedFilesystem64

            self.sfs = SharedFilesystem64(self.physmem)
        else:
            self.sfs = SharedFilesystem(self.physmem)
        self.wide_addresses = wide_addresses
        self.vfs = Vfs(self.rootfs)
        self.sfs_mount = SFS_MOUNT
        self.vfs.mount(SFS_MOUNT, self.sfs)
        self.syscalls = Syscalls(self)
        self.locks = FileLockTable()
        self.semaphores = SemaphoreTable()
        self.queues = MessageQueueTable()
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._runqueue: List[int] = []
        self._wait_blocked: set = set()
        self.quantum = DEFAULT_QUANTUM
        # ldl's export table (repro.linker.scoped.peek_exports): per
        # file, keyed like Syscalls._warm_inodes, the bytes last
        # decoded for their exports and the result. A host-side cache:
        # every syscall is still issued and charged, and it starts
        # empty at every boot.
        self.export_table: Dict[Tuple[int, int], tuple] = {}
        # Hooks the runtime package registers at import/attach time so
        # exec can wire crt0/ldl without a kernel->runtime dependency.
        self.on_exec: Optional[Callable[[Process, ObjectFile], None]] = None
        # The fault injector (repro.inject). None keeps every plane
        # silent at the cost of one attribute check per choke point.
        self.injector = None
        # The cluster half (repro.net): this machine's NIC and
        # coherence agent, wired in by the Cluster that booted it. Both
        # None on a single-machine boot, so the classic configuration
        # pays one attribute check per public fault and nothing else.
        self.nic = None
        self.coherence = None
        # The checkpoint recorder (repro.rr) when recording is armed.
        self.recorder = None
        # The race/heap sanitizer (repro.sanitize). None keeps every
        # choke point at one attribute check.
        self.sanitizer = None
        # The durable store (repro.disk). A blank device is formatted;
        # anything else is recovered — committed journal transactions
        # replayed, the torn tail discarded, the addr↔inode table
        # rebuilt. None keeps the classic all-volatile configuration.
        self.disk = None
        self.recovery = None
        # Whatever the tools armed (tracing, injection, recording,
        # sanitizing, a durable campaign) attaches here, in the
        # registry's fixed order; an explicit *disk* mounts last.
        arming.attach(self, disk)

    def is_public_address(self, address: int) -> bool:
        """Does *address* fall in this machine's public region?

        The public region is the shared file system's: the 1 GiB window
        of the 32-bit prototype, or everything above 4 GiB in the
        64-bit configuration.
        """
        return self.sfs.region.contains(address)

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def _allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _bind_core(self, proc: Process) -> None:
        """Pin *proc* (and its address space) to its home core.

        Placement is the pure function ``pid % ncores`` — work lands on
        the same core in every run, which is half of what makes the SMP
        schedule deterministic (the other half is the round barrier).
        A lone core has no other core to shoot down, so its address
        spaces stay off the shootdown ledger.
        """
        proc.core = proc.pid % self.ncores
        space = proc.address_space
        space.core = proc.core
        space.smp = self.smp if self.ncores > 1 else None

    def create_native_process(self, name: str, body: NativeBody,
                              uid: int = 0,
                              env: Optional[Dict[str, str]] = None,
                              cwd: str = "/") -> Process:
        """Create a native (Python-bodied) process, runnable immediately."""
        pid = self._allocate_pid()
        space = AddressSpace(self.physmem, name=f"pid{pid}")
        space.injector = self.injector
        proc = Process(pid, 0, uid, space, name)
        self._bind_core(proc)
        proc.native = NativeContext(body)
        proc.environ = dict(env or {})
        proc.cwd = cwd
        self.processes[pid] = proc
        self._runqueue.append(pid)
        if self.sanitizer is not None:
            self.sanitizer.register_process(self, proc)
        return proc

    def create_machine_process(self, name: str, image: ObjectFile,
                               uid: int = 0,
                               env: Optional[Dict[str, str]] = None,
                               cwd: str = "/") -> Process:
        """Create a machine process and exec *image* into it."""
        pid = self._allocate_pid()
        space = AddressSpace(self.physmem, name=f"pid{pid}")
        space.injector = self.injector
        proc = Process(pid, 0, uid, space, name)
        self._bind_core(proc)
        proc.cpu = Cpu(space)
        proc.environ = dict(env or {})
        proc.cwd = cwd
        self.processes[pid] = proc
        self._runqueue.append(pid)
        if self.sanitizer is not None:
            self.sanitizer.register_process(self, proc)
        self.exec_image(proc, image)
        return proc

    def spawn(self, path: str, name: Optional[str] = None, uid: int = 0,
              env: Optional[Dict[str, str]] = None,
              cwd: str = "/") -> Process:
        """Create a machine process from an executable *file* — the
        exec-from-filesystem path a shell would take."""
        data = self.vfs.read_whole(path, uid, cwd=cwd)
        image = ObjectFile.from_bytes(data)
        return self.create_machine_process(
            name or path.rsplit("/", 1)[-1], image, uid=uid, env=env,
            cwd=cwd,
        )

    def exec_image(self, proc: Process, image: ObjectFile) -> None:
        """Load *image* into *proc* (whose address space must be fresh)."""
        load_executable(proc, image)
        if self.on_exec is not None:
            self.on_exec(proc, image)

    def fork(self, proc: Process) -> Process:
        """Hemlock fork (§5): private mappings copied copy-on-write,
        public (shared) mappings shared; identical CPU state, child
        sees return value 0."""
        if proc.cpu is None:
            raise KernelError(
                "fork is only supported for machine processes; native "
                "bodies cannot be cloned — spawn a new process instead"
            )
        pid = self._allocate_pid()
        child_space = proc.address_space.fork(name=f"pid{pid}")
        child_space.injector = self.injector
        child = Process(pid, proc.pid, proc.uid, child_space,
                        f"{proc.name}:child")
        self._bind_core(child)
        child.cpu = Cpu(child_space)
        child.cpu.regs[:] = proc.cpu.regs
        child.cpu.pc = proc.cpu.pc
        child.environ = dict(proc.environ)
        child.cwd = proc.cwd
        child.brk = proc.brk
        child.runtime = proc.runtime
        # Parent and child share open file descriptions, like Unix.
        child.fds = dict(proc.fds)
        for handle in child.fds.values():
            handle.refcount += 1
        child._next_fd = proc._next_fd
        child.signal_handlers = {
            sig: list(handlers)
            for sig, handlers in proc.signal_handlers.items()
        }
        self.processes[pid] = child
        self._runqueue.append(pid)
        # The child comes out of fork with v0 = 0 and the PC past the
        # syscall; the parent's return is patched by the dispatcher.
        from repro.hw import isa

        child.cpu.set_reg(isa.REG_V0, 0)
        child.cpu.set_reg(isa.REG_V1, 0)
        child.cpu.pc += 4
        if self.sanitizer is not None:
            self.sanitizer.on_fork(self, proc, child)
        return child

    def terminate(self, proc: Process, code: int,
                  reason: Optional[str] = None) -> None:
        # Exit releases every flock still held, exactly as FLOCK_UN
        # would: the next waiter inherits the lock and the release's
        # happens-before edge.
        for inode in self.locks.held_by(proc):
            self.unlock_file(proc, inode)
        if self.sanitizer is not None:
            self.sanitizer.on_exit(self, proc)
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = code
        proc.death_reason = reason
        for handle in proc.fds.values():
            handle.refcount -= 1
        proc.fds.clear()
        proc.address_space.destroy()
        # Wake a parent blocked in wait(2), if any.
        parent = self.processes.get(proc.ppid)
        if parent is not None and parent.pid in self._wait_blocked \
                and parent.state is ProcessState.BLOCKED:
            self._wait_blocked.discard(parent.pid)
            self.wake(parent)

    def unlock_file(self, proc: Process, inode: Inode) -> None:
        """Release *proc*'s flock on *inode*, handing it to the next
        FIFO waiter (which is woken). Charges nothing."""
        if self.sanitizer is not None:
            self.sanitizer.lock_released(self, proc, ("flock", inode.number))
        woken = self.locks.release(proc, inode)
        if woken is not None:
            self.wake(woken)

    def register_waiter(self, proc: Process) -> None:
        """Mark *proc* as about to block in wait(2)."""
        self._wait_blocked.add(proc.pid)

    def process(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None:
            raise NoSuchProcessError(f"no process {pid}")
        return proc

    # ------------------------------------------------------------------
    # faults and signals
    # ------------------------------------------------------------------

    def deliver_fault(self, proc: Process, fault: PageFaultError) -> bool:
        """Run the SIGSEGV handler chain; True if some handler resolved
        the fault (the faulting access should be retried)."""
        self.clock.page_fault()
        tracer = _trace.TRACER
        injector = self.injector
        if injector is not None and injector.on_fault_delivery(proc, fault):
            # DROP: resolution is suppressed; the fault stands exactly
            # as if every handler had declined it.
            injector.note_contained()
            if tracer.enabled:
                tracer.emit(EventKind.FAULT, name="dropped",
                            pid=proc.pid, addr=fault.address)
            return False
        info = SigInfo(Signal.SIGSEGV, address=fault.address,
                       access=fault.access,
                       pc=proc.cpu.pc if proc.cpu else 0,
                       present=fault.present)
        for handler in list(proc.signal_handlers.get(Signal.SIGSEGV, [])):
            self.clock.signal()
            if tracer.enabled:
                tracer.emit(EventKind.SIGNAL, name="SIGSEGV",
                            pid=proc.pid, addr=fault.address)
            if handler(proc, info):
                if tracer.enabled:
                    tracer.emit(EventKind.FAULT, name="resolved",
                                pid=proc.pid, addr=fault.address)
                return True
        if tracer.enabled:
            tracer.emit(EventKind.FAULT, name="unresolved",
                        pid=proc.pid, addr=fault.address)
        return False

    def run_with_faults(self, proc: Process, operation: Callable[[], object],
                        fault: Optional[PageFaultError] = None) -> object:
        """Run *operation* (a memory access on behalf of *proc*),
        transparently resolving faults through the handler chain.

        This is the native-process analogue of instruction restart: the
        typed views in :mod:`repro.runtime.views` hand every load and
        store that faults to this loop. *fault*, when given, is the page
        fault the caller's own first attempt at *operation* raised. It
        is delivered before the first retry and counts as the loop's
        first attempt, so deliveries, handlers and the retry bound run
        exactly as if the loop had made that attempt itself.
        """
        for _ in range(MAX_FAULT_RETRIES):
            if fault is None:
                try:
                    return operation()
                except PageFaultError as caught:
                    fault = caught
            if not self.deliver_fault(proc, fault):
                raise fault
            fault = None
        raise KernelError(
            f"fault loop: {MAX_FAULT_RETRIES} consecutive faults at the "
            f"same access"
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def wake(self, proc: Process) -> None:
        if proc.state is ProcessState.BLOCKED:
            proc.state = ProcessState.READY
            proc.block_reason = None
            proc.block_object = None

    def _block(self, proc: Process, reason: str) -> None:
        proc.state = ProcessState.BLOCKED
        proc.block_reason = reason

    def runnable(self) -> List[Process]:
        return [self.processes[pid] for pid in self._runqueue
                if pid in self.processes
                and self.processes[pid].state is ProcessState.READY]

    def schedule(self, max_slices: int = 100000) -> None:
        """Run rounds until every process exits (or deadlock)."""
        self.smp.schedule(max_slices)

    def run_until_exit(self, proc: Process,
                       max_slices: int = 100000) -> int:
        """Run rounds until *proc* exits; returns its exit code."""
        return self.smp.run_until_exit(proc, max_slices)

    def _run_machine_chunk(self, proc: Process, start: int,
                           target: int) -> bool:
        """Run *proc* until it has executed *target* instructions past
        *start*, leaves READY, or hits a slice-ending trap.

        Returns False when the quantum ended on a path that does not
        charge executed instructions (blocked in a syscall, or killed by
        a fault/trap); True otherwise — the caller charges the executed
        count when the whole quantum is done. The scheduler calls this
        with sub-quantum targets. Each ``Cpu.execute`` gets the
        instructions left in the chunk as its budget, so ``execute``
        never crosses the target, and the blocks it chains never change
        ``proc.state``, so checking the state between calls is exact.
        The instruction counter only advances by retired instructions,
        and every retired instruction resets the fault streak, whether a
        single step retired it or a block did before faulting (the
        reference resets it on every successful step), so a chunk
        boundary never lands mid-fault-retry, making chunked execution
        bit-identical to one uninterrupted quantum.
        """
        cpu = proc.cpu
        fault_streak = 0
        end = start + target
        while cpu.instructions_executed < end \
                and proc.state is ProcessState.READY:
            executed = cpu.instructions_executed
            try:
                cpu.execute(end - executed)
                fault_streak = 0
            except SyscallTrap:
                if cpu.instructions_executed != executed:
                    fault_streak = 0
                try:
                    self.syscalls.dispatch_machine(proc)
                except WouldBlock:
                    self._block(proc, "syscall")
                    return False
            except PageFaultError as fault:
                if cpu.instructions_executed != executed:
                    fault_streak = 0
                if self.deliver_fault(proc, fault):
                    fault_streak += 1
                    if fault_streak > MAX_FAULT_RETRIES:
                        self.terminate(
                            proc, -1,
                            reason=f"fault loop at 0x{fault.address:08x}",
                        )
                        return False
                    continue  # restart the faulting instruction
                if getattr(fault, "injected", False):
                    self.note_contained(fault)
                detail = ""
                pending = getattr(proc, "pending_fault_error", None)
                if pending is not None:
                    detail = f" [{type(pending).__name__}: {pending}]"
                    proc.pending_fault_error = None
                self.terminate(
                    proc, -1,
                    reason=f"unhandled SIGSEGV at 0x{fault.address:08x} "
                           f"({fault.access.value}, pc=0x{cpu.pc:08x})"
                           f"{detail}",
                )
                return False
            except BreakTrap:
                self.terminate(proc, -1, reason="break instruction")
                return False
            except ArithmeticTrap:
                self.terminate(proc, -1, reason="SIGFPE: divide by zero")
                return False
            except HardwareError as error:
                self.terminate(proc, -1, reason=f"SIGILL: {error}")
                return False
        return True

    def _run_native_slice(self, proc: Process) -> None:
        ctx = proc.native
        assert ctx is not None
        if ctx.generator is None:
            ctx.generator = ctx.body(self, proc)
        try:
            next(ctx.generator)
        except StopIteration as stop:
            ctx.result = stop.value
            if proc.alive:
                self.terminate(proc, 0)
        except WouldBlock:
            raise KernelError(
                f"native process {proc.name!r} hit a blocking kernel "
                f"operation mid-quantum; use the try_ variants and yield"
            )
        except SyscallError as error:
            self.note_contained(error)
            self.terminate(proc, -1, reason=str(error))
        except PageFaultError as fault:
            if proc.alive:
                self.note_contained(fault)
                self.terminate(
                    proc, -1,
                    reason=f"unhandled SIGSEGV at 0x{fault.address:08x}",
                )
        except SimulationError as error:
            if proc.alive:
                self.note_contained(error)
                self.terminate(proc, -1, reason=f"{type(error).__name__}: "
                                                f"{error}")

    # ------------------------------------------------------------------
    # durability (repro.disk)
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Checkpoint the durable store (no-op when all-volatile).

        Also the only point at which segment bytes mutated through
        *memory stores* (not ``write``) become durable: the journal
        records file writes, but a mapped store hits the pages directly,
        and only a checkpoint captures pages wholesale.
        """
        if self.disk is not None:
            self.disk.checkpoint()

    def shutdown(self) -> None:
        """Clean shutdown: checkpoint and disarm journaling."""
        if self.disk is not None:
            self.disk.checkpoint()
            self.disk.detach()

    def crash(self) -> None:
        """Simulate power loss (resolves the device's pending-write
        window per its seed; everything after is silently lost)."""
        if self.disk is not None:
            self.disk.device.crash()

    # ------------------------------------------------------------------

    def note_contained(self, error) -> None:
        """Count an injected fault absorbed at a kernel boundary.

        A no-op for genuine (non-injected) errors and when no injector
        is installed; the fault-containment invariant the chaos suite
        asserts is ``triggered`` faults never escape the kernel, and
        these counters are its evidence.
        """
        injector = self.injector
        if injector is None:
            return
        if isinstance(error, InjectedFaultError) \
                or getattr(error, "injected", False):
            injector.note_contained()

    def metrics(self) -> Dict[str, int]:
        """Every counter of this boot as one flat, sorted dump: the
        clock, the process and frame counts, the SMP coordinator, the
        TLB, decode and linker counters summed over processes, and the
        counters of each armed layer (DESIGN.md, "Counters")."""
        clock = self.clock
        groups = [
            ("kernel", {"cycles": clock.cycles, "elapsed": clock.elapsed,
                        "processes": len(self.processes),
                        "alive": sum(proc.alive
                                     for proc in self.processes.values()),
                        "frames": self.physmem.allocated}),
            ("kernel.cycles", clock.by_category),
            ("kernel.core_cycles", clock.core_cycles),
            ("smp", self.smp.stats()),
            ("sfs.addrmap", {"comparisons": self.sfs.addrmap.comparisons}),
            ("inject", getattr(self.injector, "stats", None)),
            ("san", getattr(self.sanitizer, "stats", None)),
            ("coherence", getattr(self.coherence, "stats", None)),
            ("recovery", self.recovery),
        ]
        if self.disk is not None:
            groups.append(("disk", {
                "blocks_written": self.disk.device.writes,
                "journal.records": self.disk.journal.records_written}))
        for proc in self.processes.values():
            space, cpu = proc.address_space, proc.cpu
            if space is not None:
                groups.append(("tlb", space.tlb_stats()))
            if cpu is not None:
                groups.append(("hw", {
                    "instructions": cpu.instructions_executed,
                    "decode_hits": cpu.decode_hits,
                    "decode_misses": cpu.decode_misses}))
            ldl = getattr(proc.runtime, "ldl", None)
            groups.append(("linker", getattr(ldl, "stats", None)))
        return flatten(groups)
