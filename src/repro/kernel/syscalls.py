"""The system-call layer.

:class:`Syscalls` is the kernel's service interface. Native processes
(and the Hemlock runtime library) call its methods directly, passing the
calling process; machine processes reach the same methods through the
register-based ABI decoded by :meth:`Syscalls.dispatch_machine`.

Every call charges the cost model, so IPC-versus-sharing comparisons
reflect the syscall and copying overheads the paper argues about.

Machine ABI: syscall number in ``v0``, arguments in ``a0..a3``, result in
``v0``, error flag in ``v1`` (0 on success, non-zero errno code).
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from repro.errors import (
    FilesystemError,
    ObjectFormatError,
    SimulationError,
    SyscallError,
)
from repro.fs.vfs import (
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    OpenFile,
)
from repro.hw import isa
from repro.kernel.process import Process
from repro.kernel.sync import WouldBlock
from repro.objfile.format import MAGIC, TRAILER, unpack_trailer
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.vm.address_space import MAP_SHARED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

# Machine syscall numbers.
SYS_EXIT = 1
SYS_WRITE = 2
SYS_READ = 3
SYS_OPEN = 4
SYS_CLOSE = 5
SYS_FORK = 6
SYS_GETPID = 7
SYS_SBRK = 8
SYS_WAIT = 9
SYS_MMAP = 10
SYS_MUNMAP = 11
SYS_MPROTECT = 12
SYS_SIGNAL = 13
SYS_PUTINT = 14
SYS_ADDR_TO_PATH = 20
SYS_OPEN_BY_ADDR = 21
SYS_FLOCK = 22
SYS_MSGGET = 23
SYS_MSGSND = 24
SYS_MSGRCV = 25
SYS_SEMGET = 26
SYS_SEMP = 27
SYS_SEMV = 28
SYS_GETENV = 30
SYS_UNLINK = 31
SYS_SYMLINK = 32
SYS_MKDIR = 33
SYS_STAT = 34
SYS_PLT_RESOLVE = 40  # jump-table baseline; see repro.linker.jumptable

FLOCK_EX = 1
FLOCK_UN = 2
FLOCK_TRY = 3

_ERRNO_CODES = {
    "EPERM": 1, "ENOENT": 2, "EINTR": 4, "EIO": 5, "EBADF": 9,
    "ECHILD": 10, "EAGAIN": 11, "EACCES": 13, "EFAULT": 14,
    "EEXIST": 17, "ENOTDIR": 20, "EISDIR": 21, "EINVAL": 22,
    "EFBIG": 27, "ENOSPC": 28, "EPIPE": 32, "ENAMETOOLONG": 36,
}


class Syscalls:
    """Kernel services, one method per call."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._warm_inodes: set = set()

    def _syscall(self, proc: Process, name: str) -> None:
        """Charge the trap cost and trace the call (entry/exit in one)."""
        self.kernel.clock.syscall()
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.SYSCALL, name=name, pid=proc.pid)
        injector = self.kernel.injector
        if injector is not None:
            # The trap already happened (and was charged); an armed
            # syscall plane may now fail the service itself.
            injector.on_syscall(proc, name)

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    def open(self, proc: Process, path: str, flags: int = O_RDONLY,
             mode: int = 0o644) -> int:
        self._syscall(proc, "open")
        handle = self.kernel.vfs.open(path, flags, proc.uid, mode,
                                      cwd=proc.cwd)
        self._charge_cold(proc, handle)
        return proc.install_fd(handle)

    def read_module(self, proc: Process, path: str, segment: bool = False,
                    probe: bool = False
                    ) -> Optional[Tuple[bytes, int, Tuple[int, int]]]:
        """Read the module file at *path* the way the linkers do, as
        ``(data, image_len, key)``.

        A template (*segment* false) is ``open``, ``fstat``, one
        ``pread`` of the whole file and ``close``; *data* is the file
        and *image_len* 0. A segment is ``open``, ``fstat``, a
        ``pread`` of its 16-byte trailer, a ``pread`` of the metadata
        the trailer locates, and ``close``; *data* is the metadata. A
        file too short for a trailer, or whose trailer lacks the magic,
        raises :class:`ObjectFormatError` after the calls made so far.
        *key* is the file's ``(id(volume), inode number)``, the key of
        :attr:`_warm_inodes`.

        With *probe*, a path that cannot be opened and a template too
        short to hold the HOF magic (no ``pread`` is made) yield None.

        When no tracer is enabled, no injector is armed and *path* is a
        regular file the caller may read, nothing can observe the calls
        one by one: the file is read without an open-file description
        and the calls' charges are merged into one per category, in the
        order they are first charged. The descriptor the ``open``
        would have taken is consumed all the same. Otherwise the calls
        are made one by one, which is the reference.
        """
        kernel = self.kernel
        if kernel.injector is None and not _trace.TRACER.enabled:
            try:
                fs, inode = kernel.vfs.resolve(path, proc.uid,
                                               cwd=proc.cwd)
            except FilesystemError:
                inode = None
            if inode is not None and inode.is_file \
                    and inode.check_access(proc.uid, "r"):
                return self._read_module_merged(
                    proc, path, segment, probe, fs, inode)
        return self._read_module_calls(proc, path, segment, probe)

    def _read_module_calls(self, proc: Process, path: str, segment: bool,
                           probe: bool):
        """:meth:`read_module` as the syscalls it stands for."""
        try:
            fd = self.open(proc, path, O_RDONLY)
        except SimulationError:
            if probe:
                return None
            raise
        try:
            handle = proc.fd(fd)
            key = (id(handle.fs), handle.inode.number)
            size = self.fstat(proc, fd).st_size
            if not segment:
                if probe and size < len(MAGIC):
                    return None
                return self.pread(proc, fd, 0, size), 0, key
            if size < TRAILER.size:
                raise ObjectFormatError(
                    f"{path!r} is too small to be a segment"
                )
            image_len, meta_len = unpack_trailer(
                self.pread(proc, fd, size - TRAILER.size, TRAILER.size),
                path)
            return self.pread(proc, fd, image_len, meta_len), image_len, key
        finally:
            self.close(proc, fd)

    def _read_module_merged(self, proc: Process, path: str, segment: bool,
                            probe: bool, fs, inode):
        """:meth:`_read_module_calls`' reads and charges, for a readable
        regular file with nothing armed."""
        read = fs.read_file
        size = inode.size
        data = error = words = None     # words: file_io words, if read
        image_len = 0
        calls = 3                       # open, fstat, close; + preads
        if not segment:
            if not (probe and size < len(MAGIC)):
                data = read(inode, 0, size)
                calls, words = 4, (len(data) + 3) // 4
        elif size < TRAILER.size:
            error = ObjectFormatError(
                f"{path!r} is too small to be a segment"
            )
        else:
            calls, words = 4, TRAILER.size // 4
            try:
                image_len, meta_len = unpack_trailer(
                    read(inode, size - TRAILER.size, TRAILER.size), path)
            except ObjectFormatError as refusal:
                error = refusal
            else:
                data = read(inode, image_len, meta_len)
                calls, words = 5, words + (len(data) + 3) // 4
        clock = self.kernel.clock
        costs = clock.costs
        clock.charge("syscalls", calls * costs.syscall)
        key = (id(fs), inode.number)
        if key not in self._warm_inodes:
            self._warm_inodes.add(key)
            clock.charge("disk", costs.disk_seek)
        if words is not None:
            clock.charge("file_io", words * costs.file_io_per_word)
        # The descriptor the open would have installed and the close
        # released: fds are never reused, so the next one moves on.
        proc._next_fd += 1
        if error is not None:
            raise error
        if data is None:
            return None
        return data, image_len, key

    def _charge_cold(self, proc: Process, handle: OpenFile) -> None:
        """First touch of a file pays a disk seek; later opens hit cache."""
        key = (id(handle.fs), handle.inode.number)
        if key not in self._warm_inodes:
            self._warm_inodes.add(key)
            self.kernel.clock.disk_seek()
            tracer = _trace.TRACER
            if tracer.enabled:
                tracer.emit(EventKind.DISK, name=handle.path,
                            pid=proc.pid, value=handle.inode.number)

    def close(self, proc: Process, fd: int) -> None:
        self._syscall(proc, "close")
        proc.close_fd(fd)

    def read(self, proc: Process, fd: int, length: int) -> bytes:
        self._syscall(proc, "read")
        data = proc.fd(fd).read(length)
        self.kernel.clock.file_io(len(data))
        return data

    def write(self, proc: Process, fd: int, data: bytes) -> int:
        self._syscall(proc, "write")
        if fd == 1:  # console
            proc.stdout.extend(data)
            return len(data)
        written = proc.fd(fd).write(data)
        self.kernel.clock.file_io(written)
        return written

    def pread(self, proc: Process, fd: int, offset: int,
              length: int) -> bytes:
        self._syscall(proc, "pread")
        data = proc.fd(fd).pread(offset, length)
        self.kernel.clock.file_io(len(data))
        return data

    def pwrite(self, proc: Process, fd: int, offset: int,
               data: bytes) -> int:
        self._syscall(proc, "pwrite")
        written = proc.fd(fd).pwrite(offset, data)
        self.kernel.clock.file_io(written)
        return written

    def lseek(self, proc: Process, fd: int, offset: int,
              whence: int = 0) -> int:
        self._syscall(proc, "lseek")
        return proc.fd(fd).lseek(offset, whence)

    def ftruncate(self, proc: Process, fd: int, size: int) -> None:
        self._syscall(proc, "ftruncate")
        proc.fd(fd).truncate(size)

    def stat(self, proc: Process, path: str, follow: bool = True):
        self._syscall(proc, "stat")
        return self.kernel.vfs.stat(path, proc.uid, follow=follow,
                                    cwd=proc.cwd)

    def fstat(self, proc: Process, fd: int):
        self._syscall(proc, "fstat")
        return proc.fd(fd).inode.stat()

    def unlink(self, proc: Process, path: str) -> None:
        self._syscall(proc, "unlink")
        self.kernel.vfs.unlink(path, proc.uid, cwd=proc.cwd)

    def mkdir(self, proc: Process, path: str, mode: int = 0o755) -> None:
        self._syscall(proc, "mkdir")
        self.kernel.vfs.mkdir(path, proc.uid, mode, cwd=proc.cwd)

    def rmdir(self, proc: Process, path: str) -> None:
        self._syscall(proc, "rmdir")
        self.kernel.vfs.rmdir(path, proc.uid, cwd=proc.cwd)

    def symlink(self, proc: Process, target: str, linkpath: str) -> None:
        self._syscall(proc, "symlink")
        self.kernel.vfs.symlink(target, linkpath, proc.uid, cwd=proc.cwd)

    def readlink(self, proc: Process, path: str) -> str:
        self._syscall(proc, "readlink")
        return self.kernel.vfs.readlink(path, proc.uid, cwd=proc.cwd)

    def rename(self, proc: Process, old: str, new: str) -> None:
        self._syscall(proc, "rename")
        self.kernel.vfs.rename(old, new, proc.uid, cwd=proc.cwd)

    def listdir(self, proc: Process, path: str):
        self._syscall(proc, "listdir")
        return self.kernel.vfs.listdir(path, proc.uid, cwd=proc.cwd)

    def chdir(self, proc: Process, path: str) -> None:
        self._syscall(proc, "chdir")
        fs, inode = self.kernel.vfs.resolve(path, proc.uid, cwd=proc.cwd)
        if not inode.is_dir:
            raise SyscallError("ENOTDIR", f"{path!r} is not a directory")
        from repro.fs.path import normalize

        proc.cwd = normalize(path, proc.cwd)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def mmap(self, proc: Process, addr: Optional[int], length: int,
             prot: int, flags: int, fd: Optional[int] = None,
             offset: int = 0, name: str = "") -> int:
        self._syscall(proc, "mmap")
        self.kernel.clock.map_segment()
        memobj = None
        if fd is not None:
            handle = proc.fd(fd)
            if not handle.inode.is_file:
                raise SyscallError("EACCES", "mmap of a non-regular file")
            memobj = handle.inode.memobj
            if not name:
                name = handle.path
        mapping = proc.address_space.map(
            addr, length, memobj=memobj, offset=offset, prot=prot,
            flags=flags, name=name or "<anon>",
        )
        return mapping.start

    def munmap(self, proc: Process, addr: int, length: int) -> None:
        self._syscall(proc, "munmap")
        proc.address_space.unmap(addr, length)

    def mprotect(self, proc: Process, addr: int, length: int,
                 prot: int) -> None:
        self._syscall(proc, "mprotect")
        proc.address_space.mprotect(addr, length, prot)

    def sbrk(self, proc: Process, delta: int) -> int:
        self._syscall(proc, "sbrk")
        old = proc.brk
        new = old + delta
        if delta < 0:
            raise SyscallError("EINVAL", "shrinking the break is unsupported")
        heap_mapping = proc.address_space.mapping_at(old) if old else None
        if heap_mapping is not None and new > heap_mapping.end:
            raise SyscallError("ENOMEM", "brk exceeds the heap mapping")
        proc.brk = new
        return old

    # ------------------------------------------------------------------
    # Hemlock kernel extensions (§2, §3)
    # ------------------------------------------------------------------

    def addr_to_path(self, proc: Process,
                     address: int) -> Tuple[str, int]:
        """Translate a public address to (absolute path, offset) — the
        "new kernel call" that the SIGSEGV handler and ldl rely on."""
        self._syscall(proc, "addr_to_path")
        if not self.kernel.is_public_address(address):
            raise SyscallError(
                "EFAULT", f"0x{address:08x} is not a public address"
            )
        hit = self.kernel.sfs.path_of_address(address)
        if hit is None:
            raise SyscallError(
                "ENOENT", f"no segment at 0x{address:08x}"
            )
        vol_path, offset = hit
        return self.kernel.sfs_mount.rstrip("/") + vol_path, offset

    def path_to_addr(self, proc: Process, path: str) -> int:
        """The forward mapping: 'stat already returns an inode number'."""
        info = self.stat(proc, path)
        fs = self.kernel.vfs.resolve(path, proc.uid, cwd=proc.cwd)[0]
        if fs is not self.kernel.sfs:
            raise SyscallError(
                "EINVAL", f"{path!r} is not on the shared file system"
            )
        return self.kernel.sfs.address_of_inode(info.st_ino)

    def open_by_address(self, proc: Process, address: int,
                        flags: int = O_RDONLY) -> int:
        """Overloaded open: open a shared segment by any address in it."""
        injector = self.kernel.injector
        if injector is not None:
            # The linker plane covers transient open-by-address failures;
            # errors surface through the syscall errno path.
            injector.on_link(proc, "open_by_addr", f"0x{address:08x}",
                             as_syscall=True)
        path, _offset = self.addr_to_path(proc, address)
        # One logical syscall: refund the extra trap charged above.
        return self.open(proc, path, flags)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def getpid(self, proc: Process) -> int:
        return proc.pid

    def exit(self, proc: Process, code: int) -> None:
        self._syscall(proc, "exit")
        self.kernel.terminate(proc, code)

    def fork(self, proc: Process) -> Process:
        self._syscall(proc, "fork")
        return self.kernel.fork(proc)

    def wait(self, proc: Process) -> Tuple[int, int]:
        """Reap one zombie child: (pid, exit status).

        Raises :class:`WouldBlock` when children exist but none has
        exited yet; ECHILD when the process has no children at all.
        """
        self._syscall(proc, "wait")
        children = [p for p in self.kernel.processes.values()
                    if p.ppid == proc.pid and not p.reaped]
        if not children:
            raise SyscallError("ECHILD", "no children to wait for")
        for child in children:
            if not child.alive:
                child.reaped = True
                sanitizer = self.kernel.sanitizer
                if sanitizer is not None:
                    sanitizer.on_wait(self.kernel, proc, child.pid)
                return child.pid, child.exit_code or 0
        self.kernel.register_waiter(proc)
        raise WouldBlock()

    def getenv(self, proc: Process, name: str) -> str:
        return proc.getenv(name)

    def setenv(self, proc: Process, name: str, value: str) -> None:
        proc.setenv(name, value)

    # ------------------------------------------------------------------
    # synchronization and IPC
    # ------------------------------------------------------------------

    def flock(self, proc: Process, fd: int, op: int) -> bool:
        self._syscall(proc, "flock")
        inode = proc.fd(fd).inode
        sanitizer = self.kernel.sanitizer
        if op == FLOCK_EX or op == FLOCK_TRY:
            held = self.kernel.locks.acquire(proc, inode,
                                             blocking=op == FLOCK_EX)
            if held and sanitizer is not None:
                sanitizer.lock_acquired(self.kernel, proc,
                                        ("flock", inode.number))
            return held
        if op == FLOCK_UN:
            self.kernel.unlock_file(proc, inode)
            return True
        raise SyscallError("EINVAL", f"bad flock op {op}")

    def semget(self, proc: Process, key: int, value: int = 1) -> int:
        self._syscall(proc, "semget")
        self.kernel.semaphores.get(key, value)
        return key

    def sem_p(self, proc: Process, key: int) -> None:
        self._syscall(proc, "sem_p")
        self.kernel.semaphores.get(key).p(proc)
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            sanitizer.lock_acquired(self.kernel, proc, ("sem", key))

    def sem_try_p(self, proc: Process, key: int) -> bool:
        self._syscall(proc, "sem_try_p")
        held = self.kernel.semaphores.get(key).try_p(proc)
        if held:
            sanitizer = self.kernel.sanitizer
            if sanitizer is not None:
                sanitizer.lock_acquired(self.kernel, proc, ("sem", key))
        return held

    def sem_v(self, proc: Process, key: int) -> None:
        self._syscall(proc, "sem_v")
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            sanitizer.lock_released(self.kernel, proc, ("sem", key))
        woken = self.kernel.semaphores.get(key).v()
        if woken is not None:
            self.kernel.wake(woken)

    def msgget(self, proc: Process, key: int) -> int:
        self._syscall(proc, "msgget")
        self.kernel.queues.get(key)
        return key

    def msgsnd(self, proc: Process, key: int, data: bytes,
               blocking: bool = True) -> bool:
        self._syscall(proc, "msgsnd")
        self.kernel.clock.message()
        self.kernel.clock.copy(len(data))  # user -> kernel copy
        queue = self.kernel.queues.get(key)
        ok = queue.send(proc, data, blocking)
        if ok:
            sanitizer = self.kernel.sanitizer
            if sanitizer is not None:
                sanitizer.msg_sent(self.kernel, proc, key)
            if queue.readers:
                self.kernel.wake(queue.readers.pop(0))
        return ok

    def msgrcv(self, proc: Process, key: int,
               blocking: bool = True) -> Optional[bytes]:
        self._syscall(proc, "msgrcv")
        queue = self.kernel.queues.get(key)
        data = queue.receive(proc, blocking)
        if data is not None:
            sanitizer = self.kernel.sanitizer
            if sanitizer is not None:
                sanitizer.msg_received(self.kernel, proc, key)
            self.kernel.clock.copy(len(data))  # kernel -> user copy
            if queue.writers:
                self.kernel.wake(queue.writers.pop(0))
        return data

    # ------------------------------------------------------------------
    # machine ABI dispatch
    # ------------------------------------------------------------------

    def dispatch_machine(self, proc: Process) -> None:
        """Service the syscall a machine process just trapped with.

        On return the PC has been advanced past the ``syscall``
        instruction. A :class:`WouldBlock` escape leaves the PC in place
        so the instruction retries on wake-up.
        """
        cpu = proc.cpu
        assert cpu is not None
        number = cpu.regs[isa.REG_V0]
        a0, a1 = cpu.regs[isa.REG_A0], cpu.regs[isa.REG_A1]
        a2, a3 = cpu.regs[isa.REG_A2], cpu.regs[isa.REG_A3]
        space = proc.address_space
        if number == SYS_PLT_RESOLVE:
            # Jump-table lazy linking: patch the PLT entry containing
            # the trapping PC and restart execution at its base.
            self._syscall(proc, "plt_resolve")
            runtime = proc.runtime
            assert runtime is not None, "PLT trap without a runtime"
            cpu.pc = runtime.plt_resolve(cpu.pc)  # type: ignore[attr-defined]
            return
        try:
            result = self._machine_call(proc, number, a0, a1, a2, a3)
        except WouldBlock:
            raise
        except SyscallError as error:
            self.kernel.note_contained(error)
            cpu.set_reg(isa.REG_V0, 0xFFFFFFFF)
            cpu.set_reg(isa.REG_V1, _ERRNO_CODES.get(error.errno, 22))
            cpu.pc += 4
            return
        except FilesystemError as error:
            self.kernel.note_contained(error)
            cpu.set_reg(isa.REG_V0, 0xFFFFFFFF)
            cpu.set_reg(isa.REG_V1, _errno_of(error))
            cpu.pc += 4
            return
        if proc.alive:
            cpu.set_reg(isa.REG_V0, result & 0xFFFFFFFF)
            cpu.set_reg(isa.REG_V1, 0)
            cpu.pc += 4
        _ = space  # space used by helpers via proc

    def _machine_call(self, proc: Process, number: int, a0: int, a1: int,
                      a2: int, a3: int) -> int:
        space = proc.address_space
        if number == SYS_EXIT:
            self.exit(proc, a0)
            return 0
        if number == SYS_WRITE:
            data = space.read_bytes(a1, a2, force=True)
            return self.write(proc, a0, data)
        if number == SYS_READ:
            data = self.read(proc, a0, a2)
            space.write_bytes(a1, data, force=True)
            return len(data)
        if number == SYS_OPEN:
            path = space.read_cstring(a0, force=True)
            return self.open(proc, path, a1, a2 or 0o644)
        if number == SYS_CLOSE:
            self.close(proc, a0)
            return 0
        if number == SYS_FORK:
            child = self.fork(proc)
            return child.pid
        if number == SYS_GETPID:
            return self.getpid(proc)
        if number == SYS_SBRK:
            return self.sbrk(proc, _signed(a0))
        if number == SYS_WAIT:
            pid, status = self.wait(proc)
            # Status is reported through memory if a0 is non-zero.
            if a0:
                space.store_word(a0, status & 0xFFFFFFFF, force=True)
            return pid
        if number == SYS_MMAP:
            fd = None if a3 == 0xFFFFFFFF else a3
            return self.mmap(proc, a0 or None, a1, a2 & 0x7,
                             MAP_SHARED if a2 & 0x8 else 0x2, fd)
        if number == SYS_MUNMAP:
            self.munmap(proc, a0, a1)
            return 0
        if number == SYS_MPROTECT:
            self.mprotect(proc, a0, a1, a2)
            return 0
        if number == SYS_SIGNAL:
            proc.machine_sig_handler = a0  # type: ignore[attr-defined]
            return 0
        if number == SYS_PUTINT:
            proc.stdout.extend(str(_signed(a0)).encode())
            proc.stdout.extend(b"\n")
            return 0
        if number == SYS_ADDR_TO_PATH:
            path, _offset = self.addr_to_path(proc, a0)
            encoded = path.encode("latin-1")[: max(a2 - 1, 0)]
            space.write_bytes(a1, encoded + b"\x00", force=True)
            return len(encoded)
        if number == SYS_OPEN_BY_ADDR:
            return self.open_by_address(proc, a0, a1)
        if number == SYS_FLOCK:
            return 1 if self.flock(proc, a0, a1) else 0
        if number == SYS_MSGGET:
            return self.msgget(proc, a0)
        if number == SYS_MSGSND:
            data = space.read_bytes(a1, a2, force=True)
            self.msgsnd(proc, a0, data)
            return len(data)
        if number == SYS_MSGRCV:
            data = self.msgrcv(proc, a0)
            assert data is not None
            data = data[:a2]
            space.write_bytes(a1, data, force=True)
            return len(data)
        if number == SYS_SEMGET:
            return self.semget(proc, a0, a1)
        if number == SYS_SEMP:
            self.sem_p(proc, a0)
            return 0
        if number == SYS_SEMV:
            self.sem_v(proc, a0)
            return 0
        if number == SYS_GETENV:
            name = space.read_cstring(a0, force=True)
            value = proc.getenv(name).encode("latin-1")[: max(a2 - 1, 0)]
            space.write_bytes(a1, value + b"\x00", force=True)
            return len(value)
        if number == SYS_UNLINK:
            self.unlink(proc, space.read_cstring(a0, force=True))
            return 0
        if number == SYS_SYMLINK:
            self.symlink(proc, space.read_cstring(a0, force=True),
                         space.read_cstring(a1, force=True))
            return 0
        if number == SYS_MKDIR:
            self.mkdir(proc, space.read_cstring(a0, force=True))
            return 0
        if number == SYS_STAT:
            info = self.stat(proc, space.read_cstring(a0, force=True))
            space.store_word(a1, info.st_ino, force=True)
            space.store_word(a1 + 4, info.st_size, force=True)
            space.store_word(a1 + 8, info.st_mode, force=True)
            return 0
        raise SyscallError("EINVAL", f"unknown syscall {number}")


def _signed(value: int) -> int:
    return value - 0x100000000 if value >= 0x80000000 else value


def _errno_of(error: FilesystemError) -> int:
    from repro import errors

    table = {
        errors.FileNotFoundSimError: 2,
        errors.FileExistsSimError: 17,
        errors.NotADirectorySimError: 20,
        errors.IsADirectorySimError: 21,
        errors.PermissionSimError: 13,
        errors.BusySimError: 16,
        errors.FileLimitError: 27,
    }
    return table.get(type(error), 5)
