"""Synchronization (file locks, semaphores) and IPC (message queues)."""

import pytest

from repro.errors import SyscallError
from repro.fs.vfs import O_CREAT, O_RDONLY
from repro.hw.asm import assemble
from repro.kernel.ipc import MessageQueue
from repro.kernel.process import ProcessState
from repro.kernel.sync import Semaphore, WouldBlock
from repro.kernel.syscalls import FLOCK_EX, FLOCK_TRY, FLOCK_UN
from repro.linker.baseline_ld import link_static


class TestFileLocks:
    def test_acquire_release(self, kernel, shell):
        sys = kernel.syscalls
        fd = sys.open(shell, "/lockfile", O_RDONLY | O_CREAT)
        assert sys.flock(shell, fd, FLOCK_EX)
        assert sys.flock(shell, fd, FLOCK_UN)

    def test_reentrant_for_owner(self, kernel, shell):
        sys = kernel.syscalls
        fd = sys.open(shell, "/lockfile", O_RDONLY | O_CREAT)
        assert sys.flock(shell, fd, FLOCK_EX)
        assert sys.flock(shell, fd, FLOCK_EX)  # same pid, no deadlock

    def test_trylock_contention(self, kernel, shell):
        sys = kernel.syscalls
        other = kernel.create_native_process("other", _noop_body)
        fd1 = sys.open(shell, "/lockfile", O_RDONLY | O_CREAT)
        fd2 = sys.open(other, "/lockfile", O_RDONLY)
        assert sys.flock(shell, fd1, FLOCK_EX)
        assert not sys.flock(other, fd2, FLOCK_TRY)
        sys.flock(shell, fd1, FLOCK_UN)
        assert sys.flock(other, fd2, FLOCK_TRY)

    def test_unlock_not_owner_rejected(self, kernel, shell):
        sys = kernel.syscalls
        other = kernel.create_native_process("other", _noop_body)
        fd1 = sys.open(shell, "/lockfile", O_RDONLY | O_CREAT)
        fd2 = sys.open(other, "/lockfile", O_RDONLY)
        sys.flock(shell, fd1, FLOCK_EX)
        with pytest.raises(SyscallError):
            sys.flock(other, fd2, FLOCK_UN)

    def test_blocking_handoff_wakes_waiter(self, kernel, shell):
        sys = kernel.syscalls
        other = kernel.create_native_process("other", _noop_body)
        fd1 = sys.open(shell, "/lockfile", O_RDONLY | O_CREAT)
        fd2 = sys.open(other, "/lockfile", O_RDONLY)
        sys.flock(shell, fd1, FLOCK_EX)
        with pytest.raises(WouldBlock):
            kernel.locks.acquire(other, shell.fds[fd1].inode,
                                 blocking=True)
        other.state = ProcessState.BLOCKED
        sys.flock(shell, fd1, FLOCK_UN)
        assert other.state is ProcessState.READY  # woken
        # Ownership was handed over directly.
        assert sys.flock(other, fd2, FLOCK_EX)


class TestSemaphores:
    def test_counting(self, kernel, shell):
        sem = Semaphore(1, value=2)
        assert sem.try_p(shell)
        assert sem.try_p(shell)
        assert not sem.try_p(shell)
        sem.v()
        assert sem.try_p(shell)

    def test_handoff_grants_to_woken(self, kernel, shell):
        other = kernel.create_native_process("other", _noop_body)
        sem = Semaphore(1, value=0)
        with pytest.raises(WouldBlock):
            sem.p(other)
        woken = sem.v()
        assert woken is other
        # The granted count belongs to `other`, not to anyone else.
        assert not sem.try_p(shell)
        assert sem.try_p(other)

    def test_negative_initial_rejected(self):
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            Semaphore(1, value=-1)

    def test_machine_processes_synchronize(self, kernel):
        """Two machine processes increment a private counter under a
        semaphore; the total must be exact despite preemption."""
        source = """
            .text
            .globl main
        main:
            li a0, 7
            li a1, 1
            li v0, 26          # sem_get(7, 1)
            syscall
            li s0, 200         # iterations
        loop:
            li a0, 7
            li v0, 27          # sem_p
            syscall
            lw t0, counter
            addi t0, t0, 1
            sw t0, counter
            li a0, 7
            li v0, 28          # sem_v
            syscall
            addi s0, s0, -1
            bgtz s0, loop
            lw v0, counter
            jr ra
            .data
            .globl counter
        counter: .word 0
        """
        image = link_static([assemble(source, "m.o")])
        # Use a tiny quantum to force preemption inside critical regions.
        kernel.quantum = 7
        a = kernel.create_machine_process("a", image)
        b = kernel.create_machine_process("b", image)
        kernel.schedule()
        assert a.death_reason is None and b.death_reason is None
        # Private data: each process has its own counter copy, but the
        # semaphore is system-wide; both complete all 200 iterations.
        assert a.exit_code == 200
        assert b.exit_code == 200


class TestMessageQueues:
    def test_fifo_order(self, kernel, shell):
        sys = kernel.syscalls
        qid = sys.msgget(shell, 5)
        sys.msgsnd(shell, qid, b"one")
        sys.msgsnd(shell, qid, b"two")
        assert sys.msgrcv(shell, qid) == b"one"
        assert sys.msgrcv(shell, qid) == b"two"

    def test_empty_receive_blocks(self, kernel, shell):
        queue = MessageQueue(1)
        with pytest.raises(WouldBlock):
            queue.receive(shell, blocking=True)
        assert queue.receive(shell, blocking=False) is None

    def test_full_send_blocks(self, kernel, shell):
        queue = MessageQueue(1)
        big = b"x" * (64 * 1024)
        queue.send(shell, big, blocking=False)
        assert not queue.send(shell, b"y", blocking=False)
        with pytest.raises(WouldBlock):
            queue.send(shell, b"y", blocking=True)

    def test_send_wakes_reader(self, kernel, shell):
        sys = kernel.syscalls
        reader = kernel.create_native_process("r", _noop_body)
        qid = sys.msgget(shell, 5)
        queue = kernel.queues.get(5)
        with pytest.raises(WouldBlock):
            queue.receive(reader, blocking=True)
        reader.state = ProcessState.BLOCKED
        sys.msgsnd(shell, qid, b"ping")
        assert reader.state is ProcessState.READY

    def test_message_costs_charged(self, kernel, shell):
        sys = kernel.syscalls
        qid = sys.msgget(shell, 5)
        before = kernel.clock.by_category.get("messages", 0)
        sys.msgsnd(shell, qid, b"x" * 100)
        assert kernel.clock.by_category["messages"] > before
        assert kernel.clock.by_category.get("copies", 0) >= 25

    def test_machine_producer_consumer(self, kernel):
        producer_src = """
            .text
            .globl main
        main:
            li a0, 9
            li v0, 23          # msgget(9)
            syscall
            li a0, 9
            la a1, msg
            li a2, 4
            li v0, 24          # msgsnd
            syscall
            li v0, 0
            jr ra
            .data
        msg: .asciiz "ping"
        """
        consumer_src = """
            .text
            .globl main
        main:
            li a0, 9
            li v0, 23
            syscall
            li a0, 9
            la a1, buf
            li a2, 16
            li v0, 25          # msgrcv (blocks until producer sends)
            syscall
            la t0, buf
            lbu v0, 0(t0)
            jr ra
            .bss
        buf: .space 16
        """
        consumer = kernel.create_machine_process(
            "c", link_static([assemble(consumer_src, "c.o")])
        )
        kernel.create_machine_process(
            "p", link_static([assemble(producer_src, "p.o")])
        )
        kernel.schedule()
        assert consumer.exit_code == ord("p")


class TestExitReleasesFlocks:
    """A process that exits holding a flock releases it, exactly as
    FLOCK_UN would: the next waiter inherits it, or it is freed."""

    @pytest.mark.parametrize("ending", ["return", "exit", "error"])
    def test_trylock_waiter_acquires_after_holder_ends(self, kernel,
                                                       ending):
        def holder(kern, proc):
            sys = kern.syscalls
            fd = sys.open(proc, "/lockfile", O_RDONLY | O_CREAT)
            assert sys.flock(proc, fd, FLOCK_EX)
            yield
            if ending == "exit":
                sys.exit(proc, 0)
            elif ending == "error":
                sys.close(proc, 99)          # EBADF kills the process

        held = kernel.create_native_process("holder", holder)
        waiter = kernel.create_native_process("waiter", _trylock_body)
        kernel.schedule()
        if ending == "error":
            assert "EBADF" in held.death_reason
        else:
            assert held.death_reason is None
        assert waiter.native.result is not None   # acquired
        assert waiter.native.result >= 1          # after a refusal
        assert kernel.locks.held_by(held) == []

    def test_queued_waiter_inherits_the_lock(self, kernel, shell):
        sys = kernel.syscalls
        holder = kernel.create_native_process("holder", _noop_body)
        waiter = kernel.create_native_process("waiter", _noop_body)
        fd1 = sys.open(holder, "/lockfile", O_RDONLY | O_CREAT)
        fd2 = sys.open(waiter, "/lockfile", O_RDONLY)
        fd3 = sys.open(shell, "/lockfile", O_RDONLY)
        inode = holder.fds[fd1].inode
        assert sys.flock(holder, fd1, FLOCK_EX)
        with pytest.raises(WouldBlock):
            kernel.locks.acquire(waiter, inode, blocking=True)
        waiter.state = ProcessState.BLOCKED
        kernel.terminate(holder, 0)
        assert waiter.state is ProcessState.READY   # woken
        assert inode.lock_owner == waiter.pid
        assert not sys.flock(shell, fd3, FLOCK_TRY)
        assert sys.flock(waiter, fd2, FLOCK_EX)
        assert kernel.locks.held_by(waiter) == [inode]

    def test_new_owner_inherits_happens_before(self):
        """Writes under the lock by a holder that dies holding it and
        then by the next owner report no race. The owner's last write
        comes after its own FLOCK_UN, so no common lock covers it and
        only the exit's release edge orders it after the holder's."""
        from repro import boot
        from repro.runtime.libshared import runtime_for
        from repro.runtime.views import Mem
        from repro.sanitize import sanitizing

        def holder(kern, proc):
            base = runtime_for(kern, proc).create_segment(
                "/shared/exit.seg", 4096)
            fd = kern.syscalls.open(proc, "/lockfile", O_RDONLY | O_CREAT)
            yield
            kern.syscalls.flock(proc, fd, FLOCK_EX)
            Mem(kern, proc).store_u32(base + 16, 1)

        def successor(kern, proc):
            base = runtime_for(kern, proc).create_segment(
                "/shared/exit.seg", 4096, exclusive=False)
            yield
            fd = kern.syscalls.open(proc, "/lockfile", O_RDONLY)
            acquired = yield from _trylock_body(kern, proc)
            assert acquired is not None
            mem = Mem(kern, proc)
            mem.store_u32(base + 20, mem.load_u32(base + 16) + 1)
            kern.syscalls.flock(proc, fd, FLOCK_UN)
            mem.store_u32(base + 16, 3)
            return acquired

        with sanitizing() as sanitizer:
            kernel = boot().kernel
            kernel.create_native_process("holder", holder)
            second = kernel.create_native_process("successor", successor)
            kernel.schedule()
        assert second.death_reason is None
        assert second.native.result is not None
        assert sanitizer.stats.accesses >= 3
        assert sanitizer.report.clean, sanitizer.report.render()


def _trylock_body(kern, proc):
    """FLOCK_TRY /lockfile once per slice, 20 times at most; the failed
    tries before it succeeded, or None if it never did."""
    fd = kern.syscalls.open(proc, "/lockfile", O_RDONLY | O_CREAT)
    for attempt in range(20):
        if kern.syscalls.flock(proc, fd, FLOCK_TRY):
            return attempt
        yield
    return None


def _noop_body(_kernel, _proc):
    return
    yield  # pragma: no cover
