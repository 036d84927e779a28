"""The public boot()/System facade and remaining process plumbing."""

import pytest

from repro import SharingClass, StructDef, boot
from repro.bench.workloads import make_shell
from repro.sfs.sfs64 import SharedFilesystem64
from repro.sfs.sharedfs import SharedFilesystem


class TestBoot:
    def test_default_configuration(self):
        system = boot()
        assert isinstance(system.kernel.sfs, SharedFilesystem)
        assert system.vfs is system.kernel.vfs
        assert system.sfs is system.kernel.sfs
        assert system.clock is system.kernel.clock
        assert system.kernel.on_exec is not None

    def test_wide_addresses(self):
        system = boot(wide_addresses=True)
        assert isinstance(system.kernel.sfs, SharedFilesystem64)
        assert system.kernel.is_public_address(1 << 33)
        assert not system.kernel.is_public_address(0x4000_0000)

    def test_narrow_addresses(self):
        system = boot()
        assert system.kernel.is_public_address(0x4000_0000)
        assert not system.kernel.is_public_address(1 << 33)

    def test_machines_are_isolated(self):
        a = boot()
        b = boot()
        a.kernel.vfs.write_whole("/only-in-a", b"x")
        assert not b.kernel.vfs.exists("/only-in-a")

    def test_public_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
        assert SharingClass.DYNAMIC_PUBLIC  # re-exported and usable
        assert StructDef("t", [("a", "u32")]).size == 4


class TestProcessPlumbing:
    def test_fd_shared_offset_after_fork(self, kernel):
        """Parent and child share the open file description (offset)."""
        from repro.hw.asm import assemble
        from repro.linker.baseline_ld import link_static

        source = """
            .text
            .globl main
        main:
            la a0, path
            li a1, 0x41        # O_WRONLY|O_CREAT
            li a2, 0x1A4
            li v0, 4
            syscall
            move s0, v0
            li v0, 6           # fork
            syscall
            move s1, v0
            # both write 2 bytes through the SHARED description
            move a0, s0
            la a1, chunk
            li a2, 2
            li v0, 2
            syscall
            li v0, 1
            move a0, s1
            syscall
            .data
        path: .asciiz "/log"
        chunk: .asciiz "ab"
        """
        image = link_static([assemble(source, "m.o")])
        kernel.create_machine_process("p", image)
        kernel.schedule()
        # Two writes through one description: 4 bytes, not overlapping.
        assert kernel.vfs.stat("/log").st_size == 4

    def test_environment_inherited_by_fork(self, kernel):
        from repro.hw.asm import assemble
        from repro.linker.baseline_ld import link_static

        source = """
            .text
            .globl main
        main:
            li v0, 6
            syscall
            bnez v0, parent
            la a0, name
            la a1, buf
            li a2, 8
            li v0, 30          # getenv
            syscall
            la t0, buf
            lbu a0, 0(t0)
            li v0, 1
            syscall
        parent:
            li a0, 0
            li v0, 1
            syscall
            .data
        name: .asciiz "FLAVOR"
            .bss
        buf: .space 8
        """
        image = link_static([assemble(source, "m.o")])
        parent = kernel.create_machine_process("p", image,
                                               env={"FLAVOR": "X"})
        kernel.schedule()
        child = [p for p in kernel.processes.values()
                 if p.ppid == parent.pid][0]
        assert child.exit_code == ord("X")

    def test_metrics_dump(self, kernel):
        make_shell(kernel)
        metrics = kernel.metrics()
        assert metrics["kernel.processes"] == 1
        assert metrics["kernel.cycles"] == kernel.clock.cycles

    def test_runnable_excludes_zombies(self, kernel):
        proc = make_shell(kernel)
        assert proc in kernel.runnable()
        kernel.run_until_exit(proc)
        assert proc not in kernel.runnable()
