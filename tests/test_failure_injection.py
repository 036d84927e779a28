"""Failure injection: corrupted files, races, and abuse must be
contained — processes may die, the kernel may not.

Transfer-time damage (corrupt reads, short reads, I/O errors, failing
or vanishing module lookups) is driven through the :mod:`repro.inject`
planes, parametrized over plane x fault kind x sharing class. Blob
surgery survives only where no plane exists: damage to bytes *at rest*
(a truncated file on the volume).
"""

import pytest

from repro.errors import (
    InjectedFaultError,
    ObjectFormatError,
    SimulationError,
)
from repro.hw.asm import assemble
from repro.inject import (
    FaultKind,
    FaultPlan,
    Plane,
    install_injector,
    remove_injector,
)
from repro.linker.classes import SharingClass
from repro.linker.lds import LinkRequest, store_object
from repro.linker.segments import read_segment_meta
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem
from repro.toyc import compile_source


def put_c(kernel, shell, path, source):
    store_object(kernel, shell, path,
                 compile_source(source, path.rsplit("/", 1)[-1]))


def build_module_exe(system, shell, sharing):
    """main uses `cell` from module m, loaded with *sharing* class."""
    kernel = system.kernel
    kernel.vfs.makedirs("/shared/lib")
    put_c(kernel, shell, "/shared/lib/m.o", "int cell = 1;")
    put_c(kernel, shell, "/main.o",
          "extern int cell;\nint main() { return cell; }")
    return system.lds.link(
        shell,
        [LinkRequest("/main.o"), LinkRequest("m.o", sharing)],
        output="/bin", search_dirs=["/shared/lib"],
    ).executable


#: plane x fault kind (with the site each kind hits).
FAULT_MATRIX = [
    pytest.param(Plane.IO, FaultKind.CORRUPT, "read",
                 id="io-corrupt"),
    pytest.param(Plane.IO, FaultKind.SHORT_READ, "read",
                 id="io-short-read"),
    pytest.param(Plane.IO, FaultKind.ERROR, "read",
                 id="io-error"),
    pytest.param(Plane.LINKER, FaultKind.ERROR, "*",
                 id="linker-error"),
    pytest.param(Plane.LINKER, FaultKind.MISSING, "*",
                 id="linker-missing"),
]

SHARING_CLASSES = [
    pytest.param(SharingClass.DYNAMIC_PUBLIC, id="dynamic-public"),
    pytest.param(SharingClass.DYNAMIC_PRIVATE, id="dynamic-private"),
]


class TestInjectedCorruptionMatrix:
    """The corrupt-segment matrix, driven through the planes."""

    @pytest.mark.parametrize("plane,kind,site", FAULT_MATRIX)
    @pytest.mark.parametrize("sharing", SHARING_CLASSES)
    def test_fault_is_contained(self, system, shell, plane, kind, site,
                                sharing):
        kernel = system.kernel
        exe = build_module_exe(system, shell, sharing)
        plan = FaultPlan(plane, kind, match="/shared/lib/*", site=site)
        injector = install_injector(kernel, [plan], seed=11)

        # The victim may die at exec (typed error) or at run time
        # (SIGSEGV) — both are containment; a host-level crash is not.
        try:
            proc = kernel.create_machine_process("victim", exe)
            kernel.run_until_exit(proc)
            assert not proc.alive
        except SimulationError:
            pass

        assert injector.stats.triggered >= 1, \
            f"the {plane.value}:{kind.value} plane never fired"
        assert kernel.metrics()["inject.triggered"] \
            == injector.stats.triggered
        remove_injector(kernel)

        # The kernel survived: a clean successor works end-to-end.
        # (Drop any module instance the faulting run may have created
        # from damaged template bytes; the template at rest is intact.)
        try:
            kernel.syscalls.unlink(shell, "/shared/lib/m")
        except SimulationError:
            pass
        clean = kernel.create_machine_process("clean", exe)
        kernel.run_until_exit(clean)
        assert clean.exit_code == 1

    def test_corrupt_metadata_read_rejected(self, system, shell):
        """Transfer-time damage to a mapped module's metadata surfaces
        as a typed parse error (the plane-driven replacement for the
        old trash-the-blob surgery)."""
        kernel = system.kernel
        exe = build_module_exe(system, shell,
                               SharingClass.DYNAMIC_PUBLIC)
        p0 = kernel.create_machine_process("p0", exe)
        kernel.run_until_exit(p0)
        install_injector(
            kernel,
            [FaultPlan(Plane.IO, FaultKind.CORRUPT,
                       match="/shared/lib/m", site="read")],
            seed=2,
        )
        with pytest.raises(SimulationError):
            read_segment_meta(kernel, shell, "/shared/lib/m")

    def test_short_template_read_fails_cleanly(self, system, shell):
        """A short read of a template is a malformed object, not a
        crash — the plane-driven truncation case."""
        kernel = system.kernel
        kernel.vfs.makedirs("/shared/lib")
        put_c(kernel, shell, "/shared/lib/t.o", "int x = 3;")
        put_c(kernel, shell, "/main.o", "int main() { return 0; }")
        install_injector(
            kernel,
            [FaultPlan(Plane.IO, FaultKind.SHORT_READ,
                       match="/shared/lib/t.o", site="read")],
            seed=4,
        )
        with pytest.raises((ObjectFormatError, InjectedFaultError)):
            system.lds.link(
                shell,
                [LinkRequest("/main.o"),
                 LinkRequest("t.o", SharingClass.STATIC_PUBLIC)],
                output="/bin", search_dirs=["/shared/lib"],
            )
        remove_injector(kernel)


#: DISK-plane fault kinds driven against the durable store's write path.
DISK_FAULTS = [
    pytest.param(FaultKind.TORN_WRITE, id="disk-torn-write"),
    pytest.param(FaultKind.DROP, id="disk-drop"),
    pytest.param(FaultKind.CORRUPT, id="disk-corrupt-write"),
    pytest.param(FaultKind.CRASH, id="disk-crash-write"),
]


class TestDiskPlaneContainment:
    """Faults against the durable block store: the machine may lose
    data (that is the experiment), but damage must surface as typed
    errors or stable fsck findings — never a host-level crash."""

    def _durable_workload(self, system):
        for index in range(12):
            system.vfs.write_whole(f"/shared/seg{index}",
                                   bytes([index]) * 96)
        system.vfs.mkdir("/shared/dir")
        system.vfs.rename("/shared/seg0", "/shared/dir/moved")

    @pytest.mark.parametrize("kind", DISK_FAULTS)
    def test_write_fault_is_contained(self, kind):
        import repro
        from repro.disk import BlockDevice, fsck

        device = BlockDevice(nblocks=2048, seed=21)
        system = repro.boot(disk=device)
        kernel = system.kernel
        plan = FaultPlan(Plane.DISK, kind, site="block-write",
                         probability=0.05, max_faults=3)
        injector = install_injector(kernel, [plan], seed=33)
        try:
            self._durable_workload(system)
        except SimulationError:
            pass  # typed channel: contained
        assert injector.stats.triggered >= 1, \
            f"the disk:{kind.value} plane never fired"
        remove_injector(kernel)
        if not device.crashed:
            kernel.shutdown()
        # The surviving image is inspectable and remountable — or
        # refuses the mount through the typed DiskFormatError channel.
        survivor = device.reopen()
        fsck(survivor)  # must not raise
        try:
            again = repro.boot(disk=survivor.reopen())
            assert again.kernel.metrics()["kernel.cycles"] \
                == again.kernel.clock.cycles
        except SimulationError:
            pass  # damaged beyond mounting: still the typed channel

    def test_read_bit_rot_during_recovery_is_contained(self):
        import repro
        from repro.disk import BlockDevice
        from repro.inject import injecting

        device = BlockDevice(nblocks=2048, seed=22)
        system = repro.boot(disk=device)
        self._durable_workload(system)
        system.kernel.crash()

        survivor = device.reopen()
        with injecting(
                [FaultPlan(Plane.DISK, FaultKind.CORRUPT,
                           site="block-read", probability=0.1,
                           max_faults=5)], seed=7):
            try:
                recovered = repro.boot(disk=survivor)
                assert recovered.kernel.metrics()["kernel.cycles"] \
                    == recovered.kernel.clock.cycles
            except SimulationError:
                pass  # rot in a structural block: typed refusal

    def test_certain_read_bit_rot_during_recovery_is_typed(self):
        """Every block read from the first corrupted one on (*after*
        reads pass clean, so the rot reaches the superblocks, the
        checkpoint or the journal): each boot recovers or refuses the
        image through a SimulationError subclass."""
        import repro
        from repro.disk import BlockDevice
        from repro.inject import injecting

        device = BlockDevice(nblocks=2048, seed=22)
        system = repro.boot(disk=device)
        self._durable_workload(system)
        system.kernel.crash()
        survivor = device.reopen()
        outcomes = set()
        for seed in range(10):
            for after in range(0, 140, 7):
                with injecting(
                        [FaultPlan(Plane.DISK, FaultKind.CORRUPT,
                                   site="block-read", probability=1.0,
                                   after=after)], seed=seed):
                    try:
                        repro.boot(disk=survivor.reopen())
                        outcomes.add("booted")
                    except SimulationError as error:
                        outcomes.add(type(error).__name__)
        assert outcomes == {"booted", "RecoveryError"}


class TestAtRestCorruption:
    """Damage to bytes already on the volume — no transfer happens, so
    no plane exists; surgery on the stored blob stays the right tool."""

    def test_truncated_trailer(self, system, shell):
        exe = build_module_exe(system, shell,
                               SharingClass.DYNAMIC_PUBLIC)
        kernel = system.kernel
        # Create the module, then chop its tail off.
        p0 = kernel.create_machine_process("p0", exe)
        kernel.run_until_exit(p0)
        blob = kernel.vfs.read_whole("/shared/lib/m")
        kernel.vfs.write_whole("/shared/lib/m", blob[:-8])
        with pytest.raises(ObjectFormatError):
            read_segment_meta(kernel, shell, "/shared/lib/m")
        # A new process exec fails cleanly (the module is unusable) but
        # the kernel survives.
        with pytest.raises(SimulationError):
            kernel.create_machine_process("p1", exe)
        assert kernel.metrics()["kernel.processes"] \
            == len(kernel.processes)


class TestUnlinkWhileMapped:
    def test_mapped_pages_survive_unlink(self, kernel, shell):
        """Unix semantics: an unlinked-but-mapped segment's pages stay
        valid for the mapper; the address slot is recycled only after
        the mapping notion is process-local anyway."""
        runtime = runtime_for(kernel, shell)
        base = runtime.create_segment("/shared/doomed", 4096)
        mem = Mem(kernel, shell)
        mem.store_u32(base, 77)          # maps it
        kernel.syscalls.unlink(shell, "/shared/doomed")
        # The mapping still reads the old page.
        assert mem.load_u32(base) == 77
        # The address no longer translates for *new* processes.
        assert kernel.sfs.inode_of_address(base) is None

    def test_new_segment_reuses_address_cleanly(self, kernel, shell):
        runtime = runtime_for(kernel, shell)
        base = runtime.create_segment("/shared/first", 4096)
        mem = Mem(kernel, shell)
        mem.store_u32(base, 1)
        runtime.delete_segment("/shared/first")   # unmaps + unlinks
        base2 = runtime.create_segment("/shared/second", 4096)
        assert base2 == base                      # slot reused
        assert mem.load_u32(base2) == 0           # fresh zero pages


class TestRuntimeRobustness:
    def test_module_vanishes_before_use(self, system, shell):
        """lds warned about a missing dynamic module; running the
        program faults at use and dies — not the kernel."""
        kernel = system.kernel
        put_c(kernel, shell, "/main.o", """
            extern int ghost_fn();
            int main() { return ghost_fn(); }
        """)
        result = system.lds.link(
            shell,
            [LinkRequest("/main.o"),
             LinkRequest("ghost.o", SharingClass.DYNAMIC_PUBLIC)],
            output="/bin",
        )
        assert result.warnings
        proc = kernel.create_machine_process("p", result.executable)
        kernel.run_until_exit(proc)
        assert proc.exit_code == -1
        assert "SIGSEGV" in proc.death_reason

    def test_injected_missing_module_matches_vanished(self, system,
                                                      shell):
        """The linker plane's MISSING kind reproduces the vanished
        module scenario without deleting anything: same death, same
        containment."""
        kernel = system.kernel
        exe = build_module_exe(system, shell,
                               SharingClass.DYNAMIC_PUBLIC)
        injector = install_injector(
            kernel,
            [FaultPlan(Plane.LINKER, FaultKind.MISSING,
                       site="create_public")],
            seed=6,
        )
        proc = kernel.create_machine_process("p", exe)
        kernel.run_until_exit(proc)
        assert proc.exit_code == -1
        assert "SIGSEGV" in proc.death_reason
        assert injector.stats.triggered >= 1

    def test_stack_overflow_dies_cleanly(self, system, shell):
        kernel = system.kernel
        put_c(kernel, shell, "/main.o", """
            int recurse(int n) { return recurse(n + 1); }
            int main() { return recurse(0); }
        """)
        exe = system.lds.link(shell, [LinkRequest("/main.o")],
                              output="/bin").executable
        proc = kernel.create_machine_process("p", exe)
        kernel.run_until_exit(proc)
        assert proc.exit_code == -1
        assert "SIGSEGV" in proc.death_reason

    def test_wild_jump_dies_cleanly(self, kernel):
        from repro.linker.baseline_ld import link_static

        source = """
            .text
            .globl main
        main:
            li t0, 0x00F00000
            jr t0
        """
        image = link_static([assemble(source, "m.o")])
        proc = kernel.create_machine_process("p", image)
        kernel.run_until_exit(proc)
        assert "SIGSEGV" in proc.death_reason

    def test_heap_corruption_detected(self, kernel, shell):
        from repro.runtime.shmalloc import SegmentHeap, SegmentHeapError

        runtime = runtime_for(kernel, shell)
        base = runtime.create_segment("/shared/heapseg", 8192)
        mem = Mem(kernel, shell)
        heap = SegmentHeap(mem, base, 8192)
        heap.initialize()
        block = heap.alloc(64)
        # A buggy client scribbles over the heap header.
        mem.store_u32(base, 0x41414141)
        with pytest.raises(SegmentHeapError):
            heap.alloc(8)
        with pytest.raises(SegmentHeapError):
            heap.free(block)

    def test_fault_in_handler_does_not_wedge_kernel(self, kernel, shell):
        """A broken program-provided handler raising is contained."""
        runtime = runtime_for(kernel, shell)

        def broken_handler(_proc, _info):
            raise ValueError("user bug")

        runtime.signal(broken_handler)
        mem = Mem(kernel, shell)
        with pytest.raises(ValueError):
            mem.load_u32(0x6F000000)
        # The kernel is still functional afterwards.
        runtime.create_segment("/shared/after", 4096)
        assert kernel.vfs.exists("/shared/after")


class TestCorruptReadsAreTyped:
    """With the IO plane corrupting every read, the linker's module
    readers return or raise a SimulationError subclass; a raw
    struct.error, UnicodeDecodeError or IndexError never escapes."""

    def test_every_reader_under_certain_corruption(self, system, shell):
        from repro.linker.lds import load_template
        from repro.linker.scoped import peek_exports

        kernel = system.kernel
        exe = build_module_exe(system, shell,
                               SharingClass.DYNAMIC_PUBLIC)
        p0 = kernel.create_machine_process("p0", exe)
        kernel.run_until_exit(p0)
        assert kernel.vfs.exists("/shared/lib/m")
        readers = [
            lambda: peek_exports(kernel, shell, "/shared/lib/m.o"),
            lambda: peek_exports(kernel, shell, "/shared/lib/m"),
            lambda: read_segment_meta(kernel, shell, "/shared/lib/m"),
            lambda: load_template(kernel, shell, "/shared/lib/m.o"),
        ]
        refused = 0
        for seed in range(40):
            install_injector(
                kernel,
                [FaultPlan(Plane.IO, FaultKind.CORRUPT, site="read",
                           probability=1.0)],
                seed=seed,
            )
            for read in readers:
                try:
                    read()
                except SimulationError:
                    refused += 1
            remove_injector(kernel)
        assert refused > 0
