"""repro.inject: the fault planes themselves.

Covers the determinism contract (same seed + plans => bit-identical
INJECT stream across independent boots), typed surfacing of injected
faults, kernel containment accounting, ldl's retry/backoff hardening,
and Hypothesis properties: the SFS address-map invariants survive any
prefix of injected I/O faults.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import boot
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.errors import (
    FileLimitError,
    FilesystemError,
    InjectedDiskFullError,
    InjectedFaultError,
    InjectedIOError,
    InjectedSyscallError,
    SimulationError,
    SyscallError,
)
from repro.fs.vfs import O_CREAT, O_RDONLY, O_WRONLY
from repro.inject import (
    FaultKind,
    FaultPlan,
    Plane,
    install_injector,
    remove_injector,
)
from repro.sfs.addrmap import BTreeAddressMap
from repro.trace.tracer import tracing

WIDTH = 6

CHAOS_PLANS = (
    FaultPlan(Plane.SYSCALL, FaultKind.ERROR, probability=0.02,
              errno="EIO"),
    FaultPlan(Plane.IO, FaultKind.SHORT_READ, site="read",
              probability=0.02),
    FaultPlan(Plane.LINKER, FaultKind.ERROR, probability=0.1,
              transient=True),
)


def _fanout_under_faults(seed):
    """Boot, build the fanout workload, run it under CHAOS_PLANS.

    Returns (outcome, INJECT stream, stats) — everything that must be
    reproducible from the seed alone.
    """
    system = boot()
    kernel = system.kernel
    shell = make_shell(kernel)
    graph = build_module_fanout(kernel, shell, width=WIDTH, used=WIDTH,
                                module_dir="/shared/fan")
    injector = install_injector(kernel, CHAOS_PLANS, seed=seed)
    with tracing(kernel, kinds=["INJECT"]) as tracer:
        try:
            proc = kernel.create_machine_process("victim",
                                                 graph.executable)
            kernel.run_until_exit(proc)
            outcome = ("exit", proc.exit_code)
        except SimulationError as error:
            outcome = ("error", type(error).__name__)
        stream = tuple((e.cycle, e.pid, e.addr, e.name, e.value)
                       for e in tracer.events())
    return outcome, stream, injector.stats


class TestSeedDeterminism:
    def test_same_seed_identical_stream(self):
        """Two independent boots, same seed and plans: identical fault
        schedule, identical outcome — the reproducibility contract."""
        first = _fanout_under_faults(seed=7)
        second = _fanout_under_faults(seed=7)
        assert first[1], "chaos run triggered no faults; weak test"
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2].triggered == second[2].triggered
        assert first[2].contained == second[2].contained

    def test_different_seed_different_stream(self):
        base = _fanout_under_faults(seed=7)
        other = _fanout_under_faults(seed=8)
        assert base[1] != other[1]

    def test_unrelated_plans_do_not_perturb(self):
        """Adding a plan that never matches must not shift the decisions
        of existing plans (per-plan RNG streams)."""
        def run(extra):
            system = boot()
            kernel = system.kernel
            shell = make_shell(kernel)
            graph = build_module_fanout(kernel, shell, width=WIDTH,
                                        used=WIDTH,
                                        module_dir="/shared/fan")
            plans = list(CHAOS_PLANS) + list(extra)
            install_injector(kernel, plans, seed=7)
            with tracing(kernel, kinds=["INJECT"]) as tracer:
                try:
                    proc = kernel.create_machine_process(
                        "victim", graph.executable)
                    kernel.run_until_exit(proc)
                except SimulationError:
                    pass
                return tuple((e.cycle, e.pid, e.name)
                             for e in tracer.events())

        inert = FaultPlan(Plane.IO, FaultKind.ERROR,
                          match="/never/matches/*")
        assert run(()) == run((inert,))


class TestTypedSurfacing:
    def test_syscall_plane_raises_typed_errno(self, kernel, shell):
        injector = install_injector(
            kernel,
            [FaultPlan(Plane.SYSCALL, FaultKind.ERROR, match="open",
                       errno="EIO")],
            seed=3,
        )
        with pytest.raises(InjectedSyscallError) as exc:
            kernel.syscalls.open(shell, "/anything", O_RDONLY)
        # The typed mixin: catchable as a plain SyscallError too.
        assert isinstance(exc.value, SyscallError)
        assert exc.value.errno == "EIO"
        assert exc.value.plane == "syscall"
        assert exc.value.site == "open"
        assert injector.stats.triggered == 1

    def test_enospc_is_a_file_limit_error(self, kernel, shell):
        kernel.vfs.write_whole("/shared/seg", b"x", shell.uid)
        install_injector(
            kernel,
            [FaultPlan(Plane.IO, FaultKind.ENOSPC, site="sfs-write")],
            seed=3,
        )
        with pytest.raises(InjectedDiskFullError) as exc:
            kernel.vfs.write_whole("/shared/seg", b"more", shell.uid)
        assert isinstance(exc.value, FileLimitError)

    def test_short_read_truncates(self, kernel, shell):
        kernel.vfs.write_whole("/data", b"A" * 4096, shell.uid)
        install_injector(
            kernel,
            [FaultPlan(Plane.IO, FaultKind.SHORT_READ, site="read",
                       match="/data", max_faults=1)],
            seed=5,
        )
        fd = kernel.syscalls.open(shell, "/data", O_RDONLY)
        short = kernel.syscalls.read(shell, fd, 4096)
        assert len(short) < 4096
        # max_faults exhausted: the next read is whole again.
        kernel.syscalls.lseek(shell, fd, 0)
        assert len(kernel.syscalls.read(shell, fd, 4096)) == 4096
        kernel.syscalls.close(shell, fd)

    def test_torn_write_persists_prefix_then_raises(self, kernel, shell):
        install_injector(
            kernel,
            [FaultPlan(Plane.IO, FaultKind.TORN_WRITE, site="write",
                       match="/torn")],
            seed=5,
        )
        payload = b"B" * 4096
        fd = kernel.syscalls.open(shell, "/torn", O_WRONLY | O_CREAT)
        with pytest.raises(InjectedIOError) as exc:
            kernel.syscalls.write(shell, fd, payload)
        kernel.syscalls.close(shell, fd)
        assert exc.value.fault_kind == "torn-write"
        remove_injector(kernel)
        persisted = kernel.vfs.read_whole("/torn", shell.uid)
        assert len(persisted) < len(payload)
        assert payload.startswith(persisted)


class TestContainment:
    def _victim(self, system, shell):
        graph = build_module_fanout(system.kernel, shell, width=2,
                                    used=2, module_dir="/shared/fan")
        return graph.executable

    def test_machine_syscall_faults_do_not_kill_kernel(self, system,
                                                       shell):
        kernel = system.kernel
        exe = self._victim(system, shell)
        proc = kernel.create_machine_process("victim", exe)
        injector = install_injector(
            kernel,
            [FaultPlan(Plane.SYSCALL, FaultKind.ERROR, pid=proc.pid,
                       errno="EIO")],
            seed=9,
        )
        kernel.run_until_exit(proc)
        assert injector.stats.triggered >= 1
        assert injector.stats.contained >= 1
        assert "injected=" in kernel.stats()
        # The kernel is fully functional for a clean successor.
        remove_injector(kernel)
        clean = kernel.create_machine_process("clean", exe)
        kernel.run_until_exit(clean)
        assert clean.exit_code == fanout_expected_exit(2)

    def test_spurious_fault_kills_victim_not_kernel(self, system, shell):
        kernel = system.kernel
        exe = self._victim(system, shell)
        proc = kernel.create_machine_process("victim", exe)
        injector = install_injector(
            kernel,
            [FaultPlan(Plane.VMFAULT, FaultKind.SPURIOUS,
                       max_faults=1)],
            seed=9,
        )
        kernel.run_until_exit(proc)
        assert not proc.alive
        assert "SIGSEGV" in proc.death_reason
        assert "Injected" in proc.death_reason or \
            injector.stats.contained >= 1
        remove_injector(kernel)
        clean = kernel.create_machine_process("clean", exe)
        kernel.run_until_exit(clean)
        assert clean.exit_code == fanout_expected_exit(2)

    def test_dropped_fault_delivery_is_contained(self, system, shell):
        kernel = system.kernel
        exe = self._victim(system, shell)
        proc = kernel.create_machine_process("victim", exe)
        injector = install_injector(
            kernel,
            [FaultPlan(Plane.VMFAULT, FaultKind.DROP, pid=proc.pid)],
            seed=9,
        )
        kernel.run_until_exit(proc)
        # Lazy linking needs fault delivery; dropping it kills the
        # victim (unresolved fault), never the kernel.
        assert not proc.alive
        assert injector.stats.triggered >= 1
        assert injector.stats.contained >= 1


class TestRetryBackoff:
    def test_transient_linker_faults_are_absorbed(self, system, shell):
        """A bounded run of transient linker failures is retried with
        deterministic backoff and the workload still succeeds."""
        kernel = system.kernel
        graph = build_module_fanout(kernel, shell, width=2, used=2,
                                    module_dir="/shared/fan")
        injector = install_injector(
            kernel,
            [FaultPlan(Plane.LINKER, FaultKind.ERROR, transient=True,
                       max_faults=3)],
            seed=13,
        )
        proc = kernel.create_machine_process("victim", graph.executable)
        kernel.run_until_exit(proc)
        assert proc.exit_code == fanout_expected_exit(2)
        assert injector.stats.triggered == 3
        assert injector.stats.retries == 3
        assert proc.runtime.ldl.stats.transient_retries == 3
        assert kernel.clock.by_category.get("backoff", 0) > 0

    def test_backoff_cycles_double(self):
        from repro.kernel.timing import Clock

        clock = Clock()
        clock.backoff(1)
        first = clock.by_category["backoff"]
        clock.backoff(2)
        assert clock.by_category["backoff"] == first * 3  # +2x

    def test_backoff_shift_is_capped(self):
        """The exponential wait saturates at MAX_BACKOFF_SHIFT: a long
        retry storm costs linearly in attempts, and a huge attempt
        count can no longer shift the wait into a cycle count that
        dwarfs the simulated machine's lifetime."""
        from repro.kernel.timing import MAX_BACKOFF_SHIFT, Clock

        clock = Clock()
        capped = clock.costs.retry_backoff << MAX_BACKOFF_SHIFT
        clock.backoff(MAX_BACKOFF_SHIFT + 1)  # first capped attempt
        assert clock.by_category["backoff"] == capped
        clock.backoff(10_000)  # absurd attempt count: same capped cost
        assert clock.by_category["backoff"] == capped * 2
        assert capped == 600 << 16  # pinned: ~39.3M cycles

    def test_exhausted_retries_surface_typed(self, system, shell):
        kernel = system.kernel
        graph = build_module_fanout(kernel, shell, width=2, used=2,
                                    module_dir="/shared/fan")
        install_injector(
            kernel,
            [FaultPlan(Plane.LINKER, FaultKind.ERROR, transient=True)],
            seed=13,
        )
        with pytest.raises(InjectedFaultError):
            kernel.create_machine_process("victim", graph.executable)
        # Kernel survives the exhausted-retry failure.
        remove_injector(kernel)
        clean = kernel.create_machine_process("clean", graph.executable)
        kernel.run_until_exit(clean)
        assert clean.exit_code == fanout_expected_exit(2)


# ----------------------------------------------------------------------
# Hypothesis: SFS address-map invariants under injected fault prefixes
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.tuples(st.sampled_from(["create", "unlink"]),
              st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=24,
)

_FAULT_PLANS = (
    FaultPlan(Plane.IO, FaultKind.ENOSPC, site="sfs-create",
              probability=0.3),
    FaultPlan(Plane.IO, FaultKind.ENOSPC, site="sfs-write",
              probability=0.2),
    FaultPlan(Plane.IO, FaultKind.TORN_WRITE, site="write",
              probability=0.2),
)


def _apply_ops(kernel, ops, seed):
    """Create/unlink segment files under injected I/O faults; any op may
    fail with a typed error, never anything else."""
    install_injector(kernel, _FAULT_PLANS, seed=seed)
    for op, index in ops:
        path = f"/shared/seg{index}"
        try:
            if op == "create":
                kernel.vfs.write_whole(path, b"D" * (64 + index), 0)
            else:
                kernel.vfs.unlink(path, 0)
        except (FilesystemError, SyscallError):
            pass  # injected (or genuine ENOENT/EEXIST) — both typed


def _check_map_consistent(kernel):
    """Both translation directions agree for every live segment."""
    live = {}
    for _path, inode in kernel.sfs.segments():
        base = kernel.sfs.address_of_inode(inode.number)
        hit = kernel.sfs.inode_of_address(base)
        assert hit is not None and hit[0].number == inode.number
        live[inode.number] = base
    for base, _span, ino in kernel.sfs.addrmap.entries():
        assert live.get(ino) == base
    assert len(live) == len(list(kernel.sfs.addrmap.entries()))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_btree_addrmap_invariants_under_io_faults(ops, seed):
    """B-tree structural invariants and map bijectivity hold after any
    prefix of injected I/O faults (t=2 maximizes splits/merges)."""
    kernel = boot().kernel
    kernel.sfs.addrmap = BTreeAddressMap(t=2)
    _apply_ops(kernel, ops, seed)
    kernel.sfs.addrmap._tree.check_invariants()
    _check_map_consistent(kernel)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_linear_and_btree_maps_agree_under_faults(ops, seed):
    """Differential oracle: the linear map and the B-tree map reach the
    same state when the same seeded faults hit the same op sequence."""
    linear = boot().kernel
    btree = boot().kernel
    btree.sfs.addrmap = BTreeAddressMap(t=2)
    _apply_ops(linear, ops, seed)
    _apply_ops(btree, ops, seed)
    assert sorted(linear.sfs.addrmap.entries()) \
        == sorted(btree.sfs.addrmap.entries())
    _check_map_consistent(linear)
    _check_map_consistent(btree)
