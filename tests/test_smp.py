"""repro.smp — deterministic multi-core simulation, proven correct.

Four layers of contract:

* **degenerate case**: ``boot(ncores=1)`` runs the coordinator on one
  serially metered core and stays bit-identical to the seed scheduler
  — the module-fanout pin (2,603,166 cycles, shared with A7/A8/A9/A10/
  E10/E11) may not move, and bad core counts are refused with a typed
  error;
* **golden oracle**: a 1-core run reproduces the events, cycles,
  per-category charges, and outcome recorded from the uniprocessor
  scheduler the coordinator replaced — the chunked quantum is an exact
  reformulation, not an approximation;
* **property-based oracles**: any ``(ncores, workload shape)`` runs
  byte-identically twice (traces, cycle totals, results), and the
  per-core TLB shadow state always matches an index recomputed from
  the page tables across map/mprotect/COW/fork/flush traffic;
* **ecosystem**: the race corpus has SMP-only races (clean on one
  core, firing on two), a 4-core Presto records/replays/seeks with
  zero divergence, the sanitizer stays cycle-invisible at K>1, and
  multi-core cluster nodes really run their cores.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import (
    HealthCheck, example, given, settings, strategies as st,
)

from repro import boot
from repro.apps.presto import PrestoApp
from repro.bench.workloads import (
    FANOUT_CYCLES,
    FANOUT_WIDTH,
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.disk.codec import encode_fields
from repro.errors import KernelError
from repro.kernel.smp import SMP_SUBQUANTUM, SmpCoordinator
from repro.kernel.sync import WaitQueue
from repro.net import Cluster
from repro.rr import record_call, replay_call, seek_call
from repro.runtime.shmalloc import (
    ArenaHeap,
    HeapExhaustedError,
    InvalidFreeError,
    SegmentHeap,
    SegmentHeapError,
)
from repro.runtime.views import Mem
from repro.sanitize import sanitizing
from repro.sanitize.corpus import (
    _SMP_NITEMS,
    _SMP_SHARED,
    _SMP_MERGE_WORKER,
    _RACY_TOTAL_WORKER,
    _racy_presto,
    case_named,
)
from repro.trace import tracing
from repro.vm.address_space import (
    AddressSpace,
    PROT_READ,
    PROT_RW,
    PROT_WRITE,
)
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE
from repro.vm.pages import PhysicalMemory

#: The fanout shape whose cycle total ``FANOUT_CYCLES`` pins.
WIDTH = USED = FANOUT_WIDTH

#: Everything observable about two 1-core runs, recorded from the
#: uniprocessor round-robin scheduler the coordinator replaced: total
#: cycles, event count, per-category charges, and the sha256 of the
#: packed event stream (:func:`_digest`).
UNIPROCESSOR_GOLDEN = {
    "fanout": {
        "cycles": FANOUT_CYCLES,
        "events": 2_727,
        "by_category": {
            "syscalls": 970_800, "disk": 1_500_000, "file_io": 44_152,
            "mappings": 60_000, "switches": 1_600, "faults": 18_000,
            "signals": 8_400, "instructions": 214,
        },
        "digest": "8a39c7d4d975b33e2a1a02c6fe573a58"
                  "2c9bd925b00dd6294ab45b6a7275fcb6",
    },
    "presto": {
        "cycles": 195_640,
        "events": 210,
        "by_category": {
            "syscalls": 55_200, "disk": 120_000, "file_io": 3_206,
            "mappings": 10_000, "switches": 3_200, "instructions": 1_782,
            "user_memory": 52, "faults": 1_500, "signals": 700,
        },
        "digest": "1fb404ab465051a44145dd755081e6cb"
                  "b3d728a373cad1b211afba82bd205161",
    },
}


def _pack(event) -> tuple:
    return (event.kind, event.cycle, event.pid, event.addr, event.name,
            event.value, event.dur, event.boot)


def _digest(events) -> str:
    """sha256 of packed events in the ``.rrr`` event encoding (the
    field order of :func:`repro.rr.recording.pack_event`)."""
    return hashlib.sha256(encode_fields(
        [[int(kind), *rest] for kind, *rest in events])).hexdigest()


def _run_fanout(ncores=None) -> dict:
    """The E2 module fanout under tracing; full observable signature."""
    system = boot(ncores=ncores)
    kernel = system.kernel
    with tracing(kernel) as tracer:
        shell = make_shell(kernel)
        graph = build_module_fanout(kernel, shell, width=WIDTH,
                                    used=USED, module_dir="/shared/fan")
        proc = kernel.create_machine_process("p", graph.executable)
        code = kernel.run_until_exit(proc)
        events = [_pack(event) for event in tracer.events()]
    return {
        "exit": code,
        "cycles": kernel.clock.cycles,
        "elapsed": kernel.clock.elapsed,
        "by_category": dict(kernel.clock.by_category),
        "events": events,
    }


def _run_presto(ncores: int, nworkers: int, nitems: int,
                compute_iters: int = 0) -> dict:
    """One Presto instance; everything observable, for byte-compares."""
    system = boot(ncores=ncores)
    kernel = system.kernel
    with tracing(kernel) as tracer:
        shell = make_shell(kernel)
        app = PrestoApp(kernel, shell, nitems=nitems,
                        compute_iters=compute_iters)
        result = app.run_instance(nworkers=nworkers)
        events = [_pack(event) for event in tracer.events()]
    assert result.total == app.expected_total()
    return {
        "total": result.total,
        "results": tuple(result.results),
        "per_worker": tuple(result.per_worker_items),
        "cycles": kernel.clock.cycles,
        "elapsed": kernel.clock.elapsed,
        "core_cycles": dict(kernel.clock.core_cycles),
        "by_category": dict(kernel.clock.by_category),
        "events": events,
        "smp": kernel.smp.stats(),
    }


# ---------------------------------------------------------------------------
# the degenerate case: one core is the seed scheduler
# ---------------------------------------------------------------------------


class TestDegenerateCase:
    def test_single_core_boot_runs_coordinator_unmetered(self):
        kernel = boot(ncores=1).kernel
        assert kernel.ncores == 1
        assert kernel.smp is not None
        assert kernel.smp.ncores == 1
        assert kernel.clock.ncores == 1
        shell = make_shell(kernel)
        proc = kernel.create_machine_process(
            "p", build_module_fanout(kernel, shell, width=WIDTH, used=USED,
                                     module_dir="/shared/fan").executable)
        # One core stays off the shootdown ledger and meters serially.
        assert proc.address_space.smp is None
        kernel.run_until_exit(proc)
        assert kernel.smp.rounds > 0
        assert kernel.clock.core_cycles == {}
        assert kernel.clock.elapsed == kernel.clock.cycles

    def test_multi_core_boot_has_coordinator(self):
        kernel = boot(ncores=4).kernel
        assert kernel.ncores == 4
        assert kernel.smp is not None
        assert kernel.smp.ncores == 4

    def test_env_var_selects_core_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "3")
        kernel = boot().kernel
        assert kernel.ncores == 3
        assert kernel.smp is not None

    def test_explicit_ncores_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "3")
        assert boot(ncores=1).kernel.ncores == 1

    def test_fanout_pin_at_one_core(self):
        run = _run_fanout(ncores=1)
        assert run["exit"] == fanout_expected_exit(USED)
        assert run["cycles"] == FANOUT_CYCLES
        # Serial execution: the parallel makespan is the total work.
        assert run["elapsed"] == run["cycles"]

    def test_invalid_core_count_rejected(self):
        kernel = boot().kernel
        with pytest.raises(KernelError):
            SmpCoordinator(kernel, 0)

    @pytest.mark.parametrize("ncores", [0, -3])
    def test_boot_refuses_non_positive_core_count(self, ncores):
        with pytest.raises(KernelError, match="ncores must be >= 1"):
            boot(ncores=ncores)

    def test_boot_refuses_non_numeric_env_core_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "two")
        with pytest.raises(KernelError, match="'two'"):
            boot()


# ---------------------------------------------------------------------------
# the golden oracle: one core == the uniprocessor scheduler it replaced
# ---------------------------------------------------------------------------


class TestDifferentialOracle:
    @staticmethod
    def _check(run: dict, golden: dict) -> None:
        assert run["cycles"] == golden["cycles"]
        assert run["elapsed"] == golden["cycles"]
        assert dict(run["by_category"]) == golden["by_category"]
        assert len(run["events"]) == golden["events"]
        assert _digest(run["events"]) == golden["digest"]

    def test_fanout_matches_uniprocessor_golden(self):
        run = _run_fanout(ncores=1)
        assert run["exit"] == fanout_expected_exit(USED)
        self._check(run, UNIPROCESSOR_GOLDEN["fanout"])

    def test_presto_matches_uniprocessor_golden(self):
        run = _run_presto(ncores=1, nworkers=3, nitems=12)
        assert run["per_worker"] == (12, 0, 0)
        assert run["core_cycles"] == {}
        self._check(run, UNIPROCESSOR_GOLDEN["presto"])


# ---------------------------------------------------------------------------
# multi-core execution
# ---------------------------------------------------------------------------


class TestMultiCore:
    def test_fanout_still_exact_on_four_cores(self):
        run = _run_fanout(ncores=4)
        assert run["exit"] == fanout_expected_exit(USED)
        # Work is conserved; the makespan can only shrink.
        assert run["elapsed"] <= run["cycles"]

    def test_presto_interleaves_workers_across_cores(self):
        # On one core the whole (tiny) queue drains inside the first
        # worker's quantum; on two cores the sub-quantum rounds share it.
        solo = _run_presto(ncores=1, nworkers=2, nitems=_SMP_NITEMS)
        duo = _run_presto(ncores=2, nworkers=2, nitems=_SMP_NITEMS)
        assert solo["per_worker"] == (_SMP_NITEMS, 0)
        assert all(count > 0 for count in duo["per_worker"])
        assert duo["smp"]["rounds"] >= 1
        assert duo["elapsed"] < duo["cycles"]

    def test_compute_presto_speedup_at_four_cores(self):
        base = _run_presto(ncores=1, nworkers=8, nitems=64,
                           compute_iters=600)
        quad = _run_presto(ncores=4, nworkers=8, nitems=64,
                           compute_iters=600)
        assert base["elapsed"] == base["cycles"]
        speedup = base["elapsed"] / quad["elapsed"]
        assert speedup >= 2.0, f"4-core speedup only {speedup:.2f}x"
        # Deterministic balanced claim: every worker gets 1/8 of the
        # queue at both core counts.
        assert base["per_worker"] == (8,) * 8
        assert quad["per_worker"] == (8,) * 8

    def test_elapsed_is_sum_of_round_maxima(self):
        run = _run_presto(ncores=2, nworkers=2, nitems=8)
        # All per-core work is accounted somewhere, and the serial
        # prefix (boot, build, parent phases) charges elapsed 1:1.
        core_total = sum(run["core_cycles"].values())
        serial = run["cycles"] - core_total
        assert serial > 0
        assert run["elapsed"] >= serial
        assert run["elapsed"] <= run["cycles"]

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ncores=st.integers(min_value=1, max_value=8),
           nworkers=st.integers(min_value=1, max_value=4),
           nitems=st.integers(min_value=4, max_value=20))
    def test_same_shape_runs_byte_identical(self, ncores, nworkers,
                                            nitems):
        first = _run_presto(ncores, nworkers, nitems)
        second = _run_presto(ncores, nworkers, nitems)
        assert first == second


class TestInstructionCharge:
    """Every instruction a quantum retires is charged to the clock's
    ``instructions`` category, whether the quantum ran out, blocked in a
    syscall or ended with its process."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ncores=st.integers(min_value=1, max_value=4),
           nworkers=st.integers(min_value=1, max_value=8),
           nitems=st.sampled_from([8, 12, 64]),
           compute_iters=st.sampled_from([0, 1, 8, 20, 30]))
    @example(ncores=4, nworkers=8, nitems=64, compute_iters=30)
    @example(ncores=1, nworkers=4, nitems=64, compute_iters=8)
    @example(ncores=3, nworkers=4, nitems=64, compute_iters=8)
    def test_charged_instructions_equal_retired(self, ncores, nworkers,
                                                nitems, compute_iters):
        kernel = boot(ncores=ncores).kernel
        shell = make_shell(kernel)
        app = PrestoApp(kernel, shell, nitems=nitems,
                        compute_iters=compute_iters)
        workers = []
        create = kernel.create_machine_process

        def created(*args, **kwargs):
            workers.append(create(*args, **kwargs))
            return workers[-1]

        kernel.create_machine_process = created
        before = kernel.clock.by_category.get("instructions", 0)
        result = app.run_instance(nworkers=nworkers)
        assert result.total == app.expected_total()
        assert len(workers) == nworkers
        charged = kernel.clock.by_category["instructions"] - before
        assert charged == sum(worker.cpu.instructions_executed
                              for worker in workers)


# ---------------------------------------------------------------------------
# the TLB shadow-state oracle
# ---------------------------------------------------------------------------


class _ShootdownLog:
    """Stands in for the coordinator: records every invalidation."""

    def __init__(self) -> None:
        self.tlb = []       # (home core, dropped, reason)
        self.decode = []    # sorted core sets at clear time

    def tlb_shootdown(self, space, dropped, reason) -> None:
        self.tlb.append((space.core, dropped, reason))

    def decode_shootdown(self, frame) -> None:
        self.decode.append(tuple(sorted(frame.decode_cores)))


_VM_BASE = 0x40000
_VM_PAGES = 6

_vm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"),
                  st.integers(min_value=0, max_value=_VM_PAGES - 1),
                  st.integers(min_value=0, max_value=2 ** 31 - 1)),
        st.tuples(st.just("load"),
                  st.integers(min_value=0, max_value=_VM_PAGES - 1)),
        st.tuples(st.just("protect_ro"),
                  st.integers(min_value=0, max_value=_VM_PAGES - 1)),
        st.tuples(st.just("protect_rw"),
                  st.integers(min_value=0, max_value=_VM_PAGES - 1)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("fork")),
    ),
    max_size=40,
)


def _check_tlb_shadow(space) -> None:
    """Every cached translation must match a recomputed page-table
    index: right frame, right bytes, COW write-protection applied."""
    for vpn, (data, prot, frame) in space.tlb.items():
        pte = space._pages.get(vpn)
        assert pte is not None, f"stale TLB entry for vpn {vpn}"
        assert pte.frame is frame
        assert data is frame.data
        expected = pte.prot & ~PROT_WRITE if pte.cow else pte.prot
        assert prot == expected
    assert space.tlb_fills - space.tlb_invalidations == len(space.tlb)


class TestTlbShadowOracle:
    @settings(max_examples=30, deadline=None)
    @given(ops=_vm_ops, turns=st.lists(
        st.integers(min_value=0, max_value=3), max_size=40))
    def test_shadow_matches_recomputed_index(self, ops, turns):
        from repro.vm.faults import PageFaultError

        pm = PhysicalMemory()
        log = _ShootdownLog()
        root = AddressSpace(pm, "smp-prop", tlb_enabled=True)
        root.smp = log
        root.core = 0
        root.map(_VM_BASE, _VM_PAGES * PAGE_SIZE, prot=PROT_RW)
        spaces = [root]
        turns = iter(turns + [0] * len(ops))
        for op in ops:
            space = spaces[next(turns) % len(spaces)]
            addr = _VM_BASE + (op[1] if len(op) > 1 else 0) * PAGE_SIZE
            try:
                if op[0] == "store":
                    space.store_word(addr, op[2])
                elif op[0] == "load":
                    space.load_word(addr)
                elif op[0] == "protect_ro":
                    space.mprotect(addr, PAGE_SIZE, PROT_READ)
                elif op[0] == "protect_rw":
                    space.mprotect(addr, PAGE_SIZE, PROT_RW)
                elif op[0] == "flush":
                    space.tlb_flush("test")
                elif op[0] == "fork" and len(spaces) < 3:
                    child = space.fork(name=f"child{len(spaces)}")
                    child.smp = log
                    child.core = len(spaces)
                    spaces.append(child)
            except PageFaultError:
                pass          # write to a read-only page: expected
            for checked in spaces:
                _check_tlb_shadow(checked)
        # Conservation, per home core: everything ever dropped was
        # reported to the coordinator with the owning core attached.
        for checked in spaces:
            reported = sum(dropped for core, dropped, _ in log.tlb
                           if core == checked.core)
            assert reported == checked.tlb_invalidations

    def test_decode_cores_tracked_only_under_smp(self):
        kernel = boot(ncores=2).kernel
        shell = make_shell(kernel)
        app = PrestoApp(kernel, shell, nitems=8)
        # Decode caches live on loader frames that die with the worker,
        # so the shadow check samples after every execution chunk while
        # the workers are alive.
        cores_seen = set()
        original = kernel._run_machine_chunk

        def checked_chunk(proc, start, target):
            result = original(proc, start, target)
            for pte in proc.address_space._pages.values():
                frame = pte.frame
                if frame is None:
                    continue
                assert frame.decode_cores <= set(range(kernel.ncores))
                if not frame.decode:
                    # clears always take the core set with them
                    assert not frame.decode_cores
                cores_seen.update(frame.decode_cores)
            return result

        kernel._run_machine_chunk = checked_chunk
        app.run_instance(nworkers=2)
        assert cores_seen == {0, 1}, cores_seen

    def test_decode_shootdown_counts_remote_cores(self):
        kernel = boot(ncores=4).kernel
        smp = kernel.smp
        frame = SimpleNamespace(decode_cores={0, 1, 3})
        kernel.clock.current_core = 1
        try:
            smp.decode_shootdown(frame)
        finally:
            kernel.clock.current_core = None
        assert smp.decode_shootdowns == {0: 1, 1: 0, 2: 0, 3: 1}

    def test_tlb_shootdown_ignores_own_core_and_serial_work(self):
        kernel = boot(ncores=2).kernel
        smp = kernel.smp
        space = SimpleNamespace(core=0)
        smp.tlb_shootdown(space, 3, "unmap")          # serial: no core
        kernel.clock.current_core = 0
        try:
            smp.tlb_shootdown(space, 3, "unmap")      # own core
        finally:
            kernel.clock.current_core = None
        assert smp.tlb_shootdowns == {0: 0, 1: 0}
        kernel.clock.current_core = 1
        try:
            smp.tlb_shootdown(space, 3, "unmap")      # cross-core
        finally:
            kernel.clock.current_core = None
        assert smp.tlb_shootdowns == {0: 3, 1: 0}


# ---------------------------------------------------------------------------
# contended-path plumbing: WaitQueue and ArenaHeap
# ---------------------------------------------------------------------------


def _waiter(pid: int, core: int = 0):
    return SimpleNamespace(pid=pid, core=core)


class TestWaitQueue:
    def test_fifo_handoff_in_stamp_order(self):
        queue = WaitQueue()
        procs = [_waiter(pid, core=pid % 3) for pid in range(5)]
        stamps = [queue.push(proc) for proc in procs]
        assert stamps == [0, 1, 2, 3, 4]
        assert [queue.pop() for _ in range(5)] == procs

    def test_stats_never_influence_order(self):
        queue = WaitQueue()
        late_core = _waiter(1, core=7)
        early_core = _waiter(2, core=0)
        queue.push(late_core)
        queue.push(early_core)
        assert queue.enqueued_by_core == {7: 1, 0: 1}
        assert queue.pop() is late_core

    def test_stamps_survive_drain(self):
        queue = WaitQueue()
        queue.push(_waiter(1))
        queue.pop()
        assert queue.push(_waiter(2)) == 1   # monotonic, never reused


ARENA_BASE = 0x20000000
ARENA_SIZE = 16 * 1024


@pytest.fixture
def arena_mem(kernel, shell):
    shell.address_space.map(ARENA_BASE, ARENA_SIZE, prot=PROT_RW)
    return Mem(kernel, shell)


class TestArenaHeap:
    def test_one_core_degenerates_to_segment_heap(self, arena_mem):
        arena = ArenaHeap(arena_mem, ARENA_BASE, ARENA_SIZE, ncores=1)
        arena.initialize()
        assert len(arena.arenas) == 1
        # The heap state lives in the segment: a plain SegmentHeap over
        # the same region sees the same free list and hands out the
        # same addresses.
        flat = SegmentHeap(arena_mem, ARENA_BASE, ARENA_SIZE)
        assert flat.is_initialized()
        payload = arena.alloc(64, core=0)
        arena.free(payload)
        assert flat.alloc(64) == payload
        flat.free(payload)
        assert arena.free_bytes() == flat.free_bytes()

    def test_home_arena_allocation_is_core_local(self, arena_mem):
        arena = ArenaHeap(arena_mem, ARENA_BASE, ARENA_SIZE, ncores=4)
        arena.initialize()
        for core in range(4):
            payload = arena.alloc(32, core=core)
            owner = arena.arena_of(payload)
            assert owner is arena.arenas[core]
        assert arena.fallbacks == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_fallback_scan_is_deterministic(self, arena_mem):
        arena = ArenaHeap(arena_mem, ARENA_BASE, ARENA_SIZE, ncores=2)
        arena.initialize()
        blocks = []
        # Exhaust core 1's home arena...
        while True:
            try:
                blocks.append(arena.arenas[1].alloc(512))
            except HeapExhaustedError:
                break
        # ...the next core-1 allocation overflows into arena 0.
        payload = arena.alloc(512, core=1)
        assert arena.arena_of(payload) is arena.arenas[0]
        assert arena.fallbacks[1] == 1
        arena.free(payload)
        for block in blocks:
            arena.free(block)
        arena.check()

    def test_exhaustion_raises_when_every_arena_is_full(self, arena_mem):
        arena = ArenaHeap(arena_mem, ARENA_BASE, ARENA_SIZE, ncores=2)
        arena.initialize()
        with pytest.raises(HeapExhaustedError):
            while True:
                arena.alloc(1024, core=0)

    def test_free_outside_region_rejected(self, arena_mem):
        arena = ArenaHeap(arena_mem, ARENA_BASE, ARENA_SIZE, ncores=2)
        arena.initialize()
        with pytest.raises(InvalidFreeError):
            arena.free(ARENA_BASE - 8)

    def test_too_many_arenas_rejected(self, arena_mem):
        with pytest.raises(SegmentHeapError):
            ArenaHeap(arena_mem, ARENA_BASE, 64, ncores=16)

    def test_addresses_are_run_to_run_identical(self, arena_mem):
        first = ArenaHeap(arena_mem, ARENA_BASE, ARENA_SIZE, ncores=4)
        first.initialize()
        plan = [(0, 16), (3, 64), (1, 128), (3, 24), (2, 8)]
        addresses = [first.alloc(size, core=core)
                     for core, size in plan]
        for address in addresses:
            first.free(address)
        second = ArenaHeap(arena_mem, ARENA_BASE, ARENA_SIZE, ncores=4)
        second.initialize()
        assert [second.alloc(size, core=core)
                for core, size in plan] == addresses


# ---------------------------------------------------------------------------
# the SMP race corpus: bugs only a real multi-core schedule can reach
# ---------------------------------------------------------------------------


class TestSmpRaceCorpus:
    @pytest.mark.parametrize("name", ["presto-smp-total",
                                      "presto-smp-merge"])
    def test_fires_on_two_cores_with_both_sites(self, name):
        report = case_named(name).run()
        assert report.races, "SMP race case did not fire"
        race = report.races[0]
        # Both access sites attributed: distinct workers, ordered
        # deterministic cycles, and the racing word named.
        assert race.first.label != race.second.label
        assert race.first.cycle < race.second.cycle
        assert race.segment.endswith("shared_data")

    def test_clean_on_one_core(self):
        for worker, shared in ((_RACY_TOTAL_WORKER, None),
                               (_SMP_MERGE_WORKER, _SMP_SHARED)):
            with sanitizing(report_limit=256) as sanitizer:
                kwargs = {"shared_source": shared} if shared else {}
                _racy_presto(worker, nitems=_SMP_NITEMS, nworkers=2,
                             ncores=1, **kwargs)
            assert sanitizer.report.clean, sanitizer.report.render()

    def test_reports_replay_identically(self):
        case = case_named("presto-smp-total")
        assert case.run().render() == case.run().render()

    def test_sanitizer_is_cycle_invisible_at_two_cores(self):
        disarmed = _run_presto(ncores=2, nworkers=2, nitems=8)
        with sanitizing() as sanitizer:
            armed = _run_presto(ncores=2, nworkers=2, nitems=8)
        assert armed["cycles"] == disarmed["cycles"]
        assert armed["elapsed"] == disarmed["elapsed"]
        assert armed["by_category"] == disarmed["by_category"]


# ---------------------------------------------------------------------------
# record/replay a genuinely parallel run
# ---------------------------------------------------------------------------


def _presto_quad_workload():
    system = boot(ncores=4)
    kernel = system.kernel
    shell = make_shell(kernel)
    app = PrestoApp(kernel, shell, nitems=16, compute_iters=40)
    result = app.run_instance(nworkers=4)
    assert result.total == app.expected_total()
    kernel.shutdown()


class TestSmpRecordReplay:
    def test_four_core_presto_replays_with_zero_divergence(self):
        recording = record_call(_presto_quad_workload, interval=50_000)
        assert recording.outcome == "clean"
        assert recording.checkpoints, "expected periodic checkpoints"
        report = replay_call(recording, _presto_quad_workload)
        assert report.ok, report.render()
        assert report.events_compared == len(recording.events)

    def test_seek_into_the_parallel_phase(self):
        recording = record_call(_presto_quad_workload, interval=50_000)
        last = recording.events[-1][1]
        target = last // 2
        result = seek_call(recording, target, _presto_quad_workload)
        assert result.digest_ok
        assert result.suffix_identical


# ---------------------------------------------------------------------------
# multi-core cluster nodes
# ---------------------------------------------------------------------------


def _cluster_rwho(impl: str, ncores: int):
    from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses

    cluster = Cluster(4, seed=7, ncores=ncores)
    result = run_cluster_rwho(cluster, synth_statuses(64), impl,
                              readers=[1, 2, 3])
    cluster.shutdown()
    return cluster, result


class TestClusterNodes:
    @pytest.mark.parametrize("impl", ["shm", "file"])
    def test_four_core_nodes_run_their_cores(self, impl):
        from repro.apps.rwho.cluster import single_kernel_rwho, synth_statuses

        solo, _ = _cluster_rwho(impl, ncores=1)
        quad, result = _cluster_rwho(impl, ncores=4)
        oracle = single_kernel_rwho(synth_statuses(64))
        assert all(result["outputs"][node] == oracle for node in (1, 2, 3))
        # Same work on every node, whatever the core count...
        assert [m.kernel.clock.cycles for m in quad.machines] \
            == [m.kernel.clock.cycles for m in solo.machines]
        # ...and every cluster step ran one round of every node's cores.
        for machine in quad.machines:
            assert machine.kernel.smp.ncores == 4
            assert machine.kernel.smp.rounds == quad.round
        server = quad.machines[0].kernel.clock
        assert server.elapsed < server.cycles
