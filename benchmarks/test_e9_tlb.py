"""E9 — software TLB + decode cache: host speed, zero cycle drift.

Not a paper experiment: this guards the repo's own hot loop. The
per-address-space TLB and per-frame decoded-instruction cache must make
execution-bound workloads measurably faster on the host while leaving
every simulated number — cycles, instructions, faults — bit-identical
to the pre-TLB seed. The host speedup is asserted and printed as a
note; host-time trajectories belong to ``reprobench``.
"""

from __future__ import annotations

import time

from repro import boot
from repro.bench.harness import Experiment, ratio
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.hw.asm import assemble
from repro.linker.lds import LinkRequest, store_object
from repro.vm.address_space import (
    default_tlb_enabled,
    set_default_tlb_enabled,
)

# Pre-TLB seed totals for the E2 fanout (width=12, used=1) — the same
# pins tests/test_trace.py and tests/test_vm_tlb.py enforce. Any drift
# here fails the CI benchmark smoke job.
SEED_E2_LAZY_TOTAL = 584_767
SEED_E2_EAGER_TOTAL = 1_614_169

LOOP_ITERATIONS = 100_000

LOOP_SOURCE = f"""
        .text
        .globl main
main:
        li t0, {LOOP_ITERATIONS}
        move v0, zero
        la t1, buf
loop:
        sw t0, 0(t1)
        lw t2, 0(t1)
        add v0, v0, t2
        addi t0, t0, -1
        bgtz t0, loop
        andi v0, v0, 0xFF
        jr ra
        .data
buf:    .word 0
"""


def run_loop():
    """A CPU-bound store/load/branch loop: the TLB's best case."""
    system = boot()
    kernel = system.kernel
    shell = make_shell(kernel)
    store_object(kernel, shell, "/loop.o",
                 assemble(LOOP_SOURCE, "loop.o"))
    result = system.lds.link(shell, [LinkRequest("/loop.o")],
                             output="/loop")
    proc = kernel.create_machine_process("loop", result.executable)
    start = kernel.clock.snapshot()
    wall_start = time.perf_counter()
    code = kernel.run_until_exit(proc)
    wall = time.perf_counter() - wall_start
    cycles = kernel.clock.delta(start)
    expected = sum(range(1, LOOP_ITERATIONS + 1)) & 0xFF
    assert code == expected
    return wall, cycles, proc.cpu.instructions_executed, \
        proc.address_space.tlb_stats(), proc.cpu.decode_hits


def run_e2(width: int, used: int, lazy: bool) -> int:
    """The E2 workload's simulated start-up + run total."""
    system = boot(lazy=lazy)
    kernel = system.kernel
    shell = make_shell(kernel)
    graph = build_module_fanout(kernel, shell, width=width, used=used,
                                module_dir="/shared/fan")
    start = kernel.clock.snapshot()
    proc = kernel.create_machine_process("p", graph.executable)
    code = kernel.run_until_exit(proc)
    assert code == fanout_expected_exit(used)
    return kernel.clock.delta(start)


def _with_tlb(enabled: bool, fn, *args):
    saved = default_tlb_enabled()
    set_default_tlb_enabled(enabled)
    try:
        return fn(*args)
    finally:
        set_default_tlb_enabled(saved)


def test_e9_tlb_speedup_and_cycle_identity(report, benchmark):
    def run():
        baseline = _with_tlb(False, run_loop)
        fast = _with_tlb(True, run_loop)
        e2_base = _with_tlb(False, run_e2, 12, 1, True)
        e2_fast = _with_tlb(True, run_e2, 12, 1, True)
        e2_eager = _with_tlb(True, run_e2, 12, 1, False)
        return baseline, fast, e2_base, e2_fast, e2_eager

    baseline, fast, e2_base, e2_fast, e2_eager = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    base_wall, base_cycles, base_instr, base_stats, _ = baseline
    tlb_wall, tlb_cycles, tlb_instr, tlb_stats, decode_hits = fast

    experiment = Experiment(
        "E9_TLB",
        f"software TLB + decode cache on a {LOOP_ITERATIONS}-iteration "
        f"store/load loop",
        "translation caching is a pure host-speed optimization: the "
        "simulated machine cannot observe it",
    )
    experiment.add("simulated cycles (TLB off)", base_cycles)
    experiment.add("simulated cycles (TLB on)", tlb_cycles)
    experiment.add("instructions (both)", tlb_instr, unit="instructions")
    experiment.add("TLB hits", tlb_stats["hits"], unit="hits")
    experiment.add("decode-cache hits", decode_hits, unit="hits")
    experiment.add("E2 lazy total (TLB on)", e2_fast,
                   detail="pinned to pre-TLB seed")
    experiment.note(f"host speedup: {ratio(base_wall, tlb_wall):.2f}x "
                    f"({base_wall:.3f}s -> {tlb_wall:.3f}s)")
    report(experiment)

    # Zero perturbation: every simulated number is identical.
    assert base_cycles == tlb_cycles
    assert base_instr == tlb_instr
    assert e2_base == e2_fast == SEED_E2_LAZY_TOTAL
    assert e2_eager == SEED_E2_EAGER_TOTAL
    # The baseline run never touched a TLB; the fast run lived in it.
    assert base_stats["hits"] == base_stats["fills"] == 0
    assert tlb_stats["hits"] > 2 * LOOP_ITERATIONS
    assert decode_hits > 4 * LOOP_ITERATIONS
    # The host win is the point: ~2.7x measured; demand a safe margin.
    assert tlb_wall < base_wall * 0.75
