"""A3 — branch islands: the cost of the 26-bit jump limit (§3 ablation).

"lds and ldl arrange for over-long branches to be replaced with jumps to
new, nearby code fragments that load the appropriate target address into
a register and jump indirectly." The ablation measures the text-size and
dynamic-instruction overhead islands impose on cross-region calls,
against the (hypothetical) direct call an unlimited jump would allow.
"""

from __future__ import annotations

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import make_shell
from repro.hw.asm import assemble
from repro.linker.branch_islands import ISLAND_SIZE, insert_branch_islands
from repro.linker.classes import SharingClass
from repro.linker.lds import LinkRequest, store_object


def build_caller(ncalls: int) -> str:
    calls = "".join(
        f"        jal shared_fn_{index % 4}\n"
        f"        add s0, s0, v0\n"
        for index in range(ncalls)
    )
    return f"""
        .text
        .globl main
main:
        addi sp, sp, -8
        sw ra, 0(sp)
        move s0, zero
{calls}        move v0, s0
        lw ra, 0(sp)
        addi sp, sp, 8
        jr ra
"""


SHARED = """
        .text
        .globl shared_fn_0
shared_fn_0:
        li v0, 1
        jr ra
        .globl shared_fn_1
shared_fn_1:
        li v0, 2
        jr ra
        .globl shared_fn_2
shared_fn_2:
        li v0, 3
        jr ra
        .globl shared_fn_3
shared_fn_3:
        li v0, 4
        jr ra
"""


def run_islands(ncalls: int):
    system = boot()
    kernel = system.kernel
    shell = make_shell(kernel)
    kernel.vfs.makedirs("/shared/lib")
    store_object(kernel, shell, "/shared/lib/fns.o",
                 assemble(SHARED, "fns.o"))

    raw = assemble(build_caller(ncalls), "main.o")
    text_before = len(raw.text)
    islands = insert_branch_islands(raw.clone())

    store_object(kernel, shell, "/main.o", raw)
    result = system.lds.link(
        shell,
        [LinkRequest("/main.o"),
         LinkRequest("fns.o", SharingClass.DYNAMIC_PUBLIC)],
        output="/prog", search_dirs=["/shared/lib"],
    )
    text_after = result.executable.layout["text"].size

    proc = kernel.create_machine_process("p", result.executable)
    code = kernel.run_until_exit(proc)
    expected = sum((index % 4) + 1 for index in range(ncalls))
    assert code == expected
    instructions = proc.cpu.instructions_executed
    # Each islanded call executes 3 extra instructions (lui/ori/jr).
    direct_estimate = instructions - 3 * ncalls
    return text_before, text_after, islands, instructions, \
        direct_estimate


def test_a3_branch_islands(report, benchmark):
    ncalls = 64
    results = benchmark.pedantic(run_islands, args=(ncalls,), rounds=1,
                                 iterations=1)
    text_before, text_after, islands, executed, direct = results

    experiment = Experiment(
        "A3", f"branch islands for {ncalls} cross-region calls",
        "26-bit jumps cannot reach the 1 GiB shared region; calls are "
        "routed through lui/ori/jr fragments",
    )
    experiment.add("islands inserted", islands, unit="islands")
    experiment.add("text before islands", text_before, unit="bytes")
    experiment.add("island text overhead", islands * ISLAND_SIZE,
                   unit="bytes")
    experiment.add("instructions executed (islands)", executed,
                   unit="instructions")
    experiment.add("estimated direct-call instructions", direct,
                   unit="instructions")
    experiment.add("per-call dynamic overhead", 3, unit="instructions",
                   detail="lui + ori + jr vs one jal")
    report(experiment)

    # Islands are deduplicated per (symbol, addend): 64 call sites to 4
    # distinct far symbols share 4 islands, not 64.
    assert islands == 4
    assert text_after >= text_before + islands * ISLAND_SIZE
    assert executed > direct
