"""A10 — repro.sanitize: arming the sanitizer is invisible to the clock.

Not a paper experiment: this guards the repo's own sanitize plane. The
race detector and heap sanitizer observe every load/store on public
segments, every sync edge, and every shmalloc call — and must charge
**zero** simulated cycles for it. Both the disarmed and the armed run
of the E2 module fanout must hit the A7/A8/A9/E10/E11 cycle pin
*exactly*; the per-category breakdown may not move either. The armed
host-side overhead (the real price of shadow memory) is recorded in
``BENCH_A10_SAN.json`` so successive runs leave a trajectory, along
with a corpus soak verifying reports are replay-stable.
"""

from __future__ import annotations

import contextlib
import time

from repro import boot
from repro.bench.harness import Experiment, write_bench_json
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.sanitize import sanitizing
from repro.sanitize.corpus import case_named

WIDTH = 12
USED = 12

#: The pin shared with A7/A8/A9/E10/E11: the exact simulated cycle
#: count of the module fanout. The sanitizer — disarmed *or armed* —
#: may not move it by a single cycle (it never charges the clock).
VOLATILE_FANOUT_CYCLES = 2_603_166


def run_fanout(armed: bool):
    """The E2 fanout, with or without the sanitizer watching."""
    with sanitizing() if armed else contextlib.nullcontext() \
            as sanitizer:
        system = boot()
        kernel = system.kernel
        shell = make_shell(kernel)
        wall_start = time.perf_counter()
        graph = build_module_fanout(kernel, shell, width=WIDTH,
                                    used=USED,
                                    module_dir="/shared/fan")
        proc = kernel.create_machine_process("p", graph.executable)
        code = kernel.run_until_exit(proc)
        wall = time.perf_counter() - wall_start
    assert code == fanout_expected_exit(USED)
    if sanitizer is not None:
        assert sanitizer.report.clean, sanitizer.report.render()
    return wall, kernel.clock.cycles, dict(kernel.clock.by_category)


def run_corpus_soak():
    """One seeded race case, recorded and replayed through the rr
    oracle (the ``reprosan soak`` runner): the replay may not diverge
    and the two reports must be byte-identical."""
    from repro.rr import replay_call
    from repro.tools.cli import _san_record

    wall_start = time.perf_counter()
    recording, runner, reports = _san_record(case_named("counter-unsync"))
    replay = replay_call(recording, runner)
    wall = time.perf_counter() - wall_start
    first, second = reports
    return wall, first, second, replay


def test_a10_sanitizer_is_cycle_neutral(report, benchmark):
    def run():
        off = run_fanout(armed=False)
        on = run_fanout(armed=True)
        soak = run_corpus_soak()
        return off, on, soak

    off, on, soak = benchmark.pedantic(run, rounds=1, iterations=1)
    wall_off, cycles_off, categories_off = off
    wall_on, cycles_on, categories_on = on
    soak_wall, first, second, replay = soak

    experiment = Experiment(
        "A10_SAN",
        f"armed sanitizer over a {WIDTH}-module fanout",
        "the sanitize plane is pay-for-use: shadow memory, locksets, "
        "and vector clocks all live on the host; armed and disarmed "
        "runs are cycle-for-cycle identical and race reports replay "
        "byte-identically per seed",
    )
    experiment.add("simulated cycles (disarmed)", cycles_off,
                   detail=f"the shared pin: {VOLATILE_FANOUT_CYCLES}")
    experiment.add("simulated cycles (armed)", cycles_on)
    experiment.add("cycle delta", cycles_on - cycles_off,
                   detail="must be exactly zero")
    experiment.add("armed host overhead",
                   round(wall_on / wall_off, 2)
                   if wall_off > 0 else 0, unit="x",
                   detail="host wall-clock ratio, armed / disarmed")
    experiment.add("soak races found", len(first.races),
                   detail="counter-unsync seeded corpus case")
    experiment.add("soak replay-stable",
                   1 if replay.ok and first.render() == second.render()
                   else 0, unit="ok")
    report(experiment)

    write_bench_json(experiment, wall_seconds={
        "fanout_disarmed": wall_off,
        "fanout_armed": wall_on,
        "corpus_soak": soak_wall,
    })

    # The tentpole guarantee, both directions of the pin.
    assert cycles_off == VOLATILE_FANOUT_CYCLES
    assert cycles_on == VOLATILE_FANOUT_CYCLES
    assert categories_on == categories_off
    # The seeded case fires, deterministically.
    assert first.races
    assert replay.ok, replay.render()
    assert first.render() == second.render()
