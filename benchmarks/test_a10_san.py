"""A10 — repro.sanitize: arming the sanitizer is invisible to the clock.

Not a paper experiment: this guards the repo's own sanitize plane. The
race detector and heap sanitizer observe every load/store on public
segments, every sync edge, and every shmalloc call — and must charge
**zero** simulated cycles for it. Both the disarmed and the armed run
of the E2 module fanout must hit the A7/A8/A9/E10/E11 cycle pin
*exactly*; the per-category breakdown may not move either. The armed
host-side overhead (the real price of shadow memory) is printed as a
note, and a corpus soak verifies reports are replay-stable.
"""

from __future__ import annotations

import contextlib
import time

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import FANOUT_CYCLES, FANOUT_WIDTH, run_fanout
from repro.sanitize import sanitizing
from repro.sanitize.corpus import case_named


def run_watched(armed: bool):
    """The fanout, with or without the sanitizer watching."""
    with sanitizing() if armed else contextlib.nullcontext() \
            as sanitizer:
        system = boot()
        kernel = system.kernel
        wall_start = time.perf_counter()
        run_fanout(system)
        wall = time.perf_counter() - wall_start
    if sanitizer is not None:
        assert sanitizer.report.clean, sanitizer.report.render()
    return wall, kernel.clock.cycles, dict(kernel.clock.by_category)


def run_corpus_soak():
    """One seeded race case, recorded and replayed through the rr
    oracle (the ``reprosan soak`` runner): the replay may not diverge
    and the two reports must be byte-identical."""
    from repro.rr import replay_call
    from repro.tools.cli import _san_record

    recording, runner, reports = _san_record(case_named("counter-unsync"))
    replay = replay_call(recording, runner)
    first, second = reports
    return first, second, replay


def test_a10_sanitizer_is_cycle_neutral(report, benchmark):
    def run():
        off = run_watched(armed=False)
        on = run_watched(armed=True)
        soak = run_corpus_soak()
        return off, on, soak

    off, on, soak = benchmark.pedantic(run, rounds=1, iterations=1)
    wall_off, cycles_off, categories_off = off
    wall_on, cycles_on, categories_on = on
    first, second, replay = soak

    experiment = Experiment(
        "A10_SAN",
        f"armed sanitizer over a {FANOUT_WIDTH}-module fanout",
        "the sanitize plane is pay-for-use: shadow memory, locksets, "
        "and vector clocks all live on the host; armed and disarmed "
        "runs are cycle-for-cycle identical and race reports replay "
        "byte-identically per seed",
    )
    experiment.add("simulated cycles (disarmed)", cycles_off,
                   detail=f"the shared pin: {FANOUT_CYCLES}")
    experiment.add("simulated cycles (armed)", cycles_on)
    experiment.add("cycle delta", cycles_on - cycles_off,
                   detail="must be exactly zero")
    experiment.add("soak races found", len(first.races),
                   detail="counter-unsync seeded corpus case")
    experiment.add("soak replay-stable",
                   1 if replay.ok and first.render() == second.render()
                   else 0, unit="ok")
    experiment.note(f"armed host overhead: {wall_on / wall_off:.2f}x "
                    f"(host wall-clock ratio, armed / disarmed)")
    report(experiment)

    # The tentpole guarantee, both directions of the pin.
    assert cycles_off == FANOUT_CYCLES
    assert cycles_on == FANOUT_CYCLES
    assert categories_on == categories_off
    # The seeded case fires, deterministically.
    assert first.races
    assert replay.ok, replay.render()
    assert first.render() == second.render()
