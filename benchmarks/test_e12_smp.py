"""E12 — repro.smp: parallel Presto speedup across simulated cores.

Not a paper experiment: this measures the repo's own SMP plane. The §4
Presto application, given per-item compute (so the parallel fraction
dominates the semaphore traffic), is run unchanged on 1, 2, 4, and 8
simulated cores. Total work (``clock.cycles``) stays essentially flat
— the cores execute the same instructions plus a handful of extra
context switches — while the parallel makespan (``clock.elapsed``, the
sum of per-round maxima) drops with the core count. Every point on the
curve is a pure function of ``(workload, ncores)``: the elapsed totals
are pinned exactly, and the 4-core run is replayed twice to assert the
whole observable signature (results, cycles, per-category charges) is
byte-identical.
"""

from __future__ import annotations

from repro import boot
from repro.apps.presto import PrestoApp
from repro.bench.harness import Experiment
from repro.bench.workloads import make_shell

NITEMS = 64
NWORKERS = 8
COMPUTE_ITERS = 600
CORE_COUNTS = (1, 2, 4, 8)

#: The exact parallel makespan of the instance phase per core count —
#: deterministic, so pinned to the cycle.
ELAPSED_PINS = {
    1: 1_901_742,
    2: 1_079_540,
    4: 654_858,
    8: 440_955,
}


def run_instance_phase(ncores: int):
    """Boot, build, run one instance; measure the instance phase."""
    kernel = boot(ncores=ncores).kernel
    shell = make_shell(kernel)
    app = PrestoApp(kernel, shell, nitems=NITEMS,
                    compute_iters=COMPUTE_ITERS)
    cycles_start = kernel.clock.cycles
    elapsed_start = kernel.clock.elapsed
    result = app.run_instance(nworkers=NWORKERS)
    assert result.total == app.expected_total()
    return {
        "work": kernel.clock.cycles - cycles_start,
        "elapsed": kernel.clock.elapsed - elapsed_start,
        "per_worker": tuple(result.per_worker_items),
        "results": tuple(result.results),
        "by_category": dict(kernel.clock.by_category),
        "rounds": kernel.smp.rounds,
    }


def test_e12_smp_speedup_curve(report, benchmark):
    def run():
        curve = {ncores: run_instance_phase(ncores)
                 for ncores in CORE_COUNTS}
        repeat = run_instance_phase(4)
        return curve, repeat

    curve, repeat = benchmark.pedantic(run, rounds=1, iterations=1)
    base = curve[1]

    experiment = Experiment(
        "E12_SMP",
        f"Presto ({NWORKERS} workers, {NITEMS} items, "
        f"{COMPUTE_ITERS}-iteration compute) on 1/2/4/8 cores",
        "a deterministic round schedule makes multi-core execution a "
        "pure function of (workload, ncores): the same totals and "
        "traces every run, with the makespan scaling down as cores "
        "are added",
    )
    experiment.add("work at 1 core", base["work"])
    for ncores in CORE_COUNTS:
        point = curve[ncores]
        speedup = base["elapsed"] / point["elapsed"]
        experiment.add(f"makespan at {ncores} core(s)",
                       point["elapsed"],
                       detail=f"speedup {speedup:.2f}x, "
                              f"{point['rounds']} round(s)")
    experiment.add("4-core speedup",
                   round(base["elapsed"] / curve[4]["elapsed"], 2),
                   unit="x", detail="acceptance floor: 2.0x")
    experiment.add("replay-stable at 4 cores",
                   1 if repeat == curve[4] else 0, unit="ok",
                   detail="same-seed rerun, full observable signature")
    report(experiment)

    # One core is the degenerate case: serial work, makespan == work.
    assert base["elapsed"] == base["work"]
    # The exact deterministic curve.
    for ncores in CORE_COUNTS:
        assert curve[ncores]["elapsed"] == ELAPSED_PINS[ncores], ncores
        assert curve[ncores]["per_worker"] == (8,) * NWORKERS
    # The tentpole acceptance criterion: >= 2x at 4 cores.
    assert base["elapsed"] / curve[4]["elapsed"] >= 2.0
    # Byte-identical rerun.
    assert repeat == curve[4]
