"""A8 — repro.inject: disabled and inert planes are free in simulated time.

Not a paper experiment: this guards the repo's own fault-injection
subsystem. An installed injector whose plans never fire must leave every
simulated number — total cycles and the per-category breakdown —
bit-identical to a run with no injector at all: the planes decide, they
never charge (backoff cycles are charged by the *hardened retry layers*,
and only when a fault actually triggers). A short seeded
``reprochaos`` soak must contain every fault and replay bit-identically.
"""

from __future__ import annotations

import io
import os

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import FANOUT_WIDTH, run_fanout
from repro.inject import FaultKind, FaultPlan, Plane, install_injector
from repro.tools.cli import reprochaos_main

#: A plan that matches nothing: the planes run their full decision path
#: (the armed, worst case) without ever actually injecting.
INERT_PLANS = (
    FaultPlan(Plane.SYSCALL, FaultKind.ERROR, match="/never/matches/*"),
    FaultPlan(Plane.IO, FaultKind.ERROR, match="/never/matches/*"),
    FaultPlan(Plane.LINKER, FaultKind.ERROR, match="/never/matches/*"),
    FaultPlan(Plane.VMFAULT, FaultKind.SPURIOUS,
              match="/never/matches/*"),
)


def run_planes(armed: bool):
    """The fanout with inert fault planes armed or absent."""
    system = boot()
    kernel = system.kernel
    injector = install_injector(kernel, INERT_PLANS, seed=1993) \
        if armed else None
    run_fanout(system)
    if injector is not None:
        assert injector.stats.checked > 0, "planes never consulted"
        assert injector.stats.triggered == 0, "inert plan fired"
    return kernel.clock.cycles, dict(kernel.clock.by_category)


def run_soak():
    """A short seeded reprochaos campaign."""
    examples = os.path.join(os.path.dirname(__file__), "..", "examples")
    script = os.path.normpath(os.path.join(examples, "quickstart.py"))
    out = io.StringIO()
    status = reprochaos_main(
        ["--seed", "1993", "--runs", "2", "--rate", "0.02", script],
        stdout=out,
    )
    return status, out.getvalue()


def test_a8_inject_planes_are_cycle_neutral(report, benchmark):
    def run():
        off = run_planes(armed=False)
        on = run_planes(armed=True)
        soak = run_soak()
        return off, on, soak

    off, on, soak = benchmark.pedantic(run, rounds=1, iterations=1)
    cycles_off, categories_off = off
    cycles_on, categories_on = on
    soak_status, soak_out = soak

    experiment = Experiment(
        "A8_INJECT",
        f"inert fault planes over a {FANOUT_WIDTH}-module fanout",
        "the injection planes decide but never charge: armed-but-inert "
        "plans add zero simulated cycles; a seeded reprochaos soak "
        "contains every fault and replays bit-identically",
    )
    experiment.add("simulated cycles (planes absent)", cycles_off)
    experiment.add("simulated cycles (planes inert)", cycles_on)
    experiment.add("cycle delta", cycles_on - cycles_off,
                   detail="must be exactly zero")
    experiment.add("soak verdict", 1 if soak_status == 0 else 0,
                   unit="ok",
                   detail="reprochaos: contained + replay-identical")
    report(experiment)

    # The tentpole guarantee: armed planes perturb nothing the simulated
    # machine can observe until a fault actually triggers.
    assert cycles_on == cycles_off
    assert categories_on == categories_off
    # The soak neither killed a kernel nor drifted on replay.
    assert soak_status == 0, soak_out
    assert "reprochaos: OK" in soak_out
