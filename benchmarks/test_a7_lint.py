"""A7 — reprolint: static verification is free in simulated time.

Not a paper experiment: this guards the repo's own verification gate.
Arming the ``lds``/``ldl`` reprolint gate must leave every simulated
number — total cycles and the per-category breakdown — bit-identical
to the gate-off run, because the analyzer only ever reads in-memory
objects and never issues a syscall. A ``reprolint --strict`` sweep
across the whole module farm must come back clean.
"""

from __future__ import annotations

import os

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import FANOUT_WIDTH, run_fanout
from repro.tools.cli import reprolint_main


def run_gated(verify: bool):
    """The fanout with the lint gate toggled via REPRO_LINT."""
    saved = os.environ.get("REPRO_LINT")
    os.environ["REPRO_LINT"] = "1" if verify else "0"
    try:
        system = boot()
        shell = run_fanout(system)
        kernel = system.kernel
        return kernel.clock.cycles, dict(kernel.clock.by_category), \
            kernel, shell
    finally:
        if saved is None:
            os.environ.pop("REPRO_LINT", None)
        else:
            os.environ["REPRO_LINT"] = saved


def lint_everything(kernel, shell):
    """reprolint --strict over the farm: templates, segments, image."""
    paths = ["/opt/fanout/main"]
    for index in range(FANOUT_WIDTH):
        paths.append(f"/shared/fan/mod{index}.o")
        paths.append(f"/shared/fan/helper_{index}.o")
        # Running main created these public segments lazily.
        paths.append(f"/shared/fan/mod{index}")
    out = reprolint_main(kernel, shell, ["--strict"] + paths)
    return out, len(paths)


def test_a7_lint_gate_is_cycle_neutral(report, benchmark):
    def run():
        off = run_gated(verify=False)
        on = run_gated(verify=True)
        sweep = lint_everything(on[2], on[3])
        return off, on, sweep

    off, on, sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    cycles_off, categories_off, _k, _s = off
    cycles_on, categories_on, _k, _s = on
    lint_out, npaths = sweep
    info_notes = lint_out.count("REL004")

    experiment = Experiment(
        "A7_LINT",
        f"reprolint gate over a {FANOUT_WIDTH}-module fanout",
        "static verification reads only in-memory objects: the gate "
        "adds zero simulated cycles to link and load",
    )
    experiment.add("simulated cycles (gate off)", cycles_off)
    experiment.add("simulated cycles (gate on)", cycles_on)
    experiment.add("cycle delta", cycles_on - cycles_off,
                   detail="must be exactly zero")
    experiment.add("files linted", npaths, unit="files",
                   detail="templates + public segments + executable")
    experiment.add("advisory findings", info_notes, unit="findings",
                   detail="REL004 far-call notes on templates")
    report(experiment)

    # The tentpole guarantee: arming the gate perturbs nothing the
    # simulated machine can observe.
    assert cycles_on == cycles_off
    assert categories_on == categories_off
    # --strict did not raise, and every path rendered a clean tally.
    assert lint_out.count("0 error") == npaths
    # Cross-module call sites exist, so the sweep saw real work.
    assert info_notes > 0
