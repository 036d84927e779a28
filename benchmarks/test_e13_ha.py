"""E13 — availability: recovery cost under seeded crash schedules.

The HA tentpole's benchmark face: the clustered rwho scenario is run
under deterministic crash schedules of increasing severity (no faults,
the durable home crashed and rebooted, the home plus a gateway), and
the cost of self-healing is measured in recovery epochs and fabric
rounds to re-convergence with the single-kernel oracle. Every faulted
run is executed twice: same (seed, schedule) must mean bit-identical
epochs, rounds, fault counters and reader output.

Also the A-series guard extended to the failure model: a kernel booted
without a cluster — and therefore without leases, heartbeats or a
membership view — is bit-identical to the seed pin. Availability is
pay-for-use.
"""

from __future__ import annotations

import contextlib

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import FANOUT_CYCLES, run_fanout
from repro.disk import BlockDevice
from repro.disk.fsck import fsck
from repro.inject import (
    FaultKind,
    FaultPlan,
    Plane,
    injecting,
)
from repro.net import Cluster

NNODES = 6
NHOSTS = 48
SEED = 1993

#: Deterministic after-based schedules, keyed by crash count. The
#: single-crash schedule kills the durable home (directory journal +
#: database on disk); the two-crash schedule additionally kills a
#: volatile gateway while the home is still recovering.
SCHEDULES = {
    0: [],
    1: [
        FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                  match="node0", probability=1.0, after=3, max_faults=1),
        FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
                  probability=1.0, after=6),
    ],
    2: [
        FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                  match="node0", probability=1.0, after=3, max_faults=1),
        FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                  match="node2", probability=1.0, after=9, max_faults=1),
        FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
                  probability=1.0, after=6),
    ],
}


def run_recovery(crashes: int):
    """The HA rwho scenario under ``SCHEDULES[crashes]``.

    Returns everything two runs of the same schedule must agree on,
    plus the fsck verdict of the home's device after the run.
    """
    from repro.apps.rwho.cluster import (
        run_ha_rwho,
        single_kernel_rwho,
        synth_statuses,
    )

    statuses = synth_statuses(NHOSTS)
    oracle = single_kernel_rwho(statuses)
    plans = SCHEDULES[crashes]
    with injecting(plans, seed=SEED) if plans \
            else contextlib.nullcontext():
        disks = [BlockDevice(seed=7) if node == 0 else None
                 for node in range(NNODES)]
        cluster = Cluster(NNODES, seed=SEED, disks=disks, ha=True)
        result = run_ha_rwho(cluster, statuses, oracle)
        cluster.shutdown()
        fsck_codes = tuple(
            fsck(cluster.machines[0].kernel.disk.device.reopen(),
                 subject=f"e13-home-{crashes}").report.codes())
    assert result["converged"], \
        f"schedule with {crashes} crash(es) did not re-converge"
    return {
        "epochs": result["epochs"],
        "rounds": result["rounds"],
        "frames": result["frames_sent"],
        "dropped": result["ha_dropped"],
        "outputs": result["outputs"],
        "ha": dict(result["ha"]),
        "fsck": fsck_codes,
    }


def test_e13_ha_recovery(report, benchmark):
    def run():
        plain = boot()  # no cluster, no leases: the fanout pin must hold
        run_fanout(plain)
        clean = run_recovery(0)
        one_a = run_recovery(1)
        one_b = run_recovery(1)
        two_a = run_recovery(2)
        two_b = run_recovery(2)
        return plain.kernel.clock, clean, one_a, one_b, two_a, two_b

    fanout_clock, clean, one_a, one_b, two_a, two_b = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    experiment = Experiment(
        "E13_HA",
        f"rwho recovery on a {NNODES}-node HA cluster, {NHOSTS} hosts",
        "a crashed writer's leases are reclaimed, a rebooted home "
        "replays its journalled segment table, and the cluster "
        "re-converges to the single-kernel oracle on a schedule that "
        "is a pure function of (seed, crash plan)",
    )
    experiment.add("simulated cycles (no cluster)", fanout_clock.cycles,
                   detail="must equal the A7/A8/A9/E10 pin exactly")
    for label, outcome in (("no faults", clean),
                           ("1 crash (home)", one_a),
                           ("2 crashes (home+gateway)", two_a)):
        experiment.add(f"epochs [{label}]", outcome["epochs"],
                       unit="epochs")
        experiment.add(f"rounds [{label}]", outcome["rounds"],
                       unit="rounds")
        experiment.add(f"frames dropped [{label}]", outcome["dropped"],
                       unit="frames")
    experiment.add("reboots [2 crashes]", two_a["ha"]["reboots"],
                   unit="boots",
                   detail="every crashed machine came back and rejoined")
    experiment.add("directory rows recovered [1 crash]",
                   one_a["ha"]["dir_recovered"], unit="rows",
                   detail="replayed from the home's journal on reboot")
    experiment.note(
        "both faulted schedules were run twice: identical epochs, "
        "rounds, fault counters and reader output per (seed, plan)")
    experiment.note(
        "the rebooted home's device is fsck-clean after every run")
    report(experiment)

    # Pay-for-use: no cluster, no new cycles — the exact pin.
    assert fanout_clock.cycles == FANOUT_CYCLES
    assert "net" not in fanout_clock.by_category

    # The fault-free scenario converges in a single epoch; recovery
    # costs extra epochs and pump rounds, never divergence.
    assert clean["epochs"] == 1
    assert clean["dropped"] == 0
    assert clean["ha"]["crashes"] == 0
    for outcome, crashes in ((one_a, 1), (two_a, 2)):
        assert outcome["ha"]["crashes"] == crashes
        assert outcome["ha"]["reboots"] >= 1
        assert outcome["ha"]["dir_recovered"] >= 1
        assert outcome["dropped"] > 0
        assert outcome["epochs"] > clean["epochs"]
        assert outcome["rounds"] > clean["rounds"]
    assert two_a["rounds"] >= one_a["rounds"]

    # Durability: the home's volume is fsck-clean after every run.
    for outcome in (clean, one_a, two_a):
        assert outcome["fsck"] == ()

    # Bit-identical recovery: same seed, same schedule, same story.
    for first, second in ((one_a, one_b), (two_a, two_b)):
        assert first == second
