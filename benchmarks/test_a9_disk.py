"""A9 — repro.disk: durability is free until you mount a disk.

Not a paper experiment: this guards the durable block store the same
way A7 guards the verifier and A8 guards the fault planes. A kernel
booted *without* a disk must produce bit-identical simulated numbers to
the seed repo — the journaling hooks in every FS/SFS mutator are a
single ``journal is None`` test, and journal cycles are charged only
when a store is actually mounted. The disk-attached run reports the
journaling overhead (the "journal" cycle category) and the full
crash-at-every-record matrix is replayed and its verdict recorded.
"""

from __future__ import annotations

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import FANOUT_CYCLES, FANOUT_WIDTH, run_fanout
from repro.disk import BlockDevice, run_crash_matrix


def run_store(durable: bool):
    """The fanout, volatile or with a durable store mounted."""
    device = BlockDevice(nblocks=32768, seed=9) if durable else None
    system = boot(disk=device)
    kernel = system.kernel
    run_fanout(system)
    if durable:
        kernel.shutdown()
    return kernel.clock.cycles, dict(kernel.clock.by_category)


def test_a9_disk_journaling_off_is_cycle_identical(report, benchmark):
    def run():
        volatile = run_store(durable=False)
        durable = run_store(durable=True)
        matrix = run_crash_matrix(stride=8)
        return volatile, durable, matrix

    volatile, durable, matrix = benchmark.pedantic(
        run, rounds=1, iterations=1)
    cycles_off, categories_off = volatile
    cycles_on, categories_on = durable
    journal_cycles = categories_on.get("journal", 0)

    experiment = Experiment(
        "A9_DISK",
        f"durable store under a {FANOUT_WIDTH}-module fanout",
        "journaling is pay-for-use: a volatile boot is bit-identical "
        "to the seed repo, a mounted store charges explicit 'journal' "
        "cycles, and a crash at any journal record boundary recovers "
        "to a consistent, fsck-clean image",
    )
    experiment.add("simulated cycles (no disk)", cycles_off,
                   detail="must equal the A7/A8 pin exactly")
    experiment.add("simulated cycles (disk mounted)", cycles_on)
    experiment.add("journal cycles", journal_cycles,
                   detail="the explicit cost of write-ahead logging")
    experiment.add("crash points exercised", len(matrix.points),
                   unit="points",
                   detail=f"of {matrix.total_records} journal records")
    experiment.add("crash points recovered clean",
                   sum(1 for point in matrix.points if point.clean),
                   unit="points", detail="fsck findings == 0 and every "
                   "segment reopens by address")
    report(experiment)

    # The tentpole guarantee: no disk, no new cycles — the exact pin.
    assert cycles_off == FANOUT_CYCLES
    assert "journal" not in categories_off
    # A mounted store charges its keep through the journal category
    # and nowhere else unaccounted: the delta IS the journal cycles.
    assert journal_cycles > 0
    assert cycles_on - cycles_off == journal_cycles
    # And the crash matrix holds at every sampled record boundary.
    assert matrix.clean, "\n".join(matrix.failures()[:10])
