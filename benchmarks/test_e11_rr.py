"""E11 — record/replay: checkpoint overhead, seek latency, pay-for-use.

The reprorr subsystem's three promises, measured:

1. **Pay for use.** With recording disarmed, the only residue is one
   is-None test per trap and per round; the clock knows nothing of
   checkpoints. The E2 fanout workload must hit the A7/A8/A9/E10 cycle
   pin *exactly* — recording may not move the simulation by a single
   cycle.
2. **Recording cost scales with the interval.** The same fanout
   recorded at two checkpoint intervals: halving the interval adds
   checkpoints and grows the recording, while the simulated cycle total
   stays bit-identical to the unrecorded pin (observing a deterministic
   machine must not perturb it). A stand-alone kernel checkpoints only
   between operations, at the first trap return or round end past each
   interval. A stretch that spans several intervals (the fanout's
   build, or one of its lazy-link faults) yields one checkpoint at its
   end, not one per interval, and every checkpoint is machine-pure.
3. **Seek restores near the target.** `seek --cycle N` resumes from
   the nearest checkpoint at or before N, digest-verified, with the
   event suffix from N onward bit-identical — and a denser checkpoint
   spacing never restores farther from the target (the
   checkpoint-to-target gap, the re-execution distance).

The host-time cost of recording is printed as a note.
"""

from __future__ import annotations

import time

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import FANOUT_CYCLES, run_fanout
from repro.rr import record_call, replay_call, seek_call

#: Checkpoint spacings compared: the sparse one is the reprorr
#: default's scale, the dense one pays ~2x the checkpoints.
SPARSE_INTERVAL = 1_000_000
DENSE_INTERVAL = 500_000

#: Seek target: mid-run, past the first sparse checkpoint.
SEEK_CYCLE = 1_700_000


def fanout_workload():
    """The fanout on a plain boot, as a recordable callable."""
    run_fanout(boot())


def test_e11_record_replay(report, benchmark):
    def run():
        plain_start = time.perf_counter()
        plain = boot()  # recording disarmed
        run_fanout(plain)
        plain_wall = time.perf_counter() - plain_start

        sparse_start = time.perf_counter()
        sparse = record_call(fanout_workload, interval=SPARSE_INTERVAL)
        sparse_wall = time.perf_counter() - sparse_start
        dense_start = time.perf_counter()
        dense = record_call(fanout_workload, interval=DENSE_INTERVAL)
        dense_wall = time.perf_counter() - dense_start

        verdict = replay_call(dense, fanout_workload)
        seeks = {label: seek_call(recording, SEEK_CYCLE, fanout_workload)
                 for label, recording in (("sparse", sparse),
                                          ("dense", dense))}
        return (plain.kernel.clock.cycles, plain_wall, sparse,
                sparse_wall, dense, dense_wall, verdict, seeks)

    (plain_cycles, plain_wall, sparse, sparse_wall, dense, dense_wall,
     verdict, seeks) = benchmark.pedantic(run, rounds=1, iterations=1)

    experiment = Experiment(
        "E11_RR",
        "whole-machine record/replay over the E2 fanout",
        "a deterministic machine can be recorded (manifest + periodic "
        "checkpoints), replayed bit-identically, and seeked to any "
        "cycle from the nearest verified checkpoint — while a machine "
        "nobody records pays one is-None test per trap and per round",
    )
    experiment.add("simulated cycles (recording off)", plain_cycles,
                   detail="must equal the A7/A8/A9/E10 pin exactly")
    experiment.add("simulated cycles (recording on)",
                   sparse.boots[0][0],
                   detail="observation must not perturb the machine")
    experiment.add("checkpoints (sparse)", len(sparse.checkpoints),
                   unit="checkpoints",
                   detail=f"every {SPARSE_INTERVAL:,} cycles")
    experiment.add("checkpoints (dense)", len(dense.checkpoints),
                   unit="checkpoints",
                   detail=f"every {DENSE_INTERVAL:,} cycles")
    experiment.add("recording size (sparse)", len(sparse.to_bytes()),
                   unit="bytes")
    experiment.add("recording size (dense)", len(dense.to_bytes()),
                   unit="bytes")
    sparse_result = seeks["sparse"]
    dense_result = seeks["dense"]
    experiment.add("seek gap (sparse)",
                   SEEK_CYCLE - sparse_result.checkpoint_cycle,
                   detail="checkpoint-to-target re-execution distance")
    experiment.add("seek gap (dense)",
                   SEEK_CYCLE - dense_result.checkpoint_cycle,
                   detail="denser checkpoints land closer to the "
                          "target")
    experiment.note(
        "replay of the dense recording compared "
        f"{verdict.events_compared} event(s), "
        f"{verdict.checkpoints_compared} checkpoint digest(s), and the "
        "outcome: bit-identical")
    experiment.note(
        f"record overhead: {sparse_wall / plain_wall:.2f}x sparse, "
        f"{dense_wall / plain_wall:.2f}x dense (host wall time vs the "
        f"unrecorded run)")
    report(experiment)

    # Promise 1: pay for use — the exact pin, recording off.
    assert plain_cycles == FANOUT_CYCLES

    # Promise 2: observation does not perturb. The recorded runs hit
    # the same simulated total, and both recordings captured the whole
    # machine periodically.
    assert sparse.boots[0][0] == FANOUT_CYCLES
    assert dense.boots[0][0] == FANOUT_CYCLES
    assert sparse.outcome == "clean" and dense.outcome == "clean"
    assert len(sparse.checkpoints) >= 2
    assert len(dense.checkpoints) > len(sparse.checkpoints)
    assert verdict.ok, verdict.render()

    # Promise 3: both seeks restore digest-verified state with a
    # bit-identical suffix, and the dense recording restores closer to
    # the target.
    for result in seeks.values():
        assert result.digest_ok, result.render()
        assert result.suffix_identical, result.render()
        assert result.checkpoint_cycle is not None
        assert result.checkpoint_cycle <= SEEK_CYCLE
    assert dense_result.checkpoint_cycle \
        >= sparse_result.checkpoint_cycle
