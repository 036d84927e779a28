"""E10 — rwhod at cluster scale: one segment fetch vs a file per host.

The paper's §4 comparison, restated across machines: the admin database
lives in one cluster-wide shared segment owned by the server's rwhod.
A reader anywhere pays a constant two-frame FETCH/GRANT to pull the
whole database once; the file baseline pays one LIST plus one GET round
trip *per host*, so its traffic scales with the fleet while the shared
segment's does not.

Also the cluster's A-series guard: a plain (unclustered) boot is
bit-identical to the seed pin (no "net" cycle category exists), and the
whole scale scenario — fault-free or under a fixed-seed NET fault plan
— is recorded and replayed through the rr oracle with zero divergence:
same trace streams, same reader outputs, same per-node cycle counts.
"""

from __future__ import annotations

from repro import boot
from repro.bench.harness import Experiment
from repro.bench.workloads import FANOUT_CYCLES, run_fanout
from repro.rr import record_call, replay_call
from repro.tools.cli import _campaign_plans

NNODES = 8
NHOSTS = 2048
READERS = [1, 3, 5, 7]
FAULT_RATE = 0.002
SEED = 1993


def run_scale(implementation: str):
    """The rwho scale scenario on an N-node cluster; returns the
    scenario result dict."""
    from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses
    from repro.net import Cluster

    cluster = Cluster(NNODES, seed=SEED)
    result = run_cluster_rwho(cluster, synth_statuses(NHOSTS),
                              implementation, readers=READERS,
                              max_rounds=500_000)
    cluster.shutdown()
    return result


def replay_scale(plans=()):
    """The shared-segment scale scenario recorded (NET and INJECT
    events, no checkpoints) and replayed through the rr oracle.

    Returns both runs' result dicts and the oracle's report, which
    compares the event streams and the per-node cycle accounting.
    """
    results = []

    def workload():
        results.append(run_scale("shm"))

    recording = record_call(workload, interval=0, plans=plans,
                            inject_seed=SEED, kinds=["NET", "INJECT"])
    report = replay_call(recording, workload)
    return results[0], results[1], report


def test_e10_cluster_rwho(report, benchmark):
    def run():
        plain = boot()  # no cluster: the fanout pin must hold
        run_fanout(plain)
        shm_a, shm_b, shm_replay = replay_scale()
        filed_result = run_scale("file")
        faulted_a, faulted_b, faulted_replay = replay_scale(
            _campaign_plans(["net"], FAULT_RATE))
        return (plain.kernel.clock, shm_a, shm_b, shm_replay,
                filed_result, faulted_a, faulted_b, faulted_replay)

    (fanout_clock, shm_a, shm_b, shm_replay, filed_result, faulted_a,
     faulted_b, faulted_replay) = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    shm = shm_a

    experiment = Experiment(
        "E10_NET",
        f"rwho over a {NNODES}-node cluster, {NHOSTS} hosts",
        "the admin database in one cluster-wide shared segment: a "
        "remote rwho fetches the whole database in one constant-cost "
        "exchange, while the file baseline pays a round trip per host "
        "— and the entire cluster is bit-identical per (seed, plan)",
    )
    experiment.add("simulated cycles (no cluster)", fanout_clock.cycles,
                   detail="must equal the A7/A8/A9 pin exactly")
    experiment.add("frames (shared segment)", shm["frames_sent"],
                   unit="frames",
                   detail=f"{len(READERS)} readers: broadcast DATA + "
                          f"constant FETCH/GRANT per reader")
    experiment.add("frames (file baseline)",
                   filed_result["frames_sent"], unit="frames",
                   detail="LIST + one GET per host, per reader")
    experiment.add("bytes (shared segment)", shm["bytes_sent"],
                   unit="bytes")
    experiment.add("bytes (file baseline)", filed_result["bytes_sent"],
                   unit="bytes")
    experiment.add("segment fetches", shm["by_kind"].get("FETCH", 0),
                   unit="frames",
                   detail="independent of the host count")
    experiment.add("file-baseline calls",
                   filed_result["by_kind"].get("CALL", 0),
                   unit="frames", detail="scales with the host count")
    experiment.add("traffic ratio (file/shm)",
                   round(filed_result["frames_sent"]
                         / shm["frames_sent"], 2), unit="x")
    experiment.add("server net cycles", shm["net_cycles"][0])
    experiment.note(
        "a fault-free run and a run under a fixed-seed NET fault plan "
        "each replayed through the rr oracle with bit-identical trace "
        "streams, reader outputs, and per-node cycle counts")
    report(experiment)

    # The tentpole guarantee: no cluster, no new cycles — the exact
    # pin, and the "net" category must not exist at all.
    assert fanout_clock.cycles == FANOUT_CYCLES
    assert "net" not in fanout_clock.by_category

    # Every reader saw the complete database, both implementations.
    assert set(shm["outputs"]) == set(READERS)
    reference = shm["outputs"][READERS[0]]
    assert reference.count("\n") + 1 == NHOSTS
    for node in READERS:
        assert shm["outputs"][node] == reference
        assert filed_result["outputs"][node] == reference

    # The paper's shape: file traffic scales with hosts, shm does not.
    assert shm["by_kind"]["FETCH"] == len(READERS)
    assert filed_result["by_kind"]["CALL"] \
        >= len(READERS) * (NHOSTS + 1)
    assert filed_result["frames_sent"] > 2 * shm["frames_sent"]

    # Bit-identical replay, fault-free and faulted.
    assert shm_replay.ok, shm_replay.render()
    assert shm_a["outputs"] == shm_b["outputs"]
    assert shm_a["cycles"] == shm_b["cycles"]
    assert faulted_replay.ok, faulted_replay.render()
    assert faulted_a["outputs"] == faulted_b["outputs"]
    assert faulted_a["cycles"] == faulted_b["cycles"]
