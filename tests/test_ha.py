"""repro.net.ha — the failure model and self-healing recovery.

The NODE fault plane (seeded crash/wedge/partition/reboot schedules),
lease-based directory reclamation, heartbeat membership, dedupe-window
and reply-cache generation hygiene, journaled directory recovery on the
rebooted home (fsck-clean), the end-to-end re-convergence scenario
against the single-kernel oracle, rr record/replay zero-divergence
under node faults, and the ``reprochaos --ha`` availability soak.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk import BlockDevice
from repro.disk.fsck import fsck
from repro.errors import NetError
from repro.inject import (
    FaultKind,
    FaultPlan,
    Plane,
    injecting,
)
from repro.net import Cluster, Frame, FrameKind, HaConfig
from repro.net.link import DEDUPE_WINDOW, _SenderWindow
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem
from repro.tools.cli import _campaign_plans, reprochaos_main

PROP_SEG = "/shared/prop.seg"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def creator_body(path: str, value: int = 0, size: int = 64):
    def body(kernel, proc):
        runtime = runtime_for(kernel, proc)
        base = runtime.create_segment(path, size)
        if value:
            Mem(kernel, proc).store_u32(base, value)
        yield
        return 0

    return body


def writer_body(path: str, slot: int, value: int):
    def body(kernel, proc):
        runtime = runtime_for(kernel, proc)
        base = runtime.segment_base(path)
        Mem(kernel, proc).store_u32(base + 4 * slot, value)
        yield
        return 0

    return body


def reader_body(path: str, node: int, views: dict, slot: int = 0):
    def body(kernel, proc):
        runtime = runtime_for(kernel, proc)
        base = runtime.segment_base(path)
        views[node] = Mem(kernel, proc).load_u32(base + 4 * slot)
        yield
        return 0

    return body


def _ha_rwho(nnodes: int, nhosts: int, seed: int):
    """Boot an armed cluster and run the recovery scenario."""
    from repro.apps.rwho.cluster import (
        run_ha_rwho,
        single_kernel_rwho,
        synth_statuses,
    )

    statuses = synth_statuses(nhosts)
    oracle = single_kernel_rwho(statuses)
    disks = [BlockDevice(seed=7) if node == 0 else None
             for node in range(nnodes)]
    cluster = Cluster(nnodes, seed=seed, disks=disks, ha=True)
    result = run_ha_rwho(cluster, statuses, oracle)
    return cluster, result


#: deterministic E2E schedule: home crash early, a second crash later,
#: one wedge, one partition, reboots a fixed delay after each crash
E2E_PLANS = [
    FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash", match="node0",
              probability=1.0, after=3, max_faults=1),
    FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash", match="node2",
              probability=1.0, after=9, max_faults=1),
    FaultPlan(Plane.NODE, FaultKind.WEDGE, site="wedge", match="node3",
              probability=1.0, after=4, max_faults=1),
    FaultPlan(Plane.NODE, FaultKind.PARTITION, site="partition",
              probability=1.0, after=5, max_faults=1),
    FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
              probability=1.0, after=6),
]


# ----------------------------------------------------------------------
# configuration and pay-for-use
# ----------------------------------------------------------------------

class TestArming:
    @pytest.mark.parametrize("kwargs", [
        dict(heartbeat_every=0),
        dict(suspicion_rounds=4, heartbeat_every=4),
        dict(lease_rounds=12, suspicion_rounds=12),
    ])
    def test_bad_configurations_rejected(self, kwargs):
        with pytest.raises(NetError):
            HaConfig(**kwargs)

    def test_unarmed_cluster_has_no_failure_model(self):
        cluster = Cluster(2, seed=3)
        assert cluster.ha is None
        assert cluster.fabric.ha is None
        cluster.run()
        assert cluster.fabric.stats.by_kind.get("HEARTBEAT", 0) == 0
        cluster.shutdown()

    def test_armed_cluster_heartbeats(self):
        cluster = Cluster(3, seed=3, ha=True)
        for _ in range(3 * cluster.ha.config.heartbeat_every):
            cluster.step()
        cluster.run()
        assert cluster.fabric.stats.heartbeats_delivered > 0
        assert cluster.ha.stats.heartbeats > 0
        cluster.shutdown()

    def test_node_plane_campaign_plans(self):
        plans = _campaign_plans(["node"], 0.1)
        kinds = {plan.kind for plan in plans}
        assert kinds == {FaultKind.CRASH, FaultKind.WEDGE,
                         FaultKind.PARTITION, FaultKind.REBOOT}
        assert all(plan.plane is Plane.NODE for plan in plans)


# ----------------------------------------------------------------------
# link-layer hygiene across reboots
# ----------------------------------------------------------------------

class TestGenerations:
    def test_gen_zero_wire_is_plain_src(self):
        """A generation-0 frame is byte-identical to the pre-HA wire
        format: the gen bits ride the src high bits only when set."""
        frame = Frame(FrameKind.DATA, src=3, dst=1, port=7, seq=9,
                      payload=b"x")
        wire = frame.pack()
        again = Frame.unpack(wire)
        assert (again.src, again.gen) == (3, 0)
        bumped = Frame(FrameKind.DATA, src=3, dst=1, port=7, seq=9,
                       payload=b"x", gen=1)
        assert bumped.pack() != wire
        assert Frame.unpack(bumped.pack()).gen == 1

    def test_dedupe_window_is_bounded(self):
        window = _SenderWindow()
        for seq in range(1, 5 * DEDUPE_WINDOW):
            window.note(seq)
        assert len(window.recent) <= 2 * DEDUPE_WINDOW + 1
        assert window.is_duplicate(1)
        assert not window.is_duplicate(5 * DEDUPE_WINDOW)

    def test_generation_bump_rescues_restarted_seqs(self):
        """A rebooted sender restarts low; without the generation reset
        its fresh frames would be swallowed as ancient duplicates."""
        window = _SenderWindow()
        window.note(5 * DEDUPE_WINDOW)
        assert window.is_duplicate(3)
        window.reset(gen=1)
        assert not window.is_duplicate(3)

    def test_reply_cache_is_generation_scoped(self):
        """A reply recorded before a node's crash must never be served
        by its rebooted incarnation — the state that produced it died."""
        cluster = Cluster(2, seed=5)
        nic = cluster.machines[1].nic
        calls = []
        nic.bind(0x99, lambda frame: (calls.append(frame.seq)
                                      or (FrameKind.REPLY, b"pong")))
        request = Frame(FrameKind.CALL, src=0, dst=1, port=0x99, seq=77,
                        payload=b"ping")
        first = nic._serve(request)
        assert nic._serve(request) == first       # cache hit
        assert calls == [77]
        nic.gen += 1                              # the node rebooted
        nic._serve(request)
        assert calls == [77, 77]                  # handler re-ran
        cluster.shutdown()


# ----------------------------------------------------------------------
# the faults and the recovery machinery
# ----------------------------------------------------------------------

class TestFaults:
    def test_fault_free_ha_run_converges_first_epoch(self):
        cluster, result = _ha_rwho(4, 8, seed=42)
        assert result["converged"]
        assert result["epochs"] == 1
        assert result["ha"]["crashes"] == 0
        assert result["ha"]["dir_persists"] >= 1
        cluster.shutdown()

    def test_lease_reclaim_unblocks_readers(self):
        """Crash a segment's owner: after the lease window the home
        reaps it, marks the row ownerless, and serves its snapshot —
        readers get the bytes instead of wedging on a dead writer."""
        cluster = Cluster(4, seed=42, ha=True)
        views = {}
        cluster.spawn(1, "creator", creator_body(PROP_SEG, 0xC0FFEE))
        cluster.run()
        cluster.spawn(2, "r2", reader_body(PROP_SEG, 2, views))
        cluster.run()
        assert views[2] == 0xC0FFEE  # snapshot transited the home

        cluster.ha.crash(1)
        config = cluster.ha.config
        for _ in range(config.lease_rounds + config.suspicion_rounds + 2):
            cluster.step()
        cluster.spawn(3, "r3", reader_body(PROP_SEG, 3, views))
        cluster.run()
        assert views[3] == 0xC0FFEE
        assert cluster.ha.stats.lease_reclaims >= 1
        base = next(iter(sorted(cluster.directory.entries)))
        entry = cluster.directory.entries[base]
        assert entry.owner == -1          # reclaimed, home-served
        assert 1 not in entry.copyset
        cluster.shutdown()

    def test_wedge_delays_but_never_loses(self):
        """A wedged netd stops draining; frames pile up and deliver
        after the heal — the reader completes, nothing is lost."""
        cluster = Cluster(3, seed=42, ha=True)
        views = {}
        cluster.spawn(0, "creator", creator_body(PROP_SEG, 0xFEED))
        cluster.run()
        heal = cluster.round + 10
        cluster.ha.wedge(2, heal_round=heal)
        cluster.spawn(2, "r2", reader_body(PROP_SEG, 2, views))
        cluster.run()
        assert views[2] == 0xFEED         # rpc path is not the inbox
        assert cluster.ha.stats.wedges == 1
        while cluster.round <= heal:
            cluster.step()
        assert not cluster.ha.wedged      # healed on schedule
        assert not cluster.machines[2].nic.wedged
        cluster.shutdown()

    def test_partition_heals_and_victim_rejoins(self):
        """A reader cut off from the home dies contained; after the
        heal its next heartbeat re-joins it and fresh reads work."""
        cluster = Cluster(3, seed=42, ha=True)
        views = {}
        cluster.spawn(0, "creator", creator_body(PROP_SEG, 0xAB))
        cluster.run()
        config = cluster.ha.config
        heal = cluster.round + config.suspicion_rounds + 8
        cluster.ha.partition(frozenset({0, 1}), frozenset({2}), heal)
        cluster.spawn(2, "r2", reader_body(PROP_SEG, 2, views))
        cluster.run()
        assert 2 not in views             # cut: the probe died contained
        while cluster.round <= heal:      # silence -> suspicion
            cluster.step()
        assert cluster.ha.stats.suspects >= 1
        for _ in range(3 * config.heartbeat_every):
            cluster.step()                # post-heal heartbeat re-joins
        assert cluster.ha.stats.rejoins >= 1
        assert not cluster.ha.suspected
        cluster.spawn(2, "retry", reader_body(PROP_SEG, 2, views))
        cluster.run()
        assert views[2] == 0xAB
        assert cluster.ha.stats.heals == 1
        cluster.shutdown()

    def test_partition_charges_alike_traced_and_untraced(self):
        """Armed HA puts its filter between a request's net charge and
        its propagation stall, so those stay separate charges whether or
        not a tracer is on. A reader cut off from the home and a reader
        that can reach it must leave every node's clock and every fabric
        counter the same traced and untraced."""
        from repro.trace import tracer as _trace

        def run(traced):
            views = {}
            with _trace.tracing() if traced else contextlib.nullcontext():
                cluster = Cluster(3, seed=42, ha=True)
                cluster.spawn(0, "creator", creator_body(PROP_SEG, 0xAB))
                cluster.run()
                heal = cluster.round + cluster.ha.config.suspicion_rounds
                cluster.ha.partition(frozenset({0, 1}), frozenset({2}),
                                     heal)
                cluster.spawn(2, "r2", reader_body(PROP_SEG, 2, views))
                cluster.spawn(1, "r1", reader_body(PROP_SEG, 1, views))
                cluster.run()
            cluster.shutdown()
            return views, vars(cluster.fabric.stats), [
                (clock.cycles, clock.elapsed, list(clock.by_category.items()))
                for clock in (machine.kernel.clock
                              for machine in cluster.machines)]

        untraced = run(False)
        assert untraced[0] == {1: 0xAB}   # node 2 was cut off
        assert untraced[1]["ha_dropped"] > 0
        assert run(True) == untraced

    def test_crashed_node_rejects_spawn_and_is_reported(self):
        cluster = Cluster(3, seed=42, ha=True)
        cluster.run()
        cluster.ha.crash(1)
        with pytest.raises(NetError, match="crashed"):
            cluster.spawn(1, "ghost", creator_body(PROP_SEG))
        assert cluster._dead_node_report() == " (crashed nodes: 1)"
        cluster.shutdown()

    def test_home_reboot_recovers_directory_fsck_clean(self):
        """Crash the home (the only durable node) mid-scenario: the
        reboot replays its journal, the recovered image is fsck-clean,
        and the directory rows come back from the volume."""
        plans = [
            FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                      match="node0", probability=1.0, after=2,
                      max_faults=1),
            FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
                      probability=1.0, after=5, max_faults=1),
        ]
        with injecting(plans, seed=5):
            cluster, result = _ha_rwho(4, 8, seed=42)
        assert result["converged"]
        assert result["ha"]["crashes"] == 1
        assert result["ha"]["reboots"] == 1
        assert result["ha"]["dir_recovered"] >= 1
        home = cluster.machines[0].kernel
        assert home.disk is not None
        assert home.disk.recovery is not None  # this boot recovered
        check = fsck(home.disk.device.reopen(), subject="rebooted-home")
        assert check.report.codes() == []
        cluster.shutdown()

    def test_campaign_counters_survive_reboots(self):
        """A capped CRASH plan must not re-arm when its victim reboots
        with a fresh kernel: the campaign is cluster-scoped."""
        with injecting([
                FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                          match="node1", probability=1.0, after=2,
                          max_faults=1),
                FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
                          probability=1.0, after=4),
            ], seed=9):
            cluster = Cluster(3, seed=42, ha=True)
            for _ in range(60):
                cluster.step()
            assert cluster.ha.stats.crashes == 1
            assert cluster.ha.stats.reboots == 1
            cluster.shutdown()


# ----------------------------------------------------------------------
# end to end: the acceptance scenario
# ----------------------------------------------------------------------

class TestEndToEnd:
    def test_eight_nodes_reconverge_under_full_fault_mix(self):
        """The tentpole acceptance: 8 nodes, >=1 crash (including the
        home), >=1 partition, >=1 reboot, a wedge for good measure —
        the cluster completes without deadlock and a post-heal probe's
        database equals the single-kernel oracle."""
        with injecting(E2E_PLANS, seed=1234):
            cluster, result = _ha_rwho(8, 24, seed=42)
        ha = result["ha"]
        assert ha["crashes"] >= 1
        assert ha["partitions"] >= 1
        assert ha["reboots"] >= 1
        assert ha["heals"] >= 1
        assert result["ha_dropped"] > 0   # the failure model actually bit
        assert result["converged"], result
        check = fsck(cluster.machines[0].kernel.disk.device.reopen(),
                     subject="e2e-home")
        assert check.report.codes() == []
        cluster.shutdown()

    def test_ha_record_replay_zero_divergence(self):
        """reprorr records the crash/reboot scenario and replays it with
        zero divergence — the failure schedule is part of the tape."""
        from repro.rr import record_call, replay_call

        def workload():
            cluster, result = _ha_rwho(4, 8, seed=42)
            assert result["converged"]
            cluster.shutdown()

        plans = [
            FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                      match="node0", probability=1.0, after=2,
                      max_faults=1),
            FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
                      probability=1.0, after=5, max_faults=1),
        ]
        recording = record_call(workload, interval=30_000, plans=plans,
                                inject_seed=5)
        report = replay_call(recording, workload)
        assert report.ok, report.render()

    def test_rr_cut_owner_survives_home_reboot(self):
        """The consistent cut stays owned by node 0's *original*
        recorder across a node-0 reboot. Golden (cycle, boot) pairs
        from the boot-time lead: boot 1 is the single-kernel oracle
        (one checkpoint, at its first trap return or round end past the
        interval), the cluster cuts carry node 0's original clock,
        which stops at the crash — a lead that moved to the rebooted
        kernel would add cuts after the reboot."""
        from repro.rr import record_call, replay_call

        def workload():
            cluster, result = _ha_rwho(3, 6, seed=42)
            assert result["converged"]
            assert result["ha"]["reboots"] == 1
            cluster.shutdown()

        plans = [
            FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                      match="node0", probability=1.0, after=2,
                      max_faults=1),
            FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
                      probability=1.0, after=5, max_faults=1),
        ]
        recording = record_call(workload, interval=20_000, plans=plans,
                                inject_seed=5)
        assert [(cp.cycle, cp.boot) for cp in recording.checkpoints] \
            == [(54440, 1), (46760, 4), (69420, 4)]
        report = replay_call(recording, workload)
        assert report.ok, report.render()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           crash_after=st.integers(min_value=2, max_value=12),
           cut_after=st.integers(min_value=3, max_value=10),
           victim=st.integers(min_value=0, max_value=3))
    def test_random_schedules_converge_and_replay(
            self, seed, crash_after, cut_after, victim):
        """Any bounded (seed, crash schedule, partition window): the
        post-heal database equals the no-fault oracle, and the same
        seed reproduces the identical run."""
        plans = [
            FaultPlan(Plane.NODE, FaultKind.CRASH, site="crash",
                      match=f"node{victim}", probability=1.0,
                      after=crash_after, max_faults=1),
            FaultPlan(Plane.NODE, FaultKind.PARTITION, site="partition",
                      probability=1.0, after=cut_after, max_faults=1),
            FaultPlan(Plane.NODE, FaultKind.REBOOT, site="reboot",
                      probability=1.0, after=6),
        ]

        def once():
            with injecting(plans, seed=seed):
                cluster, result = _ha_rwho(4, 8, seed=42)
            stats = cluster.fabric.stats
            fingerprint = (result["rounds"], result["epochs"],
                           result["ha"], stats.frames_sent,
                           stats.bytes_sent, stats.ha_dropped,
                           sorted(result["outputs"].items()))
            cluster.shutdown()
            return result["converged"], fingerprint

        converged, first = once()
        assert converged
        again, second = once()
        assert again and first == second


# ----------------------------------------------------------------------
# the reprochaos --ha soak
# ----------------------------------------------------------------------

class TestChaosHa:
    def test_ha_soak_is_clean_and_drift_free(self):
        out = io.StringIO()
        status = reprochaos_main(
            ["--ha", "--nodes", "4", "--rate", "0.02", "--seed", "11",
             "examples/rwho_network.py"], stdout=out)
        text = out.getvalue()
        assert status == 0, text
        assert "(HA armed)" in text
        assert "node:crash" in text
        assert "OK" in text

    def test_ha_and_crash_soaks_are_exclusive(self):
        with pytest.raises(Exception):
            reprochaos_main(["--ha", "--crash", "x.py"])
