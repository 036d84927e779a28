"""repro.net — the deterministic cluster.

Wire-format integrity, seeded-fabric determinism, inode striping,
pay-for-use on unclustered boots, the single-writer-invalidation
coherence protocol (deterministic smoke + Hypothesis property),
the rwho differential oracle, replay-drift regression under NET-plane
faults, retransmission-exhaustion containment, and wedge/deadlock
detection in the cluster scheduler.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import boot
from repro.errors import InjectedNetError, NetError
from repro.inject import (
    FaultKind,
    FaultPlan,
    Plane,
    injecting,
)
from repro.kernel.timing import Clock
from repro.net import (
    MAX_RETRANSMITS,
    Cluster,
    Fabric,
    Frame,
    FrameKind,
    Nic,
)
from repro.net.link import HEADER_SIZE
from repro.rr import record_call, replay_call
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem
from repro.sfs.sharedfs import MAX_INODES
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.tools.cli import (
    UsageError,
    _campaign_plans,
    _campaign_totals,
    _net_scenario,
    repronet_main,
    reprochaos_main,
)

PROP_SEG = "/shared/prop.seg"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def creator_body(path: str, size: int = 64, out: dict = None):
    def body(kernel, proc):
        runtime = runtime_for(kernel, proc)
        base = runtime.create_segment(path, size)
        if out is not None:
            out["base"] = base
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


def reader_body(path: str, node: int, views: dict, nslots: int = 4):
    def body(kernel, proc):
        runtime = runtime_for(kernel, proc)
        base = runtime.segment_base(path)
        mem = Mem(kernel, proc)
        views[node] = [mem.load_u32(base + 4 * slot)
                       for slot in range(nslots)]
        yield
        return 0

    return body


def workload_deaths(cluster):
    """(name, reason) for every non-daemon process that died badly."""
    dead = []
    for machine in cluster.machines:
        for pid, proc in machine.kernel.processes.items():
            if pid in machine.daemon_pids:
                continue
            if proc.death_reason is not None:
                dead.append((proc.name, proc.death_reason))
    return dead


# ----------------------------------------------------------------------
# the wire format
# ----------------------------------------------------------------------

class TestFrame:
    def test_roundtrip_every_kind(self):
        for kind in FrameKind:
            frame = Frame(kind, src=3, dst=1, port=0x5257, seq=99,
                          payload=b"hello segments")
            back = Frame.unpack(frame.pack())
            assert back == frame

    def test_runt_frame_rejected(self):
        with pytest.raises(NetError, match="runt"):
            Frame.unpack(b"HN")

    def test_bad_magic_rejected(self):
        wire = bytearray(Frame(FrameKind.DATA, 0, 1, 7, 1,
                               b"x").pack())
        wire[0] ^= 0xFF
        with pytest.raises(NetError, match="magic"):
            Frame.unpack(bytes(wire))

    def test_flipped_payload_bit_rejected(self):
        wire = bytearray(Frame(FrameKind.DATA, 0, 1, 7, 1,
                               b"payload").pack())
        wire[-1] ^= 0x01
        with pytest.raises(NetError, match="checksum"):
            Frame.unpack(bytes(wire))

    def test_truncated_payload_rejected(self):
        wire = Frame(FrameKind.DATA, 0, 1, 7, 1, b"payload").pack()
        with pytest.raises(NetError, match="length"):
            Frame.unpack(wire[:-3])

    def test_unknown_kind_with_a_good_checksum_rejected(self):
        wire = bytearray(Frame(FrameKind.DATA, 0, 1, 7, 1, b"x").pack())
        wire[5] = len(FrameKind)
        _reseal(wire)
        with pytest.raises(NetError, match=f"unknown frame kind "
                                           f"{len(FrameKind)}"):
            Frame.unpack(bytes(wire))

    #: The exact bytes of a few frames: a nonzero boot generation in the
    #: src field's high bits, an empty payload, every field at its
    #: maximum. A change to the wire format, and so to every net charge,
    #: shows here first.
    KNOWN_ANSWERS = [
        (Frame(FrameKind.CALL, 3, 1, 0x5257, 99, b"hello segments"),
         "484e45540101575203000100630000000e00000095f0aa21"
         "68656c6c6f207365676d656e7473"),
        (Frame(FrameKind.GRANT, 5, 2, 7, 0xDEADBEEF,
               bytes(range(250, 256)) * 2, gen=9),
         "484e45540108070005240200efbeadde0c000000c4bf3ba3"
         "fafbfcfdfefffafbfcfdfeff"),
        (Frame(FrameKind.ACK, 0, 1, 0, 1, b""),
         "484e45540103000000000100010000000000000010bb0953"),
        (Frame(FrameKind.HEARTBEAT, 0x3FF, 0x3FE, 0xFFFF, 0xFFFFFFFF,
               b"\x00", gen=0x3F),
         "484e4554010dfffffffffe03ffffffff010000004f33bda900"),
    ]

    @pytest.mark.parametrize("frame, wire", KNOWN_ANSWERS,
                             ids=["call", "grant-gen9", "empty-ack",
                                  "heartbeat-max"])
    def test_known_answer_wire_bytes(self, frame, wire):
        assert frame.pack().hex() == wire
        assert Frame.unpack(bytes.fromhex(wire)) == frame

    @settings(max_examples=300, deadline=None)
    @given(frame=st.builds(Frame, st.sampled_from(list(FrameKind)),
                           st.integers(0, 0x3FF), st.integers(0, 0xFFFF),
                           st.integers(0, 0xFFFF),
                           st.integers(0, 0xFFFFFFFF),
                           st.binary(max_size=40),
                           gen=st.integers(0, 0x3F)),
           mutations=st.lists(st.tuples(
               st.sampled_from(("flip", "cut", "grow", "splice")),
               st.integers(0, 80), st.integers(1, 255),
               st.binary(max_size=6)), min_size=1, max_size=4),
           reseal=st.booleans())
    def test_every_mutant_round_trips_or_raises_net_error(
            self, frame, mutations, reseal):
        """A mutated wire either parses to a frame that packs back to
        exactly those bytes, or is refused with a NetError, never a raw
        struct.error, ValueError or IndexError. Resealing recomputes
        the crc, so header damage reaches the checks behind it."""
        wire = bytearray(frame.pack())
        for kind, at, xor, blob in mutations:
            if kind == "flip" and wire:
                wire[at % len(wire)] ^= xor
            elif kind == "cut":
                del wire[at % (len(wire) + 1):]
            elif kind == "grow":
                wire += blob
            elif kind == "splice":
                start = at % (len(wire) + 1)
                wire[start:start + len(blob)] = blob
        if reseal:
            _reseal(wire)
        mutant = bytes(wire)
        try:
            back = Frame.unpack(mutant)
        except NetError:
            return
        assert back.pack() == mutant


def _reseal(wire: bytearray) -> None:
    """Give *wire* the crc its header and payload call for (a frame's
    crc covers the header with the crc field zeroed, then the payload)."""
    if len(wire) >= HEADER_SIZE:
        crc = zlib.crc32(bytes(wire[:HEADER_SIZE - 4]) + bytes(4)
                         + bytes(wire[HEADER_SIZE:]))
        wire[HEADER_SIZE - 4:HEADER_SIZE] = crc.to_bytes(4, "little")


# ----------------------------------------------------------------------
# the NET fault plane
# ----------------------------------------------------------------------

class TestNetPlans:
    @pytest.mark.parametrize("kind", [FaultKind.DROP, FaultKind.CORRUPT,
                                      FaultKind.DUP, FaultKind.DELAY])
    def test_valid_kinds(self, kind):
        plan = FaultPlan(Plane.NET, kind, probability=0.5)
        assert plan.plane is Plane.NET

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="not valid"):
            FaultPlan(Plane.NET, FaultKind.ERROR)


# ----------------------------------------------------------------------
# seeded fabric determinism (stub kernels, no boot)
# ----------------------------------------------------------------------

class _StubKernel:
    def __init__(self):
        self.clock = Clock()
        self.injector = None


def _stub_fabric(seed: int):
    fabric = Fabric(3, seed=seed)
    nics = [Nic(fabric, node, _StubKernel()) for node in range(3)]
    for node, nic in enumerate(nics):
        fabric.attach(node, nic)
    return fabric, nics


def _drive(seed: int):
    """A fixed traffic pattern; returns the raw delivery transcript."""
    fabric, nics = _stub_fabric(seed)
    for step in range(6):
        nics[step % 3].send(None, (step + 1) % 3, 40 + step,
                            bytes([step]) * step)
    transcript = []
    for rnd in range(1, 12):
        fabric.deliver_due(rnd)
        for nic in nics:
            while nic.inbox:
                transcript.append((rnd, nic.node_id, nic.inbox.pop(0)))
    return transcript


class TestFabricDeterminism:
    def test_same_seed_same_transcript(self):
        assert _drive(1993) == _drive(1993)

    def test_jitter_comes_from_the_seed(self):
        # Different seeds draw different per-link latencies; the frames
        # themselves (seq, payload) are the same either way.
        a, b = _drive(1), _drive(2)
        assert sorted(wire for _, _, wire in a) == \
            sorted(wire for _, _, wire in b)
        assert a != b  # the schedules differ

    def test_total_order_is_round_seq_copy(self):
        # with jitter off, frames due in the same round land in seq
        # order, regardless of how they were queued
        fabric = Fabric(3, seed=7)
        for link in fabric._links.values():
            link.jitter = 0
        nics = [Nic(fabric, node, _StubKernel()) for node in range(3)]
        for node, nic in enumerate(nics):
            fabric.attach(node, nic)
        for _ in range(8):
            nics[0].send(None, 1, 9, b"x")
        fabric.deliver_due(20)  # everything is due at once
        frames = [Frame.unpack(wire) for wire in nics[1].inbox]
        seqs = [frame.seq for frame in frames]
        assert seqs == sorted(seqs)


# ----------------------------------------------------------------------
# cluster boot: striping, pay-for-use, validation
# ----------------------------------------------------------------------

class TestClusterBoot:
    def test_unclustered_boot_pays_nothing(self):
        kernel = boot().kernel
        assert kernel.nic is None
        assert kernel.coherence is None
        assert kernel.sfs.coherence is None
        assert "net" not in kernel.clock.by_category

    def test_inode_striping(self):
        cluster = Cluster(4, seed=11)
        stripe = MAX_INODES // 4
        for node, machine in enumerate(cluster.machines):
            free = machine.kernel.sfs._free_inos
            # pop() allocates from the end: the next ino handed out is
            # the lowest still-free slot of this node's own stripe
            assert node * stripe <= free[-1] < (node + 1) * stripe
            own = [ino for ino in free
                   if node * stripe <= ino < (node + 1) * stripe]
            assert free[-1] == min(own)
        cluster.shutdown()

    def test_segments_land_in_their_stripe(self):
        cluster = Cluster(4, seed=11)
        stripe = MAX_INODES // 4
        for node in (1, 3):
            out = {}
            cluster.spawn(node, f"creator{node}",
                          creator_body(f"/shared/stripe{node}.seg",
                                       out=out))
            cluster.run()
            sfs = cluster.machines[node].kernel.sfs
            lo = sfs.address_of_inode(node * stripe)
            hi = sfs.address_of_inode((node + 1) * stripe - 1)
            assert lo <= out["base"] <= hi
        cluster.shutdown()

    def test_netd_is_pid_one_everywhere(self):
        cluster = Cluster(3, seed=5)
        for machine in cluster.machines:
            assert machine.netd.pid == 1
            assert machine.netd.pid in machine.daemon_pids
        cluster.shutdown()

    @pytest.mark.parametrize("kwargs", [
        dict(nnodes=0),
        dict(nnodes=2, disks=[None]),
        dict(nnodes=2, wide_addresses=True),
    ])
    def test_bad_configurations_rejected(self, kwargs):
        with pytest.raises(NetError):
            Cluster(**kwargs)


# ----------------------------------------------------------------------
# coherence: the single-writer-invalidation protocol
# ----------------------------------------------------------------------

class TestCoherence:
    def test_fetch_upgrade_invalidate_refetch(self):
        cluster = Cluster(4, seed=42)
        views = {}
        cluster.spawn(1, "creator", creator_body(PROP_SEG))
        cluster.run()
        cluster.spawn(1, "w1", writer_body(PROP_SEG, 0, 0xAAAA))
        cluster.run()
        cluster.spawn(2, "r2", reader_body(PROP_SEG, 2, views))
        cluster.run()
        assert views[2][0] == 0xAAAA

        # remote write: node 2 upgrades, node 1's copy is invalidated
        cluster.spawn(2, "w2", writer_body(PROP_SEG, 1, 0xBBBB))
        cluster.run()
        cluster.spawn(1, "r1", reader_body(PROP_SEG, 1, views))
        cluster.spawn(3, "r3", reader_body(PROP_SEG, 3, views))
        cluster.run()
        assert views[1][:2] == [0xAAAA, 0xBBBB]
        assert views[3][:2] == [0xAAAA, 0xBBBB]
        assert not workload_deaths(cluster)

        stats = cluster.coherence_stats()
        assert sum(s["fetches"] for s in stats) >= 2
        assert sum(s["invalidations"] for s in stats) >= 1
        assert sum(s["upgrades"] for s in stats) >= 1
        # only participating nodes charged "net" cycles
        assert cluster.net_cycles()[0] >= 0
        cluster.shutdown()

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           writes=st.lists(st.tuples(st.integers(0, 2),
                                     st.integers(0, 3)),
                           min_size=1, max_size=8),
           kind=st.sampled_from([FaultKind.DROP, FaultKind.CORRUPT,
                                 FaultKind.DUP, FaultKind.DELAY]),
           site=st.sampled_from(["rpc", "rpc-reply", "*"]),
           nfaults=st.integers(min_value=0, max_value=3))
    def test_views_match_model_under_bounded_faults(
            self, seed, writes, kind, site, nfaults):
        """With fewer injected faults than the retransmit budget, every
        exchange completes: all writers succeed, and readers on every
        node agree with the last-write-per-slot model."""
        assert nfaults < MAX_RETRANSMITS
        plans = [FaultPlan(Plane.NET, kind, site=site,
                           probability=1.0, max_faults=nfaults)] \
            if nfaults else []
        with injecting(plans, seed=seed):
            cluster = Cluster(3, seed=(seed % 65521) + 1)
            cluster.spawn(0, "creator", creator_body(PROP_SEG))
            cluster.run()
            model = {}
            for index, (node, slot) in enumerate(writes):
                cluster.spawn(node, f"w{index}",
                              writer_body(PROP_SEG, slot, index + 1))
                cluster.run()
                model[slot] = index + 1
            views = {}
            for node in range(3):
                cluster.spawn(node, f"r{node}",
                              reader_body(PROP_SEG, node, views))
            cluster.run()
            assert not workload_deaths(cluster)
            expected = [model.get(slot, 0) for slot in range(4)]
            assert views == {0: expected, 1: expected, 2: expected}
            cluster.shutdown()

    def test_rpc_exhaustion_is_contained(self):
        """Dropping every rpc frame exhausts the retransmit budget: the
        victim dies with the typed InjectedNetError, the kernels and
        the cluster survive."""
        plans = [FaultPlan(Plane.NET, FaultKind.DROP, site="rpc",
                           probability=1.0)]
        with injecting(plans, seed=3):
            cluster = Cluster(2, seed=8)
            cluster.spawn(0, "creator", creator_body(PROP_SEG))
            cluster.run()
            views = {}
            reader = cluster.spawn(1, "r1",
                                   reader_body(PROP_SEG, 1, views))
            cluster.run()
            assert 1 not in views
            assert reader.death_reason is not None
            assert "InjectedNetError" in reader.death_reason \
                or "SIGSEGV" in reader.death_reason
            injector = cluster.machines[1].kernel.injector
            assert injector is not None and injector.stats.triggered \
                >= MAX_RETRANSMITS
            # the cluster is still alive and serviceable
            cluster.spawn(0, "r0", reader_body(PROP_SEG, 0, views))
            cluster.run()
            assert views[0][0] == 0
            cluster.shutdown()


# ----------------------------------------------------------------------
# rwho at cluster scale: differential oracle + netd bridge
# ----------------------------------------------------------------------

class TestClusterRwho:
    def test_shm_matches_single_kernel_oracle(self):
        from repro.apps.rwho.cluster import (
            run_cluster_rwho,
            single_kernel_rwho,
            synth_statuses,
        )

        statuses = synth_statuses(30)
        cluster = Cluster(4, seed=1993)
        result = run_cluster_rwho(cluster, statuses, "shm",
                                  readers=[1, 3])
        cluster.shutdown()
        oracle = single_kernel_rwho(statuses)
        assert result["outputs"][1] == oracle
        assert result["outputs"][3] == oracle
        # the database crossed the wire once per reading node, not once
        # per host: FETCH/GRANT counts stay constant in nhosts
        assert result["by_kind"]["FETCH"] == 2
        assert result["by_kind"]["DATA"] == 30

    def test_file_baseline_matches_and_costs_more_frames(self):
        from repro.apps.rwho.cluster import (
            run_cluster_rwho,
            single_kernel_rwho,
            synth_statuses,
        )

        statuses = synth_statuses(30)
        shm_cluster = Cluster(3, seed=1993)
        shm = run_cluster_rwho(shm_cluster, statuses, "shm",
                               readers=[1])
        shm_cluster.shutdown()
        file_cluster = Cluster(3, seed=1993)
        filed = run_cluster_rwho(file_cluster, statuses, "file",
                                 readers=[1])
        file_cluster.shutdown()
        oracle = single_kernel_rwho(statuses)
        assert shm["outputs"][1] == oracle
        assert filed["outputs"][1] == oracle
        # file baseline: one LIST + one GET round trip per host
        assert filed["frames_sent"] >= 2 * 30
        assert filed["frames_sent"] > shm["frames_sent"]

    def test_file_baseline_charges_alike_traced_and_untraced(self):
        """Untraced, each exchange charges the caller's adjacent net
        charges as merged pairs; traced, a tx event sits between the
        request's charge and its stall, so they are charged one by one.
        Every node's cycles, elapsed time and categories (in order) and
        every fabric counter must come out the same either way."""
        from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses

        def run(traced):
            statuses = synth_statuses(20)
            arm = _trace.tracing() if traced else contextlib.nullcontext()
            with arm:
                cluster = Cluster(3, seed=1993)
                result = run_cluster_rwho(cluster, statuses, "file",
                                          readers=[1, 2])
                calls = sum(event.name == "tx:call"
                            for event in _trace.TRACER.events())
            cluster.shutdown()
            clocks = [machine.kernel.clock for machine in cluster.machines]
            return calls, (
                [(clock.cycles, clock.elapsed,
                  list(clock.by_category.items())) for clock in clocks],
                dataclasses.asdict(cluster.fabric.stats),
                result["outputs"])

        untraced_calls, untraced = run(False)
        traced_calls, traced = run(True)
        assert untraced_calls == 0
        assert traced_calls == 2 * 21  # one LIST + 20 GETs per reader
        assert traced == untraced

    def test_hosts_over_the_user_cap_agree(self):
        from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses
        from repro.apps.rwho.common import MAX_USERS_PER_HOST

        statuses = synth_statuses(12, users_per_host=8)
        outputs = {}
        for impl in ("shm", "file"):
            cluster = Cluster(3, seed=1993)
            outputs[impl] = run_cluster_rwho(cluster, statuses, impl,
                                             readers=[1])["outputs"][1]
            cluster.shutdown()
        assert outputs["shm"] == outputs["file"]
        # both keep the first MAX_USERS_PER_HOST users of every host
        assert len(outputs["file"].splitlines()) \
            == 12 * MAX_USERS_PER_HOST


# ----------------------------------------------------------------------
# replay-drift regression
# ----------------------------------------------------------------------

def _soak(plans, seed):
    """Record the 4-node rwho scenario through the rr oracle and replay
    it; returns (recording, report, faults triggered, reader outputs of
    the record and the replay run)."""
    outputs = []

    def workload():
        outputs.append(_net_scenario(4, seed, 24, "shm")["outputs"])

    recording = record_call(workload, plans=plans, inject_seed=seed)
    triggered = _campaign_totals(plans)["triggered"]
    report = replay_call(recording, workload)
    return recording, report, triggered, outputs


class TestReplayDrift:
    def test_fault_free_replay_is_bit_identical(self):
        recording, report, _triggered, outputs = _soak([], 1993)
        assert recording.outcome == "clean"
        assert report.ok, report.render()
        assert len(outputs) == 2 and outputs[0] == outputs[1]
        assert any(event[0] == EventKind.NET
                   for event in recording.events)  # NET was traced
        assert report.boots_compared == 4  # per-node cycle counts

    def test_faulted_replay_is_bit_identical(self):
        plans = _campaign_plans(["net"], 0.2)
        recording, report, triggered, outputs = _soak(plans, 1993)
        assert recording.outcome != "kernel-death"
        assert triggered > 0
        assert report.ok, report.render()
        assert len(outputs) == 2 and outputs[0] == outputs[1]
        assert recording.events


# ----------------------------------------------------------------------
# scheduler wedge/deadlock detection
# ----------------------------------------------------------------------

class TestSchedulerGuards:
    def test_datagram_to_dead_port_is_a_typed_wedge(self):
        cluster = Cluster(2, seed=3)

        def lonely(kernel, proc):
            kernel.nic.send(proc, 1, 0x999, b"anyone home?")
            yield
            return 0

        cluster.spawn(0, "lonely", lonely)
        with pytest.raises(NetError, match="wedged|drain"):
            cluster.run()
        cluster.shutdown()

    def test_round_ceiling_is_enforced(self):
        cluster = Cluster(2, seed=3)

        def forever(kernel, proc):
            while True:
                yield

        cluster.spawn(0, "spin", forever)
        with pytest.raises(NetError, match="quiesce|wedged"):
            cluster.run(max_rounds=50)
        cluster.shutdown()


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------

class TestCli:
    def test_topo_is_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        assert repronet_main(["topo", "--nodes", "3"], stdout=a) == 0
        assert repronet_main(["topo", "--nodes", "3"], stdout=b) == 0
        assert a.getvalue() == b.getvalue()
        assert "inos [0, 341)" in a.getvalue()

    def test_run_reports_traffic(self):
        out = io.StringIO()
        status = repronet_main(
            ["run", "--nodes", "3", "--hosts", "12"], stdout=out)
        assert status == 0
        text = out.getvalue()
        assert "frames" in text and "reader on node" in text

    def test_soak_passes_fixed_seed(self):
        out = io.StringIO()
        status = repronet_main(
            ["soak", "--nodes", "3", "--hosts", "8", "--runs", "1",
             "--rate", "0.05"], stdout=out)
        assert status == 0
        assert "OK" in out.getvalue()

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            repronet_main([])
        with pytest.raises(UsageError):
            repronet_main(["run", "--bogus"])
        with pytest.raises(UsageError):
            repronet_main(["run", "--impl", "carrier-pigeon"])
        with pytest.raises(UsageError):
            reprochaos_main(["--net", "--crash", "x.py"])
