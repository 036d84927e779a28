"""repro.rr — whole-machine record/replay and the divergence oracle.

Three layers of contract:

* the **format** (`.rrr`): byte-stable TLV round-trips for manifests,
  packed events, fault plans, and checkpoints;
* the **oracle**: a replay armed with a recording's manifest must be
  bit-identical (events, per-boot cycle totals, checkpoint digests,
  outcome), and any deliberate perturbation must surface as the first
  divergent item with its cycle;
* **time travel**: `seek --cycle N` restores the nearest checkpoint
  (digest-verified) and the re-execution from cycle N onward matches
  the recording exactly — on a single kernel and on an 8-node cluster,
  fault-free and under seeded fault plans (the Hypothesis properties).

`materialize()` is additionally pinned: for machine-pure states,
capture → materialize → capture is a fixed point, and forward execution
from the materialized kernel is bit-identical to never having stopped.
"""

from __future__ import annotations

import os
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.codec import decode_fields, encode_fields
from repro.errors import RRError, SimulationError, TraceCursorError
from repro.inject import FaultKind, FaultPlan, Plane
from repro.kernel.timing import CHECKPOINT_NEVER, Clock
from repro.rr import (
    Checkpoint,
    Recording,
    capture_cluster,
    capture_machine,
    diff_states,
    materialize,
    record_call,
    replay_call,
    seek_call,
    state_digest,
)
from repro.rr.recording import _MAGIC, decode_plan, encode_plan
from repro.tools.cli import UsageError, reprorr_main
from tests.test_disk import mutated

LOOP_SOURCE = """
    .text
    .globl main
main:
    li t0, 20000
loop:
    addi t0, t0, -1
    bgtz t0, loop
    li v0, 0
    jr ra
"""


def _loop_image():
    from repro.hw.asm import assemble
    from repro.linker.baseline_ld import link_static

    return link_static([assemble(LOOP_SOURCE, "main.o")])


def _solo_workload():
    """One kernel: boot, some file traffic, one machine process."""
    from repro import boot

    system = boot()
    kernel = system.kernel
    kernel.vfs.makedirs("/data")
    for index in range(4):
        kernel.vfs.write_whole(f"/data/f{index}",
                               bytes([index]) * 256)
    proc = kernel.create_machine_process("loop", _loop_image())
    kernel.run_until_exit(proc)
    kernel.shutdown()


def _cluster_workload():
    """Eight nodes running the rwho scale scenario."""
    from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses
    from repro.net import Cluster

    cluster = Cluster(8, seed=7)
    run_cluster_rwho(cluster, synth_statuses(8), "shm")
    cluster.shutdown()


# ---------------------------------------------------------------------------
# format
# ---------------------------------------------------------------------------

class TestRecordingFormat:
    def test_bytes_roundtrip(self):
        recording = Recording(
            manifest={"script": "x.py", "argv": ["a"], "env":
                      {"REPRO_CLUSTER": "4"}, "plans": [], "inject_seed":
                      3, "nodes": 4, "net_seed": 7, "interval": 1000,
                      "kinds": ["FAULT"], "capacity": 512},
            boots=[(100, [["syscalls", 60], ["switches", 40]])],
            events=[[1, 50, 2, 0, "open", 0, 0, 0]],
            checkpoints=[Checkpoint(boot=0, cycle=80, cursor=1,
                                    digest=b"\x01" * 32,
                                    state=["machine", [80, []]])],
            emitted=1, dropped=0, outcome="clean",
        )
        clone = Recording.from_bytes(recording.to_bytes())
        assert clone.manifest == recording.manifest
        assert clone.boots == recording.boots
        assert clone.events == recording.events
        assert clone.emitted == 1 and clone.dropped == 0
        assert clone.outcome == "clean"
        assert len(clone.checkpoints) == 1
        copied = clone.checkpoints[0]
        original = recording.checkpoints[0]
        assert (copied.boot, copied.cycle, copied.cursor,
                copied.digest) == (original.boot, original.cycle,
                                   original.cursor, original.digest)
        assert copied.state == original.state

    def test_bytes_deterministic(self):
        recording = record_call(_solo_workload, interval=50_000)
        assert recording.to_bytes() == recording.to_bytes()
        clone = Recording.from_bytes(recording.to_bytes())
        assert clone.to_bytes() == recording.to_bytes()

    def test_save_load(self, tmp_path):
        recording = record_call(_solo_workload, interval=50_000)
        path = str(tmp_path / "run.rrr")
        recording.save(path)
        assert Recording.load(path).to_bytes() == recording.to_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.rrr"
        path.write_bytes(b"not a recording at all")
        with pytest.raises(RRError):
            Recording.load(str(path))

    def test_plan_roundtrip(self):
        plans = [
            FaultPlan(Plane.SYSCALL, FaultKind.ERROR, probability=0.25,
                      errno="EIO"),
            FaultPlan(Plane.IO, FaultKind.SHORT_READ, site="read",
                      max_faults=3, after=2),
            FaultPlan(Plane.LINKER, FaultKind.ERROR, transient=True),
            FaultPlan(Plane.NET, FaultKind.DROP, probability=0.5),
        ]
        for plan in plans:
            clone = decode_plan(encode_plan(plan))
            assert encode_plan(clone) == encode_plan(plan)

    def test_nearest_checkpoint(self):
        cps = [Checkpoint(0, 100, 1, b"a", []),
               Checkpoint(0, 200, 2, b"b", []),
               Checkpoint(0, 300, 3, b"c", [])]
        recording = Recording(manifest={}, boots=[], events=[],
                              checkpoints=cps)
        assert recording.nearest_checkpoint(50) is None
        assert recording.nearest_checkpoint(100).cycle == 100
        assert recording.nearest_checkpoint(250).cycle == 200
        assert recording.nearest_checkpoint(9999).cycle == 300


def _sample_recording() -> Recording:
    """A small recording with one row of every kind."""
    return Recording(
        manifest={"script": "x.py", "argv": ["a"],
                  "env": {"REPRO_CLUSTER": "4", "REPRO_CORES": "2"},
                  "plans": [encode_plan(FaultPlan(
                      Plane.IO, FaultKind.SHORT_READ, site="read",
                      probability=0.5, max_faults=3))],
                  "inject_seed": 3, "nodes": 4, "net_seed": 7,
                  "interval": 1000, "kinds": ["FAULT", "NET"],
                  "capacity": 512},
        boots=[(100, [["syscalls", 60], ["switches", 40]])],
        events=[[1, 50, 2, 0, "open", 0, 0, 0],
                [2, 90, 2, 4096, "", 1, 3, 0]],
        checkpoints=[Checkpoint(boot=0, cycle=80, cursor=1,
                                digest=b"\x01" * 32,
                                state=["machine", [80, []]])],
        emitted=2, dropped=0, outcome="clean",
    )


SAMPLE_RRR = _sample_recording().to_bytes()


def _payload(blob: bytes) -> bytes:
    return zlib.decompress(blob[len(_MAGIC):])


def _with_payload(payload: bytes) -> bytes:
    return _MAGIC + zlib.compress(payload)


def _sample_fields() -> list:
    return decode_fields(_payload(SAMPLE_RRR))


def _replace(path: tuple, value) -> bytes:
    """The sample recording with the field at *path* set to *value*."""
    fields = _sample_fields()
    row = fields
    for index in path[:-1]:
        row = row[index]
    row[path[-1]] = value
    return _with_payload(encode_fields(fields))


class TestMutatedRecordingBytes:
    """Every mutant of a recording, of its file bytes or of its
    payload, decodes to a recording that re-encodes to exactly its
    payload, or is refused with a typed error."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutation_property(self, data):
        if data.draw(st.booleans(), label="payload"):
            blob = _with_payload(
                data.draw(mutated(_payload(SAMPLE_RRR)), label="mutant"))
        else:
            blob = data.draw(mutated(SAMPLE_RRR), label="mutant")
        try:
            recording = Recording.from_bytes(blob)
        except SimulationError:
            return
        assert _payload(recording.to_bytes()) == _payload(blob)

    @pytest.mark.parametrize("mutant", [
        lambda: _replace((1,), 5),
        lambda: _replace((1, 2), [[1, 2, 3]]),
        lambda: _replace((2,), [5]),
        lambda: _replace((4,), [7]),
        lambda: _replace((1, 2), [["REPRO_CORES", "2"],
                                  ["REPRO_CLUSTER", "4"]]),
        lambda: _replace((1, 3, 0, 5), "often"),
        lambda: _replace((1, 8), ["NOPE"]),
        lambda: _replace((3, 1), [2, 90]),
        lambda: SAMPLE_RRR + b"\x00",
        lambda: SAMPLE_RRR[:-1],
    ], ids=["manifest-int", "env-triple", "boot-int", "checkpoint-int",
            "env-unsorted", "plan-probability", "unknown-kind",
            "short-event", "trailing-byte", "cut-stream"])
    def test_typed_rejections(self, mutant):
        with pytest.raises(RRError):
            Recording.from_bytes(mutant())

    @pytest.mark.parametrize("state", [
        ["machine", 5, 1, 1, [], [], 0, [], [], [], [7]],
        ["machine", [0, [], 0, 1, []], 1, 1, [], [], 0, [], [], [], [7]],
        ["machine", [1, 2], 1, 1, [], [], 0, [], [], [], []],
    ], ids=["clock-int", "process-int", "two-field-clock"])
    def test_malformed_machine_state_is_refused(self, state):
        with pytest.raises(RRError):
            materialize(state)

    def test_seeded_machine_state_mutants(self):
        """A captured machine state with one node replaced materializes
        or is refused with a typed error."""
        import copy
        import random

        from repro.kernel.kernel import Kernel
        from repro.runtime.libshared import attach_runtime

        kernel = Kernel()
        attach_runtime(kernel)
        proc = kernel.create_machine_process("loop", _loop_image())
        while kernel.clock.cycles < 40_000 and proc.alive:
            kernel.smp.run_round()
        state = capture_machine(kernel)
        paths = []

        def walk(node, path):
            paths.append(path)
            if isinstance(node, list):
                for index, child in enumerate(node):
                    walk(child, path + (index,))
        walk(state, ())
        rng = random.Random(1993)
        for _ in range(150):
            mutant = copy.deepcopy(state)
            path = rng.choice(paths[1:])
            parent = mutant
            for index in path[:-1]:
                parent = parent[index]
            parent[path[-1]] = rng.choice(
                [5, -1, "x", None, [], [7], b"", [1, 2]])
            try:
                materialize(mutant)
            except SimulationError:
                pass

    def test_replay_of_a_malformed_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.rrr"
        path.write_bytes(_replace((1,), 5))
        with pytest.raises(UsageError, match="malformed manifest"):
            reprorr_main(["replay", str(path)])


# ---------------------------------------------------------------------------
# the clock's checkpoint hook
# ---------------------------------------------------------------------------

class TestClockCheckpointHook:
    def test_disarmed_clock_never_fires(self):
        clock = Clock()
        fired = []
        clock.on_checkpoint = fired.append
        clock.charge("syscalls", 10_000)
        assert not fired
        assert clock.checkpoint_at == CHECKPOINT_NEVER

    def test_fires_once_then_disarms(self):
        clock = Clock()
        fired = []
        clock.on_checkpoint = fired.append
        clock.checkpoint_at = 100
        clock.charge("syscalls", 150)
        clock.charge("syscalls", 150)
        assert len(fired) == 1
        assert clock.checkpoint_at == CHECKPOINT_NEVER

    def test_hook_may_rearm(self):
        clock = Clock()
        fired = []

        def hook(c):
            fired.append(c.cycles)
            c.checkpoint_at = c.cycles + 100

        clock.on_checkpoint = hook
        clock.checkpoint_at = 100
        for _ in range(10):
            clock.charge("syscalls", 60)
        assert fired == [120, 240, 360, 480, 600]


# ---------------------------------------------------------------------------
# oracle: replay and deliberate divergence
# ---------------------------------------------------------------------------

class TestOracle:
    def test_fault_free_replay_is_clean(self):
        recording = record_call(_solo_workload, interval=50_000)
        assert recording.outcome == "clean"
        assert recording.checkpoints, "expected periodic checkpoints"
        report = replay_call(recording, _solo_workload)
        assert report.ok, report.render()
        assert report.events_compared == len(recording.events)
        assert "bit-identical" in report.render()

    def test_faulted_replay_is_bit_identical(self):
        plans = [FaultPlan(Plane.SYSCALL, FaultKind.ERROR,
                           probability=0.01, errno="EIO")]
        recording = record_call(_solo_workload, interval=50_000,
                                plans=plans, inject_seed=11)
        report = replay_call(recording, _solo_workload)
        assert report.ok, report.render()

    def test_oracle_reports_divergence_with_cycle(self):
        """A workload that behaves differently on its second run must
        be caught, and the report must carry a usable location."""
        runs = {"n": 0}

        def flaky():
            from repro import boot

            system = boot()
            kernel = system.kernel
            kernel.vfs.makedirs("/data")
            runs["n"] += 1
            if runs["n"] > 1:  # replay-only extra work
                kernel.vfs.write_whole("/data/extra", b"x" * 64)
            proc = kernel.create_machine_process("loop", _loop_image())
            kernel.run_until_exit(proc)
            kernel.shutdown()

        recording = record_call(flaky, interval=50_000)
        report = replay_call(recording, flaky)
        assert not report.ok
        divergence = report.divergence
        assert divergence.what in ("event", "event-count", "cycles",
                                   "checkpoint")
        assert "divergence" in report.render()

    def test_outcome_divergence(self):
        runs = {"n": 0}

        def sometimes_fails():
            from repro import boot

            boot().kernel.shutdown()
            runs["n"] += 1
            if runs["n"] > 1:
                raise SystemExit(3)

        recording = record_call(sometimes_fails, interval=None)
        report = replay_call(recording, sometimes_fails)
        assert not report.ok
        assert report.divergence.what == "outcome"
        assert report.divergence.replayed == "workload-failure"


# ---------------------------------------------------------------------------
# materialize: the true state-restore fast path
# ---------------------------------------------------------------------------

class TestMaterialize:
    def _mid_run_kernel(self):
        from repro.kernel.kernel import Kernel
        from repro.runtime.libshared import attach_runtime

        kernel = Kernel()
        attach_runtime(kernel)
        proc = kernel.create_machine_process("loop", _loop_image())
        while kernel.clock.cycles < 40_000 and proc.alive:
            kernel.smp.run_round()
        return kernel, proc

    def test_capture_is_a_fixed_point(self):
        kernel, _proc = self._mid_run_kernel()
        state = capture_machine(kernel)
        clone = materialize(state)
        assert diff_states(state, capture_machine(clone)) is None
        assert state_digest(capture_machine(clone)) \
            == state_digest(state)

    def test_forward_execution_bit_identical(self):
        kernel, proc = self._mid_run_kernel()
        state = capture_machine(kernel)
        kernel.run_until_exit(proc)
        original = (kernel.clock.cycles, dict(kernel.clock.by_category),
                    proc.exit_code)
        clone = materialize(state)
        twin = clone.process(proc.pid)
        clone.run_until_exit(twin)
        assert (clone.clock.cycles, dict(clone.clock.by_category),
                twin.exit_code) == original
        assert state_digest(capture_machine(clone)) \
            == state_digest(capture_machine(kernel))

    def test_cluster_state_is_rejected(self):
        from repro.net import Cluster

        cluster = Cluster(2, seed=3)
        state = capture_cluster(cluster)
        cluster.shutdown()
        with pytest.raises(RRError):
            materialize(state)

    def test_live_native_process_is_rejected(self):
        from repro import boot

        system = boot()
        kernel = system.kernel

        def body(kernel, proc):
            while True:
                yield

        kernel.create_native_process("daemon", body)
        state = capture_machine(kernel)
        with pytest.raises(RRError):
            materialize(state)

    # A rebuilt kernel is a copy of a captured machine, not a new boot
    # of the armed workload: nothing armed may attach to it.

    def _fresh_state(self):
        from repro import boot

        return capture_machine(boot().kernel)

    def test_durable_campaign_does_not_attach(self):
        from repro.disk import durable

        state = self._fresh_state()
        with durable(nblocks=2048) as stores:
            clones = [materialize(state), materialize(state)]
        assert [clone.disk for clone in clones] == [None, None]
        assert stores == []

    def test_armed_sanitizer_does_not_attach(self):
        from repro.sanitize import sanitizing

        state = self._fresh_state()
        with sanitizing():
            clones = [materialize(state), materialize(state)]
        assert [clone.sanitizer for clone in clones] == [None, None]

    def test_injection_campaign_does_not_attach(self):
        from repro.inject import injecting

        state = self._fresh_state()
        with injecting([FaultPlan(Plane.SYSCALL, FaultKind.ERROR,
                                  probability=1.0)], seed=1) as injectors:
            clones = [materialize(state), materialize(state)]
        assert [clone.injector for clone in clones] == [None, None]
        assert injectors == []


# ---------------------------------------------------------------------------
# seek
# ---------------------------------------------------------------------------

class TestSeek:
    def test_seek_to_checkpoint_cycle(self):
        recording = record_call(_solo_workload, interval=50_000)
        target = recording.checkpoints[0].cycle
        result = seek_call(recording, target, _solo_workload)
        assert result.checkpoint_cycle == target
        assert result.digest_ok
        assert result.suffix_identical
        assert result.events == [event for event in recording.events
                                 if event[1] >= target]

    def test_seek_before_first_checkpoint_replays_from_boot(self):
        recording = record_call(_solo_workload, interval=50_000)
        result = seek_call(recording, 0, _solo_workload)
        assert result.checkpoint_cycle is None
        assert result.digest_ok
        assert result.suffix_identical
        assert len(result.events) == len(recording.events)

    def test_reverse_step(self):
        """Seek to a later cycle, then to an earlier one: both restore
        verified state, which is what reverse-step means here."""
        recording = record_call(_solo_workload, interval=15_000)
        assert len(recording.checkpoints) >= 2
        later = recording.checkpoints[-1].cycle + 1
        earlier = recording.checkpoints[0].cycle + 1
        forward = seek_call(recording, later, _solo_workload)
        backward = seek_call(recording, earlier, _solo_workload)
        assert forward.digest_ok and forward.suffix_identical
        assert backward.digest_ok and backward.suffix_identical
        assert backward.checkpoint_cycle < forward.checkpoint_cycle


# ---------------------------------------------------------------------------
# the Hypothesis properties (ISSUE 7 satellite 4)
# ---------------------------------------------------------------------------

def _plans_for(plane: str, rate: float):
    if not rate:
        return []
    if plane == "syscall":
        return [FaultPlan(Plane.SYSCALL, FaultKind.ERROR,
                          probability=rate, errno="EIO")]
    if plane == "io":
        return [FaultPlan(Plane.IO, FaultKind.SHORT_READ, site="read",
                          probability=rate)]
    return [FaultPlan(Plane.LINKER, FaultKind.ERROR, probability=rate,
                      transient=True)]


class TestReplayProperties:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           plane=st.sampled_from(["syscall", "io", "linker"]),
           rate=st.sampled_from([0.0, 0.002, 0.01]),
           interval=st.integers(min_value=30_000, max_value=150_000),
           pick=st.integers(min_value=0, max_value=2**32 - 1))
    def test_single_kernel_seek_bit_identical(self, seed, plane, rate,
                                              interval, pick):
        """Any (seed, fault plan, checkpoint cycle): restoring the
        checkpoint and re-executing is bit-identical to the
        uninterrupted recording — events from the target cycle onward
        match exactly and the restored digest verifies."""
        recording = record_call(_solo_workload, interval=interval,
                                plans=_plans_for(plane, rate),
                                inject_seed=seed)
        report = replay_call(recording, _solo_workload)
        assert report.ok, report.render()
        horizon = max(boot[0] for boot in recording.boots)
        cycle = pick % (horizon + 1)
        result = seek_call(recording, cycle, _solo_workload)
        assert result.digest_ok, result.render()
        assert result.suffix_identical, result.render()

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           nfaults=st.integers(min_value=0, max_value=2),
           interval=st.integers(min_value=10_000, max_value=60_000),
           pick=st.integers(min_value=0, max_value=2**32 - 1))
    def test_cluster_seek_bit_identical(self, seed, nfaults, interval,
                                        pick):
        """The same property on an 8-node cluster, with bounded
        NET-plane faults (under the retransmit budget, so the scenario
        still completes) and round-boundary checkpoints."""
        plans = [FaultPlan(Plane.NET, FaultKind.DROP, probability=1.0,
                           max_faults=nfaults)] if nfaults else []
        recording = record_call(_cluster_workload, interval=interval,
                                plans=plans, inject_seed=seed)
        report = replay_call(recording, _cluster_workload)
        assert report.ok, report.render()
        horizon = max(boot[0] for boot in recording.boots)
        cycle = pick % (horizon + 1)
        result = seek_call(recording, cycle, _cluster_workload)
        assert result.digest_ok, result.render()
        assert result.suffix_identical, result.render()


# ---------------------------------------------------------------------------
# the reprorr CLI
# ---------------------------------------------------------------------------

class TestReprorrCli:
    def _script(self, tmp_path):
        script = tmp_path / "workload.py"
        script.write_text(
            "from repro import boot\n"
            "system = boot()\n"
            "system.kernel.vfs.makedirs('/data')\n"
            "system.kernel.vfs.write_whole('/data/f', b'x' * 128)\n"
            "system.kernel.shutdown()\n"
        )
        return str(script)

    def test_record_replay_info_seek(self, tmp_path, capsys):
        script = self._script(tmp_path)
        out = str(tmp_path / "run.rrr")
        assert reprorr_main(["record", "-o", out, "--interval",
                             "100000", script]) == 0
        assert os.path.isfile(out)
        assert reprorr_main(["info", out]) == 0
        assert reprorr_main(["replay", out]) == 0
        assert reprorr_main(["seek", "--cycle", "100000", out]) == 0
        text = capsys.readouterr().out
        assert "replay ok" in text
        assert "bit-identical" in text

    def test_usage_errors(self, tmp_path):
        with pytest.raises(UsageError):
            reprorr_main([])
        with pytest.raises(UsageError):
            reprorr_main(["bogus"])
        with pytest.raises(UsageError):
            reprorr_main(["record", "/no/such/script.py"])
        with pytest.raises(UsageError):
            reprorr_main(["replay", "/no/such/recording.rrr"])
        with pytest.raises(UsageError):
            reprorr_main(["info"])
        recording = tmp_path / "r.rrr"
        recording.write_bytes(b"garbage")
        with pytest.raises(UsageError):
            reprorr_main(["replay", str(recording)])
        with pytest.raises(UsageError):  # seek without --cycle
            reprorr_main(["seek", str(recording)])

    def test_script_args_pass_through_verbatim(self, tmp_path):
        """Everything after the script, ``--`` included, is its argv."""
        script = self._script(tmp_path)
        out = str(tmp_path / "run.rrr")
        assert reprorr_main(["record", "-o", out, script,
                             "--", "--seed", "3"]) == 0
        assert Recording.load(out).manifest["argv"] == ["--", "--seed", "3"]

    def test_replay_missing_script_wants_override(self, tmp_path):
        script = self._script(tmp_path)
        out = str(tmp_path / "run.rrr")
        assert reprorr_main(["record", "-o", out, script]) == 0
        os.remove(script)
        with pytest.raises(UsageError):
            reprorr_main(["replay", out])
