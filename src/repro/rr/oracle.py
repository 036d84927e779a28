"""Record a run, replay it, and find the first divergence.

The oracle's contract: a replay armed with a recording's manifest must
reproduce the original run *bit-for-bit* — the same trace events at
the same cycles, the same per-category cycle totals per boot, the same
checkpoint digests, the same outcome. Any mismatch is nondeterminism
in the substrate (kernel, vm, disk, net, or inject plane) and is
reported as the first divergent event with its cycle, which is exactly
the information a bisection needs. It is the one determinism check:
``reprorr`` and the ``reprochaos``, ``repronet soak`` and ``reprosan
soak`` soaks all record and replay through it.

Two entry styles:

* ``*_script`` — a Python script run under ``runpy`` with a swapped
  ``argv`` (``reprorr``, ``reprochaos``);
* ``*_call`` — a callable, so soaks and suites can record inline
  workloads without touching the filesystem.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.rr.checkpoint import diff_states, state_digest
from repro.rr.recording import (
    RECORD_CAPACITY,
    Checkpoint,
    Recording,
    encode_plan,
    pack_event,
)

#: Trace kinds armed by default while recording: everything, so the
#: oracle sees faults, links, maps, messages, net frames, and disk
#: traffic alike.
DEFAULT_KINDS = None


@dataclass
class Divergence:
    """Where a replay first disagreed with its recording."""

    what: str            # event | event-count | cycles | checkpoint | outcome
    index: int           # event index / boot index / checkpoint index
    cycle: int           # simulated cycle of the divergence (-1: n/a)
    recorded: object
    replayed: object
    detail: str = ""

    def render(self) -> str:
        head = (f"first divergence: {self.what}[{self.index}] "
                f"at cycle {self.cycle}"
                if self.cycle >= 0
                else f"first divergence: {self.what}[{self.index}]")
        lines = [head,
                 f"  recorded: {self.recorded!r}",
                 f"  replayed: {self.replayed!r}"]
        if self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)


@dataclass
class ReplayReport:
    """The oracle's verdict for one replay."""

    divergence: Optional[Divergence]
    events_compared: int = 0
    boots_compared: int = 0
    checkpoints_compared: int = 0
    outcome: str = ""

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        if self.ok:
            return (f"replay ok: {self.events_compared} event(s), "
                    f"{self.boots_compared} boot(s), "
                    f"{self.checkpoints_compared} checkpoint(s) "
                    f"bit-identical ({self.outcome})")
        return self.divergence.render()


@dataclass
class SeekResult:
    """What ``reprorr seek --cycle N`` established."""

    target_cycle: int
    checkpoint_cycle: Optional[int]   # None: replayed from boot
    digest_ok: bool
    suffix_identical: bool
    events: List[list] = field(default_factory=list)  # cycle >= target
    outcome: str = ""

    def render(self) -> str:
        origin = (f"checkpoint @cycle {self.checkpoint_cycle}"
                  if self.checkpoint_cycle is not None else "boot")
        verdict = ("bit-identical" if self.suffix_identical
                   else "DIVERGED")
        digest = ("digest verified" if self.digest_ok
                  else "DIGEST MISMATCH")
        return (f"seek to cycle {self.target_cycle}: restored from "
                f"{origin}, {digest}, {len(self.events)} event(s) from "
                f"cycle {self.target_cycle} onward {verdict} "
                f"({self.outcome})")


# ---------------------------------------------------------------------------
# one armed run
# ---------------------------------------------------------------------------

def capture_env() -> dict:
    """The host's ``REPRO_*`` environment (what a manifest records)."""
    return {key: value for key, value in os.environ.items()
            if key.startswith("REPRO_")}


@contextlib.contextmanager
def applied_env(env: dict):
    """The recorded ``REPRO_*`` environment, exactly: recorded keys
    set, extraneous ones removed, everything restored after."""
    saved = capture_env()
    for key in saved:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)
    try:
        yield
    finally:
        for key in capture_env():
            if key not in saved:
                del os.environ[key]
        os.environ.update(saved)


def classify_run(runner: Callable[[], None]) -> Tuple[str, str]:
    """Run *runner* with its stdout discarded and classify how it ended.

    Returns ``(outcome, detail)``. Outcomes:

    * ``clean`` — the workload finished (exit status 0);
    * ``workload-failure`` — it aborted on a simulated error or a
      failed assertion: a fault surfaced, but through the
      simulation's own typed channels;
    * ``kernel-death`` — a non-simulation exception escaped: the
      simulator itself broke. Always a bug.
    """
    outcome, detail = "clean", ""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runner()
    except SystemExit as status:
        if status.code not in (None, 0):
            outcome = "workload-failure"
            detail = f"exit status {status.code}"
    except (SimulationError, AssertionError) as error:
        outcome = "workload-failure"
        detail = f"{type(error).__name__}: {error}"
    except Exception as error:  # noqa: BLE001 - oracle duty
        outcome = "kernel-death"
        detail = f"{type(error).__name__}: {error}"
    return outcome, detail


def _run_once(runner: Callable[[], None], manifest: dict) -> dict:
    """Execute *runner* with the manifest's arming; returns the
    observed run (outcome, events, boots, checkpoints, topology)."""
    from repro.inject.injector import injecting
    from repro.rr.recorder import recording
    from repro.rr.recording import decode_plan
    from repro.trace import tracer as _trace
    from repro.trace.tracer import tracing

    plans = [decode_plan(row) for row in manifest.get("plans", [])]
    faults = injecting(plans, seed=manifest.get("inject_seed") or 0) \
        if plans else contextlib.nullcontext()
    with faults, \
            tracing(kinds=manifest.get("kinds"),
                    capacity=manifest.get("capacity", RECORD_CAPACITY)), \
            recording(interval=manifest.get("interval")) as campaign:
        with applied_env(manifest.get("env", {})):
            outcome, detail = classify_run(runner)
        tracer = _trace.TRACER
        events = [pack_event(event) for event in tracer.events()] \
            if tracer.enabled else []
        emitted = tracer.emitted if tracer.enabled else 0
        dropped = tracer.dropped if tracer.enabled else 0
        boots = []
        checkpoints = []
        nodes, net_seed = 0, None
        for recorder in campaign:
            clock = recorder.kernel.clock
            boots.append((clock.cycles,
                          [[name, clock.by_category[name]]
                           for name in sorted(clock.by_category)]))
            for state, cycle, cursor, boot in recorder.checkpoints:
                checkpoints.append(Checkpoint(
                    boot=boot, cycle=cycle, cursor=cursor,
                    digest=state_digest(state), state=state))
            if recorder.kernel.nic is not None:
                fabric = recorder.kernel.nic.fabric
                nodes = max(nodes, fabric.nnodes)
                net_seed = fabric.seed
        checkpoints.sort(key=lambda cp: (cp.boot, cp.cycle))
    return {
        "outcome": outcome, "detail": detail, "events": events,
        "emitted": emitted, "dropped": dropped, "boots": boots,
        "checkpoints": checkpoints, "nodes": nodes, "net_seed": net_seed,
    }


def script_runner(script: str, argv: Sequence[str]):
    def run() -> None:
        saved_argv = sys.argv
        sys.argv = [script] + list(argv)
        try:
            runpy.run_path(script, run_name="__main__")
        finally:
            sys.argv = saved_argv
    return run


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def _record(runner: Callable[[], None], manifest: dict) -> Recording:
    observed = _run_once(runner, manifest)
    manifest = dict(manifest)
    manifest["nodes"] = observed["nodes"]
    manifest["net_seed"] = observed["net_seed"]
    return Recording(
        manifest=manifest,
        boots=observed["boots"],
        events=observed["events"],
        checkpoints=observed["checkpoints"],
        emitted=observed["emitted"],
        dropped=observed["dropped"],
        outcome=observed["outcome"],
        detail=observed["detail"],
    )


def _build_manifest(script, argv, interval, plans, inject_seed,
                    kinds, capacity) -> dict:
    return {
        "script": script,
        "argv": list(argv),
        "env": capture_env(),
        "plans": [encode_plan(plan) for plan in plans],
        "inject_seed": inject_seed,
        "nodes": 0,
        "net_seed": None,
        "interval": interval,
        "kinds": list(kinds) if kinds is not None else None,
        "capacity": capacity,
    }


def record_script(script: str, argv: Sequence[str] = (), *,
                  interval: Optional[int] = None,
                  plans: Sequence = (), inject_seed: int = 0,
                  kinds=DEFAULT_KINDS,
                  capacity: int = RECORD_CAPACITY) -> Recording:
    """Record one run of *script* (the ``reprorr record`` path)."""
    from repro.rr.recorder import DEFAULT_INTERVAL

    manifest = _build_manifest(script, argv,
                               DEFAULT_INTERVAL if interval is None
                               else interval,
                               plans, inject_seed, kinds, capacity)
    return _record(script_runner(script, argv), manifest)


def record_call(workload: Callable[[], None], *,
                interval: Optional[int] = None,
                plans: Sequence = (), inject_seed: int = 0,
                kinds=DEFAULT_KINDS,
                capacity: int = RECORD_CAPACITY) -> Recording:
    """Record one run of an inline *workload* callable."""
    from repro.rr.recorder import DEFAULT_INTERVAL

    manifest = _build_manifest(None, (),
                               DEFAULT_INTERVAL if interval is None
                               else interval,
                               plans, inject_seed, kinds, capacity)
    return _record(workload, manifest)


# ---------------------------------------------------------------------------
# replay + divergence
# ---------------------------------------------------------------------------

def _compare(recording: Recording, observed: dict) -> ReplayReport:
    recorded_events = recording.events
    replayed_events = observed["events"]
    for index, (left, right) in enumerate(zip(recorded_events,
                                              replayed_events)):
        if left != right:
            return ReplayReport(Divergence(
                "event", index, min(left[1], right[1]), left, right),
                events_compared=index)
    if len(recorded_events) != len(replayed_events):
        index = min(len(recorded_events), len(replayed_events))
        longer = (recorded_events if len(recorded_events) > index
                  else replayed_events)
        return ReplayReport(Divergence(
            "event-count", index, longer[index][1],
            len(recorded_events), len(replayed_events),
            detail=f"next unmatched event: {longer[index]!r}"),
            events_compared=index)
    if (recording.emitted, recording.dropped) \
            != (observed["emitted"], observed["dropped"]):
        return ReplayReport(Divergence(
            "event-count", -1, -1,
            (recording.emitted, recording.dropped),
            (observed["emitted"], observed["dropped"]),
            detail="emitted/dropped totals differ"),
            events_compared=len(recorded_events))
    for index, (left, right) in enumerate(zip(recording.boots,
                                              observed["boots"])):
        if list(left[1]) != list(right[1]) or left[0] != right[0]:
            return ReplayReport(Divergence(
                "cycles", index, -1, left, right),
                events_compared=len(recorded_events),
                boots_compared=index)
    if len(recording.boots) != len(observed["boots"]):
        return ReplayReport(Divergence(
            "cycles", min(len(recording.boots),
                          len(observed["boots"])), -1,
            len(recording.boots), len(observed["boots"]),
            detail="boot counts differ"),
            events_compared=len(recorded_events))
    for index, (left, right) in enumerate(zip(recording.checkpoints,
                                              observed["checkpoints"])):
        if (left.cycle, left.cursor, left.boot) \
                != (right.cycle, right.cursor, right.boot):
            return ReplayReport(Divergence(
                "checkpoint", index, right.cycle,
                (left.cycle, left.cursor, left.boot),
                (right.cycle, right.cursor, right.boot)),
                events_compared=len(recorded_events),
                boots_compared=len(recording.boots),
                checkpoints_compared=index)
        if left.digest != right.digest:
            return ReplayReport(Divergence(
                "checkpoint", index, left.cycle,
                left.digest.hex()[:16], right.digest.hex()[:16],
                detail=diff_states(left.state, right.state) or ""),
                events_compared=len(recorded_events),
                boots_compared=len(recording.boots),
                checkpoints_compared=index)
    if len(recording.checkpoints) != len(observed["checkpoints"]):
        return ReplayReport(Divergence(
            "checkpoint", min(len(recording.checkpoints),
                              len(observed["checkpoints"])), -1,
            len(recording.checkpoints), len(observed["checkpoints"]),
            detail="checkpoint counts differ"),
            events_compared=len(recorded_events))
    if recording.outcome != observed["outcome"]:
        return ReplayReport(Divergence(
            "outcome", 0, -1, recording.outcome, observed["outcome"],
            detail=observed["detail"]),
            events_compared=len(recorded_events))
    return ReplayReport(None,
                        events_compared=len(recorded_events),
                        boots_compared=len(recording.boots),
                        checkpoints_compared=len(recording.checkpoints),
                        outcome=observed["outcome"])


def replay_script(recording: Recording,
                  script: Optional[str] = None) -> ReplayReport:
    """Replay a script recording and report the first divergence."""
    from repro.errors import RRError

    target = script or recording.manifest.get("script")
    if not target:
        raise RRError("recording has no script; use replay_call")
    runner = script_runner(target, recording.manifest.get("argv", []))
    return _compare(recording, _run_once(runner, recording.manifest))


def replay_call(recording: Recording,
                workload: Callable[[], None]) -> ReplayReport:
    """Replay a call recording against the same workload callable."""
    return _compare(recording, _run_once(workload, recording.manifest))


# ---------------------------------------------------------------------------
# seek
# ---------------------------------------------------------------------------

def _seek(recording: Recording, cycle: int,
          observed: dict) -> SeekResult:
    checkpoint = recording.nearest_checkpoint(cycle)
    digest_ok = True
    if checkpoint is not None:
        digest_ok = False
        for replayed in observed["checkpoints"]:
            if (replayed.cycle, replayed.boot) \
                    == (checkpoint.cycle, checkpoint.boot):
                digest_ok = replayed.digest == checkpoint.digest
                break
    recorded_suffix = [event for event in recording.events
                       if event[1] >= cycle]
    replayed_suffix = [event for event in observed["events"]
                       if event[1] >= cycle]
    return SeekResult(
        target_cycle=cycle,
        checkpoint_cycle=(checkpoint.cycle if checkpoint is not None
                          else None),
        digest_ok=digest_ok,
        suffix_identical=recorded_suffix == replayed_suffix,
        events=replayed_suffix,
        outcome=observed["outcome"],
    )


def seek_script(recording: Recording, cycle: int,
                script: Optional[str] = None) -> SeekResult:
    """Re-execute to *cycle* and verify the restored state: the
    nearest checkpoint's digest must match and the trace from *cycle*
    onward must be bit-identical to the recording. Re-execution runs
    from boot (deterministically equivalent to restoring the
    checkpoint); :func:`repro.rr.checkpoint.materialize` is the true
    state-restore fast path for machine-pure workloads."""
    from repro.errors import RRError

    target = script or recording.manifest.get("script")
    if not target:
        raise RRError("recording has no script; use seek_call")
    runner = script_runner(target, recording.manifest.get("argv", []))
    return _seek(recording, cycle,
                 _run_once(runner, recording.manifest))


def seek_call(recording: Recording, cycle: int,
              workload: Callable[[], None]) -> SeekResult:
    return _seek(recording, cycle, _run_once(workload,
                                             recording.manifest))
