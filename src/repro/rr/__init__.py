"""Whole-machine record/replay (the ``reprorr`` subsystem).

The substrate is deterministic by construction: every source of
variation — instruction interleaving, cycle charges, fault injection,
cluster frame timing — is a pure function of ``(seed, fault plan,
inputs)``. Following rr's observation (PAPERS.md), a recording is
therefore *tiny*: the manifest of inputs plus periodic full-machine
checkpoints, not an instruction log. Replay re-executes from the same
inputs; checkpoints exist to verify the re-execution (the divergence
oracle) and to let ``seek`` restore mid-run state without replaying
the whole prefix.

Layers:

* :mod:`repro.rr.checkpoint` — capture one machine (or a whole
  cluster) as a codec-encodable state tree; digest, diff, and — for
  machine-pure states — materialize it back into a runnable kernel.
* :mod:`repro.rr.recording` — the ``.rrr`` container: manifest, final
  per-boot cycle accounting, the full trace-event stream, and the
  checkpoint list, saved byte-stably via :mod:`repro.disk.codec`.
* :mod:`repro.rr.recorder` — the ambient arming surface
  (:func:`repro.rr.recorder.recording`, the ``rr`` slot of
  :mod:`repro.kernel.arming`; not re-exported here, where
  ``recording`` names the container module) and the
  :class:`~repro.rr.recorder.Recorder` whose ``cut`` is the one place
  a checkpoint is taken, between operations: after each
  ``Cluster.step``, or at a stand-alone kernel's trap returns and
  rounds.
* :mod:`repro.rr.oracle` — record a run, replay it, and report the
  first divergent event with its cycle.
"""

from repro.errors import DivergenceError, RRError
from repro.rr.checkpoint import (
    capture_cluster,
    capture_machine,
    diff_states,
    materialize,
    state_digest,
)
from repro.rr.oracle import (
    ReplayReport,
    SeekResult,
    record_call,
    record_script,
    replay_call,
    replay_script,
    seek_call,
    seek_script,
)
from repro.rr.recorder import (
    CAMPAIGN,
    Recorder,
)
from repro.rr.recording import Checkpoint, Recording

__all__ = [
    "CAMPAIGN",
    "Checkpoint",
    "DivergenceError",
    "Recorder",
    "Recording",
    "ReplayReport",
    "RRError",
    "SeekResult",
    "capture_cluster",
    "capture_machine",
    "diff_states",
    "materialize",
    "record_call",
    "record_script",
    "replay_call",
    "replay_script",
    "seek_call",
    "seek_script",
    "state_digest",
]
