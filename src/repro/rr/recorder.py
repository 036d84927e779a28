"""Ambient recording: the arming surface ``reprorr`` uses.

:func:`recording` arms the ``rr`` slot of :mod:`repro.kernel.arming`,
so every kernel booted inside the block gets one :class:`Recorder`
(collected in :data:`CAMPAIGN`). ``Cluster`` additionally calls
:func:`attach_cluster` per member and :func:`on_cluster_round` per
scheduler round, so clustered machines checkpoint at round boundaries
— a globally consistent cut — instead of mid-round per-kernel clock
crossings.

Pay-for-use: with nothing armed, the only costs are one empty slot per
boot, one integer comparison per :meth:`Clock.charge
<repro.kernel.timing.Clock.charge>`, and one empty-list check per
cluster round. A fault-free plain boot stays pinned at its recorded
cycle total with recording off (the E11 benchmark asserts this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.kernel import arming
from repro.kernel.timing import CHECKPOINT_NEVER

#: Default cycles between checkpoints when recording is armed.
DEFAULT_INTERVAL = 1_000_000

#: One Recorder per kernel booted while armed (attach order).
CAMPAIGN: List["Recorder"] = []


class Recorder:
    """Checkpoint collection for one booted kernel."""

    def __init__(self, kernel, interval: Optional[int]) -> None:
        self.kernel = kernel
        self.interval = interval
        self.checkpoints: List[tuple] = []  # (state, cycle, cursor, boot)
        self.cluster = None
        if interval:
            kernel.clock.on_checkpoint = self._on_clock
            kernel.clock.checkpoint_at = kernel.clock.cycles + interval

    # -- single-machine path ---------------------------------------------

    def _on_clock(self, clock) -> None:
        # Clustered members checkpoint at round boundaries instead;
        # leave the clock hook disarmed once the NIC is attached.
        if self.cluster is not None:
            return
        self.take_checkpoint()
        clock.checkpoint_at = clock.cycles + self.interval

    def take_checkpoint(self) -> None:
        """Capture this machine now (also the explicit-sync entry)."""
        from repro.rr.checkpoint import capture_machine

        self._store(capture_machine(self.kernel),
                    self.kernel.clock.cycles)

    # -- cluster path ----------------------------------------------------

    def attach_cluster(self, cluster) -> None:
        self.cluster = cluster
        self.kernel.clock.checkpoint_at = CHECKPOINT_NEVER

    def cluster_due(self) -> bool:
        return bool(self.interval) \
            and self.kernel.clock.cycles >= self._next_due

    def take_cluster_checkpoint(self) -> None:
        from repro.rr.checkpoint import capture_cluster

        self._store(capture_cluster(self.cluster),
                    self.kernel.clock.cycles)

    # -- shared ----------------------------------------------------------

    @property
    def _next_due(self) -> int:
        if not self.checkpoints:
            return self.interval or CHECKPOINT_NEVER
        return self.checkpoints[-1][1] + (self.interval
                                          or CHECKPOINT_NEVER)

    def _store(self, state: list, cycle: int) -> None:
        from repro.trace import tracer as _trace

        tracer = _trace.TRACER
        cursor = tracer.cursor() if tracer.enabled else 0
        boot = tracer.boot_index if tracer.enabled else 0
        self.checkpoints.append((state, cycle, cursor, boot))


@contextmanager
def recording(interval: Optional[int] = DEFAULT_INTERVAL
              ) -> Iterator[List[Recorder]]:
    """Arm recording for every kernel booted inside the block: one
    :class:`Recorder` per boot. *interval* is the cycle spacing between
    checkpoints (None or 0 records the manifest and trace only).
    Yields :data:`CAMPAIGN`, cleared on entry; its data survives the
    block for the caller to package into a Recording."""
    CAMPAIGN.clear()

    def attach(kernel) -> None:
        CAMPAIGN.append(Recorder(kernel, interval))

    with arming.armed("rr", attach):
        yield CAMPAIGN


def attach_cluster(cluster, kernel) -> None:
    """Called from ``Cluster._attach`` for each member kernel: switch
    its recorder (if any) to round-boundary checkpointing."""
    for recorder in CAMPAIGN:
        if recorder.kernel is kernel:
            recorder.attach_cluster(cluster)


def on_cluster_round(cluster) -> None:
    """Called from ``Cluster.step`` after the per-machine slices: take
    one cluster-wide checkpoint when the lead member's clock crosses
    its interval. Node 0's recorder owns the cluster capture so one
    crossing yields one checkpoint, not N."""
    for recorder in CAMPAIGN:
        if recorder.cluster is cluster:
            if recorder.cluster_due():
                recorder.take_cluster_checkpoint()
            return
