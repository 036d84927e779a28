"""Ambient recording: the arming surface ``reprorr`` uses.

:func:`recording` arms the ``rr`` slot of :mod:`repro.kernel.arming`,
so every kernel booted inside the block gets one :class:`Recorder`
(collected in :data:`CAMPAIGN`, and set as ``kernel.recorder``). A
stand-alone kernel checkpoints when its clock crosses the interval. A
cluster member (its NIC attached) ignores clock crossings, which land
mid-round: ``Cluster.step`` calls :meth:`Recorder.cut` on its lead
recorder after every round, so the cluster checkpoints at round
boundaries, a globally consistent cut. The lead is the recorder of the
first member the cluster booted with recording armed (node 0's
original boot), and it stays the lead across that node's reboot.

Pay-for-use: with nothing armed, the only costs are one empty slot per
boot, one integer comparison per :meth:`Clock.charge
<repro.kernel.timing.Clock.charge>`, and one is-None check per cluster
round. A fault-free plain boot stays pinned at its recorded cycle
total with recording off (the E11 benchmark asserts this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.kernel import arming

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
        kernel.recorder = self
        if interval:
            kernel.clock.on_checkpoint = self._on_clock
            kernel.clock.checkpoint_at = kernel.clock.cycles + interval

    def _on_clock(self, clock) -> None:
        # A cluster member checkpoints at round boundaries instead
        # (cut); once its NIC is attached, leave the clock hook
        # disarmed.
        if self.kernel.nic is not None:
            return
        self.take_checkpoint()
        clock.checkpoint_at = clock.cycles + self.interval

    def take_checkpoint(self) -> None:
        """Capture this machine now (also the explicit-sync entry)."""
        from repro.rr.checkpoint import capture_machine

        self._store(capture_machine(self.kernel),
                    self.kernel.clock.cycles)

    def cut(self, cluster) -> None:
        """Called by ``Cluster.step`` on its lead recorder after every
        round: capture the whole cluster once this machine's clock has
        crossed the interval since the last checkpoint, so one crossing
        yields one checkpoint, not N."""
        if not self.interval:
            return
        last = self.checkpoints[-1][1] if self.checkpoints else 0
        if self.kernel.clock.cycles >= last + self.interval:
            from repro.rr.checkpoint import capture_cluster

            self._store(capture_cluster(cluster),
                        self.kernel.clock.cycles)

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
