"""Ambient recording: the arming surface ``reprorr`` uses.

:func:`recording` arms the ``rr`` slot of :mod:`repro.kernel.arming`,
so every kernel booted inside the block gets one :class:`Recorder`
(collected in :data:`CAMPAIGN`, and set as ``kernel.recorder``).
Checkpoints are taken only between operations, through
:meth:`Recorder.cut`; the clock knows nothing of them. A stand-alone
kernel (no NIC) cuts when a trap returns to user mode and after each
scheduler round. A cluster member never cuts itself: ``Cluster.step``
calls :meth:`Recorder.cut` on its lead recorder after every round, so
the cluster checkpoints at round boundaries, a globally consistent
cut. The lead is the recorder of the first member the cluster booted
with recording armed (node 0's original boot), and it stays the lead
across that node's reboot.

Pay-for-use: with nothing armed, the only costs are one empty slot per
boot and one is-None test per trap and per round (stand-alone) or per
cluster round. A fault-free plain boot stays pinned at its recorded
cycle total with recording off (the E11 benchmark asserts this).
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
        #: the cycle at (or past) which the next cut captures; None
        #: records the manifest and trace only
        self.due = kernel.clock.cycles + interval if interval else None
        kernel.recorder = self

    def cut(self, cluster=None) -> None:
        """Checkpoint here once this machine's clock has reached
        :attr:`due`, then make the next one due an interval on, so one
        crossing yields one checkpoint. Every caller is between
        operations: ``Cluster.step`` after every round, passing
        *cluster* to capture, or this kernel when a trap returns to
        user mode and after each round. A cluster member (its NIC
        attached) ignores its own boundaries; a stand-alone kernel
        captures the machine."""
        if cluster is None and self.kernel.nic is not None:
            return
        cycles = self.kernel.clock.cycles
        if self.due is None or cycles < self.due:
            return
        from repro.rr.checkpoint import capture_cluster, capture_machine

        self._store(capture_machine(self.kernel) if cluster is None
                    else capture_cluster(cluster), cycles)
        self.due = cycles + self.interval

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
