"""Deterministic cycle accounting.

The paper reports wall-clock measurements on 1992 hardware (a SPARC
network, an SGI 4D/480). Those absolute numbers are unreproducible; what
must survive reproduction is the *shape* of each comparison. The clock
charges documented costs for the events whose ratio drives every
experiment: instructions, syscall traps, page faults, context switches,
byte copies, and "disk" transfers.

The constants are loosely calibrated to early-90s RISC workstations
(~30 MHz, microsecond-scale syscalls, millisecond-scale disk), but only
their relative magnitudes matter; benchmarks report ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Largest exponent :meth:`Clock.backoff` applies. One wait therefore
#: tops out at ``retry_backoff << MAX_BACKOFF_SHIFT`` cycles (~39.3M
#: with the default cost model — about a second of simulated time),
#: so a long retry storm costs linearly in attempts instead of
#: doubling without bound and swamping every cycle comparison.
MAX_BACKOFF_SHIFT = 16


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for kernel-visible events."""

    instruction: int = 1
    syscall: int = 400            # trap entry, dispatch, return
    page_fault: int = 1500        # fault, kernel handling, sigreturn
    signal_delivery: int = 700    # frame setup + handler dispatch
    context_switch: int = 800
    copy_per_word: int = 1        # memory-to-memory copy, 4 bytes/cycle
    file_io_per_word: int = 2     # buffered file read/write, per 4 bytes
    disk_seek: int = 30000        # first touch of a cold file
    message_overhead: int = 1200  # send+receive queueing beyond the copies
    map_segment: int = 2500       # mmap bookkeeping incl. TLB shootdown
    retry_backoff: int = 600      # first backoff wait after a transient
                                  # fault; doubles with each retry
    journal_block: int = 120      # one journaled metadata block (charged
                                  # only when a durable store is mounted)
    net_frame: int = 2000         # NIC + protocol processing, per frame
    net_per_word: int = 1         # wire copy, 4 bytes/cycle
    net_latency: int = 6000       # one-way propagation a synchronous
                                  # protocol message stalls the caller for


@dataclass
class Clock:
    """Monotonic cycle counter with per-category accounting.

    On an SMP boot the clock additionally keeps *per-core* counters and
    an ``elapsed`` makespan: work charged while :attr:`current_core` is
    set accrues to that core, and each scheduler round advances
    ``elapsed`` by the *longest* per-core delta of the round (cores run
    in parallel, so the round takes as long as its slowest core).
    ``cycles`` stays the total work metric — the sum over all cores —
    so every existing pin and category breakdown is unchanged; speedup
    comparisons read ``elapsed``. Serial charges (``current_core is
    None``) advance ``elapsed`` 1:1, so on a uniprocessor boot
    ``elapsed == cycles`` always.
    """

    costs: CostModel = field(default_factory=CostModel)
    cycles: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    #: number of simulated CPUs this clock accounts for
    ncores: int = 1
    #: core currently executing (set by the SMP scheduler around each
    #: sub-slice); ``None`` means serial kernel-side work
    current_core: Optional[int] = None
    #: total cycles charged while each core was current
    core_cycles: Dict[int, int] = field(default_factory=dict)
    #: parallel makespan: serial work 1:1, each SMP round by its
    #: slowest core's delta
    elapsed: int = 0
    #: per-core snapshot taken at :meth:`round_begin`
    _round_marks: Dict[int, int] = field(default_factory=dict)

    def charge(self, category: str, cycles: int) -> None:
        self.cycles += cycles
        self.by_category[category] = \
            self.by_category.get(category, 0) + cycles
        if self.current_core is None:
            self.elapsed += cycles
        else:
            self.core_cycles[self.current_core] = \
                self.core_cycles.get(self.current_core, 0) + cycles

    def round_begin(self) -> None:
        """Mark the start of one SMP round (snapshot per-core totals)."""
        self._round_marks = dict(self.core_cycles)

    def round_end(self) -> None:
        """Advance ``elapsed`` by the slowest core's delta this round."""
        marks = self._round_marks
        longest = 0
        for core, total in self.core_cycles.items():
            delta = total - marks.get(core, 0)
            if delta > longest:
                longest = delta
        self.elapsed += longest
        self._round_marks = {}

    def instructions(self, count: int) -> None:
        self.charge("instructions", count * self.costs.instruction)

    def syscall(self) -> None:
        self.charge("syscalls", self.costs.syscall)

    def page_fault(self) -> None:
        self.charge("faults", self.costs.page_fault)

    def signal(self) -> None:
        self.charge("signals", self.costs.signal_delivery)

    def context_switch(self) -> None:
        self.charge("switches", self.costs.context_switch)

    def copy(self, nbytes: int) -> None:
        self.charge("copies", ((nbytes + 3) // 4) * self.costs.copy_per_word)

    def file_io(self, nbytes: int) -> None:
        self.charge("file_io",
                    ((nbytes + 3) // 4) * self.costs.file_io_per_word)

    def disk_seek(self) -> None:
        self.charge("disk", self.costs.disk_seek)

    def message(self) -> None:
        self.charge("messages", self.costs.message_overhead)

    def map_segment(self) -> None:
        self.charge("mappings", self.costs.map_segment)

    def net(self, nbytes: int) -> None:
        """One network frame through this machine's NIC (either
        direction): per-frame processing plus the wire copy. Charged
        only by :mod:`repro.net`; single-machine boots never see the
        category."""
        self.charge("net", self.net_cycles(nbytes))

    def net_cycles(self, nbytes: int) -> int:
        """What :meth:`net` charges for an *nbytes* frame."""
        return self.costs.net_frame \
            + ((nbytes + 3) // 4) * self.costs.net_per_word

    def net_stall(self, hops: int = 1) -> None:
        """Propagation delay a caller waits out for a synchronous
        protocol exchange (*hops* one-way trips)."""
        self.charge("net", self.costs.net_latency * hops)

    def backoff(self, attempt: int) -> None:
        """One deterministic exponential-backoff wait: retry *attempt*
        (1-based) costs ``retry_backoff << (attempt - 1)`` cycles,
        saturating at ``retry_backoff << MAX_BACKOFF_SHIFT``."""
        shift = min(max(attempt - 1, 0), MAX_BACKOFF_SHIFT)
        self.charge("backoff", self.costs.retry_backoff << shift)

    def snapshot(self) -> int:
        """Current cycle count (for interval measurements)."""
        return self.cycles

    def delta(self, snapshot: int) -> int:
        """Cycles elapsed since *snapshot* (a prior :meth:`snapshot`).

        The benchmark idiom::

            start = clock.snapshot()
            ...               # the measured phase
            phase = clock.delta(start)
        """
        return self.cycles - snapshot

    def report(self) -> str:
        lines = [f"total cycles: {self.cycles}"]
        for category in sorted(self.by_category):
            lines.append(f"  {category}: {self.by_category[category]}")
        return "\n".join(lines)
