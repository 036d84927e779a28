"""repro.smp — the kernel's one scheduler: deterministic round-based
multi-core scheduling.

K simulated CPUs execute one global quantum schedule: each round, every
process that was runnable at the round boundary is planned onto its
home core (``pid % ncores``) in runqueue order, and the cores then
advance in lockstep *sub-slices* of :data:`SMP_SUBQUANTUM` instructions
— core 0 runs up to 250 instructions of its current process, then core
1, and so on, until every core has finished its plan. Kernel sync
primitives (semaphores, flock), message queues, and page faults are the
only cross-core ordering points, so public-segment interleavings are
real — two workers genuinely alternate stores within one scheduling
quantum — yet the whole execution is a pure function of
``(workload, ncores)``: same boot, same trace, same cycle totals,
every run.

The model follows the deterministic-parallelism literature (see
PAPERS.md: "Efficient System-Enforced Deterministic Parallelism"):
logical time advances in rounds; within a round cores are isolated
except at kernel-mediated communication, and the round barrier is where
the clock's parallel makespan (``Clock.elapsed``) advances by the
slowest core's work.

Every kernel has exactly one coordinator (``Kernel.smp``), whatever its
core count, and it has two entry points: the run-to-completion loop
behind ``Kernel.schedule``/``Kernel.run_until_exit``, and
:meth:`SmpCoordinator.run_round`, one round that a cluster step gives
each node. Both are one sanitizer scheduling phase.

One core is the uniprocessor, byte-for-byte: the round plans the
runnable processes in runqueue order and runs each for one full
quantum. A lone core charges the clock serially (``current_core`` stays
``None``), so ``core_cycles`` stays empty and ``elapsed == cycles`` at
every charge; and no address space is bound to the shootdown ledger, so
``Cpu.step`` records no per-frame decode cores. The chunked quantum
below keeps the cycle and event stream independent of the sub-slice
size:

* instructions are charged once at the end of a process's quantum
  (never per chunk), and not at all when the quantum ends by blocking
  or a kill;
* a chunk boundary can only fall immediately after a *successful*
  ``Cpu.step()`` (traps and faults do not advance the instruction
  counter), and a successful step resets the fault streak, so starting
  each chunk with a zero streak is exact, not approximate;
* the SWITCH span opens at quantum start and closes at quantum end
  (spans carry their entry cycle and emit one event on exit, so
  interleaved per-core spans need no nesting stack);
* one ``context_switch`` is charged per planned process — including
  processes that lost runnability before their turn.

The coordinator also owns the cross-core invalidation ledger: TLB
shootdowns (a mapping change initiated while a *different* core is
executing must invalidate the owning core's cached translations) and
decoded-instruction shootdowns (a store to a text frame some other core
has executed from). Both are accounting over the existing invalidation
plumbing — the caches themselves are kept coherent by the same
clear-on-write protocol at every core count.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import List, Optional

from repro.errors import KernelError
from repro.kernel.process import Process, ProcessState
from repro.trace import tracer as _trace
from repro.trace.events import EventKind

#: Instructions one core executes before the next core gets the bus.
#: Small enough that processes on different cores genuinely interleave
#: within a scheduling quantum (the race corpus depends on it), large
#: enough that the host-side round overhead stays negligible.
SMP_SUBQUANTUM = 250


class _Quantum:
    """One core's in-flight scheduling quantum."""

    __slots__ = ("proc", "start", "span")

    def __init__(self, proc: Process, start: int, span) -> None:
        self.proc = proc
        self.start = start      # cpu.instructions_executed at entry
        self.span = span        # open SWITCH span, or None


class _SliceBudget:
    """The per-schedule() slice budget, shared by all cores."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise KernelError("scheduler slice budget exhausted")


class SmpCoordinator:
    """The scheduler of one kernel, at every core count."""

    def __init__(self, kernel, ncores) -> None:
        try:
            ncores = int(ncores)
        except (TypeError, ValueError):
            raise KernelError(
                f"ncores must be an integer >= 1, got {ncores!r}"
            ) from None
        if ncores < 1:
            raise KernelError(f"ncores must be >= 1, got {ncores}")
        self.kernel = kernel
        self.ncores = ncores
        # A lone core interleaves with nobody: it runs each quantum in
        # one chunk and charges the clock serially (the clock meter of
        # core i is ``_meters[i]``; None is the serial meter).
        self.subquantum = SMP_SUBQUANTUM if ncores > 1 else sys.maxsize
        self._meters = list(range(ncores)) if ncores > 1 else [None]
        self.rounds = 0
        #: cross-core TLB invalidations charged to each (victim) core
        self.tlb_shootdowns = {core: 0 for core in range(ncores)}
        #: cross-core decode-cache invalidations per (victim) core
        self.decode_shootdowns = {core: 0 for core in range(ncores)}

    # ------------------------------------------------------------------
    # cross-core invalidation ledger
    # ------------------------------------------------------------------

    def tlb_shootdown(self, space, dropped: int, reason: str) -> None:
        """*dropped* translations of *space* (home core ``space.core``)
        were invalidated. Counts as a shootdown only when some *other*
        core initiated it mid-round; serial kernel work and a core
        invalidating its own translations are local."""
        current = self.kernel.clock.current_core
        if current is None or current == space.core or not dropped:
            return
        self.tlb_shootdowns[space.core] += dropped
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.TLB, name=f"shootdown:{reason}",
                        value=dropped)

    def decode_shootdown(self, frame) -> None:
        """A store is about to clear *frame*'s decoded-instruction
        cache; every core that executed from the frame since the last
        clear — except the storing core itself — takes one shootdown."""
        current = self.kernel.clock.current_core
        victims = [core for core in sorted(frame.decode_cores)
                   if core != current]
        if not victims:
            return
        for core in victims:
            self.decode_shootdowns[core] += 1
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.TLB, name="shootdown:decode",
                        value=len(victims))

    # ------------------------------------------------------------------
    # the round scheduler
    # ------------------------------------------------------------------

    def schedule(self, max_slices: int) -> None:
        """Rounds until every process exits (or deadlock)."""
        self._phase(self._loop, _SliceBudget(max_slices), None)

    def run_until_exit(self, proc: Process, max_slices: int) -> int:
        """Rounds until *proc* exits; returns its exit code."""
        self._phase(self._loop, _SliceBudget(max_slices), proc)
        assert proc.exit_code is not None
        return proc.exit_code

    def run_round(self) -> int:
        """One round over the processes runnable now (a cluster node's
        share of one cluster step); returns how many were planned."""
        ready = self.kernel.runnable()
        # A round plans each ready process once, so this budget is
        # never exhausted.
        self._phase(self._run_round, ready, _SliceBudget(len(ready)), None)
        return len(ready)

    def _phase(self, run, *args):
        """Run one scheduling entry point as one sanitizer phase: the
        barriers join every thread of this machine on entry and exit."""
        kernel = self.kernel
        sanitizer = kernel.sanitizer
        if sanitizer is None:
            return run(*args)
        sanitizer.schedule_begin(kernel)
        try:
            return run(*args)
        finally:
            sanitizer.schedule_end(kernel)

    def _loop(self, budget: _SliceBudget,
              stop_proc: Optional[Process]) -> None:
        kernel = self.kernel
        while True:
            if stop_proc is not None and not stop_proc.alive:
                return
            ready = kernel.runnable()
            if not ready:
                if stop_proc is not None:
                    raise KernelError(
                        f"{stop_proc.name} cannot finish: nothing is "
                        f"runnable"
                    )
                blocked = [p for pid in kernel._runqueue
                           for p in [kernel.processes.get(pid)]
                           if p is not None
                           and p.state is ProcessState.BLOCKED]
                if blocked:
                    names = ", ".join(p.name for p in blocked)
                    raise KernelError(f"deadlock: blocked forever: {names}")
                return
            self._run_round(ready, budget, stop_proc)

    def _run_round(self, ready: List[Process], budget: _SliceBudget,
                   stop_proc: Optional[Process]) -> None:
        kernel = self.kernel
        clock = kernel.clock
        self.rounds += 1
        clock.round_begin()
        plans = [deque() for _ in range(self.ncores)]
        for proc in ready:
            plans[proc.core].append(proc)
        active: List[Optional[_Quantum]] = [None] * self.ncores
        try:
            while True:
                progressed = False
                for core in range(self.ncores):
                    run = active[core]
                    if run is None:
                        run = self._begin_quantum(core, plans[core], budget)
                        active[core] = run
                        if run is None:
                            continue
                    progressed = True
                    if self._step_core(core, run):
                        active[core] = None
                        if stop_proc is not None and not stop_proc.alive:
                            return
                if not progressed:
                    return
        finally:
            # A round cut short (stop process died, budget exhausted)
            # leaves other cores mid-quantum: account their executed
            # instructions and close their spans so traces stay
            # well-formed; no context switch — the quantum never ended.
            clock.current_core = None
            for core in range(self.ncores):
                run = active[core]
                if run is not None:
                    self._abandon_quantum(core, run)
            clock.round_end()

    def _begin_quantum(self, core: int, plan,
                       budget: _SliceBudget) -> Optional[_Quantum]:
        """Pop the next runnable process off *plan* and open its
        quantum; returns None when the core is done for this round."""
        kernel = self.kernel
        clock = kernel.clock
        while plan:
            proc = plan.popleft()
            budget.tick()
            if proc.state is not ProcessState.READY:
                # It lost runnability since the round boundary (killed
                # or blocked by someone who ran earlier in the round).
                # Its planned slot still costs a switch, on this core's
                # meter.
                clock.current_core = self._meters[core]
                try:
                    clock.context_switch()
                finally:
                    clock.current_core = None
                continue
            tracer = _trace.TRACER
            span = None
            if tracer.enabled:
                span = tracer.span(EventKind.SWITCH, name=proc.name,
                                   pid=proc.pid)
                span.__enter__()
            start = proc.cpu.instructions_executed \
                if proc.cpu is not None else 0
            return _Quantum(proc, start, span)
        return None

    def _step_core(self, core: int, run: _Quantum) -> bool:
        """Advance *core*'s quantum by one sub-slice; True when the
        quantum is over (the core should plan its next process)."""
        kernel = self.kernel
        clock = kernel.clock
        proc = run.proc
        clock.current_core = self._meters[core]
        try:
            if proc.cpu is None:
                # Native bodies run to their next yield — one atomic
                # sub-slice that ends the quantum.
                kernel._run_native_slice(proc)
                self._finish_quantum(run, charge=False)
                return True
            cpu = proc.cpu
            consumed = cpu.instructions_executed - run.start
            target = min(consumed + self.subquantum, kernel.quantum)
            charged = kernel._run_machine_chunk(proc, run.start, target)
            if not charged:
                # Blocked or killed on a trap path: the quantum ends
                # without charging its instructions.
                self._finish_quantum(run, charge=False)
                return True
            if proc.state is not ProcessState.READY \
                    or cpu.instructions_executed - run.start \
                    >= kernel.quantum:
                self._finish_quantum(run, charge=True)
                return True
            return False
        finally:
            clock.current_core = None

    def _finish_quantum(self, run: _Quantum, charge: bool) -> None:
        """Close out a completed quantum (caller holds current_core)."""
        kernel = self.kernel
        if charge:
            cpu = run.proc.cpu
            kernel.clock.instructions(cpu.instructions_executed - run.start)
        if run.span is not None:
            run.span.__exit__(None, None, None)
        kernel.clock.context_switch()

    def _abandon_quantum(self, core: int, run: _Quantum) -> None:
        """Close out a quantum the round abandoned mid-flight."""
        clock = self.kernel.clock
        proc = run.proc
        if proc.cpu is not None:
            executed = proc.cpu.instructions_executed - run.start
            if executed:
                clock.current_core = self._meters[core]
                try:
                    clock.instructions(executed)
                finally:
                    clock.current_core = None
        if run.span is not None:
            run.span.__exit__(None, None, None)

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot (tests and the shadow-model oracle)."""
        return {
            "ncores": self.ncores,
            "rounds": self.rounds,
            "tlb_shootdowns": dict(self.tlb_shootdowns),
            "decode_shootdowns": dict(self.decode_shootdowns),
        }
