"""The dynamic sanitizer: an Eraser-style lockset + happens-before race
detector over public shared segments, plus a shmalloc heap sanitizer.

Arming model (the same plane discipline as trace/inject/disk/rr/net):
an installed sanitizer hangs off ``kernel.sanitizer`` and
``space.sanitizer``; every instrumented choke point costs one attribute
load and an ``is None`` check when disarmed. The sanitizer *observes*
— it never charges the simulated clock — so simulated cycles are
bit-identical armed or not, and armed reports are a pure function of
the workload (replay-stable per seed).

Tracked memory: accesses through :meth:`AddressSpace.read_bytes` /
``write_bytes`` whose mapping is ``MAP_SHARED`` and lies in the public
SFS region. Kernel ABI copies run with ``force=True`` and are exempt,
exactly like the injector's fault plane. The TLB fast paths are kept
honest by :meth:`Sanitizer.tracks_mapping`: tracked pages are cached
execute-only, so instruction fetch stays fast while every data access
takes the instrumented slow path (the same trick COW uses for writes).

Happens-before sources (each one a release/acquire pair):

* file locks and semaphores (``flock``/``sem_p``/``sem_v``);
* message queues (``msgsnd`` piggybacks the sender's clock on the
  message, ``msgrcv`` joins it);
* ``fork`` (parent→child) and ``wait`` (child exit→parent);
* segment lifecycle (create→first map, delete→reuse);
* ``repro.net`` coherence transitions: a GRANT joins the segment's
  clock into the *faulting* thread; INVALIDATE/DOWNGRADE/WRITEBACK on
  the releasing node publish that node's clocks into the segment;
* scheduling phases: each top-level ``kernel.schedule()`` window is a
  phase; host-driven accesses between windows are program-ordered (the
  driving test is one sequential host thread), so they form a rail and
  every window begins after the previous phase. Races are therefore
  detected *within* a scheduling window — where the simulated
  interleaving is real — and never invented from the host's sequential
  driving of the machine.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.kernel import arming
from repro.sanitize import state as _state
from repro.sanitize.report import (
    AccessSite,
    HeapFinding,
    RaceFinding,
    SanReport,
)
from repro.sanitize.shadow import (
    ThreadState,
    WordState,
    vc_join,
)
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE, is_public_address

#: Segments span this many bytes (mirrors repro.sfs.sharedfs).
from repro.sfs.sharedfs import SEGMENT_SPAN


def _lock_names(locks: FrozenSet) -> Tuple[str, ...]:
    return tuple(sorted(f"{kind}:{key}" for kind, key in locks))


class Sanitizer:
    """One sanitizer instance, shared by every kernel of a boot (so a
    cluster correlates cross-node accesses)."""

    def __init__(self, report_limit: int = 256) -> None:
        self.enabled = True
        self.report_limit = report_limit
        # Host-side counters (never charged to the simulated clock).
        self.stats = SimpleNamespace(accesses=0, words=0, races=0,
                                     heap_findings=0, hb_edges=0)
        self.report = SanReport()

        # -- identity ---------------------------------------------------
        self.kernels: List = []                 # machine index -> kernel
        self._machine: Dict[int, int] = {}      # id(kernel) -> index
        self.threads: Dict[Tuple[int, int], ThreadState] = {}
        self._by_tid: List[ThreadState] = []
        self._spaces: Dict[int, tuple] = {}     # id(space) -> (space, thread)

        # -- happens-before state ---------------------------------------
        self._lock_vc: Dict[tuple, dict] = {}
        self._msg_vc: Dict[tuple, list] = {}
        self._seg_vc: Dict[int, dict] = {}
        self._exit_vc: Dict[Tuple[int, int], dict] = {}
        self._phase: Dict[int, dict] = {}       # machine -> barrier VC
        self._rail: Dict[int, Optional[ThreadState]] = {}
        self._sched_depth: Dict[int, int] = {}

        # -- shadow memory ----------------------------------------------
        self.words: Dict[int, WordState] = {}
        self._reported: Set[tuple] = set()
        self._space_pages: Dict[int, Set[int]] = {}

        # -- heap sanitizer ---------------------------------------------
        self._in_allocator = 0
        self.heap_live: Dict[int, tuple] = {}   # payload -> record
        self._redzones: Dict[int, int] = {}     # word -> owning payload
        self._freed: Dict[int, tuple] = {}      # word -> (cycle, label)
        self._heap_reported: Set[tuple] = set()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_kernel(self, kernel) -> None:
        """Adopt *kernel* (idempotent); wires existing processes too."""
        kid = id(kernel)
        if kid in self._machine:
            return
        machine = len(self.kernels)
        self._machine[kid] = machine
        self.kernels.append(kernel)
        self._phase[machine] = {}
        self._rail[machine] = None
        self._sched_depth[machine] = 0
        kernel.sanitizer = self
        for proc in sorted(kernel.processes.values(),
                           key=lambda p: p.pid) \
                if hasattr(kernel, "processes") else []:
            self.register_process(kernel, proc)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.SAN, name="armed", value=machine)

    def register_process(self, kernel, proc) -> None:
        """Track one process (called at creation and on fork)."""
        machine = self._machine.get(id(kernel))
        if machine is None:
            return
        key = (machine, proc.pid)
        thread = self.threads.get(key)
        if thread is None:
            tid = len(self._by_tid)
            label = (f"pid{proc.pid}" if machine == 0
                     else f"n{machine}/pid{proc.pid}")
            thread = ThreadState(tid, machine, proc.pid, label)
            vc_join(thread.vc, self._phase[machine])
            self.threads[key] = thread
            self._by_tid.append(thread)
        space = proc.address_space
        if space is not None:
            space.sanitizer = self
            self._spaces[id(space)] = (space, thread)
            self._space_pages[id(space)] = self.recompute_tracked(space)
            space.tlb_flush("sanitize")

    def _thread(self, kernel, proc) -> Optional[ThreadState]:
        machine = self._machine.get(id(kernel))
        if machine is None:
            return None
        return self.threads.get((machine, proc.pid))

    def _threads_of(self, machine: int) -> List[ThreadState]:
        return [self.threads[key] for key in sorted(self.threads)
                if key[0] == machine]

    # ------------------------------------------------------------------
    # tracked-page index (the shadow view the Hypothesis property checks)
    # ------------------------------------------------------------------

    def tracks_mapping(self, mapping) -> bool:
        return mapping.shared and is_public_address(mapping.start)

    def recompute_tracked(self, space) -> Set[int]:
        """The from-scratch view: tracked vpns of *space*'s mappings."""
        pages: Set[int] = set()
        for mapping in space.mappings():
            if self.tracks_mapping(mapping):
                vpn = mapping.start >> PAGE_SHIFT
                pages.update(range(vpn, vpn + mapping.npages))
        return pages

    def tracked_index(self) -> Dict[str, List[int]]:
        """Incrementally maintained view, keyed by thread label."""
        index: Dict[str, List[int]] = {}
        for _sid, (space, thread) in sorted(
                self._spaces.items(),
                key=lambda item: item[1][1].tid):
            pages = self._space_pages.get(id(space), set())
            index[thread.label] = sorted(pages)
        return index

    def recomputed_index(self) -> Dict[str, List[int]]:
        index: Dict[str, List[int]] = {}
        for _sid, (space, thread) in sorted(
                self._spaces.items(),
                key=lambda item: item[1][1].tid):
            index[thread.label] = sorted(self.recompute_tracked(space))
        return index

    def on_map(self, space, mapping) -> None:
        entry = self._spaces.get(id(space))
        if entry is None or not self.tracks_mapping(mapping):
            return
        pages = self._space_pages.setdefault(id(space), set())
        vpn = mapping.start >> PAGE_SHIFT
        pages.update(range(vpn, vpn + mapping.npages))
        thread = entry[1]
        base = mapping.start - mapping.obj_page * PAGE_SIZE
        seg_vc = self._seg_vc.get(base)
        if seg_vc:
            vc_join(thread.vc, seg_vc)
            self.stats.hb_edges += 1

    def on_unmap(self, space, mapping) -> None:
        if not self.tracks_mapping(mapping):
            return
        pages = self._space_pages.get(id(space))
        if pages is None:
            return
        vpn = mapping.start >> PAGE_SHIFT
        for page in range(vpn, vpn + mapping.npages):
            pages.discard(page)

    def on_destroy(self, space) -> None:
        """The space was torn down wholesale (process exit)."""
        pages = self._space_pages.get(id(space))
        if pages is not None:
            pages.clear()

    def on_mprotect(self, space, mapping) -> None:
        # Tracking is protection-independent; nothing to update, but
        # the hook keeps the instrumentation surface symmetric (and the
        # consistency property exercises it).
        return None

    # ------------------------------------------------------------------
    # the access choke point
    # ------------------------------------------------------------------

    def on_read(self, space, address: int, length: int, pte) -> None:
        self._on_access(space, address, length, pte, False)

    def on_write(self, space, address: int, length: int, pte) -> None:
        self._on_access(space, address, length, pte, True)

    def _on_access(self, space, address: int, length: int, pte,
                   is_write: bool) -> None:
        mapping = pte.mapping
        if not (mapping.shared and is_public_address(mapping.start)):
            return
        entry = self._spaces.get(id(space))
        if entry is None:
            return
        thread = entry[1]
        self.stats.accesses += 1
        self._pre_access(thread)
        kernel = self.kernels[thread.machine]
        cycle = kernel.clock.cycles
        name = mapping.name
        base = mapping.start - mapping.obj_page * PAGE_SIZE
        word = address & ~3
        end = address + length
        while word < end:
            self._word(thread, name, base, word, is_write, cycle)
            word += 4

    def _pre_access(self, thread: ThreadState) -> None:
        """Order host-driven accesses on the sequential host rail."""
        machine = thread.machine
        if self._sched_depth.get(machine, 0) > 0:
            return
        rail = self._rail.get(machine)
        if rail is thread:
            return
        vc_join(thread.vc, self._phase[machine])
        if rail is not None:
            vc_join(thread.vc, rail.vc)
            rail.tick()
            self.stats.hb_edges += 1
        self._rail[machine] = thread

    def _word(self, thread: ThreadState, segment: str, base: int,
              word: int, is_write: bool, cycle: int) -> None:
        state = self.words.get(word)
        if state is None:
            state = WordState()
            self.words[word] = state
            self.stats.words += 1
        if not self._in_allocator:
            self._heap_check(thread, segment, word, cycle)
        epoch = thread.epoch(cycle)
        write = state.write
        if is_write:
            if write is not None:
                self._check(thread, segment, base, word, write,
                            "write", "write", cycle)
            for tid in sorted(state.reads):
                self._check(thread, segment, base, word,
                            state.reads[tid], "read", "write", cycle)
            state.write = epoch
            state.reads.clear()
        else:
            if write is not None:
                self._check(thread, segment, base, word, write,
                            "write", "read", cycle)
            state.reads[thread.tid] = epoch

    def _check(self, thread: ThreadState, segment: str, base: int,
               word: int, prev, prev_kind: str, kind: str,
               cycle: int) -> None:
        tid, tick, locks, prev_cycle = prev
        if tid == thread.tid:
            return
        if tick <= thread.vc.get(tid, 0):
            return                              # happens-before ordered
        if locks & thread.locks:
            return                              # common lock (Eraser)
        key = (word, tid, thread.tid, prev_kind, kind)
        if key in self._reported \
                or len(self.report.races) >= self.report_limit:
            return
        self._reported.add(key)
        first = AccessSite(self._by_tid[tid].label, prev_kind,
                           prev_cycle, _lock_names(locks))
        second = AccessSite(thread.label, kind, cycle,
                            _lock_names(thread.locks))
        race = RaceFinding(segment, word - base, word, first, second)
        self.report.races.append(race)
        self.stats.races += 1
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.SAN, name=f"race:{race.kind}",
                        pid=thread.pid, addr=word,
                        value=len(self.report.races))

    # ------------------------------------------------------------------
    # happens-before edges: locks, semaphores, messages
    # ------------------------------------------------------------------

    def lock_acquired(self, kernel, proc, key: tuple) -> None:
        thread = self._thread(kernel, proc)
        if thread is None:
            return
        thread.acquire(key, self._lock_vc.get(key))
        self.stats.hb_edges += 1

    def lock_released(self, kernel, proc, key: tuple) -> None:
        thread = self._thread(kernel, proc)
        if thread is None:
            return
        vc = self._lock_vc.setdefault(key, {})
        vc_join(vc, thread.vc)
        thread.tick()
        thread.release(key)

    def msg_sent(self, kernel, proc, qkey: int) -> None:
        thread = self._thread(kernel, proc)
        if thread is None:
            return
        queue = self._msg_vc.setdefault((thread.machine, qkey), [])
        queue.append(dict(thread.vc))
        thread.tick()

    def msg_received(self, kernel, proc, qkey: int) -> None:
        thread = self._thread(kernel, proc)
        if thread is None:
            return
        queue = self._msg_vc.get((thread.machine, qkey))
        if queue:
            vc_join(thread.vc, queue.pop(0))
            self.stats.hb_edges += 1

    # ------------------------------------------------------------------
    # happens-before edges: fork / exit / wait
    # ------------------------------------------------------------------

    def on_fork(self, kernel, parent, child) -> None:
        self.register_process(kernel, child)
        pt = self._thread(kernel, parent)
        ct = self._thread(kernel, child)
        if pt is not None and ct is not None:
            vc_join(ct.vc, pt.vc)
            pt.tick()
            self.stats.hb_edges += 1

    def on_exit(self, kernel, proc) -> None:
        thread = self._thread(kernel, proc)
        if thread is not None:
            self._exit_vc[(thread.machine, proc.pid)] = dict(thread.vc)

    def on_wait(self, kernel, parent, child_pid: int) -> None:
        thread = self._thread(kernel, parent)
        if thread is None:
            return
        vc = self._exit_vc.get((thread.machine, child_pid))
        if vc:
            vc_join(thread.vc, vc)
            self.stats.hb_edges += 1

    # ------------------------------------------------------------------
    # happens-before edges: scheduling phases
    # ------------------------------------------------------------------

    def schedule_begin(self, kernel) -> None:
        machine = self._machine.get(id(kernel))
        if machine is None:
            return
        if self._sched_depth[machine] == 0:
            barrier = self._phase[machine]
            rail = self._rail.get(machine)
            if rail is not None:
                vc_join(barrier, rail.vc)
                rail.tick()
                self._rail[machine] = None
            for thread in self._threads_of(machine):
                vc_join(thread.vc, barrier)
        self._sched_depth[machine] += 1

    def schedule_end(self, kernel) -> None:
        machine = self._machine.get(id(kernel))
        if machine is None:
            return
        self._sched_depth[machine] -= 1
        if self._sched_depth[machine] == 0:
            barrier = self._phase[machine]
            for thread in self._threads_of(machine):
                vc_join(barrier, thread.vc)
                thread.tick()
            self._rail[machine] = None

    # ------------------------------------------------------------------
    # happens-before edges: segment lifecycle + cluster coherence
    # ------------------------------------------------------------------

    def segment_created(self, kernel, proc, base: int) -> None:
        thread = self._thread(kernel, proc)
        if thread is None:
            return
        self._seg_vc[base] = dict(thread.vc)
        thread.tick()

    def coherence_acquire(self, kernel, proc, base: int) -> None:
        """A GRANT: order the faulting thread after the segment's
        published clock."""
        thread = self._thread(kernel, proc)
        if thread is None:
            return
        vc = self._seg_vc.get(base)
        if vc:
            vc_join(thread.vc, vc)
            self.stats.hb_edges += 1

    def coherence_release(self, kernel, base: int) -> None:
        """An INVALIDATE/DOWNGRADE/WRITEBACK on *kernel*'s node:
        publish that node's clocks into the segment."""
        machine = self._machine.get(id(kernel))
        if machine is None:
            return
        vc = self._seg_vc.setdefault(base, {})
        for thread in self._threads_of(machine):
            vc_join(vc, thread.vc)
            thread.tick()

    # ------------------------------------------------------------------
    # heap sanitizer
    # ------------------------------------------------------------------

    def allocator_enter(self) -> None:
        self._in_allocator += 1

    def allocator_exit(self) -> None:
        self._in_allocator -= 1

    def _mem_context(self, mem) -> Tuple[str, int]:
        """(thread label, cycle) for an operation through *mem*."""
        thread = self._thread(mem.kernel, mem.proc)
        cycle = mem.kernel.clock.cycles
        return (thread.label if thread is not None else "?", cycle)

    def _segment_name(self, mem, address: int) -> str:
        space = mem.proc.address_space
        if space is not None:
            for mapping in space.mappings():
                start = mapping.start
                if start <= address < start + mapping.npages * PAGE_SIZE:
                    return mapping.name
        return f"0x{address:09x}"

    def heap_alloc(self, heap, payload: int, requested: int,
                   block_size: int) -> None:
        """A successful shmalloc allocation: arm redzones."""
        label, cycle = self._mem_context(heap.mem)
        segment = self._segment_name(heap.mem, heap.base)
        block = payload - 8
        for word in range(block, block + block_size, 4):
            self._freed.pop(word, None)
            self._redzones.pop(word, None)
        self.heap_live[payload] = (requested, block_size, segment,
                                   label, cycle)
        # Header words and the rounded-up tail are redzones.
        self._redzones[block] = payload
        self._redzones[block + 4] = payload
        tail = payload + ((requested + 3) & ~3)
        for word in range(tail, block + block_size, 4):
            self._redzones[word] = payload

    def heap_free(self, heap, payload: int, block_size: int) -> None:
        """A successful shmalloc free: poison the block."""
        label, cycle = self._mem_context(heap.mem)
        self.heap_live.pop(payload, None)
        block = payload - 8
        for word in range(block, block + block_size, 4):
            self._redzones.pop(word, None)
        for word in range(payload, block + block_size, 4):
            self._freed[word] = (cycle, label)

    def heap_bad_free(self, heap, payload: int, kind: str,
                      detail: str) -> None:
        """shmalloc rejected a free (it raises right after this)."""
        label, cycle = self._mem_context(heap.mem)
        segment = self._segment_name(heap.mem, heap.base)
        self._heap_finding(kind, segment, payload, cycle, label, detail)

    def _heap_check(self, thread: ThreadState, segment: str, word: int,
                    cycle: int) -> None:
        owner = self._redzones.get(word)
        if owner is not None:
            self._heap_finding("redzone", segment, word, cycle,
                               thread.label,
                               f"block payload 0x{owner:09x}")
        freed = self._freed.get(word)
        if freed is not None:
            self._heap_finding("use-after-free", segment, word, cycle,
                               thread.label,
                               f"freed @cycle {freed[0]} by {freed[1]}")

    def segment_closed(self, kernel, proc, base: int,
                       path: str) -> None:
        """Leak report + shadow purge at segment delete."""
        for payload in sorted(self.heap_live):
            if base <= payload < base + SEGMENT_SPAN:
                requested, _bsize, segment, label, cycle = \
                    self.heap_live.pop(payload)
                self._heap_finding("leak", segment or path, payload,
                                   cycle, label,
                                   f"{requested} byte(s) still "
                                   f"allocated at segment close")
        for table in (self.words, self._redzones, self._freed):
            for word in [w for w in table
                         if base <= w < base + SEGMENT_SPAN]:
                del table[word]
        thread = self._thread(kernel, proc)
        if thread is not None:
            self._seg_vc[base] = dict(thread.vc)
            thread.tick()

    def _heap_finding(self, kind: str, segment: str, address: int,
                      cycle: int, label: str, detail: str) -> None:
        key = (kind, address, label)
        if key in self._heap_reported \
                or len(self.report.heap) >= self.report_limit:
            return
        self._heap_reported.add(key)
        finding = HeapFinding(kind, segment, address, cycle, label,
                              detail)
        self.report.heap.append(finding)
        self.stats.heap_findings += 1
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.SAN, name=f"heap:{kind}",
                        addr=address, value=len(self.report.heap))


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------

@contextmanager
def sanitizing(report_limit: int = 256) -> Iterator[Sanitizer]:
    """Arm a fresh sanitizer for every kernel booted inside the block
    (the ``sanitize`` slot of :mod:`repro.kernel.arming`) and yield it.

    Unlike the recorder, where each boot gets its own collector, every
    kernel booted while armed joins ONE shared sanitizer: a cluster is
    one shared-memory machine from the paper's point of view, and races
    cross node boundaries. The sanitizer and its report survive the
    block; kernels already armed stay armed.
    """
    sanitizer = Sanitizer(report_limit=report_limit)
    _state.ACTIVE = sanitizer
    try:
        with arming.armed("sanitize", sanitizer.register_kernel):
            yield sanitizer
    finally:
        _state.ACTIVE = None


if os.environ.get("REPRO_SAN"):
    # Every boot of the process joins one sanitizer (the env analogue
    # of REPRO_TRACE).
    _state.ACTIVE = Sanitizer()
    arming.arm("sanitize", _state.ACTIVE.register_kernel)
