"""The seeded race/heap-misuse corpus reprosan replays.

Each :class:`SanCase` is a tiny self-contained workload engineered to
contain exactly one *true* bug class — a data race on a public shared
segment, or a shmalloc heap misuse — that the armed sanitizer must
report deterministically. CI's sanitize-soak job replays the corpus
and fails if any case stops firing; the companion sweep runs every
``examples/`` program armed and fails if anything *starts* firing.

Shapes covered:

* unsynchronized counter increments (write-write, read-write);
* one-sided locking (only one of two writers takes the flock/sem);
* message-queue misuse (reading the payload before the receive);
* races on shmalloc'd heap words;
* machine-code races: Presto workers with the semaphore stripped from
  the accumulator (``presto-total``) or the work cursor
  (``presto-cursor``) — the §4 application, genuinely broken;
* SMP-only races: the same broken Presto sized so that on one core the
  first worker drains every item inside its first quantum and the bug
  is unreachable — only real multi-core interleaving (``boot(ncores=2)``
  sub-quantum rounds) makes both workers claim and collide
  (``presto-smp-total``, ``presto-smp-merge``);
* cluster races: a second process on the granted node piggybacks on
  the node's exclusive mapping and accesses without its own coherence
  acquire (``cluster-piggyback-write``, ``cluster-stale-read``);
* heap misuse: use-after-free, redzone overflow, double free, and a
  leak held until segment close.

Every case is a pure function of its seed: two runs produce
bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.runtime.shmalloc import DoubleFreeError, SegmentHeap
from repro.runtime.views import Mem
from repro.sanitize.sanitizer import sanitizing
from repro.sanitize.report import SanReport

SEG = "/shared/san.seg"
SEG_SIZE = 4096


@dataclass
class SanCase:
    """One seeded workload with a known, deterministic finding."""

    name: str
    title: str
    kind: str                   # "race" or "heap"
    expect: str                 # substring the rendered report must show
    body: Callable[[], None]    # drives the workload (sanitizer armed)

    def run(self, report_limit: int = 256) -> SanReport:
        """Arm a fresh sanitizer, run the workload, return its report."""
        with sanitizing(report_limit=report_limit) as sanitizer:
            self.body()
        return sanitizer.report


def san_cases() -> List[SanCase]:
    """The full corpus, races first."""
    return [
        SanCase("counter-unsync",
                "two processes increment a shared counter, no lock",
                "race", "write-write", _counter_unsync),
        SanCase("reader-polling",
                "reader polls a word the writer updates, no sync",
                "race", "write-read", _reader_polling),
        SanCase("flock-one-sided",
                "one writer holds the flock, the other doesn't",
                "race", "write-write", _flock_one_sided),
        SanCase("sem-partial",
                "a write outside the critical section races the one "
                "inside it",
                "race", "write-write", _sem_partial),
        SanCase("msgq-early-read",
                "consumer reads the payload before msgrcv orders it",
                "race", "write-read", _msgq_early_read),
        SanCase("heap-word-race",
                "two processes write one shmalloc'd word, no lock",
                "race", "write-write", _heap_word_race),
        SanCase("presto-total",
                "Presto workers accumulate total without the semaphore",
                "race", "race", _presto_total),
        SanCase("presto-cursor",
                "Presto workers claim the work cursor without the "
                "semaphore",
                "race", "race", _presto_cursor),
        SanCase("presto-smp-total",
                "two-core Presto accumulates total bare; one core "
                "drains the queue before the race exists",
                "race", "race", _presto_smp_total),
        SanCase("presto-smp-merge",
                "disciplined loop, bare end-of-run merge; only "
                "multi-core runs have two finishers",
                "race", "race", _presto_smp_merge),
        SanCase("cluster-piggyback-write",
                "second process writes via the node's exclusive grant "
                "without its own acquire",
                "race", "write-write", _cluster_piggyback_write),
        SanCase("cluster-stale-read",
                "second process reads via the node's grant, racing the "
                "remote writer",
                "race", "read", _cluster_stale_read),
        SanCase("heap-use-after-free",
                "read of a freed shmalloc block",
                "heap", "use-after-free", _heap_uaf),
        SanCase("heap-redzone",
                "write past the requested size into the redzone",
                "heap", "redzone", _heap_redzone),
        SanCase("heap-double-free",
                "the same block freed twice",
                "heap", "double-free", _heap_double_free),
        SanCase("heap-leak",
                "segment deleted with a block still allocated",
                "heap", "leak", _heap_leak),
    ]


def case_named(name: str) -> SanCase:
    for case in san_cases():
        if case.name == name:
            return case
    raise KeyError(f"no sanitizer corpus case named {name!r}")


# ---------------------------------------------------------------------------
# native-process helpers
# ---------------------------------------------------------------------------


def _boot(ncores: Optional[int] = None):
    from repro import boot

    return boot(ncores=ncores).kernel


def _attach(kernel, proc, create: bool) -> int:
    from repro.runtime.libshared import runtime_for

    runtime = runtime_for(kernel, proc)
    if create:
        return runtime.create_segment(SEG, SEG_SIZE)
    return runtime.create_segment(SEG, SEG_SIZE, exclusive=False)


# ---------------------------------------------------------------------------
# race cases: native processes
# ---------------------------------------------------------------------------


def _counter_unsync() -> None:
    kernel = _boot()

    def body(kern, proc):
        base = _attach(kern, proc, create=proc.pid == 1)
        mem = Mem(kern, proc)
        yield
        for _ in range(3):
            mem.store_u32(base, mem.load_u32(base) + 1)
            yield

    kernel.create_native_process("inc1", body)
    kernel.create_native_process("inc2", body)
    kernel.schedule()


def _reader_polling() -> None:
    kernel = _boot()

    def writer(kern, proc):
        base = _attach(kern, proc, create=True)
        mem = Mem(kern, proc)
        yield
        mem.store_u32(base + 8, 7)

    def reader(kern, proc):
        base = _attach(kern, proc, create=False)
        mem = Mem(kern, proc)
        yield
        while mem.load_u32(base + 8) == 0:
            yield

    kernel.create_native_process("poll_w", writer)
    kernel.create_native_process("poll_r", reader)
    kernel.schedule()


def _flock_one_sided() -> None:
    from repro.kernel.syscalls import FLOCK_EX, FLOCK_UN, O_CREAT, \
        O_WRONLY

    kernel = _boot()

    def locked(kern, proc):
        base = _attach(kern, proc, create=True)
        mem = Mem(kern, proc)
        fd = kern.syscalls.open(proc, "/tmp.lock",
                                O_WRONLY | O_CREAT)
        yield
        kern.syscalls.flock(proc, fd, FLOCK_EX)
        mem.store_u32(base + 16, 1)
        kern.syscalls.flock(proc, fd, FLOCK_UN)

    def lockless(kern, proc):
        base = _attach(kern, proc, create=False)
        mem = Mem(kern, proc)
        yield
        mem.store_u32(base + 16, 2)

    kernel.create_native_process("flk_a", locked)
    kernel.create_native_process("flk_b", lockless)
    kernel.schedule()


def _sem_partial() -> None:
    kernel = _boot()

    def disciplined(kern, proc):
        base = _attach(kern, proc, create=True)
        mem = Mem(kern, proc)
        kern.syscalls.semget(proc, 9, value=1)
        yield
        kern.syscalls.sem_p(proc, 9)
        mem.store_u32(base + 24, 1)
        kern.syscalls.sem_v(proc, 9)
        yield
        kern.syscalls.sem_p(proc, 9)
        mem.store_u32(base + 24, 4)    # races sloppy's bare write
        kern.syscalls.sem_v(proc, 9)

    def sloppy(kern, proc):
        base = _attach(kern, proc, create=False)
        mem = Mem(kern, proc)
        kern.syscalls.semget(proc, 9, value=1)
        yield
        kern.syscalls.sem_p(proc, 9)
        mem.store_u32(base + 24, 2)
        kern.syscalls.sem_v(proc, 9)
        mem.store_u32(base + 24, 3)    # outside the critical section

    kernel.create_native_process("sem_a", disciplined)
    kernel.create_native_process("sem_b", sloppy)
    kernel.schedule()


def _msgq_early_read() -> None:
    kernel = _boot()

    def producer(kern, proc):
        base = _attach(kern, proc, create=True)
        mem = Mem(kern, proc)
        yield
        mem.store_u32(base + 32, 41)
        kern.syscalls.msgsnd(proc, 3, b"go")

    def consumer(kern, proc):
        base = _attach(kern, proc, create=False)
        mem = Mem(kern, proc)
        yield
        mem.load_u32(base + 32)        # too early: not yet handed off
        while kern.syscalls.msgrcv(proc, 3, blocking=False) is None:
            yield
        mem.load_u32(base + 32)        # properly ordered

    kernel.create_native_process("msg_p", producer)
    kernel.create_native_process("msg_c", consumer)
    kernel.schedule()


def _heap_word_race() -> None:
    kernel = _boot()
    slot = {}

    def alloc_and_write(kern, proc):
        base = _attach(kern, proc, create=True)
        mem = Mem(kern, proc)
        heap = SegmentHeap(mem, base, SEG_SIZE)
        heap.ensure_initialized()
        slot["payload"] = heap.alloc(8)
        yield
        mem.store_u32(slot["payload"], 1)

    def write_same(kern, proc):
        _attach(kern, proc, create=False)
        mem = Mem(kern, proc)
        yield
        while "payload" not in slot:
            yield
        mem.store_u32(slot["payload"], 2)

    kernel.create_native_process("heap_a", alloc_and_write)
    kernel.create_native_process("heap_b", write_same)
    kernel.schedule()


# ---------------------------------------------------------------------------
# race cases: Presto machine code with the locking stripped
# ---------------------------------------------------------------------------

_RACY_SHARED = """
int next_index = 0;
int total = 0;
int results[{nitems}];
"""

#: total accumulated bare; the cursor stays disciplined.
_RACY_TOTAL_WORKER = """
extern int next_index;
extern int total;
extern int results[{nitems}];
extern int sem_get(int key, int value);
extern int sem_p(int key);
extern int sem_v(int key);

int compute(int i) {{
    return i * i + 1;
}}

int main() {{
    int i;
    int value;
    int claimed = 0;
    sem_get(1, 1);
    while (1) {{
        sem_p(1);
        i = next_index;
        next_index = i + 1;
        sem_v(1);
        if (i >= {nitems}) {{
            break;
        }}
        value = compute(i);
        results[i] = value;
        total = total + value;
        claimed = claimed + 1;
    }}
    return claimed;
}}
"""

#: the cursor claimed bare; total stays disciplined.
_RACY_CURSOR_WORKER = """
extern int next_index;
extern int total;
extern int results[{nitems}];
extern int sem_get(int key, int value);
extern int sem_p(int key);
extern int sem_v(int key);

int compute(int i) {{
    return i * i + 1;
}}

int main() {{
    int i;
    int value;
    int claimed = 0;
    sem_get(1, 1);
    while (1) {{
        i = next_index;
        next_index = i + 1;
        if (i >= {nitems}) {{
            break;
        }}
        value = compute(i);
        results[i] = value;
        sem_p(1);
        total = total + value;
        sem_v(1);
        claimed = claimed + 1;
    }}
    return claimed;
}}
"""


#: disciplined loop, but every finisher that claimed at least one item
#: merges its count into ``done`` bare. On one core the workload is
#: sized so only the first worker ever claims — a single bare writer is
#: not a race. On two cores the round scheduler's sub-quantum
#: interleaving gives the queue to both workers, and their merges (each
#: sequenced *after* the worker's last semaphore release, so no
#: happens-before edge covers them) collide.
_SMP_SHARED = """
int next_index = 0;
int total = 0;
int done = 0;
int results[{nitems}];
"""

_SMP_MERGE_WORKER = """
extern int next_index;
extern int total;
extern int done;
extern int results[{nitems}];
extern int sem_get(int key, int value);
extern int sem_p(int key);
extern int sem_v(int key);

int compute(int i) {{
    return i * i + 1;
}}

int main() {{
    int i;
    int value;
    int claimed = 0;
    sem_get(1, 1);
    while (1) {{
        sem_p(1);
        i = next_index;
        next_index = i + 1;
        sem_v(1);
        if (i >= {nitems}) {{
            break;
        }}
        value = compute(i);
        results[i] = value;
        sem_p(1);
        total = total + value;
        sem_v(1);
        claimed = claimed + 1;
    }}
    if (claimed > 0) {{
        done = done + claimed;
    }}
    return claimed;
}}
"""

#: small enough that one worker's whole run (claim everything, exit)
#: fits in its first 2000-instruction quantum on a uniprocessor.
_SMP_NITEMS = 12


def _racy_presto(worker_source: str, nitems: int = 24,
                 nworkers: int = 3, ncores: Optional[int] = None,
                 shared_source: str = _RACY_SHARED) -> None:
    from repro.apps.libsys import build_libsys
    from repro.bench.workloads import make_shell
    from repro.linker.classes import SharingClass
    from repro.linker.lds import Lds, LinkRequest, store_object
    from repro.toyc import compile_source

    kernel = _boot(ncores=ncores)
    shell = make_shell(kernel)
    kernel.vfs.makedirs("/shared/racy", shell.uid)
    kernel.vfs.makedirs("/opt/racy", shell.uid)
    store_object(kernel, shell, "/shared/racy/shared_data.o",
                 compile_source(shared_source.format(nitems=nitems),
                                "shared_data.o"))
    store_object(kernel, shell, "/opt/racy/worker.o",
                 compile_source(worker_source.format(nitems=nitems),
                                "worker.o"))
    result = Lds(kernel).link(
        shell,
        [LinkRequest("/opt/racy/worker.o", SharingClass.STATIC_PRIVATE),
         LinkRequest("shared_data.o", SharingClass.DYNAMIC_PUBLIC)],
        output="/opt/racy/worker",
        archives=[build_libsys()],
    )
    env = {"LD_LIBRARY_PATH": "/shared/racy"}
    for index in range(nworkers):
        kernel.create_machine_process(f"racy_w{index}",
                                      result.executable, env=dict(env))
    kernel.schedule()


def _presto_total() -> None:
    _racy_presto(_RACY_TOTAL_WORKER)


def _presto_cursor() -> None:
    _racy_presto(_RACY_CURSOR_WORKER)


def _presto_smp_total() -> None:
    _racy_presto(_RACY_TOTAL_WORKER, nitems=_SMP_NITEMS, nworkers=2,
                 ncores=2)


def _presto_smp_merge() -> None:
    _racy_presto(_SMP_MERGE_WORKER, nitems=_SMP_NITEMS, nworkers=2,
                 ncores=2, shared_source=_SMP_SHARED)


# ---------------------------------------------------------------------------
# race cases: cluster coherence piggybacking
# ---------------------------------------------------------------------------


def _cluster_run(second_writes: bool) -> None:
    from repro.net import Cluster
    from repro.runtime.libshared import runtime_for

    path = "/shared/csan.seg"

    def creator(kern, proc):
        runtime_for(kern, proc).create_segment(path, 64)
        yield
        return 0

    def writer(slot, value):
        def body(kern, proc):
            base = runtime_for(kern, proc).segment_base(path)
            Mem(kern, proc).store_u32(base + 4 * slot, value)
            yield
            return 0
        return body

    def reader(slot):
        def body(kern, proc):
            base = runtime_for(kern, proc).segment_base(path)
            Mem(kern, proc).load_u32(base + 4 * slot)
            yield
            return 0
        return body

    cluster = Cluster(3, seed=42)
    cluster.spawn(1, "creator", creator)
    cluster.run()
    # Node 2 takes the segment exclusive through its first process...
    cluster.spawn(2, "grantee", writer(0, 1))
    cluster.run()
    # ...then two of its processes touch the word in one run: the first
    # faults (and acquires), the second piggybacks on the node's
    # exclusive mapping with no acquire of its own — racing the
    # *remote* history the first process synchronized with.
    cluster.spawn(2, "early", writer(1, 2))
    second = writer(1, 3) if second_writes else reader(1)
    cluster.spawn(2, "late", second)
    cluster.run()


def _cluster_piggyback_write() -> None:
    _cluster_run(second_writes=True)


def _cluster_stale_read() -> None:
    _cluster_run(second_writes=False)


# ---------------------------------------------------------------------------
# heap-misuse cases
# ---------------------------------------------------------------------------


def _heap_session(play) -> None:
    """Boot, attach a segment + heap as pid 1, run *play*."""
    kernel = _boot()

    def body(kern, proc):
        from repro.runtime.libshared import runtime_for

        runtime = runtime_for(kern, proc)
        base = runtime.create_segment(SEG, SEG_SIZE)
        mem = Mem(kern, proc)
        heap = SegmentHeap(mem, base, SEG_SIZE)
        heap.ensure_initialized()
        play(runtime, mem, heap)
        yield

    kernel.create_native_process("heapcase", body)
    kernel.schedule()


def _heap_uaf() -> None:
    def play(runtime, mem, heap):
        payload = heap.alloc(16)
        mem.store_u32(payload, 1)
        heap.free(payload)
        mem.load_u32(payload)          # use after free

    _heap_session(play)


def _heap_redzone() -> None:
    def play(runtime, mem, heap):
        # 9 bytes round up to a 16-byte payload: the final word is
        # rounding slack the program never asked for — a redzone.
        payload = heap.alloc(9)
        mem.store_u32(payload + 12, 1)

    _heap_session(play)


def _heap_double_free() -> None:
    def play(runtime, mem, heap):
        payload = heap.alloc(16)
        heap.free(payload)
        try:
            heap.free(payload)
        except DoubleFreeError:
            pass                        # the finding is still recorded

    _heap_session(play)


def _heap_leak() -> None:
    def play(runtime, mem, heap):
        heap.alloc(32)                  # never freed
        runtime.delete_segment(SEG)

    _heap_session(play)
