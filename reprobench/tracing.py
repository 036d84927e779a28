"""Outside-in span tracing for reprobench.

The benchmark's own code wraps public callables of the simulator at run
time; nothing inside ``src/`` knows it is being traced, and no wrapper
charges a simulated cycle. Each call of a wrapped callable is one span:
group, start, end, parent span and the ``(op index, kind)`` of the timed
block it ran in. A span's self time is its duration minus the durations
of its direct child spans. Spans are aggregated per block kind and group
as they close, so memory stays flat; the spans of the first
:attr:`Recorder.KEEP_OPS` timed ops are also kept whole and written out
as JSON. The wrappers are removed when the traced phase ends.

Counters the simulator already keeps (TLB and decode-cache traffic,
``LdlStats``, ``FabricStats``, ``CoherenceStats``, SMP shootdowns, the
address map's comparisons, the journal and the clock's categories) are
read by :func:`snapshot` around each timed op.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Tuple


def _public(owner: type) -> Tuple[str, ...]:
    return tuple(name for name, value in vars(owner).items()
                 if not name.startswith("_") and callable(value))


#: (span group, layer, "module:Owner" or "module:", attributes,
#: outermost-only). A group is the prefix of its per-layer metrics; an
#: outermost-only group records no span while one of its own is open.
#: "module:" hooks module-level functions, in every ``repro`` module
#: that imported them by name.
HOOKS = [
    ("hw", "hw", "repro.kernel.kernel:Kernel",
     ("run_until_exit", "schedule"), False),
    ("kernel.syscall", "kernel", "repro.kernel.syscalls:Syscalls",
     _public, False),
    ("kernel.fault", "kernel", "repro.kernel.kernel:Kernel",
     ("deliver_fault",), False),
    ("linker.scoped_resolve", "linker", "repro.linker.ldl:Ldl",
     ("scoped_resolve",), False),
    ("linker.link_module", "linker", "repro.linker.ldl:Ldl",
     ("link_module",), False),
    ("linker.peek_exports", "linker", "repro.linker.scoped:",
     ("peek_exports",), False),
    ("linker.lds", "linker", "repro.linker.lds:Lds", ("link",), False),
    ("objfile.parse", "objfile", "repro.objfile.format:ObjectFile",
     ("from_bytes",), False),
    ("fs.resolve", "fs", "repro.fs.vfs:Vfs", ("resolve",), False),
    ("fs.listdir", "fs", "repro.fs.vfs:Vfs", ("listdir",), False),
    ("fs.read", "fs", "repro.fs.vfs:Vfs", ("read_whole",), False),
    ("fs.read", "fs", "repro.fs.vfs:OpenFile", ("read", "pread"), False),
    ("disk.journal", "disk", "repro.disk.journal:Journal", ("log",),
     False),
    ("runtime.views", "runtime.views", "repro.runtime.views:Mem",
     _public, True),
    ("runtime.views", "runtime.views", "repro.runtime.views:StructView",
     _public, True),
    ("vm.native", "vm", "repro.vm.address_space:AddressSpace",
     ("read_bytes", "write_bytes"), False),
    ("net.send", "net", "repro.net.link:Nic", ("send",), False),
    ("net.call", "net", "repro.net.link:Nic", ("call",), False),
    ("net.deliver", "net", "repro.net.link:Fabric", ("deliver_due",),
     False),
    ("net.coherence.fault", "net", "repro.net.coherence:CoherenceAgent",
     ("on_fault",), False),
    ("net.round", "net", "repro.net.cluster:Machine", ("step_round",),
     False),
]

#: the root span of every timed block; its self time is the part of the
#: block no hook covers
ROOT = "other"

#: span group -> layer, in table order
GROUPS: Dict[str, str] = {}
for _group, _layer, *_ in HOOKS:
    GROUPS.setdefault(_group, _layer)
GROUPS[ROOT] = ROOT

#: groups whose work happens in setup, reported per setup, not per op
SETUP_GROUPS = ("linker.lds",)

#: the clock's cycle categories (repro.kernel.timing), each reported
#: as kernel.cycles.<category> even when a workload charges none
CYCLE_CATEGORIES = (
    "backoff", "copies", "disk", "faults", "file_io", "instructions",
    "journal", "mappings", "messages", "net", "signals", "switches",
    "syscalls", "translation", "user_memory",
)

#: counters reported per op as they are
COUNTS = (
    "hw.instructions", "vm.tlb_fills", "vm.shootdowns",
    "linker.modules_created", "linker.directory_scans", "linker.retries",
    "sfs.addrmap.comparisons", "disk.journal.records",
    "disk.blocks_written", "net.frames_sent", "net.bytes_sent",
    "net.retransmits", "net.coherence.bytes_fetched", "net.rounds",
)


class Recorder:
    """Spans of wrapped public callables, aggregated as they close."""

    #: timed ops whose spans are kept whole for :meth:`dump`
    KEEP_OPS = 1

    def __init__(self) -> None:
        #: kind -> group -> [calls, self seconds]; kind is the timed
        #: block's ("op", "warm") or "setup" outside blocks
        self.table: Dict[str, Dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0]))
        #: kept spans: (group, start, end, parent index, (op, kind))
        self.spans: List[Optional[tuple]] = []
        self.op: Optional[Tuple[int, str]] = None
        self.keep = True
        self._stack: List[list] = []
        self._root: Optional[list] = None
        self._open: Dict[str, bool] = {}
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def _enter(self) -> list:
        """Open a span; its frame is [kept index or -1, child seconds,
        start]."""
        index = -1
        if self.keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, group: str) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][1] += duration
        kind = self.op[1] if self.op is not None else "setup"
        cell = self.table[kind][group]
        cell[0] += 1
        cell[1] += duration - frame[1]
        if frame[0] >= 0:
            parent = stack[-1][0] if stack else -1
            self.spans[frame[0]] = (group, frame[2], end, parent, self.op)

    def _wrap(self, fn, group: str, outermost: bool):
        is_open = self._open
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost:
                if is_open.get(group):
                    return fn(*args, **kwargs)
                is_open[group] = True
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, group)
                if outermost:
                    is_open[group] = False

        return traced

    def _patch(self, owner, attr: str, group: str, outermost: bool):
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, group, outermost))
        else:
            new = self._wrap(raw, group, outermost)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        for group, _layer, target, attrs, outermost in HOOKS:
            module_name, _, owner_name = target.partition(":")
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            names = attrs(owner) if callable(attrs) else attrs
            for attr in names:
                if owner_name:
                    self._patch(owner, attr, group, outermost)
                    continue
                original = vars(module)[attr]
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") \
                            and vars(other).get(attr) is original:
                        self._patch(other, attr, group, outermost)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- timed blocks ---------------------------------------------------

    def begin(self, op: Tuple[int, str], timed_ops: int) -> None:
        """Open the root span of a timed block; *timed_ops* is how many
        timed ops came before it."""
        self.op = op
        self.keep = timed_ops < self.KEEP_OPS
        self._root = self._enter()

    def end(self) -> None:
        self._exit(self._root, ROOT)
        self.op = None

    def dump(self, path) -> None:
        """Write the kept spans as JSON, times in microseconds from the
        first kept span."""
        kept = [span for span in self.spans if span is not None]
        origin = kept[0][1] if kept else 0.0
        rows = [[group, round((start - origin) * 1e6, 1),
                 round((end - origin) * 1e6, 1), parent, op]
                for group, start, end, parent, op in kept]
        with open(path, "w") as out:
            json.dump({"fields": ["group", "start_us", "end_us", "parent",
                                  "op"],
                       "layers": GROUPS, "spans": rows}, out)


def snapshot(kernels: Iterable, cluster=None) -> Counter:
    """Cumulative counters of *kernels* (and *cluster*) right now."""
    counts: Counter = Counter()
    for kernel in kernels:
        for category, cycles in kernel.clock.by_category.items():
            counts["kernel.cycles." + category] += cycles
        if kernel.smp is not None:
            stats = kernel.smp.stats()
            counts["vm.shootdowns"] += sum(stats["tlb_shootdowns"].values())
            counts["vm.shootdowns"] += sum(
                stats["decode_shootdowns"].values())
        counts["sfs.addrmap.comparisons"] += kernel.sfs.addrmap.comparisons
        if kernel.disk is not None:
            if kernel.disk.journal is not None:
                counts["disk.journal.records"] += \
                    kernel.disk.journal.records_written
            counts["disk.blocks_written"] += kernel.disk.device.writes
        for proc in kernel.processes.values():
            space = proc.address_space
            if space is not None:
                counts["tlb.hits"] += space.tlb_hits
                counts["tlb.misses"] += space.tlb_misses
                counts["vm.tlb_fills"] += space.tlb_fills
            cpu = proc.cpu
            if cpu is not None:
                counts["hw.instructions"] += cpu.instructions_executed
                counts["decode.hits"] += cpu.decode_hits
                counts["decode.misses"] += cpu.decode_misses
            ldl = getattr(proc.runtime, "ldl", None)
            if ldl is not None:
                counts["linker.modules_created"] += ldl.stats.modules_created
                counts["linker.directory_scans"] += \
                    ldl.stats.directory_scans
                counts["linker.retries"] += ldl.stats.transient_retries
    if cluster is not None:
        stats = cluster.fabric.stats
        counts["net.frames_sent"] += stats.frames_sent
        counts["net.bytes_sent"] += stats.bytes_sent
        counts["net.retransmits"] += stats.retransmits
        counts["net.coherence.bytes_fetched"] += sum(
            node["bytes_fetched"] for node in cluster.coherence_stats())
        counts["net.rounds"] += cluster.round
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table, counters: Counter, nops: int,
                  nsetups: int) -> Dict[str, float]:
    """Per-op (per-setup for SETUP_GROUPS) per-layer metrics from a
    recorder's table and the summed counter deltas of *nops* ops."""
    metrics: Dict[str, float] = {}
    for group in GROUPS:
        kind, count = ("setup", nsetups) if group in SETUP_GROUPS \
            else ("op", nops)
        calls, self_s = table[kind][group]
        if group != ROOT:
            metrics[group + ".calls"] = _ratio(calls, count)
        metrics[group + ".self_s"] = _ratio(self_s, count)
    for key in COUNTS:
        metrics[key] = _ratio(counters[key], nops)
    metrics["hw.decode_hit_ratio"] = _ratio(
        counters["decode.hits"],
        counters["decode.hits"] + counters["decode.misses"])
    metrics["vm.tlb_hit_ratio"] = _ratio(
        counters["tlb.hits"], counters["tlb.hits"] + counters["tlb.misses"])
    metrics["linker.peek_per_resolve"] = _ratio(
        table["op"]["linker.peek_exports"][0],
        table["op"]["linker.scoped_resolve"][0])
    for category in CYCLE_CATEGORIES:
        metrics["kernel.cycles." + category] = _ratio(
            counters["kernel.cycles." + category], nops)
    return metrics


def layer_table(table, kinds=("op", "warm")) -> List[str]:
    """Per-group self seconds and share of traced block time, one
    section per block kind present."""
    lines = []
    for kind in kinds:
        cells = table.get(kind)
        if not cells:
            continue
        blocks = cells[ROOT][0]
        total = sum(self_s for _calls, self_s in cells.values())
        lines.append(f"  [{kind}] {blocks} traced blocks, "
                     f"{total / blocks:.4f} s per block")
        lines.append(f"  {'span group':<22} {'layer':<14} "
                     f"{'calls/blk':>10} {'self s/blk':>11} {'share':>7}")
        for group in sorted(cells, key=lambda name: -cells[name][1]):
            calls, self_s = cells[group]
            lines.append(
                f"  {group:<22} {GROUPS[group]:<14} {calls / blocks:>10.1f} "
                f"{self_s / blocks:>11.5f} {100 * self_s / total:>6.1f}%")
    return lines


def dominance(table, predicted: Tuple[str, ...]) -> str:
    """Whether the *predicted* layers together take a larger share of
    traced op time than any other single layer."""
    shares: Dict[str, float] = defaultdict(float)
    for group, (_calls, self_s) in table["op"].items():
        shares[GROUPS[group]] += self_s
    total = sum(shares.values())
    mine = sum(shares[layer] for layer in predicted)
    rest = max((share for layer, share in shares.items()
                if layer not in predicted), default=0.0)
    ranked = ", ".join(f"{layer} {100 * share / total:.1f}%"
                       for layer, share in sorted(
                           shares.items(), key=lambda item: -item[1]))
    verdict = "holds" if mine > rest else "DOES NOT HOLD"
    return (f"predicted dominant {'+'.join(predicted)}: "
            f"{100 * mine / total:.1f}% of traced op time, {verdict} "
            f"(layers: {ranked})")
