"""Hemlock — linking shared segments.

A complete, simulation-based reproduction of W. E. Garrett, M. L. Scott
et al., "Linking Shared Segments", 1993 Winter USENIX. The package
builds the whole stack the paper's system needs — an R3000-flavoured
CPU and assembler, a paged VM with restartable faults, a Unix-like
kernel and file system, the dedicated shared file system with its
global address↔file mapping — and on top of it Hemlock itself: the
``lds`` static linker with four sharing classes, the ``ldl`` lazy
dynamic linker with scoped (DAG) symbol resolution, the SIGSEGV handler
that implements lazy linking and pointer chasing, and a per-segment
heap allocator.

Quick start::

    from repro import boot

    system = boot()                 # kernel + Hemlock runtime attached
    # ... write templates, link with system.lds, run programs ...

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kernel.kernel import Kernel
from repro.kernel.timing import Clock
from repro.linker.classes import SharingClass
from repro.linker.lds import Lds, LinkRequest
from repro.linker.ldl import Ldl
from repro.runtime.libshared import HemlockRuntime, attach_runtime, \
    runtime_for
from repro.runtime.shmalloc import ArenaHeap, SegmentHeap
from repro.runtime.views import Mem, StructDef

__version__ = "1.0.0"

__all__ = [
    "boot",
    "System",
    "Kernel",
    "Clock",
    "SharingClass",
    "Lds",
    "LinkRequest",
    "Ldl",
    "HemlockRuntime",
    "attach_runtime",
    "runtime_for",
    "ArenaHeap",
    "SegmentHeap",
    "Mem",
    "StructDef",
]


@dataclass
class System:
    """A booted simulated machine with the Hemlock toolchain attached."""

    kernel: Kernel
    lds: Lds

    @property
    def vfs(self):
        return self.kernel.vfs

    @property
    def sfs(self):
        return self.kernel.sfs

    @property
    def clock(self) -> Clock:
        return self.kernel.clock


def boot(lazy: bool = True,
         wide_addresses: bool = False,
         scoped: bool = True,
         verify: Optional[bool] = None,
         disk=None,
         ncores: Optional[int] = None) -> System:
    """Boot a fresh simulated machine.

    * *lazy* — whether ldl links lazily (the paper's default) or eagerly;
    * *wide_addresses* — boot the paper's 64-bit future-work design
      (per-inode address fields, B-tree map, relaxed limits) instead of
      the 32-bit prototype and its linear address map;
    * *scoped* — scoped linking (the paper's design) vs a traditional
      flat namespace (the A6 ablation);
    * *verify* — arm the reprolint static-verification gate in both
      lds and ldl (None = follow the REPRO_LINT environment variable).
      The gate is purely in-memory and charges zero simulated cycles.
    * *disk* — a :class:`repro.disk.BlockDevice` to mount as the durable
      store: blank devices are formatted, used ones are recovered
      (journal replay + addr↔inode rebuild). None boots all-volatile.
    * *ncores* — simulated CPU count (repro.smp). The kernel schedules
      processes onto K cores in deterministic rounds with sub-quantum
      interleaving; K=1 (the default) is the uniprocessor, bit-identical
      to every release before SMP existed. None consults the REPRO_CORES
      environment variable, so existing workloads can be rerun
      multi-core without touching their code. Anything but an integer
      >= 1 raises :class:`~repro.errors.KernelError`.

    Every boot is a stand-alone machine. A :class:`repro.net.Cluster`
    boots its members through this same call and then wires each one's
    NIC and coherence agent itself; whatever the tools armed (tracing,
    injection, recording, the sanitizer, a durable campaign) attaches
    inside ``Kernel.__init__`` through :mod:`repro.kernel.arming`.
    """
    kernel = Kernel(wide_addresses=wide_addresses, disk=disk,
                    ncores=ncores)
    attach_runtime(kernel, lazy=lazy, scoped=scoped, verify=verify)
    return System(kernel=kernel, lds=Lds(kernel, verify=verify))
