"""Hemlock's linkers: ``lds``, ``ldl``, and their supporting machinery.

This package is the paper's contribution proper:

* :mod:`classes` — the four sharing classes of Table 1;
* :mod:`searchpath` — the SunOS-inspired extended search strategy;
* :mod:`module` — module images, placement, relocation;
* :mod:`branch_islands` — rewriting of over-long 26-bit jumps (§3);
* :mod:`segments` — public-module segment files in the SFS;
* :mod:`lds` — the static linker (wrapper semantics of §3);
* :mod:`ldl` — the lazy, scoped dynamic linker;
* :mod:`scoped` — DAG-based scope resolution (§3, Figure 2);
* :mod:`baseline_ld` — a traditional static-only ld for comparison;
* :mod:`jumptable` — the SunOS PLT-style lazy function linking baseline;
* :mod:`crt0` — the special program start-up module.
"""

from repro.linker.classes import SharingClass
from repro.linker.searchpath import SearchPath
from repro.linker.module import ModuleImage
from repro.linker.lds import Lds, LinkRequest
from repro.linker.ldl import Ldl, LoadedModule
from repro.linker.baseline_ld import link_static
from repro.linker.segments import (
    create_public_module,
    read_segment_meta,
    public_module_exists,
)

__all__ = [
    "SharingClass",
    "SearchPath",
    "ModuleImage",
    "Lds",
    "LinkRequest",
    "Ldl",
    "LoadedModule",
    "link_static",
    "create_public_module",
    "read_segment_meta",
    "public_module_exists",
]
