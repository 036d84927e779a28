"""Scope-chain helpers for scoped linking (§3, Figure 2).

"When a module M is brought in, its undefined references are first
resolved against the external symbols of modules found on M's own module
list and search path. If this step is not completely successful,
consideration moves up to the module(s) that caused M to be loaded in —
M's 'parent' ... and so on. The linking structure of a program can be
viewed as a DAG in which children can search up from their current
position to the root, but never down."

This module provides the pure pieces: breadth-first ancestor iteration
over the DAG, and export peeking — reading just the symbol table of an
on-disk template or segment to decide whether it can satisfy a symbol,
without instantiating it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional, TYPE_CHECKING

from repro.errors import ObjectFormatError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.segments import segment_base
from repro.objfile.format import ObjectFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linker.ldl import LoadedModule


def scope_chain(module: "LoadedModule") -> Iterator["LoadedModule"]:
    """Yield *module*, then its parents, grandparents, ... (BFS, dedup).

    Children search up toward the root, never down.
    """
    seen = {id(module)}
    frontier: List["LoadedModule"] = [module]
    while frontier:
        next_frontier: List["LoadedModule"] = []
        for node in frontier:
            yield node
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    next_frontier.append(parent)
        frontier = next_frontier


def peek_exports(kernel: Kernel, proc: Process,
                 path: str) -> Optional[Mapping[str, int]]:
    """Defined global symbols of the module file at *path*, or None if
    the file is not a module.

    For templates the values are section offsets (only the *names*
    matter to the caller); for segment files they are absolute
    addresses. This reads symbol tables through the ordinary file
    interface without creating or mapping anything. The result is
    read-only.

    Every call issues and pays for the same syscalls (one
    :meth:`~repro.kernel.syscalls.Syscalls.read_module`). Only the
    decode is shared: ``kernel.export_table`` keeps, per file, the
    bytes last decoded here and what they yielded, and reuses the
    result when the bytes just read are equal to them.
    """
    template = path.endswith(".o")
    try:
        read = kernel.syscalls.read_module(proc, path, segment=not template,
                                           probe=True)
    except ObjectFormatError:
        return None
    if read is None:
        return None
    data, _image_len, key = read
    entry = kernel.export_table.get(key)
    if entry is not None and entry[0] == template and entry[1] == data:
        return entry[2]
    exports = _decode_exports(data, template, path)
    kernel.export_table[key] = (template, data, exports)
    return exports


def _decode_exports(data: bytes, template: bool,
                    path: str) -> Optional[Mapping[str, int]]:
    """The read-only export table of a template (*data* is the whole
    file) or of segment metadata, or None if *data* is not one."""
    try:
        obj = ObjectFile.from_bytes(data)
        if not template:
            segment_base(obj, path)
    except ObjectFormatError:
        return None
    return MappingProxyType({s.name: s.value
                             for s in obj.defined_globals()})
