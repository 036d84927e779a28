"""A traditional static-only linker — the ``ld`` that ``lds`` wraps.

Implements exactly the classic contract: merge the given relocatables,
pull in archive members that satisfy outstanding undefined references,
place text and data, resolve everything, and error on any undefined or
duplicate symbol. No sharing classes, no dynamic modules, no retained
relocations — that is what Hemlock adds on top.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import UndefinedSymbolError
from repro.linker.crt0 import crt0_template
from repro.linker.module import ModuleImage, merge_objects
from repro.objfile.archive import Archive
from repro.objfile.format import ObjectFile
from repro.vm.layout import HEAP_REGION, TEXT_BASE


def link_static(objects: Sequence[ObjectFile],
                archives: Sequence[Archive] = (),
                name: str = "a.out",
                text_base: int = TEXT_BASE,
                data_base: int = HEAP_REGION.start,
                entry: Optional[str] = None,
                with_crt0: bool = True) -> ObjectFile:
    """Produce an executable from *objects* (+ needed archive members)."""
    units: List[ObjectFile] = []
    if with_crt0:
        units.append(crt0_template())
    units.extend(objects)

    merged = merge_objects(units, name)
    undefined = set(merged.undefined_symbols())
    defined = {s.name for s in merged.defined_globals()}
    undefined -= defined
    for archive in archives:
        members = archive.resolve(undefined)
        if members:
            units.extend(member.clone() for member in members)
            merged = merge_objects(units, name)
            undefined = set(merged.undefined_symbols()) \
                - {s.name for s in merged.defined_globals()}

    image = ModuleImage(merged, name)
    image.layout_split(text_base, data_base)
    remaining = image.apply_relocations()
    if remaining:
        raise UndefinedSymbolError([r.symbol for r in remaining])

    if entry is not None:
        image.obj.entry_symbol = entry
    elif not image.obj.entry_symbol:
        image.obj.entry_symbol = "_start" if with_crt0 else "main"
    return image.to_executable()
