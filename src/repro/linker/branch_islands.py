"""Branch islands for over-long jumps (§3).

The R3000's ``j``/``jal`` carry a 26-bit word address and can only reach
within the current 256 MiB region. A call from private text (around
0x00400000) into a public module in the 1 GiB shared region therefore
cannot be encoded directly: "lds and ldl arrange for over-long branches
to be replaced with jumps to new, nearby code fragments that load the
appropriate target address into a register and jump indirectly."

The transform runs on a template *before* layout. For every JUMP26
relocation against a symbol not defined in the object (every
cross-module target may land in the shared region), it appends a
three-instruction island at the end of text::

    island:  lui  at, %hi(target)     # HI16 reloc
             ori  at, at, %lo(target) # LO16 reloc
             jr   at

and redirects the call site's JUMP26 to the island. ``jal`` call sites
still set ``ra`` at the call site, so returns work unchanged; the
assembler temporary ``at`` is clobbered, which is its ABI-sanctioned job.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hw import isa
from repro.objfile.format import (
    ObjectFile,
    Relocation,
    RelocType,
    SEC_TEXT,
    Symbol,
    SymBinding,
)
from repro.trace import tracer as _trace
from repro.trace.events import EventKind

ISLAND_SIZE = 12  # three instructions


def is_external(obj: ObjectFile, symbol: str) -> bool:
    """True when *symbol* is not defined in *obj*: the target may end up
    outside the caller's 256 MiB region, so its call sites need islands
    (and, under lds's jump-table option, PLT entries)."""
    entry = obj.symbols.get(symbol)
    return entry is None or not entry.defined


def insert_branch_islands(obj: ObjectFile) -> int:
    """Rewrite far JUMP26 relocations in *obj* through islands.

    Islands are shared: N call sites to the same (symbol, addend) all
    jump through one island, so text grows by at most one island per
    distinct far target. Returns the number of islands added.
    """
    new_relocs: List[Relocation] = []
    by_target: Dict[Tuple[str, int], str] = {}
    islands = 0
    for reloc in obj.relocations:
        if reloc.type is not RelocType.JUMP26 \
                or not is_external(obj, reloc.symbol):
            new_relocs.append(reloc)
            continue
        label = by_target.get((reloc.symbol, reloc.addend))
        if label is None:
            label = f"__island_{islands}__{reloc.symbol}"
            by_target[(reloc.symbol, reloc.addend)] = label
            islands += 1
            island_offset = len(obj.text)
            obj.text.extend(_island_code())
            obj.symbols[label] = Symbol(label, SEC_TEXT, island_offset,
                                        SymBinding.LOCAL)
            tracer = _trace.TRACER
            if tracer.enabled:
                tracer.emit(EventKind.ISLAND, name=reloc.symbol,
                            value=ISLAND_SIZE)
            # The island carries the absolute target.
            new_relocs.append(Relocation(SEC_TEXT, island_offset,
                                         RelocType.HI16, reloc.symbol,
                                         reloc.addend))
            new_relocs.append(Relocation(SEC_TEXT, island_offset + 4,
                                         RelocType.LO16, reloc.symbol,
                                         reloc.addend))
        # Call site now jumps (in-region) to the shared island.
        new_relocs.append(Relocation(SEC_TEXT, reloc.offset,
                                     RelocType.JUMP26, label, 0))
    obj.relocations = new_relocs
    return islands


def _island_code() -> bytes:
    words = [
        isa.encode_i(isa.OP_LUI, rt=isa.REG_AT, imm=0),
        isa.encode_i(isa.OP_ORI, rs=isa.REG_AT, rt=isa.REG_AT, imm=0),
        isa.encode_r(isa.FN_JR, rs=isa.REG_AT),
    ]
    return b"".join(word.to_bytes(4, "little") for word in words)


def count_far_jumps(obj: ObjectFile) -> int:
    """How many JUMP26 relocations would need islands (for benchmarks)."""
    return sum(
        1 for reloc in obj.relocations
        if reloc.type is RelocType.JUMP26 and is_external(obj, reloc.symbol)
    )
