"""Module images: placement, symbol finalization, relocation.

The linkers "cooperate with the kernel to assign a virtual address to
each module. They relocate modules to reside at particular addresses (by
finalizing absolute references to internal symbols ...), and they link
modules together by resolving cross-module references" (§2). This module
implements those two verbs:

* :class:`ModuleImage` wraps a (cloned) template, assigns section bases —
  contiguous for segment modules, split text/data for the main load
  image — and applies relocations against a resolver;
* :func:`merge_objects` combines static-private templates into one link
  unit (what ld does when building the a.out);
* :func:`patch_reloc_in_memory` applies one relocation directly to a
  mapped module through an address space — the run-time patching ldl and
  the fault handler perform.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import DuplicateSymbolError, RelocationError
from repro.hw import isa
from repro.objfile.format import (
    ObjectFile,
    ObjectKind,
    Relocation,
    RelocType,
    SEC_ABS,
    SEC_BSS,
    SEC_DATA,
    SEC_TEXT,
    SectionLayout,
    Symbol,
    SymBinding,
)
from repro.util.bits import align_up, hi16, lo16
from repro.vm.address_space import AddressSpace

SECTION_ALIGN = 16

# Resolves a symbol name to an absolute address, or None if unknown.
Resolver = Callable[[str], Optional[int]]


class ModuleImage:
    """A template in the process of becoming a placed, linked module."""

    def __init__(self, template: ObjectFile,
                 name: Optional[str] = None) -> None:
        self.obj = template.clone()
        self.name = name or template.name
        self.bases: Dict[str, int] = {}
        self.heap_base = 0
        self.total_size = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def layout_contiguous(self, base: int) -> int:
        """Place text, data, bss, and heap back to back at *base*.

        Used for segment modules (public and dynamic private), whose
        entire image lives in one mapping. Returns the total size.

        Machine code carries 32-bit absolute addresses (lui/ori pairs),
        so a module containing text cannot be placed above the 32-bit
        space — the 64-bit configuration shares *data* segments there
        but would need a 64-bit CPU for code, exactly the boundary the
        paper draws for its future work.
        """
        if base > 0xFFFFFFFF and self.obj.text:
            raise RelocationError(
                f"module {self.name!r} contains code but was assigned "
                f"the 64-bit address 0x{base:x}; the 32-bit ISA cannot "
                f"address it"
            )
        text_base = base
        data_base = align_up(text_base + len(self.obj.text), SECTION_ALIGN)
        bss_base = align_up(data_base + len(self.obj.data), SECTION_ALIGN)
        heap_base = align_up(bss_base + self.obj.bss_size, SECTION_ALIGN)
        end = heap_base + self.obj.heap_size
        self.bases = {SEC_TEXT: text_base, SEC_DATA: data_base,
                      SEC_BSS: bss_base}
        self.heap_base = heap_base
        self.total_size = end - base
        self._record_layout()
        return self.total_size

    def layout_split(self, text_base: int, data_base: int) -> None:
        """Place text and data in separate regions (the main load image:
        text in the text region, data+bss in the heap region)."""
        bss_base = align_up(data_base + len(self.obj.data), SECTION_ALIGN)
        self.bases = {SEC_TEXT: text_base, SEC_DATA: data_base,
                      SEC_BSS: bss_base}
        self.heap_base = align_up(bss_base + self.obj.bss_size,
                                  SECTION_ALIGN)
        self.total_size = 0
        self._record_layout()

    def _record_layout(self) -> None:
        self.obj.layout = {
            SEC_TEXT: SectionLayout(SEC_TEXT, self.bases[SEC_TEXT],
                                    len(self.obj.text)),
            SEC_DATA: SectionLayout(SEC_DATA, self.bases[SEC_DATA],
                                    len(self.obj.data)),
            SEC_BSS: SectionLayout(SEC_BSS, self.bases[SEC_BSS],
                                   self.obj.bss_size),
            "heap": SectionLayout("heap", self.heap_base,
                                  self.obj.heap_size),
        }

    @property
    def base(self) -> int:
        return self.bases[SEC_TEXT]

    # ------------------------------------------------------------------
    # symbols
    # ------------------------------------------------------------------

    def symbol_address(self, name: str) -> Optional[int]:
        """Absolute address of a symbol defined in this module (post
        placement), or None."""
        symbol = self.obj.symbols.get(name)
        if symbol is None or not symbol.defined:
            return None
        if symbol.section == SEC_ABS:
            return symbol.value
        base = self.bases.get(symbol.section)
        if base is None:
            raise RelocationError(
                f"module {self.name!r} not laid out before symbol lookup"
            )
        return base + symbol.value

    def finalize_symbols(self) -> None:
        """Convert every defined symbol to its absolute address."""
        for symbol in self.obj.symbols.values():
            if symbol.defined and symbol.section != SEC_ABS:
                symbol.value = self.bases[symbol.section] + symbol.value
                symbol.section = SEC_ABS

    # ------------------------------------------------------------------
    # relocation
    # ------------------------------------------------------------------

    def apply_relocations(self, resolver: Optional[Resolver] = None
                          ) -> List[Relocation]:
        """Patch section bytes; return the relocations left unresolved.

        Local (internally defined) symbols always resolve; others go
        through *resolver*. Unresolved relocations stay in
        ``obj.relocations`` — the explicit retained-relocation structure
        lds must keep because IRIX ld would not (§3).
        """
        remaining: List[Relocation] = []
        for reloc in self.obj.relocations:
            target = self.symbol_address(reloc.symbol)
            if target is None and resolver is not None:
                target = resolver(reloc.symbol)
            if target is None:
                remaining.append(reloc)
                continue
            self._patch(reloc, target + reloc.addend)
        self.obj.relocations = remaining
        return remaining

    def _patch(self, reloc: Relocation, target: int) -> None:
        buf = self.obj.section_bytes(reloc.section)
        base = self.bases[reloc.section]
        patch_bytes(buf, reloc, base, target, self.name)

    def image_bytes(self) -> bytes:
        """The contiguous segment image (text..data..bss..heap zeros).

        Only valid after :meth:`layout_contiguous`.
        """
        if self.total_size == 0 and (self.obj.bss_size or self.obj.data
                                     or self.obj.text):
            raise RelocationError(
                f"module {self.name!r} was not laid out contiguously"
            )
        image = bytearray(self.total_size)
        text_off = 0
        data_off = self.bases[SEC_DATA] - self.bases[SEC_TEXT]
        image[text_off: text_off + len(self.obj.text)] = self.obj.text
        image[data_off: data_off + len(self.obj.data)] = self.obj.data
        return bytes(image)

    # ------------------------------------------------------------------
    # output objects
    # ------------------------------------------------------------------

    def to_segment_meta(self) -> ObjectFile:
        """Metadata describing this placed module (symbols at absolute
        addresses, retained relocations, scoped-linking info)."""
        meta = ObjectFile(self.name, ObjectKind.SEGMENT)
        meta.bss_size = self.obj.bss_size
        meta.heap_size = self.obj.heap_size
        meta.link_info = self.obj.link_info.copy()
        meta.layout = dict(self.obj.layout)
        meta.relocations = list(self.obj.relocations)
        for symbol in self.obj.symbols.values():
            if symbol.defined:
                address = self.symbol_address(symbol.name)
                assert address is not None
                meta.symbols[symbol.name] = Symbol(
                    symbol.name, SEC_ABS, address, symbol.binding,
                    symbol.size, symbol.kind,
                )
            else:
                meta.symbols[symbol.name] = Symbol(
                    symbol.name, symbol.section, symbol.value,
                    symbol.binding, symbol.size, symbol.kind,
                )
        return meta

    def to_executable(self) -> ObjectFile:
        """The a.out: placed sections + retained relocs + link info."""
        out = self.obj.clone()
        out.kind = ObjectKind.EXECUTABLE
        image = ModuleImage(out, self.name)   # reuse symbol finalization
        image.bases = dict(self.bases)
        image.heap_base = self.heap_base
        image.finalize_symbols()
        image.obj.layout = dict(self.obj.layout)
        image.obj.name = self.name
        return image.obj


# ---------------------------------------------------------------------------
# low-level patching (shared with run-time linking)
# ---------------------------------------------------------------------------

def patch_bytes(buf: bytearray, reloc: Relocation, section_base: int,
                target: int, module_name: str) -> None:
    """Apply *reloc* to *buf* (whose first byte sits at *section_base*)."""
    offset = reloc.offset
    if offset + 4 > len(buf):
        raise RelocationError(
            f"{module_name}: relocation offset 0x{offset:x} out of range"
        )
    word = int.from_bytes(buf[offset: offset + 4], "little")
    word = _patched_word(word, reloc, section_base + offset, target,
                         module_name)
    buf[offset: offset + 4] = word.to_bytes(4, "little")


def patch_reloc_in_memory(space: AddressSpace, section_base: int,
                          reloc: Relocation, target: int,
                          module_name: str = "<module>") -> None:
    """Apply *reloc* to a module already mapped in *space*.

    This is what ldl and the SIGSEGV handler do when they resolve
    references at run time; the store bypasses page protections the way
    the kernel-assisted runtime does.
    """
    site = section_base + reloc.offset
    word = space.load_word(site, force=True)
    word = _patched_word(word, reloc, site, target, module_name)
    space.store_word(site, word, force=True)


def _patched_word(word: int, reloc: Relocation, site: int, target: int,
                  module_name: str) -> int:
    if reloc.type is RelocType.WORD32:
        return target & 0xFFFFFFFF
    if reloc.type is RelocType.HI16:
        return (word & 0xFFFF0000) | hi16(target)
    if reloc.type is RelocType.LO16:
        return (word & 0xFFFF0000) | lo16(target)
    if reloc.type is RelocType.JUMP26:
        if not isa.jump_reachable(site, target):
            raise RelocationError(
                f"{module_name}: jump at 0x{site:08x} cannot reach "
                f"0x{target:08x} (26-bit limit); a branch island was "
                f"required but missing"
            )
        return (word & 0xFC000000) | ((target >> 2) & 0x3FFFFFF)
    raise RelocationError(f"unknown relocation type {reloc.type}")


# ---------------------------------------------------------------------------
# merging static-private templates into one link unit
# ---------------------------------------------------------------------------

def merge_objects(objects: List[ObjectFile], name: str) -> ObjectFile:
    """Concatenate templates section-wise into a single relocatable.

    Global symbols are deduplicated (defined-over-undefined, duplicate
    definitions are an error); local symbols are renamed
    ``module::symbol`` so same-named locals in different templates stay
    distinct. Link info (dynamic module lists, search dirs) accumulates.
    """
    merged = ObjectFile(name, ObjectKind.RELOCATABLE)
    text_off = data_off = bss_off = heap_off = 0
    for obj in objects:
        text_off = align_up(len(merged.text), SECTION_ALIGN)
        merged.text.extend(b"\x00" * (text_off - len(merged.text)))
        data_off = align_up(len(merged.data), SECTION_ALIGN)
        merged.data.extend(b"\x00" * (data_off - len(merged.data)))
        bss_off = align_up(merged.bss_size, SECTION_ALIGN)
        merged.bss_size = bss_off
        heap_off = merged.heap_size

        offsets = {SEC_TEXT: text_off, SEC_DATA: data_off, SEC_BSS: bss_off}
        renames: Dict[str, str] = {}
        for symbol in obj.symbols.values():
            new_name = symbol.name
            if symbol.binding is SymBinding.LOCAL and symbol.defined:
                new_name = f"{obj.name}::{symbol.name}"
                renames[symbol.name] = new_name
            if not symbol.defined:
                merged.reference(new_name)
                continue
            existing = merged.symbols.get(new_name)
            if existing is not None and existing.defined:
                raise DuplicateSymbolError(new_name, "<merged>", obj.name)
            section_off = offsets.get(symbol.section, 0)
            merged.symbols[new_name] = Symbol(
                new_name, symbol.section, symbol.value + section_off,
                symbol.binding, symbol.size, symbol.kind,
            )
        for reloc in obj.relocations:
            merged.relocations.append(Relocation(
                reloc.section,
                reloc.offset + offsets[reloc.section],
                reloc.type,
                renames.get(reloc.symbol, reloc.symbol),
                reloc.addend,
            ))
        merged.text.extend(obj.text)
        merged.data.extend(obj.data)
        merged.bss_size += obj.bss_size
        merged.heap_size = heap_off + obj.heap_size
        merged.link_info.dynamic_modules.extend(
            obj.link_info.dynamic_modules
        )
        merged.link_info.search_path.extend(obj.link_info.search_path)
        if obj.entry_symbol and not merged.entry_symbol:
            merged.entry_symbol = obj.entry_symbol
    return merged
