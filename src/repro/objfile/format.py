"""The HOF object-file format: sections, symbols, relocations, link info.

A *template* (relocatable ``.o``) contains position-independent section
data plus the symbol and relocation tables needed to relocate it to any
address. ``lds`` consumes templates and produces either an *executable*
(with assigned section addresses, an entry point, retained relocations,
and the dynamic-module list + search paths that ``ldl`` needs at run
time) or a *public module image* (fully relocated to its globally agreed
SFS address).

The format is deliberately ELF-flavoured but much smaller. Everything
serializes to a versioned binary encoding (magic ``HOF1``) via
:mod:`repro.objfile.serialize`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ObjectFormatError
from repro.objfile.serialize import BinaryReader, BinaryWriter

MAGIC = b"HOF1"

# Section identifiers. UNDEF/ABS are pseudo-sections used only by symbols.
SEC_TEXT = "text"
SEC_DATA = "data"
SEC_BSS = "bss"
SEC_UNDEF = "*undef*"
SEC_ABS = "*abs*"

_REAL_SECTIONS = (SEC_TEXT, SEC_DATA, SEC_BSS)


class ObjectKind(enum.Enum):
    """What stage of the toolchain produced this object."""

    RELOCATABLE = 0   # compiler/assembler output; a module template
    EXECUTABLE = 1    # lds output: the a.out load image
    SEGMENT = 2       # metadata describing a relocated public/dynamic module


class SymBinding(enum.Enum):
    LOCAL = 0
    GLOBAL = 1


@dataclass
class Symbol:
    """A named object (variable or function) or a reference to one.

    ``section == SEC_UNDEF`` marks an undefined reference; ``SEC_ABS``
    marks an absolute value (used after relocation, when values are final
    virtual addresses). ``kind`` is an optional element-type hint the
    compiler records (``int``, ``char``, ``func`` ...) for tools such as
    hgen; linkers ignore it.
    """

    name: str
    section: str
    value: int
    binding: SymBinding = SymBinding.GLOBAL
    size: int = 0
    kind: str = ""

    @property
    def defined(self) -> bool:
        return self.section != SEC_UNDEF

    def __str__(self) -> str:
        kind = "g" if self.binding is SymBinding.GLOBAL else "l"
        return f"{self.name} [{kind}] {self.section}+0x{self.value:x}"


class RelocType(enum.Enum):
    """Relocation kinds understood by the linkers.

    * ``WORD32`` — a 32-bit absolute address in text or data (e.g. an
      initialized pointer). This is what makes pointer-rich shared data
      position-dependent (§5 "Position-Dependent Files").
    * ``HI16``/``LO16`` — the two halves of a ``lui``/``ori`` (or load /
      store offset) pair carrying an absolute address.
    * ``JUMP26`` — the 26-bit word-address field of ``j``/``jal``; only
      reaches within the current 256 MiB region, which is exactly the
      R3000 limitation that forces ``lds``/``ldl`` to insert branch
      islands for calls into the shared region (§3).
    """

    WORD32 = 0
    HI16 = 1
    LO16 = 2
    JUMP26 = 3


@dataclass
class Relocation:
    """One patch site: *section*+*offset* refers to *symbol*+*addend*."""

    section: str
    offset: int
    type: RelocType
    symbol: str
    addend: int = 0

    def __str__(self) -> str:
        return (
            f"{self.section}+0x{self.offset:x} {self.type.name} "
            f"{self.symbol}+{self.addend}"
        )


@dataclass
class LinkInfo:
    """Link-time strategy data saved into load images and templates.

    ``lds`` stores here the names and sharing classes of the dynamic
    modules it did *not* resolve, plus the search path it used for static
    modules, so that ``ldl`` can locate dynamic modules at run time (§3).
    Templates may also carry their own module list and search path — the
    basis of scoped linking.
    """

    # (module name, sharing class name) pairs; class names are the
    # lowercase identifiers from repro.linker.classes.
    dynamic_modules: List[Tuple[str, str]] = field(default_factory=list)
    search_path: List[str] = field(default_factory=list)

    def copy(self) -> "LinkInfo":
        return LinkInfo(list(self.dynamic_modules), list(self.search_path))


@dataclass
class SectionLayout:
    """Assigned base address of one section in a linked image."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


class ObjectFile:
    """A HOF object: template, executable, or segment metadata."""

    def __init__(self, name: str,
                 kind: ObjectKind = ObjectKind.RELOCATABLE) -> None:
        self.name = name
        self.kind = kind
        self.text = bytearray()
        self.data = bytearray()
        self.bss_size = 0
        # Extra zero-initialized per-segment heap space requested by the
        # template (used by shmalloc; see §5 "Dynamic Storage Management").
        self.heap_size = 0
        self.symbols: Dict[str, Symbol] = {}
        self.relocations: List[Relocation] = []
        self.link_info = LinkInfo()
        self.entry_symbol: Optional[str] = None
        # Populated on linked images (EXECUTABLE / SEGMENT):
        self.layout: Dict[str, SectionLayout] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def section_bytes(self, section: str) -> bytearray:
        if section == SEC_TEXT:
            return self.text
        if section == SEC_DATA:
            return self.data
        raise ObjectFormatError(f"section {section!r} has no bytes")

    def section_size(self, section: str) -> int:
        if section == SEC_TEXT:
            return len(self.text)
        if section == SEC_DATA:
            return len(self.data)
        if section == SEC_BSS:
            return self.bss_size
        raise ObjectFormatError(f"unknown section {section!r}")

    def add_symbol(self, symbol: Symbol) -> Symbol:
        """Insert *symbol*, merging with a compatible existing entry.

        An undefined entry is upgraded by a defined one; two definitions
        of the same name in one object are an error.
        """
        existing = self.symbols.get(symbol.name)
        if existing is None:
            self.symbols[symbol.name] = symbol
            return symbol
        if existing.defined and symbol.defined:
            raise ObjectFormatError(
                f"symbol {symbol.name!r} multiply defined in {self.name!r}"
            )
        if symbol.defined:
            self.symbols[symbol.name] = symbol
            return symbol
        return existing

    def reference(self, name: str) -> Symbol:
        """Record (or return) an undefined reference to *name*."""
        symbol = self.symbols.get(name)
        if symbol is None:
            symbol = Symbol(name, SEC_UNDEF, 0)
            self.symbols[name] = symbol
        return symbol

    def defined_globals(self) -> List[Symbol]:
        return [s for s in self.symbols.values()
                if s.defined and s.binding is SymBinding.GLOBAL]

    def undefined_symbols(self) -> List[str]:
        return sorted(
            s.name for s in self.symbols.values() if not s.defined
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        writer = BinaryWriter()
        writer.raw(MAGIC)
        writer.u8(self.kind.value)
        writer.string(self.name)
        writer.string(self.entry_symbol or "")
        writer.blob(bytes(self.text))
        writer.blob(bytes(self.data))
        writer.u32(self.bss_size)
        writer.u32(self.heap_size)

        symbols = sorted(self.symbols.values(), key=lambda s: s.name)
        writer.u32(len(symbols))
        for sym in symbols:
            writer.string(sym.name)
            writer.string(sym.section)
            writer.u32(sym.value)
            writer.u8(sym.binding.value)
            writer.u32(sym.size)
            writer.string(sym.kind)

        writer.u32(len(self.relocations))
        for reloc in self.relocations:
            writer.string(reloc.section)
            writer.u32(reloc.offset)
            writer.u8(reloc.type.value)
            writer.string(reloc.symbol)
            writer.i32(reloc.addend)

        writer.u32(len(self.link_info.dynamic_modules))
        for module, sclass in self.link_info.dynamic_modules:
            writer.string(module)
            writer.string(sclass)
        writer.u32(len(self.link_info.search_path))
        for directory in self.link_info.search_path:
            writer.string(directory)

        writer.u32(len(self.layout))
        for sec in self.layout.values():
            writer.string(sec.name)
            writer.u32(sec.base)
            writer.u32(sec.size)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "ObjectFile":
        reader = BinaryReader(data, offset)
        magic = reader.raw(4)
        if magic != MAGIC:
            raise ObjectFormatError(
                f"bad magic {magic!r}; not a HOF object"
            )
        kind = reader.enum(ObjectKind)
        obj = cls(reader.string(), kind)
        entry = reader.string()
        obj.entry_symbol = entry or None
        obj.text = bytearray(reader.blob())
        obj.data = bytearray(reader.blob())
        obj.bss_size = reader.u32()
        obj.heap_size = reader.u32()

        previous = None
        for _ in range(reader.u32()):
            name = reader.string()
            if previous is not None and name <= previous:
                # to_bytes writes the table sorted by name, one row each
                raise ObjectFormatError(
                    f"symbol {name!r} out of order or duplicated")
            previous = name
            section = reader.string()
            value = reader.u32()
            binding = reader.enum(SymBinding)
            size = reader.u32()
            kind = reader.string()
            obj.symbols[name] = Symbol(name, section, value, binding,
                                       size, kind)

        for _ in range(reader.u32()):
            section = reader.string()
            roffset = reader.u32()
            rtype = reader.enum(RelocType)
            symbol = reader.string()
            addend = reader.i32()
            obj.relocations.append(
                Relocation(section, roffset, rtype, symbol, addend)
            )

        for _ in range(reader.u32()):
            obj.link_info.dynamic_modules.append(
                (reader.string(), reader.string())
            )
        for _ in range(reader.u32()):
            obj.link_info.search_path.append(reader.string())

        for _ in range(reader.u32()):
            name = reader.string()
            if name in obj.layout:
                raise ObjectFormatError(f"section {name!r} laid out twice")
            base = reader.u32()
            size = reader.u32()
            obj.layout[name] = SectionLayout(name, base, size)
        if not reader.at_end():
            raise ObjectFormatError("trailing bytes after object")
        return obj

    def clone(self) -> "ObjectFile":
        """Deep copy (templates are cloned before relocation)."""
        return ObjectFile.from_bytes(self.to_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ObjectFile {self.name!r} {self.kind.name} "
            f"text={len(self.text)} data={len(self.data)} "
            f"bss={self.bss_size} syms={len(self.symbols)} "
            f"relocs={len(self.relocations)}>"
        )
