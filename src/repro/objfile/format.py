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
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ObjectFormatError
from repro.objfile.serialize import BinaryReader, encode_string, enum_member

MAGIC = b"HOF1"

#: The 16 bytes that end every segment file (see
#: :mod:`repro.linker.segments`): magic, image length, metadata length
#: and a reserved word. The metadata sits right after the image.
TRAILER = struct.Struct("<4sIII")
TRAILER_MAGIC = b"HSEG"


def unpack_trailer(trailer: bytes, path: str) -> Tuple[int, int]:
    """The image and metadata lengths a segment file's *trailer* bytes
    (read from the file at *path*) record."""
    if len(trailer) != TRAILER.size or trailer[:4] != TRAILER_MAGIC:
        raise ObjectFormatError(f"{path!r} lacks the segment trailer")
    _magic, image_len, meta_len, _reserved = TRAILER.unpack(trailer)
    return image_len, meta_len


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


_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_PAIR = struct.Struct("<II")            # bss/heap sizes; layout base, size
_SYMBOL_ROW = struct.Struct("<IBI")     # value, binding, size
_RELOC_ROW = struct.Struct("<IB")       # offset, type
_BINDINGS = {member.value: member for member in SymBinding}
_RELOC_TYPES = {member.value: member for member in RelocType}


def _by_name(symbol: "Symbol") -> str:
    return symbol.name


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
        """The HOF encoding of this object.

        A symbol value or size, a relocation offset, or a section
        layout's base or size must fit its unsigned 32-bit field;
        anything else raises :class:`ObjectFormatError` naming the
        object and the symbol or section, rather than being cut to
        its low 32 bits.
        """
        string = encode_string
        parts = [MAGIC, _U8.pack(self.kind.value & 0xFF),
                 string(self.name), string(self.entry_symbol or "")]
        append = parts.append
        for section in (self.text, self.data):
            append(_U32.pack(len(section) & 0xFFFFFFFF))
            append(bytes(section))
        append(_PAIR.pack(self.bss_size & 0xFFFFFFFF,
                          self.heap_size & 0xFFFFFFFF))

        symbols = sorted(self.symbols.values(), key=_by_name)
        append(_U32.pack(len(symbols)))
        pack = _SYMBOL_ROW.pack
        for sym in symbols:
            value, size = sym.value, sym.size
            if not (0 <= value <= 0xFFFFFFFF and 0 <= size <= 0xFFFFFFFF):
                raise ObjectFormatError(
                    f"{self.name!r}: symbol {sym.name!r} (value "
                    f"0x{value:x}, size 0x{size:x}) does not fit a "
                    f"32-bit field"
                )
            append(string(sym.name))
            append(string(sym.section))
            append(pack(value, sym.binding.value & 0xFF, size))
            append(string(sym.kind))

        append(_U32.pack(len(self.relocations)))
        pack = _RELOC_ROW.pack
        for reloc in self.relocations:
            offset = reloc.offset
            if not 0 <= offset <= 0xFFFFFFFF:
                raise ObjectFormatError(
                    f"{self.name!r}: relocation against "
                    f"{reloc.symbol!r} at {reloc.section}+0x{offset:x} "
                    f"does not fit a 32-bit field"
                )
            append(string(reloc.section))
            append(pack(offset, reloc.type.value & 0xFF))
            append(string(reloc.symbol))
            append(_I32.pack(reloc.addend))

        append(_U32.pack(len(self.link_info.dynamic_modules)))
        for module, sclass in self.link_info.dynamic_modules:
            append(string(module))
            append(string(sclass))
        append(_U32.pack(len(self.link_info.search_path)))
        for directory in self.link_info.search_path:
            append(string(directory))

        append(_U32.pack(len(self.layout)))
        for sec in self.layout.values():
            base, size = sec.base, sec.size
            if not (0 <= base <= 0xFFFFFFFF and 0 <= size <= 0xFFFFFFFF):
                raise ObjectFormatError(
                    f"{self.name!r}: section {sec.name!r} (base "
                    f"0x{base:x}, size 0x{size:x}) does not fit a "
                    f"32-bit field"
                )
            append(string(sec.name))
            append(_PAIR.pack(base, size))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "ObjectFile":
        reader = BinaryReader(data, offset)
        string, u32, i32, row = \
            reader.string, reader.u32, reader.i32, reader.row
        magic = reader.raw(4)
        if magic != MAGIC:
            raise ObjectFormatError(
                f"bad magic {magic!r}; not a HOF object"
            )
        kind = reader.enum(ObjectKind)
        obj = cls(string(), kind)
        entry = string()
        obj.entry_symbol = entry or None
        obj.text = bytearray(reader.blob())
        obj.data = bytearray(reader.blob())
        obj.bss_size = u32()
        obj.heap_size = u32()

        symbols = obj.symbols
        previous = None
        for _ in range(u32()):
            name = string()
            if previous is not None and name <= previous:
                # to_bytes writes the table sorted by name, one row each
                raise ObjectFormatError(
                    f"symbol {name!r} out of order or duplicated")
            previous = name
            section = string()
            try:
                value, code, size = row(_SYMBOL_ROW)
            except ObjectFormatError:
                # A short row: read it field by field, which refuses a
                # bad binding code ahead of the missing size.
                u32()
                reader.enum(SymBinding)
                raise
            binding = _BINDINGS.get(code)
            if binding is None:
                enum_member(SymBinding, code)
            symbols[name] = Symbol(name, section, value, binding, size,
                                   string())

        relocations = obj.relocations
        for _ in range(u32()):
            section = string()
            roffset, code = row(_RELOC_ROW)
            rtype = _RELOC_TYPES.get(code)
            if rtype is None:
                enum_member(RelocType, code)
            symbol = string()
            relocations.append(
                Relocation(section, roffset, rtype, symbol, i32())
            )

        dynamic_modules = obj.link_info.dynamic_modules
        for _ in range(u32()):
            dynamic_modules.append((string(), string()))
        search_path = obj.link_info.search_path
        for _ in range(u32()):
            search_path.append(string())

        layout = obj.layout
        for _ in range(u32()):
            name = string()
            if name in layout:
                raise ObjectFormatError(f"section {name!r} laid out twice")
            base, size = row(_PAIR)
            layout[name] = SectionLayout(name, base, size)
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
