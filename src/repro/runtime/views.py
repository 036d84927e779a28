"""Typed access to simulated memory — the stand-in for compiled C code.

Native (Python-bodied) processes touch shared segments through
:class:`Mem`. A load or store that faults is finished by the kernel's
fault-delivery machinery (:meth:`Kernel.run_with_faults`), so
dereferencing a pointer into a segment that is not yet mapped behaves
exactly as it does for machine code: SIGSEGV, the Hemlock handler maps
the segment (or runs the lazy linker), and the access restarts.

:class:`StructDef` describes a C-struct-like record layout once;
:class:`StructView` reads and writes one record instance at an address.
Because public segments sit at the same virtual address in every
process, pointer fields hold plain absolute addresses and work from any
protection domain — the paper's central payoff.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.vm.address_space import PROT_READ, PROT_WRITE, AddressSpace
from repro.vm.faults import PageFaultError
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

_PAGE_MASK = PAGE_SIZE - 1

#: a compiled field's accessors: reader(mem, address, size) and
#: writer(mem, address, size, value)
Reader = Callable[["Mem", int, int], Any]
Writer = Callable[["Mem", int, int, Any], None]
#: one compiled field: (offset, size, reader, writer)
Field = Tuple[int, int, Reader, Writer]
#: a field's value -> what its struct code packs (see _compile_field)
Converter = Callable[[Any], Any]


def _require_int(store: str, value: Any) -> None:
    """Refuse a scalar store's non-int *value* with a typed error,
    before the store charges or writes anything."""
    if not isinstance(value, int):
        raise SimulationError(
            f"{store} expects an int, got {type(value).__name__}")


class Mem:
    """Fault-transparent memory accessor for one process.

    Each access also charges the cost-model clock a few instruction
    cycles, since a native process stands in for compiled code whose
    loads and stores are real instructions — without this, "shared
    memory is faster" comparisons would divide by zero.

    Every access first calls its :class:`AddressSpace` method directly
    and enters :meth:`Kernel.run_with_faults` only when that call
    raises :class:`PageFaultError`, handing over the fault it caught,
    so the kernel delivers it and retries exactly as if its own loop
    had made the first attempt. An aligned :meth:`load_u32` or
    :meth:`store_u32` whose page is in the TLB runs the TLB-hit branch
    of ``load_word``/``store_word`` inline, counting the hit.
    """

    # Roughly: address computation + the load/store itself.
    SCALAR_ACCESS_CYCLES = 4

    def __init__(self, kernel: Kernel, proc: Process) -> None:
        self.kernel = kernel
        self.proc = proc

    def _after_fault(self, fault: PageFaultError,
                     access: Callable[..., Any], *args: Any) -> Any:
        """Finish an access whose first attempt raised *fault*: the
        kernel's fault loop delivers it and retries ``access(space,
        *args)`` on the process's address space of the moment."""
        proc = self.proc
        return self.kernel.run_with_faults(
            proc, lambda: access(proc.address_space, *args), fault)

    # -- scalar loads/stores -------------------------------------------

    def load_u32(self, address: int) -> int:
        self.kernel.clock.charge("user_memory", self.SCALAR_ACCESS_CYCLES)
        space = self.proc.address_space
        if not address & 3:
            entry = space.tlb.get(address >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_READ:
                space.tlb_hits += 1
                return _U32.unpack_from(entry[0], address & _PAGE_MASK)[0]
        try:
            return space.load_word(address)
        except PageFaultError as fault:
            return self._after_fault(fault, AddressSpace.load_word, address)

    def store_u32(self, address: int, value: int) -> None:
        _require_int("store_u32", value)
        self.kernel.clock.charge("user_memory", self.SCALAR_ACCESS_CYCLES)
        space = self.proc.address_space
        if not address & 3:
            entry = space.tlb.get(address >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_WRITE:
                space.tlb_hits += 1
                frame = entry[2]
                if frame.decode:
                    frame.drop_code(space.smp)
                _U32.pack_into(entry[0], address & _PAGE_MASK,
                               value & 0xFFFFFFFF)
                return
        try:
            space.store_word(address, value)
        except PageFaultError as fault:
            self._after_fault(fault, AddressSpace.store_word, address, value)

    def load_i32(self, address: int) -> int:
        return (self.load_u32(address) ^ 0x80000000) - 0x80000000

    def store_i32(self, address: int, value: int) -> None:
        _require_int("store_i32", value)
        self.store_u32(address, value & 0xFFFFFFFF)

    def load_u16(self, address: int) -> int:
        return _U16.unpack(self.load_bytes(address, 2))[0]

    def store_u16(self, address: int, value: int) -> None:
        _require_int("store_u16", value)
        self.store_bytes(address, _U16.pack(value & 0xFFFF))

    def load_u8(self, address: int) -> int:
        return self.load_bytes(address, 1)[0]

    def store_u8(self, address: int, value: int) -> None:
        _require_int("store_u8", value)
        self.store_bytes(address, bytes([value & 0xFF]))

    # -- bulk ----------------------------------------------------------

    def load_bytes(self, address: int, length: int) -> bytes:
        self.kernel.clock.copy(length)
        try:
            return self.proc.address_space.read_bytes(address, length)
        except PageFaultError as fault:
            return self._after_fault(fault, AddressSpace.read_bytes,
                                     address, length)

    def store_bytes(self, address: int, data: bytes) -> None:
        self.kernel.clock.copy(len(data))
        try:
            self.proc.address_space.write_bytes(address, data)
        except PageFaultError as fault:
            self._after_fault(fault, AddressSpace.write_bytes, address, data)

    # -- strings -------------------------------------------------------

    def load_cstring(self, address: int, max_length: int = 4096) -> str:
        """Read a NUL-terminated string of at most *max_length* bytes.

        The reference is one :meth:`load_u8` per byte, NUL included.
        A page :meth:`AddressSpace.readable_page
        <repro.vm.address_space.AddressSpace.readable_page>` clears is
        scanned in one ``find`` and charged the sum of its ``copy(1)``
        per byte in one charge; any other page takes
        one reference step, which faults, fills the TLB or meets the
        injector or sanitizer at the same byte as the per-byte loop.
        """
        space = self.proc.address_space
        clock = self.kernel.clock
        byte_cost = clock.costs.copy_per_word  # what copy(1) charges
        out = bytearray()
        index = 0
        while index < max_length:
            at = address + index
            data = space.readable_page(at)
            if data is None:
                byte = self.load_u8(at)
                if byte == 0:
                    break
                out.append(byte)
                index += 1
                continue
            start = at & _PAGE_MASK
            stop = min(PAGE_SIZE, start + max_length - index)
            nul = data.find(0, start, stop)
            if nul >= 0:
                clock.charge("copies", byte_cost * (nul - start + 1))
                out += data[start:nul]
                break
            clock.charge("copies", byte_cost * (stop - start))
            out += data[start:stop]
            index += stop - start
        return out.decode("latin-1")

    def store_cstring(self, address: int, text: str,
                      max_length: int = 4096) -> None:
        """Write *text* NUL-terminated in at most *max_length* bytes,
        NUL included; longer text is cut."""
        if max_length < 1:
            raise SimulationError(
                f"store_cstring: max_length must be positive, "
                f"got {max_length}"
            )
        self.store_bytes(address,
                         _latin1(text)[: max_length - 1] + b"\x00")


class StructDef:
    """A record layout: ordered (name, type) fields.

    Types: ``u8 u16 u32 i32 ptr`` plus ``cstr:<n>`` (inline NUL-padded
    string of n bytes) and ``bytes:<n>``, n a positive integer. Fields
    are aligned naturally; the total size is rounded up to 4 bytes.
    Each field is compiled once, here, into ``layout[name] = (offset,
    size, reader, writer)``, which :class:`StructView` indexes, and
    ``packing[name] = (struct code, converter)``, from which
    :meth:`record` compiles whole-record accessors.
    """

    def __init__(self, name: str,
                 fields: Sequence[Tuple[str, str]]) -> None:
        self.name = name
        self.fields: List[Tuple[str, str]] = list(fields)
        self.names: Tuple[str, ...] = tuple(
            field_name for field_name, _ in self.fields)
        self.offsets: Dict[str, int] = {}
        self.layout: Dict[str, Field] = {}
        self.packing: Dict[str, Tuple[str, Converter]] = {}
        self._records: Dict[Tuple[str, ...], _Record] = {}
        offset = 0
        for field_name, field_type in self.fields:
            if field_name in self.offsets:
                raise SimulationError(
                    f"duplicate field {field_name!r} in {name!r}"
                )
            size, align, code, convert, reader, writer = \
                _compile_field(field_name, field_type)
            offset = (offset + align - 1) & ~(align - 1)
            self.offsets[field_name] = offset
            self.layout[field_name] = (offset, size, reader, writer)
            self.packing[field_name] = (code, convert)
            offset += size
        self.size = (offset + 3) & ~3

    def field(self, name: str) -> Field:
        """``layout[name]``, or a :class:`SimulationError` naming the
        record for a field it does not have."""
        try:
            return self.layout[name]
        except KeyError:
            raise SimulationError(
                f"{self.name!r} has no field {name!r}") from None

    def record(self, names: Tuple[str, ...]) -> "_Record":
        """The whole-record accessor of *names*, compiled on first use
        and cached; an unknown name is a :class:`SimulationError`."""
        record = self._records.get(names)
        if record is None:
            for name in names:
                self.field(name)
            record = self._records[names] = _Record(self, names)
        return record

    def view(self, mem: Mem, address: int) -> "StructView":
        return StructView(self, mem, address)

    def array_item(self, mem: Mem, base: int, index: int) -> "StructView":
        """View of element *index* of an array of this struct at *base*."""
        return StructView(self, mem, base + index * self.size)


class StructView:
    """One record instance at a concrete address.

    :meth:`get` and :meth:`set` access one field each and are the
    reference. :meth:`get_many` and :meth:`update` access several
    fields, in the order given, through the record's compiled
    accessor (:class:`_Record`); they leave the simulation exactly as
    the same sequence of :meth:`get` or :meth:`set` calls would.
    """

    def __init__(self, struct_def: StructDef, mem: Mem,
                 address: int) -> None:
        self.struct = struct_def
        self.mem = mem
        self.address = address

    def field_address(self, field: str) -> int:
        return self.address + self.struct.field(field)[0]

    def get(self, field: str):
        offset, size, reader, _ = self.struct.field(field)
        return reader(self.mem, self.address + offset, size)

    def set(self, field: str, value) -> None:
        offset, size, _, writer = self.struct.field(field)
        writer(self.mem, self.address + offset, size, value)

    def get_many(self, *fields: str) -> List[Any]:
        """The values of *fields*, as ``[get(f) for f in fields]``."""
        return self.struct.record(fields).read(self)

    def update(self, **values) -> "StructView":
        """``set(field, value)`` for each item of *values*, in order."""
        self.struct.record(tuple(values)).write(self, list(values.values()))
        return self

    def as_dict(self) -> Dict[str, object]:
        names = self.struct.names
        return dict(zip(names, self.get_many(*names)))


class _Record:
    """The compiled accessor of one field tuple of a :class:`StructDef`.

    The fast path covers a view whose base is 4-aligned and whose
    fields all lie in one page that the TLB holds with the needed
    protection, with no injector or sanitizer armed
    (``readable_page``/``writable_page``) and, for a write, no decoded
    code in the frame. It reads the fields with one ``struct`` unpack,
    or writes them with one pack per run of adjacent fields, counts one
    TLB hit per word field as ``load_u32``/``store_u32`` do, and charges
    each cost category once, in the order the categories first appear
    among the fields. Anything else -- a value a field rejects, a page
    missing from the TLB or lacking the protection, a straddle -- runs
    the per-field ``get``/``set`` path from the first field, and the
    fast path has had no side effect by then.
    """

    def __init__(self, struct_def: StructDef,
                 names: Tuple[str, ...]) -> None:
        self.names = names
        types = dict(struct_def.fields)
        #: offset -> (size, struct code, position) of each distinct
        #: field; a repeated name keeps its last position
        distinct: Dict[int, Tuple[int, str, int]] = {}
        # what the per-field path charges: a word field charges
        # user_memory; any other field copies, copy(size) except for a
        # cstr read, which charges a copy(1) per byte it scans
        self.words = self.read_copies = self.write_copies = 0
        categories: List[str] = []
        cstrs = []
        for position, name in enumerate(names):
            offset, size = struct_def.layout[name][:2]
            code = struct_def.packing[name][0]
            distinct[offset] = (size, code, position)
            if code in _WORD_CODES:
                self.words += 1
                category = "user_memory"
            else:
                category = "copies"
                self.write_copies += (size + 3) // 4
                if types[name].startswith("cstr:"):
                    cstrs.append((position, size))
                else:
                    self.read_copies += (size + 3) // 4
            if category not in categories:
                categories.append(category)
        self.categories = tuple(categories)
        #: (position, size) of each cstr field among the values read
        self.cstrs = tuple(cstrs)
        offsets = sorted(distinct)
        self.lo = offsets[0] if offsets else 0
        self.span = offsets[-1] + distinct[offsets[-1]][0] - self.lo \
            if offsets else 0
        # reads: one unpack over the span, pad bytes over the gaps, then
        # the values in the order of *names* (None: already in order)
        fmt, end, index = "<", self.lo, {}
        for offset in offsets:
            size, code, _ = distinct[offset]
            fmt += (f"{offset - end}x" if offset > end else "") + code
            index[offset] = len(index)
            end = offset + size
        self.unpacker = struct.Struct(fmt)
        order = tuple(index[struct_def.offsets[name]] for name in names)
        self.order = None if order == tuple(range(len(names))) else order
        # writes: one pack per run of adjacent fields, taking the
        # converted values at its positions (None: all, in order)
        runs: List[Tuple[int, str, Tuple[int, ...]]] = []
        end = -1
        for offset in offsets:
            size, code, position = distinct[offset]
            if offset == end:
                first, fmt, positions = runs.pop()
                runs.append((first, fmt + code, positions + (position,)))
            else:
                runs.append((offset - self.lo, "<" + code, (position,)))
            end = offset + size
        self.runs = tuple(
            (offset, struct.Struct(fmt),
             None if positions == tuple(range(len(names))) else positions)
            for offset, fmt, positions in runs)
        self.converters = tuple(struct_def.packing[name][1]
                                for name in names)

    def _charge(self, mem: Mem, space: AddressSpace, copies: int) -> None:
        """Charge the group, *copies* copy units and its word fields, as
        one charge per category and count its TLB hits."""
        clock = mem.kernel.clock
        scalar = self.words * mem.SCALAR_ACCESS_CYCLES
        copies *= clock.costs.copy_per_word
        space.tlb_hits += self.words
        for category in self.categories:
            clock.charge(category,
                         scalar if category == "user_memory" else copies)

    def read(self, view: StructView) -> List[Any]:
        mem, address = view.mem, view.address
        start = address + self.lo
        if not address & 3 \
                and (start & _PAGE_MASK) + self.span <= PAGE_SIZE:
            space = mem.proc.address_space
            data = space.readable_page(start)
            if data is not None:
                values = self.unpacker.unpack_from(data,
                                                   start & _PAGE_MASK)
                order = self.order
                out = list(values) if order is None \
                    else [values[index] for index in order]
                copies = self.read_copies
                for position, size in self.cstrs:
                    raw = out[position]
                    nul = raw.find(0)
                    if nul < 0:
                        copies += size
                    else:
                        copies += nul + 1
                        raw = raw[:nul]
                    out[position] = raw.decode("latin-1")
                self._charge(mem, space, copies)
                return out
        return [view.get(name) for name in self.names]

    def write(self, view: StructView, values: List[Any]) -> None:
        mem, address = view.mem, view.address
        start = address + self.lo
        if not address & 3 \
                and (start & _PAGE_MASK) + self.span <= PAGE_SIZE:
            space = mem.proc.address_space
            frame = space.writable_page(start)
            if frame is not None and not frame.decode:
                try:
                    packed = [convert(value) for convert, value
                              in zip(self.converters, values)]
                except SimulationError:
                    packed = None
                if packed is not None:
                    self._charge(mem, space, self.write_copies)
                    data, at = frame.data, start & _PAGE_MASK
                    for offset, packer, positions in self.runs:
                        packer.pack_into(
                            data, at + offset,
                            *(packed if positions is None
                              else [packed[p] for p in positions]))
                    return
        for name, value in zip(self.names, values):
            view.set(name, value)


def iterate_list(mem: Mem, head: int, struct_def: StructDef,
                 next_field: str = "next",
                 max_nodes: int = 1_000_000) -> Iterator[StructView]:
    """Walk an intrusive singly linked list of *struct_def* records.

    *head* is the address of the first node (0 terminates). The pointers
    are absolute virtual addresses — meaningful in every process, which
    is the point of the shared file system's uniform addressing.
    """
    address = head
    count = 0
    while address:
        if count >= max_nodes:
            raise SimulationError("linked list too long (cycle?)")
        view = struct_def.view(mem, address)
        yield view
        address = view.get(next_field)
        count += 1


def _latin1(text: str) -> bytes:
    """*text* as latin-1 bytes, or a :class:`SimulationError` for a
    character outside latin-1."""
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError as error:
        raise SimulationError(
            f"{text!r} is not latin-1 text: {error.reason}"
        ) from None


#: struct codes of the fields that load_u32/store_u32 access
_WORD_CODES = ("I", "i")


def _int_converter(name: str, bits: int, signed: bool = False
                   ) -> Converter:
    """A scalar field's converter: an int, cut to *bits* (and read
    back signed when *signed*), else a :class:`SimulationError`."""
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1) if signed else 0

    def convert(value: Any) -> int:
        if not isinstance(value, int):
            raise SimulationError(
                f"field {name!r} expects an int, got "
                f"{type(value).__name__}"
            )
        return ((value & mask) ^ sign) - sign

    return convert


#: scalar type -> (size and alignment, struct code, bits, signed,
#: reader, writer); readers and writers look their Mem method up per
#: call, so wrapping a Mem method (as reprobench's tracer does) reaches
#: every field access
_SCALARS: Dict[str, Tuple[int, str, int, bool, Reader, Writer]] = {
    "u8": (1, "B", 8, False,
           lambda mem, address, size: mem.load_u8(address),
           lambda mem, address, size, value: mem.store_u8(address, value)),
    "u16": (2, "H", 16, False,
            lambda mem, address, size: mem.load_u16(address),
            lambda mem, address, size, value:
            mem.store_u16(address, value)),
    "u32": (4, "I", 32, False,
            lambda mem, address, size: mem.load_u32(address),
            lambda mem, address, size, value:
            mem.store_u32(address, value)),
    "i32": (4, "i", 32, True,
            lambda mem, address, size: mem.load_i32(address),
            lambda mem, address, size, value:
            mem.store_i32(address, value)),
}
_SCALARS["ptr"] = _SCALARS["u32"]


def _compile_field(name: str, field_type: str
                   ) -> Tuple[int, int, str, Converter, Reader, Writer]:
    """(size, alignment, struct code, converter, reader, writer) of
    one field, or a :class:`SimulationError` for a type or size that
    is not valid. The converter turns a value for the field into what
    its struct code packs, or raises the field's
    :class:`SimulationError`; the writer converts before any charge."""
    scalar = _SCALARS.get(field_type)
    if scalar is not None:
        size, code, bits, signed, reader, store = scalar
        convert = _int_converter(name, bits, signed)

        def write_scalar(mem: Mem, address: int, size: int,
                         value: Any) -> None:
            store(mem, address, size, convert(value))

        return size, size, code, convert, reader, write_scalar
    kind, sep, count = field_type.partition(":")
    if not sep or kind not in ("cstr", "bytes"):
        raise SimulationError(f"bad field type {field_type!r}")
    try:
        size = int(count)
    except ValueError:
        size = 0
    if size <= 0:
        raise SimulationError(
            f"field {name!r}: {kind} size must be a positive integer, "
            f"got {count!r}"
        )
    code = f"{size}s"
    if kind == "cstr":
        def convert_cstr(value: Any) -> bytes:
            if not isinstance(value, str):
                raise SimulationError(
                    f"field {name!r} expects a str, got "
                    f"{type(value).__name__}"
                )
            return _latin1(value)[: size - 1]

        def store_cstr(mem: Mem, address: int, size: int,
                       value: Any) -> None:
            mem.store_bytes(address,
                            convert_cstr(value).ljust(size, b"\x00"))

        return (size, 1, code, convert_cstr,
                lambda mem, address, size: mem.load_cstring(address, size),
                store_cstr)

    def convert_bytes(value: Any) -> bytes:
        if not isinstance(value, (bytes, bytearray)) \
                or len(value) != size:
            raise SimulationError(
                f"field {name!r} expects exactly {size} bytes"
            )
        return value

    def store_bytes(mem: Mem, address: int, size: int,
                    value: Any) -> None:
        mem.store_bytes(address, convert_bytes(value))

    return (size, 1, code, convert_bytes,
            lambda mem, address, size: mem.load_bytes(address, size),
            store_bytes)
