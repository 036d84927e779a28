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
        self.store_u32(address, value & 0xFFFFFFFF)

    def load_u16(self, address: int) -> int:
        return _U16.unpack(self.load_bytes(address, 2))[0]

    def store_u16(self, address: int, value: int) -> None:
        self.store_bytes(address, _U16.pack(value & 0xFFFF))

    def load_u8(self, address: int) -> int:
        return self.load_bytes(address, 1)[0]

    def store_u8(self, address: int, value: int) -> None:
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
        scanned in one ``find`` and charged the same ``copy(1)`` per
        byte through :meth:`Clock.charge_many
        <repro.kernel.timing.Clock.charge_many>`; any other page takes
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
                clock.charge_many("copies", byte_cost, nul - start + 1)
                out += data[start:nul]
                break
            clock.charge_many("copies", byte_cost, stop - start)
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
    size, reader, writer)``, which :class:`StructView` indexes.
    """

    def __init__(self, name: str,
                 fields: Sequence[Tuple[str, str]]) -> None:
        self.name = name
        self.fields: List[Tuple[str, str]] = list(fields)
        self.offsets: Dict[str, int] = {}
        self.layout: Dict[str, Field] = {}
        offset = 0
        for field_name, field_type in self.fields:
            if field_name in self.offsets:
                raise SimulationError(
                    f"duplicate field {field_name!r} in {name!r}"
                )
            size, align, reader, writer = _compile_field(field_name,
                                                         field_type)
            offset = (offset + align - 1) & ~(align - 1)
            self.offsets[field_name] = offset
            self.layout[field_name] = (offset, size, reader, writer)
            offset += size
        self.size = (offset + 3) & ~3

    def view(self, mem: Mem, address: int) -> "StructView":
        return StructView(self, mem, address)

    def array_item(self, mem: Mem, base: int, index: int) -> "StructView":
        """View of element *index* of an array of this struct at *base*."""
        return StructView(self, mem, base + index * self.size)


class StructView:
    """One record instance at a concrete address."""

    def __init__(self, struct_def: StructDef, mem: Mem,
                 address: int) -> None:
        self.struct = struct_def
        self.mem = mem
        self.address = address

    def field_address(self, field: str) -> int:
        return self.address + self.struct.offsets[field]

    def get(self, field: str):
        offset, size, reader, _ = self.struct.layout[field]
        return reader(self.mem, self.address + offset, size)

    def set(self, field: str, value) -> None:
        offset, size, _, writer = self.struct.layout[field]
        writer(self.mem, self.address + offset, size, value)

    def update(self, **values) -> "StructView":
        for field, value in values.items():
            self.set(field, value)
        return self

    def as_dict(self) -> Dict[str, object]:
        return {name: self.get(name) for name, _ in self.struct.fields}


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


def _store_cstr(mem: Mem, address: int, size: int, value: str) -> None:
    padded = _latin1(value)[: size - 1]
    mem.store_bytes(address, padded + b"\x00" * (size - len(padded)))


#: scalar type -> (size and alignment, reader, writer); readers and
#: writers look their Mem method up per call, so wrapping a Mem method
#: (as reprobench's tracer does) reaches every field access
_SCALARS: Dict[str, Tuple[int, Reader, Writer]] = {
    "u8": (1, lambda mem, address, size: mem.load_u8(address),
           lambda mem, address, size, value: mem.store_u8(address, value)),
    "u16": (2, lambda mem, address, size: mem.load_u16(address),
            lambda mem, address, size, value:
            mem.store_u16(address, value)),
    "u32": (4, lambda mem, address, size: mem.load_u32(address),
            lambda mem, address, size, value:
            mem.store_u32(address, value)),
    "i32": (4, lambda mem, address, size: mem.load_i32(address),
            lambda mem, address, size, value:
            mem.store_i32(address, value)),
}
_SCALARS["ptr"] = _SCALARS["u32"]


def _compile_field(name: str, field_type: str
                   ) -> Tuple[int, int, Reader, Writer]:
    """(size, alignment, reader, writer) of one field, or a
    :class:`SimulationError` for a type or size that is not valid."""
    scalar = _SCALARS.get(field_type)
    if scalar is not None:
        size, reader, writer = scalar
        return size, size, reader, writer
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
    if kind == "cstr":
        return (size, 1,
                lambda mem, address, size: mem.load_cstring(address, size),
                _store_cstr)

    def store_bytes(mem: Mem, address: int, size: int,
                    value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)) \
                or len(value) != size:
            raise SimulationError(
                f"field {name!r} expects exactly {size} bytes"
            )
        mem.store_bytes(address, value)

    return (size, 1,
            lambda mem, address, size: mem.load_bytes(address, size),
            store_bytes)
