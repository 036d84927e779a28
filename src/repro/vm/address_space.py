"""Per-process address spaces with page-granular mappings and protections.

The design mirrors a simple Unix VM system:

* A :class:`Mapping` is a contiguous run of pages bound to a
  :class:`~repro.vm.pages.MemoryObject` (shared or private/COW) or to
  anonymous zero-fill memory.
* Pages materialize lazily. Shared mappings use the memory object's own
  frames, so stores are immediately visible to every other address space
  mapping the same object — and to file reads of it. Private mappings
  reference the object's frames copy-on-write.
* All frame references held by page-table entries are reference counted,
  so ``fork`` is a page-table copy plus COW marking.
* Any access that touches an unmapped page or violates protections raises
  :class:`~repro.vm.faults.PageFaultError`; the kernel turns that into a
  SIGSEGV delivery and may restart the access afterwards.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.vm.faults import AccessKind, PageFaultError
from repro.vm.layout import PAGE_SIZE, PAGE_SHIFT, AddressRegion
from repro.vm.pages import Frame, MemoryObject, PhysicalMemory

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4
PROT_RW = PROT_READ | PROT_WRITE
PROT_RX = PROT_READ | PROT_EXEC
PROT_RWX = PROT_READ | PROT_WRITE | PROT_EXEC

MAP_SHARED = 1
MAP_PRIVATE = 2

_ACCESS_PROT = {
    AccessKind.READ: PROT_READ,
    AccessKind.WRITE: PROT_WRITE,
    AccessKind.EXEC: PROT_EXEC,
}

_WORD = struct.Struct("<I")
_HALF = struct.Struct("<H")

_PAGE_MASK = PAGE_SIZE - 1

#: A TLB entry: (frame bytearray, effective protection, frame). The
#: protection is the PTE's at fill time, with PROT_WRITE stripped while
#: the page is COW so a cached translation can never bypass the
#: copy-on-write break.
TlbEntry = Tuple[bytearray, int, Frame]

# The software TLB is a pure host-speed optimization; simulated cycle
# and instruction totals are identical with it on, off, or absent (the
# regression tests pin this). The switch exists so benchmarks can
# measure the win and so a miscompare can be bisected quickly.
_TLB_DEFAULT_ENABLED = os.environ.get("REPRO_TLB", "1") != "0"


def default_tlb_enabled() -> bool:
    """Whether newly created address spaces get a software TLB."""
    return _TLB_DEFAULT_ENABLED


def set_default_tlb_enabled(enabled: bool) -> None:
    """Flip the process-wide default for new address spaces."""
    global _TLB_DEFAULT_ENABLED
    _TLB_DEFAULT_ENABLED = bool(enabled)


def prot_str(prot: int) -> str:
    """Render a protection mask as e.g. ``r-x``."""
    return (
        ("r" if prot & PROT_READ else "-")
        + ("w" if prot & PROT_WRITE else "-")
        + ("x" if prot & PROT_EXEC else "-")
    )


class Mapping:
    """A contiguous mapped region: metadata only; pages live in the PTEs."""

    __slots__ = ("start", "npages", "memobj", "obj_page", "prot", "flags",
                 "name")

    def __init__(self, start: int, npages: int,
                 memobj: Optional[MemoryObject], obj_page: int,
                 prot: int, flags: int, name: str) -> None:
        self.start = start
        self.npages = npages
        self.memobj = memobj
        self.obj_page = obj_page  # page offset into memobj of our first page
        self.prot = prot          # current nominal protection
        self.flags = flags
        self.name = name

    @property
    def end(self) -> int:
        return self.start + self.npages * PAGE_SIZE

    @property
    def shared(self) -> bool:
        return bool(self.flags & MAP_SHARED)

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "shared" if self.shared else "private"
        return (
            f"<Mapping {self.name!r} 0x{self.start:08x}-0x{self.end:08x} "
            f"{prot_str(self.prot)} {kind}>"
        )


class _Pte:
    """Page-table entry. ``frame is None`` means not yet materialized."""

    __slots__ = ("mapping", "frame", "prot", "cow")

    def __init__(self, mapping: Mapping, prot: int) -> None:
        self.mapping = mapping
        self.frame: Optional[Frame] = None
        self.prot = prot
        self.cow = False


class AddressSpace:
    """One protection domain's view of memory."""

    def __init__(self, physmem: PhysicalMemory, name: str = "<as>",
                 tlb_enabled: Optional[bool] = None) -> None:
        self._physmem = physmem
        self._pages: Dict[int, _Pte] = {}
        self._mappings: List[Mapping] = []  # kept sorted by start
        self.name = name
        # vpn -> (frame data, effective prot, frame); see TlbEntry.
        self.tlb: Dict[int, TlbEntry] = {}
        self._tlb_enabled = (_TLB_DEFAULT_ENABLED if tlb_enabled is None
                             else bool(tlb_enabled))
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.tlb_fills = 0
        self.tlb_invalidations = 0
        self.tlb_flushes = 0
        self.injector = None  # set by repro.inject.install_injector
        self.sanitizer = None  # set by Sanitizer.register_process
        self.smp = None  # SmpCoordinator on multi-core boots
        self.core = 0  # owning process's home core (repro.smp)

    # ------------------------------------------------------------------
    # mapping management
    # ------------------------------------------------------------------

    def map(self, address: Optional[int], length: int, *,
            memobj: Optional[MemoryObject] = None, offset: int = 0,
            prot: int = PROT_RW, flags: int = MAP_PRIVATE,
            name: str = "<anon>",
            search_region: Optional[AddressRegion] = None) -> Mapping:
        """Create a mapping and return it.

        If *address* is None a free range is found (within *search_region*
        if given). *offset* is a byte offset into *memobj* and must be
        page-aligned. A fixed *address* that overlaps an existing mapping
        is an error — Hemlock's linkers always unmap first.
        """
        if length <= 0:
            raise MappingError("mapping length must be positive")
        if offset % PAGE_SIZE:
            raise MappingError("mapping offset must be page-aligned")
        if memobj is None and flags & MAP_SHARED:
            raise MappingError("anonymous mappings must be private")
        npages = (length + PAGE_SIZE - 1) >> PAGE_SHIFT
        if address is None:
            address = self._find_free(npages, search_region)
        if address % PAGE_SIZE:
            raise MappingError(
                f"mapping address 0x{address:08x} is not page-aligned"
            )
        first_vpn = address >> PAGE_SHIFT
        for vpn in range(first_vpn, first_vpn + npages):
            if vpn in self._pages:
                raise MappingError(
                    f"mapping {name!r} overlaps existing page at "
                    f"0x{vpn << PAGE_SHIFT:08x}"
                )
        mapping = Mapping(address, npages, memobj, offset >> PAGE_SHIFT,
                          prot, flags, name)
        for vpn in range(first_vpn, first_vpn + npages):
            self._pages[vpn] = _Pte(mapping, prot)
        self._tlb_drop_range(first_vpn, npages, "map")
        if memobj is not None:
            memobj.watch(self)
        self._insert_mapping(mapping)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.MAP, name=f"map:{mapping.name}",
                        addr=address, value=npages * PAGE_SIZE)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_map(self, mapping)
        return mapping

    def unmap(self, address: int, length: int) -> None:
        """Remove every whole mapping intersecting ``[address, address+length)``.

        Partial unmaps are not needed by the linkers and are rejected.
        """
        end = address + length
        victims = [m for m in self._mappings
                   if m.start < end and address < m.end]
        for mapping in victims:
            if mapping.start < address or mapping.end > end:
                raise MappingError(
                    f"partial unmap of {mapping.name!r} is not supported"
                )
        for mapping in victims:
            self._drop_mapping(mapping)

    def unmap_mapping(self, mapping: Mapping) -> None:
        """Remove a specific mapping object previously returned by map()."""
        if mapping not in self._mappings:
            raise MappingError(f"{mapping!r} is not part of this address space")
        self._drop_mapping(mapping)

    def _drop_mapping(self, mapping: Mapping) -> None:
        first_vpn = mapping.start >> PAGE_SHIFT
        for vpn in range(first_vpn, first_vpn + mapping.npages):
            pte = self._pages.pop(vpn, None)
            if pte is not None and pte.frame is not None:
                self._physmem.release(pte.frame)
        self._tlb_drop_range(first_vpn, mapping.npages, "unmap")
        self._mappings.remove(mapping)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.MAP, name=f"unmap:{mapping.name}",
                        addr=mapping.start,
                        value=mapping.npages * PAGE_SIZE)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_unmap(self, mapping)

    def mprotect(self, address: int, length: int, prot: int) -> None:
        """Change protections on all pages in the (page-aligned) range."""
        if address % PAGE_SIZE:
            raise MappingError("mprotect address must be page-aligned")
        npages = (length + PAGE_SIZE - 1) >> PAGE_SHIFT
        first_vpn = address >> PAGE_SHIFT
        ptes = []
        for vpn in range(first_vpn, first_vpn + npages):
            pte = self._pages.get(vpn)
            if pte is None:
                raise MappingError(
                    f"mprotect of unmapped page 0x{vpn << PAGE_SHIFT:08x}"
                )
            ptes.append(pte)
        touched = set()
        for pte in ptes:
            pte.prot = prot
            touched.add(id(pte.mapping))
        self._tlb_drop_range(first_vpn, npages, "mprotect")
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.MAP, name=f"mprotect:{prot_str(prot)}",
                        addr=address, value=npages * PAGE_SIZE)
        # Keep the nominal mapping protection in sync when a whole mapping
        # is covered; per-page divergence is fine otherwise.
        for mapping in self._mappings:
            if id(mapping) in touched and mapping.start >= address \
                    and mapping.end <= address + npages * PAGE_SIZE:
                mapping.prot = prot
                sanitizer = self.sanitizer
                if sanitizer is not None:
                    sanitizer.on_mprotect(self, mapping)

    def mapping_at(self, address: int) -> Optional[Mapping]:
        """The mapping containing *address*, or None."""
        pte = self._pages.get(address >> PAGE_SHIFT)
        return pte.mapping if pte is not None else None

    def mappings(self) -> List[Mapping]:
        """All mappings, sorted by start address."""
        return list(self._mappings)

    def is_mapped(self, address: int) -> bool:
        return (address >> PAGE_SHIFT) in self._pages

    def _insert_mapping(self, mapping: Mapping) -> None:
        lo, hi = 0, len(self._mappings)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._mappings[mid].start < mapping.start:
                lo = mid + 1
            else:
                hi = mid
        self._mappings.insert(lo, mapping)

    def _find_free(self, npages: int,
                   region: Optional[AddressRegion]) -> int:
        lo = region.start if region else PAGE_SIZE
        hi = region.end if region else 0x7FFF_0000
        candidate = lo
        for mapping in self._mappings:
            if mapping.end <= candidate:
                continue
            if mapping.start - candidate >= npages * PAGE_SIZE:
                break
            candidate = mapping.end
        if candidate + npages * PAGE_SIZE > hi:
            raise MappingError(
                f"no free range of {npages} pages in "
                f"0x{lo:08x}-0x{hi:08x}"
            )
        return candidate

    # ------------------------------------------------------------------
    # software TLB
    # ------------------------------------------------------------------
    #
    # Invalidation protocol (every path that can change what a cached
    # (vpn -> frame, prot) translation means):
    #
    #   * map/unmap        -> drop the covered vpns
    #   * mprotect         -> drop the covered vpns (refill reads new prot)
    #   * COW break        -> drop the vpn (the frame changed identity)
    #   * fork             -> flush the parent (private pages became COW)
    #   * MemoryObject truncate/replace_page/free -> flush every watcher
    #   * stores           -> Frame.drop_code on the target frame: its
    #                         decode cache and translated blocks (the
    #                         frame bytearray itself is aliased, so data
    #                         entries stay coherent automatically)
    #
    # The decoded-instruction cache lives on the Frame (see
    # repro.vm.pages.Frame.decode), so COW twins and shared mappings
    # invalidate each other for free: whoever mutates the bytes clears
    # the one cache every executor of that frame consults.

    @property
    def tlb_enabled(self) -> bool:
        return self._tlb_enabled

    def set_tlb_enabled(self, enabled: bool) -> None:
        """Turn the TLB on or off for this address space (flushes)."""
        self._tlb_enabled = bool(enabled)
        self.tlb_flush("toggle")

    def _tlb_fill(self, vpn: int, pte: _Pte) -> None:
        """Cache *pte*'s translation after a successful slow access."""
        frame = pte.frame
        if frame is None:
            return
        prot = pte.prot
        if pte.cow:
            prot &= ~PROT_WRITE
        sanitizer = self.sanitizer
        if sanitizer is not None and sanitizer.tracks_mapping(pte.mapping):
            # Sanitized pages are cached execute-only: instruction fetch
            # keeps its fast path, while every data access takes the
            # instrumented slow path (same trick as the COW write strip).
            prot &= PROT_EXEC
            if not prot:
                return
        self.tlb[vpn] = (frame.data, prot, frame)
        self.tlb_fills += 1

    def _tlb_drop(self, vpn: int, reason: str = "cow") -> None:
        if self.tlb.pop(vpn, None) is not None:
            self.tlb_invalidations += 1
            if self.smp is not None:
                self.smp.tlb_shootdown(self, 1, reason)

    def _tlb_drop_range(self, first_vpn: int, npages: int,
                        reason: str = "range") -> None:
        tlb = self.tlb
        if not tlb:
            return
        dropped = 0
        for vpn in range(first_vpn, first_vpn + npages):
            if tlb.pop(vpn, None) is not None:
                dropped += 1
        if dropped:
            self.tlb_invalidations += dropped
            if self.smp is not None:
                self.smp.tlb_shootdown(self, dropped, reason)

    def tlb_flush(self, reason: str = "") -> int:
        """Drop every cached translation; returns the entry count."""
        dropped = len(self.tlb)
        if dropped:
            self.tlb.clear()
            self.tlb_invalidations += dropped
            if self.smp is not None:
                self.smp.tlb_shootdown(self, dropped,
                                       reason or "explicit")
        self.tlb_flushes += 1
        tracer = _trace.TRACER
        if tracer.enabled and dropped:
            tracer.emit(EventKind.TLB, name=f"flush:{reason or 'explicit'}",
                        value=dropped)
        return dropped

    def tlb_object_invalidated(self, memobj: MemoryObject) -> None:
        """A watched memory object changed page identity (truncate,
        replace_page, free): drop everything. Rare enough that a full
        flush beats tracking per-object vpn sets."""
        self.tlb_flush(f"object:{memobj.name}")

    def tlb_stats(self) -> Dict[str, int]:
        """Counter snapshot for benchmarks and the trace layer."""
        return {
            "hits": self.tlb_hits,
            "misses": self.tlb_misses,
            "fills": self.tlb_fills,
            "invalidations": self.tlb_invalidations,
            "flushes": self.tlb_flushes,
            "entries": len(self.tlb),
        }

    def emit_tlb_stats(self) -> None:
        """Publish the counters as TLB trace events (one per counter),
        so ``reprotrace`` reports see hit/miss totals without paying a
        per-access emit in the hot loop."""
        tracer = _trace.TRACER
        if not tracer.enabled:
            return
        for key in ("hits", "misses", "fills", "invalidations",
                    "flushes"):
            value = getattr(self, f"tlb_{key}")
            if value:
                tracer.emit(EventKind.TLB, name=f"tlb:{key}", value=value)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def readable_page(self, address: int) -> Optional[bytearray]:
        """The frame bytes of *address*'s page when a plain user read
        there may skip the page walk, else None.

        The page must be in the TLB with PROT_READ (sanitized pages
        are cached execute-only, so they never are), and no injector or
        sanitizer may be armed: the injector numbers every walked
        access as a fault site and the sanitizer checks every read, so
        skipping either would change what they see.
        """
        if self.injector is None and self.sanitizer is None:
            entry = self.tlb.get(address >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_READ:
                return entry[0]
        return None

    def _pte_for_access(self, address: int, access: AccessKind,
                        force: bool) -> _Pte:
        injector = self.injector
        if injector is not None and not force:
            # Kernel force-paths are exempt: a spurious fault there would
            # escape the restartable-instruction containment boundary.
            injector.on_access(self.name, address, access)
        pte = self._pages.get(address >> PAGE_SHIFT)
        if pte is None:
            raise PageFaultError(address, access, present=False)
        if not force and not (pte.prot & _ACCESS_PROT[access]):
            raise PageFaultError(address, access, present=True)
        return pte

    def _materialize(self, pte: _Pte, vpn: int) -> Frame:
        """Ensure the PTE has a frame for its page, honoring share/COW."""
        if pte.frame is not None:
            return pte.frame
        mapping = pte.mapping
        if mapping.memobj is None:
            pte.frame = self._physmem.alloc()
        else:
            obj_index = mapping.obj_page + (vpn - (mapping.start >> PAGE_SHIFT))
            frame = mapping.memobj.ensure_page(obj_index)
            pte.frame = self._physmem.retain(frame)
            if not mapping.shared:
                pte.cow = True
        return pte.frame

    def _break_cow(self, pte: _Pte, vpn: int) -> Frame:
        frame = pte.frame
        assert frame is not None
        if frame.refcount > 1:
            new_frame = self._physmem.copy(frame)
            self._physmem.release(frame)
            pte.frame = new_frame
        pte.cow = False
        # The translation (and its no-write marking) is stale either way.
        self._tlb_drop(vpn)
        return pte.frame

    def read_bytes(self, address: int, length: int, *,
                   access: AccessKind = AccessKind.READ,
                   force: bool = False) -> bytes:
        """Read *length* bytes, faulting per the page protections.

        *force* is the kernel's own access path: it skips protection
        checks but still requires the pages to be mapped.

        A user read inside one page that :meth:`readable_page` clears
        is copied straight out of the TLB'd frame. The page walk below
        is the reference: it counts no TLB hit or miss and fills only
        on a miss, so skipping it changes no counter.
        """
        if not force and access is AccessKind.READ:
            page_off = address & _PAGE_MASK
            if 0 < length <= PAGE_SIZE - page_off:
                data = self.readable_page(address)
                if data is not None:
                    return bytes(data[page_off: page_off + length])
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = address + pos
            vpn = addr >> PAGE_SHIFT
            page_off = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - page_off)
            pte = self._pte_for_access(addr, access, force)
            frame = self._materialize(pte, vpn)
            out[pos: pos + chunk] = frame.data[page_off: page_off + chunk]
            if self._tlb_enabled and vpn not in self.tlb:
                self._tlb_fill(vpn, pte)
            sanitizer = self.sanitizer
            if sanitizer is not None and not force \
                    and access is not AccessKind.EXEC:
                sanitizer.on_read(self, addr, chunk, pte)
            pos += chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes, *,
                    force: bool = False) -> None:
        """Write *data*, faulting per the page protections and resolving COW."""
        pos = 0
        length = len(data)
        while pos < length:
            addr = address + pos
            vpn = addr >> PAGE_SHIFT
            page_off = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - page_off)
            pte = self._pte_for_access(addr, AccessKind.WRITE, force)
            self._materialize(pte, vpn)
            if pte.cow:
                self._break_cow(pte, vpn)
            frame = pte.frame
            assert frame is not None
            frame.drop_code(self.smp)
            frame.data[page_off: page_off + chunk] = data[pos: pos + chunk]
            if self._tlb_enabled and vpn not in self.tlb:
                self._tlb_fill(vpn, pte)
            sanitizer = self.sanitizer
            if sanitizer is not None and not force:
                sanitizer.on_write(self, addr, chunk, pte)
            pos += chunk

    def load_word(self, address: int, *,
                  access: AccessKind = AccessKind.READ,
                  force: bool = False) -> int:
        """Load a little-endian 32-bit word (TLB fast path when aligned)."""
        if not address & 3 and not force and access is AccessKind.READ:
            entry = self.tlb.get(address >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_READ:
                self.tlb_hits += 1
                return _WORD.unpack_from(entry[0], address & _PAGE_MASK)[0]
            if self._tlb_enabled:
                self.tlb_misses += 1
        return _WORD.unpack(
            self.read_bytes(address, 4, access=access, force=force)
        )[0]

    def store_word(self, address: int, value: int, *,
                   force: bool = False) -> None:
        """Store a little-endian 32-bit word (TLB fast path when aligned).

        The fast path only fires on entries whose effective protection
        includes PROT_WRITE — COW pages are cached write-protected, so
        break-sharing always takes the slow path first.
        """
        if not address & 3 and not force:
            entry = self.tlb.get(address >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_WRITE:
                self.tlb_hits += 1
                frame = entry[2]
                if frame.decode:
                    frame.drop_code(self.smp)
                _WORD.pack_into(entry[0], address & _PAGE_MASK,
                                value & 0xFFFFFFFF)
                return
            if self._tlb_enabled:
                self.tlb_misses += 1
        self.write_bytes(address, _WORD.pack(value & 0xFFFFFFFF), force=force)

    def load_half(self, address: int, force: bool = False) -> int:
        return _HALF.unpack(self.read_bytes(address, 2, force=force))[0]

    def load_byte(self, address: int, force: bool = False) -> int:
        return self.read_bytes(address, 1, force=force)[0]

    def fetch_word(self, address: int) -> int:
        """Instruction fetch: a 32-bit load with EXEC permission."""
        if not address & 3:
            entry = self.tlb.get(address >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_EXEC:
                self.tlb_hits += 1
                return _WORD.unpack_from(entry[0], address & _PAGE_MASK)[0]
            if self._tlb_enabled:
                self.tlb_misses += 1
        return _WORD.unpack(
            self.read_bytes(address, 4, access=AccessKind.EXEC)
        )[0]

    def read_cstring(self, address: int, max_length: int = 4096,
                     force: bool = False) -> str:
        """Read a NUL-terminated byte string (latin-1 decoded)."""
        out = bytearray()
        for i in range(max_length):
            byte = self.read_bytes(address + i, 1, force=force)[0]
            if byte == 0:
                break
            out.append(byte)
        return out.decode("latin-1")

    def write_cstring(self, address: int, text: str,
                      force: bool = False) -> None:
        """Write *text* plus a NUL terminator."""
        self.write_bytes(address, text.encode("latin-1") + b"\x00",
                         force=force)

    # ------------------------------------------------------------------
    # fork
    # ------------------------------------------------------------------

    def fork(self, name: str = "<child>") -> "AddressSpace":
        """Clone per Hemlock §5: private pages become COW twins; pages of
        shared mappings keep referencing the single memory-object copy."""
        child = AddressSpace(self._physmem, name,
                             tlb_enabled=self._tlb_enabled)
        child.sanitizer = self.sanitizer
        mapping_clone: Dict[int, Mapping] = {}
        for mapping in self._mappings:
            clone = Mapping(mapping.start, mapping.npages, mapping.memobj,
                            mapping.obj_page, mapping.prot, mapping.flags,
                            mapping.name)
            mapping_clone[id(mapping)] = clone
            child._insert_mapping(clone)
            if mapping.memobj is not None:
                mapping.memobj.watch(child)
        for vpn, pte in self._pages.items():
            new_pte = _Pte(mapping_clone[id(pte.mapping)], pte.prot)
            if pte.frame is not None:
                if pte.mapping.shared:
                    new_pte.frame = self._physmem.retain(pte.frame)
                else:
                    # Both parent and child now reference the frame COW.
                    pte.cow = True
                    new_pte.cow = True
                    new_pte.frame = self._physmem.retain(pte.frame)
            child._pages[vpn] = new_pte
        # Every private page just turned COW, so any cached writable
        # translation in the parent would let a store leak into the
        # child. Drop everything; the next touches refill.
        self.tlb_flush("fork")
        return child

    def destroy(self) -> None:
        """Release every frame reference (process exit)."""
        for pte in self._pages.values():
            if pte.frame is not None:
                self._physmem.release(pte.frame)
        self._pages.clear()
        self._mappings.clear()
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_destroy(self)
        self.emit_tlb_stats()
        self.tlb.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def resident_pages(self) -> int:
        """Number of materialized page-table entries."""
        return sum(1 for pte in self._pages.values() if pte.frame is not None)

    def describe(self) -> str:
        """Render the mapping table, /proc/pid/maps style."""
        lines = []
        for m in self._mappings:
            kind = "shared" if m.shared else "private"
            lines.append(
                f"0x{m.start:08x}-0x{m.end:08x} {prot_str(m.prot)} "
                f"{kind:7s} {m.name}"
            )
        return "\n".join(lines)

    def page_prot(self, address: int) -> Optional[int]:
        """Current protection of the page containing *address* (or None)."""
        pte = self._pages.get(address >> PAGE_SHIFT)
        return pte.prot if pte is not None else None
