"""Physical frames and page-backed memory objects.

A :class:`MemoryObject` is the paper's *segment*: a page-backed byte
container that can be accessed as a file (read/write at offsets) or have
its pages mapped directly into address spaces, so shared mappings write
straight through to the object — the same property real mmap(MAP_SHARED)
gives a Unix file.

Frames are reference counted. A frame shared by several address spaces
(or by an address space and a file) has refcount > 1; copy-on-write
resolution copies only when the count demands it.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, Optional

from repro.errors import OutOfMemoryError
from repro.vm.layout import PAGE_SIZE


class Frame:
    """One physical page frame: PAGE_SIZE bytes plus a reference count.

    ``decode`` is the per-frame decoded-instruction cache: page offset →
    predecoded instruction tuple, filled by the CPU fast path. Any write
    to ``data`` must clear it (all writers go through
    :meth:`AddressSpace.write_bytes <repro.vm.address_space.AddressSpace.write_bytes>`
    or :class:`MemoryObject`, which do), so stale decodes can never
    execute — the property self-modifying text (PLT patching, ``ldl``
    jump-slot fixups) depends on.

    ``blocks`` caches the superblocks built from ``decode`` (page
    offset → :class:`repro.hw.blocks.Block`).

    ``decode_cores`` is the SMP shadow of ``decode``: the set of cores
    that have executed from this frame since the cache was last
    cleared. Only populated on multi-core boots (the CPU fast path
    checks ``space.smp``); a write that clears ``decode`` clears it
    too, counting one decode shootdown per *other* core in the set.

    :meth:`drop_code` is the one place that clears all three.
    """

    __slots__ = ("data", "refcount", "decode", "blocks", "decode_cores")

    def __init__(self, data: Optional[bytes] = None) -> None:
        if data is None:
            self.data = bytearray(PAGE_SIZE)
        else:
            if len(data) > PAGE_SIZE:
                raise ValueError("frame initializer larger than a page")
            self.data = bytearray(PAGE_SIZE)
            self.data[: len(data)] = data
        self.refcount = 1
        self.decode: Dict[int, tuple] = {}
        self.blocks: Dict[int, object] = {}
        self.decode_cores: set = set()

    def drop_code(self, smp=None) -> None:
        """The bytes are about to change: forget every decoded
        instruction and translated block of this frame. *smp* (the
        writer's coordinator, if any) books a decode shootdown for each
        other core that executed from the frame."""
        if self.decode:
            self.decode.clear()
            self.blocks.clear()
            if self.decode_cores:
                if smp is not None:
                    smp.decode_shootdown(self)
                self.decode_cores.clear()


class PhysicalMemory:
    """Allocator and accounting for physical frames.

    The frame limit defaults to 256 Mi worth of pages — generous for the
    simulation but finite, so runaway mappings surface as
    :class:`OutOfMemoryError` rather than host memory exhaustion.
    """

    def __init__(self, max_frames: int = (256 << 20) // PAGE_SIZE) -> None:
        self.max_frames = max_frames
        self.allocated = 0
        self.peak = 0

    def alloc(self, data: Optional[bytes] = None) -> Frame:
        """Allocate a zeroed (or initialized) frame with refcount 1."""
        if self.allocated >= self.max_frames:
            raise OutOfMemoryError(
                f"physical memory exhausted ({self.max_frames} frames)"
            )
        self.allocated += 1
        self.peak = max(self.peak, self.allocated)
        return Frame(data)

    def retain(self, frame: Frame) -> Frame:
        """Add a reference to *frame* and return it."""
        frame.refcount += 1
        return frame

    def release(self, frame: Frame) -> None:
        """Drop a reference; free the frame when the count reaches zero."""
        if frame.refcount <= 0:
            raise AssertionError("releasing a dead frame")
        frame.refcount -= 1
        if frame.refcount == 0:
            self.allocated -= 1

    def copy(self, frame: Frame) -> Frame:
        """Allocate a new frame with a copy of *frame*'s contents."""
        return self.alloc(bytes(frame.data))


class MemoryObject:
    """A page-backed segment, usable both as file contents and as a
    mapping target.

    Pages are allocated lazily: reading an unwritten page sees zeros
    without consuming a frame (important for the sparse SFS region).
    ``size`` tracks the byte length when the object backs a file; mappings
    may extend past it (the extension reads as zeros, as mmap of a short
    file does).
    """

    def __init__(self, physmem: PhysicalMemory, size: int = 0,
                 name: str = "<anon>") -> None:
        self._physmem = physmem
        self._pages: Dict[int, Frame] = {}
        self.size = size
        self.name = name
        # Address spaces holding TLB entries over this object's frames.
        # Page-identity changes (truncate, replace_page, free) notify
        # them so cached translations never outlive the frames they
        # name; plain data writes need no notification because TLB
        # entries alias the frame's bytearray.
        self._watchers: "weakref.WeakSet" = weakref.WeakSet()

    # -- TLB coherence -----------------------------------------------------

    def watch(self, watcher) -> None:
        """Register *watcher* (an AddressSpace) for invalidation events."""
        self._watchers.add(watcher)

    def _notify_invalidate(self) -> None:
        for watcher in list(self._watchers):
            watcher.tlb_object_invalidated(self)

    # -- page-level interface (used by AddressSpace) -----------------------

    def page(self, index: int) -> Optional[Frame]:
        """The frame backing page *index*, or None if never written."""
        return self._pages.get(index)

    def ensure_page(self, index: int) -> Frame:
        """The frame backing page *index*, allocating a zero frame if needed."""
        frame = self._pages.get(index)
        if frame is None:
            frame = self._physmem.alloc()
            self._pages[index] = frame
        return frame

    def pages(self) -> Iterator[int]:
        """Indices of materialized pages."""
        return iter(sorted(self._pages))

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    # -- byte-level interface (used by the file systems) -------------------

    def read(self, offset: int, length: int) -> bytes:
        """Read *length* bytes at *offset*, zero-filling unwritten pages.

        Reads are clamped to the object's current size, like file reads.
        """
        if offset < 0 or length < 0:
            raise ValueError("negative offset or length")
        if offset >= self.size:
            return b""
        length = min(length, self.size - offset)
        return self._read_raw(offset, length)

    def _read_raw(self, offset: int, length: int) -> bytes:
        page_index, page_off = divmod(offset, PAGE_SIZE)
        if page_off + length <= PAGE_SIZE:
            # one page: one slice, or zeros for an unwritten page
            frame = self._pages.get(page_index)
            if frame is None:
                return bytes(length)
            return bytes(frame.data[page_off: page_off + length])
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = offset + pos
            page_index, page_off = divmod(addr, PAGE_SIZE)
            chunk = min(length - pos, PAGE_SIZE - page_off)
            frame = self._pages.get(page_index)
            if frame is not None:
                out[pos: pos + chunk] = frame.data[page_off: page_off + chunk]
            pos += chunk
        return bytes(out)

    def write(self, offset: int, data: bytes) -> int:
        """Write *data* at *offset*, growing the object as needed."""
        if offset < 0:
            raise ValueError("negative offset")
        pos = 0
        length = len(data)
        while pos < length:
            addr = offset + pos
            page_index, page_off = divmod(addr, PAGE_SIZE)
            chunk = min(length - pos, PAGE_SIZE - page_off)
            frame = self.ensure_page(page_index)
            frame.drop_code()
            frame.data[page_off: page_off + chunk] = data[pos: pos + chunk]
            pos += chunk
        self.size = max(self.size, offset + length)
        return length

    def truncate(self, new_size: int) -> None:
        """Shrink or grow the logical size, freeing frames past the end and
        zeroing the tail of the boundary page so old data cannot reappear."""
        if new_size < 0:
            raise ValueError("negative size")
        if new_size < self.size:
            boundary_page, boundary_off = divmod(new_size, PAGE_SIZE)
            for index in [i for i in self._pages if i > boundary_page]:
                self._physmem.release(self._pages.pop(index))
            if boundary_off == 0 and boundary_page in self._pages:
                self._physmem.release(self._pages.pop(boundary_page))
            elif boundary_page in self._pages:
                frame = self._pages[boundary_page]
                frame.drop_code()
                frame.data[boundary_off:] = bytes(PAGE_SIZE - boundary_off)
            self._notify_invalidate()
        self.size = new_size

    def free(self) -> None:
        """Release every frame. The object must not be mapped anywhere."""
        for frame in self._pages.values():
            self._physmem.release(frame)
        self._pages.clear()
        self.size = 0
        self._notify_invalidate()

    def replace_page(self, index: int, frame: Frame) -> None:
        """Install *frame* as page *index*, releasing any previous frame.

        Used by copy-on-write break-sharing when the object owns the page.
        """
        old = self._pages.get(index)
        if old is not None and old is not frame:
            self._physmem.release(old)
        self._pages[index] = frame
        self._notify_invalidate()

    def snapshot(self) -> bytes:
        """The full contents as a byte string (size-clamped)."""
        return self.read(0, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryObject {self.name!r} size={self.size} "
            f"resident={self.resident_pages}>"
        )
