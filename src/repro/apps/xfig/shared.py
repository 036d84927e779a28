"""The Hemlock xfig: figures live as linked lists *in* a shared segment.

Saving a figure is free (the working representation already is the
persistent one); loading is mapping the segment; duplicating an object
uses the same in-segment routines in both cases — "the Hemlock version
of xfig uses the pre-existing copy routines for files". The cost is
position dependence: a figure segment "can safely be copied only by
xfig itself" (§5), which :meth:`SharedFigure.copy_object` demonstrates
by rebuilding internal pointers rather than copying bytes.

Record layout (absolute pointers, valid in every process)::

    segment:  [head ptr][count u32][heap ...]
    object:   [next ptr][kind u32][color i32][p0 i32][p1 i32][p2 i32]
              [extra ptr][nextra u32]

kind 1 = line   (p0 thickness,              extra -> i32 x,y pairs)
kind 2 = circle (p0 thickness, p1 cx, p2 cy; nextra = radius)
kind 3 = text   (p0 font size, p1 x,  p2 y;  extra -> chars)
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.xfig.model import FigCircle, FigLine, FigText, Figure, \
    FigObject
from repro.errors import SimulationError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.runtime.libshared import runtime_for
from repro.runtime.shmalloc import SegmentHeap
from repro.runtime.views import Mem, StructDef

KIND_LINE = 1
KIND_CIRCLE = 2
KIND_TEXT = 3

HEADER_SIZE = 8

OBJ = StructDef("fig_object", [
    ("next", "ptr"),
    ("kind", "u32"),
    ("color", "i32"),
    ("p0", "i32"),
    ("p1", "i32"),
    ("p2", "i32"),
    ("extra", "ptr"),
    ("nextra", "u32"),
])


class SharedFigure:
    """A figure whose objects live in a shared segment."""

    def __init__(self, kernel: Kernel, proc: Process, path: str,
                 size: int = 256 * 1024, create: bool = False) -> None:
        self.kernel = kernel
        self.proc = proc
        self.path = path
        self.mem = Mem(kernel, proc)
        runtime = runtime_for(kernel, proc)
        if create:
            self.base = runtime.create_segment(path, size)
            self.heap = SegmentHeap(self.mem, self.base + HEADER_SIZE,
                                    size - HEADER_SIZE)
            self.heap.initialize()
            self.mem.store_u32(self.base, 0)
            self.mem.store_u32(self.base + 4, 0)
        else:
            self.base = runtime.segment_base(path)
            stat = kernel.vfs.stat(path, proc.uid)
            self.heap = SegmentHeap(self.mem, self.base + HEADER_SIZE,
                                    stat.st_size - HEADER_SIZE)

    # ------------------------------------------------------------------

    @property
    def head(self) -> int:
        return self.mem.load_u32(self.base)

    @property
    def count(self) -> int:
        return self.mem.load_u32(self.base + 4)

    def object_addresses(self) -> List[int]:
        out = []
        addr = self.head
        while addr:
            out.append(addr)
            addr = OBJ.view(self.mem, addr).get("next")
        return out

    # ------------------------------------------------------------------
    # constructing objects in the segment
    # ------------------------------------------------------------------

    def add_object(self, obj: FigObject) -> int:
        """Allocate and link a new in-segment object; returns its address."""
        record = self.heap.alloc(OBJ.size)
        view = OBJ.view(self.mem, record)
        if isinstance(obj, FigLine):
            extra = self.heap.alloc(8 * len(obj.points))
            for index, (x, y) in enumerate(obj.points):
                self.mem.store_i32(extra + 8 * index, x)
                self.mem.store_i32(extra + 8 * index + 4, y)
            view.update(kind=KIND_LINE, color=obj.color, p0=obj.thickness,
                        p1=0, p2=0, extra=extra, nextra=len(obj.points))
        elif isinstance(obj, FigCircle):
            view.update(kind=KIND_CIRCLE, color=obj.color,
                        p0=obj.thickness, p1=obj.cx, p2=obj.cy,
                        extra=0, nextra=obj.radius)
        elif isinstance(obj, FigText):
            encoded = obj.text.encode("latin-1")
            extra = self.heap.alloc(len(encoded) + 1)
            self.mem.store_bytes(extra, encoded + b"\x00")
            view.update(kind=KIND_TEXT, color=obj.color, p0=obj.font_size,
                        p1=obj.x, p2=obj.y, extra=extra,
                        nextra=len(encoded))
        else:
            raise SimulationError(f"unknown object {obj!r}")
        view.set("next", self.head)
        self.mem.store_u32(self.base, record)
        self.mem.store_u32(self.base + 4, self.count + 1)
        return record

    def build_from(self, figure: Figure) -> None:
        """Populate the segment from a model figure ("saving")."""
        for obj in reversed(figure.objects):
            self.add_object(obj)

    # ------------------------------------------------------------------
    # reading objects back out
    # ------------------------------------------------------------------

    def read_object(self, address: int) -> FigObject:
        view = OBJ.view(self.mem, address)
        kind = view.get("kind")
        if kind == KIND_LINE:
            npoints, extra = view.get_many("nextra", "extra")
            points = [
                (self.mem.load_i32(extra + 8 * i),
                 self.mem.load_i32(extra + 8 * i + 4))
                for i in range(npoints)
            ]
            return FigLine(points, *view.get_many("color", "p0"))
        if kind == KIND_CIRCLE:
            return FigCircle(*view.get_many("p1", "p2", "nextra", "color",
                                            "p0"))
        if kind == KIND_TEXT:
            x, y, extra = view.get_many("p1", "p2", "extra")
            text = self.mem.load_cstring(extra)
            color, font_size = view.get_many("color", "p0")
            return FigText(x=x, y=y, text=text, color=color,
                           font_size=font_size)
        raise SimulationError(f"bad object kind {kind} at 0x{address:08x}")

    def to_figure(self) -> Figure:
        """Materialize the model from the segment ("loading")."""
        objects = [self.read_object(addr)
                   for addr in self.object_addresses()]
        return Figure(objects)

    # ------------------------------------------------------------------
    # duplication: the pre-existing "file" routine reused for editing
    # ------------------------------------------------------------------

    def copy_object(self, address: int) -> int:
        """Deep-copy an in-segment object (the editor's duplicate
        command). Reuses read_object + add_object — the same routines
        that implement persistence, which is exactly the code-sharing
        the paper reports (800+ lines saved)."""
        return self.add_object(self.read_object(address))

    def delete_object(self, address: int) -> None:
        """Unlink and free an object and its extra data."""
        prev: Optional[int] = None
        cursor = self.head
        while cursor and cursor != address:
            prev = cursor
            cursor = OBJ.view(self.mem, cursor).get("next")
        if not cursor:
            raise SimulationError(f"no object at 0x{address:08x}")
        view = OBJ.view(self.mem, cursor)
        next_addr = view.get("next")
        if prev is None:
            self.mem.store_u32(self.base, next_addr)
        else:
            OBJ.view(self.mem, prev).set("next", next_addr)
        extra = view.get("extra")
        if extra:
            self.heap.free(extra)
        self.heap.free(cursor)
        self.mem.store_u32(self.base + 4, self.count - 1)
