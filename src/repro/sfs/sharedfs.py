"""The shared file system: 1024 inodes, 1 MiB files, addresses by inode.

Every regular file on this volume is a *segment* with a globally agreed
virtual address determined by its inode number::

    address(ino) = SFS_BASE + ino * SEGMENT_SPAN

which partitions the paper's 1 GiB region (0x30000000–0x70000000) into
1024 slots of 1 MiB — exactly the prototype's configuration. Hard links
are prohibited so the inode↔path mapping stays one-to-one, and the
kernel-maintained address map is updated as files are created and
destroyed (and can be rebuilt by a boot-time scan).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import FileLimitError, FilesystemError
from repro.fs.filesystem import Filesystem
from repro.fs.inode import Inode
from repro.sfs.addrmap import LinearAddressMap
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.vm.layout import SFS_REGION
from repro.vm.pages import PhysicalMemory

SFS_BASE = SFS_REGION.start          # 0x30000000
MAX_INODES = 1024                    # "exactly 1024 inodes"
SEGMENT_SPAN = SFS_REGION.size // MAX_INODES   # 1 MiB per slot
MAX_FILE_SIZE = 1 << 20              # "limited to a maximum of 1M bytes"

assert SEGMENT_SPAN == MAX_FILE_SIZE


class SharedFilesystem(Filesystem):
    """The dedicated shared partition of §3."""

    # Hard links are prohibited, so the inode↔path mapping is 1:1 and
    # the O(1) reverse index is sound.
    _index_paths = True

    def __init__(self, physmem: PhysicalMemory,
                 name: str = "sfs") -> None:
        self._free_inos = list(range(MAX_INODES - 1, -1, -1))
        self.addrmap = LinearAddressMap()
        self.region = SFS_REGION
        self.injector = None  # set by repro.inject.install_injector
        self.coherence = None  # set by repro.net when clustered
        super().__init__(physmem, name)

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------

    def _allocate_ino(self) -> int:
        return self._free_inos.pop()

    def _claim_ino(self, ino: int) -> None:
        # Removal by value keeps the remaining free list in the same
        # relative order, so allocation after a journal replay proceeds
        # exactly as it did in the original run.
        try:
            self._free_inos.remove(ino)
        except ValueError:
            raise FilesystemError(f"inode {ino} already allocated")

    def _check_new_inode(self) -> None:
        injector = self.injector
        if injector is not None:
            injector.on_sfs("sfs-create", "/")
        if not self._free_inos:
            raise FileLimitError(
                f"shared file system full ({MAX_INODES} inodes)"
            )

    def _check_write(self, inode: Inode, end_offset: int) -> None:
        injector = self.injector
        if injector is not None:
            injector.on_sfs("sfs-write", f"inode:{inode.number}")
        if end_offset > MAX_FILE_SIZE:
            raise FileLimitError(
                f"shared files are limited to {MAX_FILE_SIZE} bytes"
            )

    def _allow_hard_links(self) -> bool:
        return False

    def _on_create(self, inode: Inode) -> None:
        if inode.is_file:
            base = self.address_of_inode(inode.number)
            self.addrmap.register(base, SEGMENT_SPAN, inode.number)
            tracer = _trace.TRACER
            if tracer.enabled:
                tracer.emit(EventKind.MAP, name="segment-create",
                            addr=base, value=inode.number)
            if self.coherence is not None:
                self.coherence.segment_created(inode)

    def _on_destroy(self, inode: Inode) -> None:
        if inode.is_file:
            if self.coherence is not None:
                self.coherence.segment_destroyed(inode)
            self.addrmap.unregister(inode.number)
            tracer = _trace.TRACER
            if tracer.enabled:
                tracer.emit(EventKind.MAP, name="segment-destroy",
                            addr=self.address_of_inode(inode.number),
                            value=inode.number)
        self._free_inos.append(inode.number)

    # ------------------------------------------------------------------
    # address translation
    # ------------------------------------------------------------------

    @staticmethod
    def address_of_inode(ino: int) -> int:
        """The globally agreed base address of inode *ino*'s segment."""
        if not 0 <= ino < MAX_INODES:
            raise ValueError(f"inode {ino} out of range")
        return SFS_BASE + ino * SEGMENT_SPAN

    def inode_of_address(self, address: int) -> Optional[Tuple[Inode, int]]:
        """(inode, offset) of the segment containing *address*, or None.

        Goes through the kernel-maintained address map, so translation
        cost reflects the configured map implementation.
        """
        hit = self.addrmap.lookup_address(address)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.MAP, name="addr-lookup", addr=address,
                        value=0 if hit is None else 1)
        if hit is None:
            return None
        ino, offset = hit
        inode = self.inode_by_number(ino)
        if inode is None:  # stale map entry should never happen
            return None
        return inode, offset

    def path_of_address(self, address: int) -> Optional[Tuple[str, int]]:
        """(volume path, offset) of *address* — the new kernel call of §3."""
        hit = self.inode_of_address(address)
        if hit is None:
            return None
        inode, offset = hit
        return self.path_of_inode(inode.number), offset

    # ------------------------------------------------------------------
    # boot-time recovery
    # ------------------------------------------------------------------

    def rebuild_address_map(self) -> int:
        """Scan the volume and rebuild the address map (the paper's
        boot-time initialization). Returns the number of segments found."""
        triples = []
        for inode in self.inodes():
            if inode.is_file:
                triples.append(
                    (self.address_of_inode(inode.number), SEGMENT_SPAN,
                     inode.number)
                )
        self.addrmap.rebuild(triples)
        return len(triples)

    def segments(self) -> List[Tuple[str, Inode]]:
        """All (path, inode) segment pairs — the §5 garbage-collection
        affordance: "the ability to peruse all of the segments in
        existence"."""
        out: List[Tuple[str, Inode]] = []

        def visit(path: str, inode: Inode) -> None:
            if inode.is_file:
                out.append((path, inode))

        self.walk(visit)
        return out
