"""Checkpoint images: whole-volume serialization and in-place restore.

A checkpoint captures one volume — inode table, directory tree, file
bytes, symlinks, and the volume's allocator state — as a TLV field
tree (:mod:`repro.disk.codec`). Two things make the format more than a
dump:

* **allocator state is exact**: the 32-bit SFS stores its free-inode
  list in order and sfs64 stores its range allocator cursor and free
  list, so inode/address allocation after recovery continues precisely
  where the original run left off (bit-identical replay);
* **the SFS address map is stored**, even though it is derivable, so
  ``reprofsck`` can cross-check the kernel's map against the inode
  table — a map/table disagreement is exactly the corruption class the
  paper's boot-time rebuild exists to fix.

Restore is *in place*: the kernel's mounted ``Filesystem`` objects are
rebuilt rather than replaced, so the VFS mount table and every
``fs``-typed reference around the kernel stay valid across recovery.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.disk.codec import encode_fields, decode_fields
from repro.errors import DiskFormatError, DiskFullError, SimulationError
from repro.fs.filesystem import Filesystem
from repro.fs.inode import Inode, InodeType
from repro.vm.layout import PAGE_SIZE
from repro.vm.pages import MemoryObject

IMAGE_VERSION = 1

_TYPE_TAGS = {InodeType.FILE: "f", InodeType.DIRECTORY: "d",
              InodeType.SYMLINK: "l"}
_TAG_TYPES = {tag: itype for itype, tag in _TYPE_TAGS.items()}
_INT_OR_NONE = (int, type(None))
_LIST_OR_NONE = (list, type(None))


def _row(value, types: tuple, what: str) -> list:
    """*value* as a list of fields of *types*, else DiskFormatError."""
    if not isinstance(value, list) or len(value) != len(types) \
            or not all(isinstance(item, kind)
                       for item, kind in zip(value, types)):
        raise DiskFormatError(f"malformed {what}")
    return value


def volume_kind(fs: Filesystem) -> str:
    """'fs' | 'sfs' | 'sfs64' — decides which allocator fields exist."""
    from repro.sfs.sfs64 import SharedFilesystem64
    from repro.sfs.sharedfs import SharedFilesystem
    if isinstance(fs, SharedFilesystem64):
        return "sfs64"
    if isinstance(fs, SharedFilesystem):
        return "sfs"
    return "fs"


def _data_end(memobj: MemoryObject) -> int:
    """One past the last nonzero byte, found from the resident pages so
    a sparse file is never materialized."""
    for index in reversed(list(memobj.pages())):
        tail = memobj.page(index).data.rstrip(b"\0")
        if tail:
            return min(memobj.size, index * PAGE_SIZE + len(tail))
    return 0


def serialize_volume(fs: Filesystem, limit: Optional[int] = None) -> list:
    """One volume as a nested field list (codec-encodable). A file
    whose bytes run past *limit* is a DiskFullError, raised before they
    are read."""
    kind = volume_kind(fs)
    inodes: List[list] = []
    for inode in sorted(fs.inodes(), key=lambda i: i.number):
        size = 0
        data = b""
        if inode.is_file:
            assert inode.memobj is not None
            size = inode.memobj.size
            # Trailing zeros restore implicitly via the size field, so
            # strip them — sparse files stay cheap on disk.
            end = _data_end(inode.memobj)
            if limit is not None and end > limit:
                raise DiskFullError(
                    f"inode {inode.number} on {fs.name!r} holds {end} "
                    f"bytes; a checkpoint slot holds {limit}")
            data = inode.memobj.read(0, end).rstrip(b"\0")
        inodes.append([
            inode.number, _TYPE_TAGS[inode.type], inode.mode, inode.uid,
            inode.nlink, inode.symlink_target, size, data,
            getattr(inode, "segment_address", None),
            getattr(inode, "segment_span", None),
        ])
    dirents: List[list] = []
    for inode in sorted(fs.inodes(), key=lambda i: i.number):
        if not inode.is_dir:
            continue
        for name in sorted(inode.entries):
            if name in (".", ".."):
                continue
            dirents.append([inode.number, name,
                            inode.entries[name].number])
    alloc: Optional[list] = None
    addrmap: Optional[list] = None
    if kind == "sfs":
        alloc = [list(fs._free_inos)]
        addrmap = [list(entry) for entry in fs.addrmap.entries()]
    elif kind == "sfs64":
        flat: List[int] = []
        for base, span in fs._free_ranges:
            flat += [base, span]
        alloc = [fs._cursor, fs.default_reservation, flat]
        addrmap = [list(entry) for entry in fs.addrmap.entries()]
    return [kind, fs.name, fs.root.number, fs._next_ino, alloc,
            inodes, dirents, addrmap]


def restore_volume(fs: Filesystem, record: list) -> Optional[list]:
    """Rebuild *fs* in place from a :func:`serialize_volume` record.

    Returns the stored address-map entries (for cross-checking), or
    None for volumes without one. Every field is type-checked: a record
    that does not fit the format is a DiskFormatError.
    """
    (kind, name, root_ino, next_ino, alloc, inodes, dirents,
     addrmap) = _row(record, (str, str, int, int, _LIST_OR_NONE, list,
                              list, _LIST_OR_NONE), "volume record")
    if kind == "sfs":
        (free_inos,) = _row(alloc, (list,), "sfs allocator")
        _row(free_inos, (int,) * len(free_inos), "free inode list")
    elif kind == "sfs64":
        cursor, default_reservation, flat = _row(
            alloc, (int, int, list), "sfs64 allocator")
        _row(flat, (int, int) * (len(flat) // 2), "free range list")
    for entry in addrmap or ():
        _row(entry, (int, int, int), "address-map entry")
    if kind != volume_kind(fs):
        raise DiskFormatError(
            f"volume {name!r} is a {kind!r} image but the mounted "
            f"volume is {volume_kind(fs)!r}"
        )
    # Drop the current tree, releasing its frames.
    for inode in fs.inodes():
        if inode.memobj is not None:
            inode.memobj.free()
    fs._inodes.clear()
    fs._next_ino = next_ino
    if kind == "sfs":
        fs._free_inos = list(free_inos)
    elif kind == "sfs64":
        fs._cursor = cursor
        fs.default_reservation = default_reservation
        fs._free_ranges = [(flat[i], flat[i + 1])
                           for i in range(0, len(flat), 2)]
    table: Dict[int, Inode] = {}
    for row in inodes:
        (ino, tag, mode, uid, nlink, symlink_target, size, data,
         seg_addr, seg_span) = _row(
            row, (int, str, int, int, int, (str, type(None)), int, bytes,
                  _INT_OR_NONE, _INT_OR_NONE), "inode row")
        itype = _TAG_TYPES.get(tag)
        if itype is None or size < len(data):
            raise DiskFormatError(f"malformed inode row for {ino}")
        memobj = None
        if itype is InodeType.FILE:
            memobj = MemoryObject(fs.physmem, 0, name=f"{name}:ino{ino}")
            if data:
                memobj.write(0, data)
            memobj.size = size
        inode = Inode(ino, itype, mode, uid, memobj)
        inode.nlink = nlink
        inode.symlink_target = symlink_target
        if seg_addr is not None:
            inode.segment_address = seg_addr
            inode.segment_span = seg_span
        table[ino] = inode
    if root_ino not in table or not table[root_ino].is_dir:
        raise DiskFormatError(f"volume {name!r} has no root directory")
    fs._inodes.update(table)
    root = table[root_ino]
    root.entries["."] = root
    root.entries[".."] = root
    parented = set()
    for row in dirents:
        dir_ino, entry_name, child_ino = _row(row, (int, str, int),
                                              "directory entry")
        parent = table.get(dir_ino)
        child = table.get(child_ino)
        if parent is None or child is None or not parent.is_dir \
                or entry_name in ("", ".", "..") or "/" in entry_name:
            raise DiskFormatError(
                f"dangling directory entry {entry_name!r} "
                f"({dir_ino} -> {child_ino})"
            )
        if child.is_dir:
            # A directory has one parent and the root none: the tree
            # stays a tree, so every walk of it ends.
            if child is root or child_ino in parented:
                raise DiskFormatError(
                    f"directory {child_ino} is linked twice")
            parented.add(child_ino)
        parent.entries[entry_name] = child
        if child.is_dir:
            child.entries["."] = child
            child.entries[".."] = parent
    fs.root = root
    if hasattr(fs, "rebuild_address_map"):
        try:
            fs.rebuild_address_map()
        except (ValueError, SimulationError) as error:
            raise DiskFormatError(
                f"volume {name!r} has no address map: {error}") from None
    fs._index_rebuild()
    return addrmap


def encode_checkpoint(volumes: Dict[str, Filesystem],
                      applied_txid: int, limit: int) -> bytes:
    """Serialize every mounted volume into one checkpoint blob; no file
    may hold more than *limit* (a slot's) bytes."""
    records = [[key] + [serialize_volume(fs, limit)]
               for key, fs in sorted(volumes.items())]
    return encode_fields([IMAGE_VERSION, applied_txid, records])


def decode_checkpoint(blob: bytes):
    """(applied_txid, {volume_key: record}) from a checkpoint blob."""
    version, applied_txid, records = _row(
        decode_fields(blob), (int, int, list), "checkpoint")
    if version != IMAGE_VERSION:
        raise DiskFormatError(
            f"unsupported checkpoint version {version}"
        )
    out = {}
    for row in records:
        key, record = _row(row, (str, list), "checkpoint volume row")
        if not record or not isinstance(record[0], str):
            raise DiskFormatError(f"malformed volume {key!r}")
        out[key] = record
    return applied_txid, out
