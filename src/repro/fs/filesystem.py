"""A generic in-memory inode file system.

One instance is one mounted volume: it owns an inode table and a root
directory. Cross-volume concerns (mount points, path walking with
symlinks, file descriptors) live in :mod:`repro.fs.vfs`.

Subclasses can impose volume policies by overriding the ``_check_*``
hooks — the shared file system uses them for its 1024-inode / 1 MiB-file
limits, its hard-link prohibition, and its address-map maintenance.

Durability: when a :class:`repro.disk.journal.Journal` is armed on the
volume (``self.journal``), every mutating operation runs inside a
journal transaction and logs one logical OP record. The journal applies
the operation in memory first and makes it durable on commit; recovery
replays committed records through these very same methods (with the
journal suspended and inode numbers forced), so the replayed tree is
produced by the production code paths, not by a parallel interpreter.

Path-walk caches: every :class:`~repro.fs.vfs.Vfs` this volume is
mounted in (``mounted_in``) caches its walks, so every namespace change
here calls :meth:`Filesystem.invalidate_walks` before it mutates.

Reverse lookup: volumes that prohibit hard links (``_index_paths``)
maintain an incremental inode→path index, making ``path_of_inode`` —
and therefore the kernel's address→path translation — O(1) instead of
a volume walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from repro.errors import (
    FileExistsSimError,
    FileNotFoundSimError,
    FilesystemError,
    IsADirectorySimError,
    NotADirectorySimError,
)
from repro.fs.inode import Inode, InodeType
from repro.vm.pages import MemoryObject, PhysicalMemory

if TYPE_CHECKING:
    from repro.fs.vfs import Vfs


class _NullTxn:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TXN = _NullTxn()

DEFAULT_FILE_MODE = 0o644
DEFAULT_DIR_MODE = 0o755


class Filesystem:
    """One volume of the simulated file hierarchy."""

    #: Maintain the O(1) inode→path index. Only sound on volumes that
    #: prohibit hard links (each inode has exactly one path), so the
    #: base class leaves it off and the SFS classes turn it on.
    _index_paths = False

    def __init__(self, physmem: PhysicalMemory, name: str = "fs") -> None:
        self.physmem = physmem
        self.name = name
        self._inodes: Dict[int, Inode] = {}
        self._next_ino = 0
        # Armed by repro.disk.mount.DiskStore; None = volatile volume.
        self.journal = None
        self.journal_volume = name
        self._ino_paths: Dict[int, str] = {}
        # The Vfs objects whose path-walk caches cover this volume.
        self.mounted_in: List["Vfs"] = []
        self.root = self._new_inode(InodeType.DIRECTORY, DEFAULT_DIR_MODE, 0)
        self.root.entries["."] = self.root
        self.root.entries[".."] = self.root
        self.root.nlink = 2
        if self._index_paths:
            self._ino_paths[self.root.number] = ""

    # ------------------------------------------------------------------
    # journaling plumbing
    # ------------------------------------------------------------------

    def _txn(self):
        """The volume's current journal transaction context (no-op when
        no journal is armed — the default volatile configuration)."""
        journal = self.journal
        if journal is None:
            return _NULL_TXN
        return journal.transaction()

    def _log(self, op: str, *fields) -> None:
        journal = self.journal
        if journal is not None:
            journal.log(self.journal_volume, op, list(fields))

    def invalidate_walks(self, removal: bool = True) -> None:
        """Drop the cached walks of every Vfs this volume is mounted in.

        An added entry (``removal=False``) can only turn a failed walk
        into a different outcome, so only the cached misses go; a
        removal, rename or rebuild can change any walk, so both go.
        """
        for vfs in self.mounted_in:
            vfs._missing.clear()
            if removal:
                vfs._found.clear()

    # ------------------------------------------------------------------
    # inode→path index (O(1) reverse lookup; hard-link-free volumes)
    # ------------------------------------------------------------------

    def _index_add(self, directory: Inode, name: str, inode: Inode) -> None:
        if not self._index_paths:
            return
        base = self._ino_paths.get(directory.number, "")
        self._ino_paths[inode.number] = f"{base}/{name}"

    def _index_drop(self, inode: Inode) -> None:
        if self._index_paths:
            self._ino_paths.pop(inode.number, None)

    def _index_move(self, inode: Inode, dst_dir: Inode,
                    dst_name: str) -> None:
        if not self._index_paths:
            return
        old = self._ino_paths.get(inode.number)
        new = f"{self._ino_paths.get(dst_dir.number, '')}/{dst_name}"
        self._ino_paths[inode.number] = new
        if inode.is_dir and old is not None and old != new:
            # Every path below a moved directory shifts with it.
            prefix = old + "/"
            for ino, path in list(self._ino_paths.items()):
                if path.startswith(prefix):
                    self._ino_paths[ino] = new + path[len(old):]

    def _index_rebuild(self) -> None:
        """Recompute the index from the tree (post-recovery restore)."""
        if not self._index_paths:
            return
        paths: Dict[int, str] = {self.root.number: ""}

        def visit(path: str, inode: Inode) -> None:
            paths[inode.number] = path

        self.walk(visit)
        self._ino_paths = paths

    # ------------------------------------------------------------------
    # policy hooks (overridden by the SFS)
    # ------------------------------------------------------------------

    def _allocate_ino(self) -> int:
        ino = self._next_ino
        self._next_ino += 1
        return ino

    def _claim_ino(self, ino: int) -> None:
        """Mark a specific inode number used (journal replay forces the
        numbers recorded at run time so recovered trees are identical)."""
        if ino in self._inodes:
            raise FilesystemError(f"inode {ino} already allocated")
        self._next_ino = max(self._next_ino, ino + 1)

    def _check_new_inode(self) -> None:
        """Raise if the volume cannot hold another inode."""

    def _check_write(self, inode: Inode, end_offset: int) -> None:
        """Raise if a write growing *inode* to *end_offset* exceeds limits."""

    def _allow_hard_links(self) -> bool:
        return True

    def _on_create(self, inode: Inode) -> None:
        """Called after a new inode is linked into a directory."""

    def _on_destroy(self, inode: Inode) -> None:
        """Called when an inode's last link goes away."""

    def _journal_create_fields(self, inode: Inode) -> List[object]:
        """Extra fields the CREATE record must carry so replay can
        reproduce volume-specific allocation (sfs64's reservation)."""
        return []

    # ------------------------------------------------------------------
    # inode management
    # ------------------------------------------------------------------

    def _new_inode(self, itype: InodeType, mode: int, uid: int,
                   ino: Optional[int] = None) -> Inode:
        self._check_new_inode()
        if ino is None:
            ino = self._allocate_ino()
        else:
            self._claim_ino(ino)
        memobj = None
        if itype is InodeType.FILE:
            memobj = MemoryObject(self.physmem, 0,
                                  name=f"{self.name}:ino{ino}")
        inode = Inode(ino, itype, mode, uid, memobj)
        self._inodes[ino] = inode
        return inode

    def inode_by_number(self, number: int) -> Optional[Inode]:
        return self._inodes.get(number)

    def inode_count(self) -> int:
        return len(self._inodes)

    def inodes(self) -> Iterator[Inode]:
        return iter(list(self._inodes.values()))

    # ------------------------------------------------------------------
    # directory-level operations (single volume; no path walking here)
    # ------------------------------------------------------------------

    def lookup(self, directory: Inode, name: str) -> Inode:
        if not directory.is_dir:
            raise NotADirectorySimError(f"{name!r}: parent is not a directory")
        child = directory.entries.get(name)
        if child is None:
            raise FileNotFoundSimError(f"no entry {name!r}")
        return child

    def create_file(self, directory: Inode, name: str, uid: int,
                    mode: int = DEFAULT_FILE_MODE,
                    _ino: Optional[int] = None) -> Inode:
        self.invalidate_walks(removal=False)
        with self._txn():
            self._check_entry_free(directory, name)
            inode = self._new_inode(InodeType.FILE, mode, uid, ino=_ino)
            directory.entries[name] = inode
            self._index_add(directory, name, inode)
            self._on_create(inode)
            self._log("create", directory.number, name, uid, mode,
                      inode.number, *self._journal_create_fields(inode))
        return inode

    def mkdir(self, directory: Inode, name: str, uid: int,
              mode: int = DEFAULT_DIR_MODE,
              _ino: Optional[int] = None) -> Inode:
        self.invalidate_walks(removal=False)
        with self._txn():
            self._check_entry_free(directory, name)
            inode = self._new_inode(InodeType.DIRECTORY, mode, uid, ino=_ino)
            inode.entries["."] = inode
            inode.entries[".."] = directory
            inode.nlink = 2
            directory.entries[name] = inode
            directory.nlink += 1
            self._index_add(directory, name, inode)
            self._on_create(inode)
            self._log("mkdir", directory.number, name, uid, mode,
                      inode.number)
        return inode

    def symlink(self, directory: Inode, name: str, target: str,
                uid: int, _ino: Optional[int] = None) -> Inode:
        self.invalidate_walks(removal=False)
        with self._txn():
            self._check_entry_free(directory, name)
            inode = self._new_inode(InodeType.SYMLINK, 0o777, uid, ino=_ino)
            inode.symlink_target = target
            directory.entries[name] = inode
            self._index_add(directory, name, inode)
            self._on_create(inode)
            self._log("symlink", directory.number, name, target, uid,
                      inode.number)
        return inode

    def link(self, directory: Inode, name: str, target: Inode) -> None:
        """Hard link — prohibited on the SFS (one-one inode/path mapping)."""
        if not self._allow_hard_links():
            raise FilesystemError(
                f"hard links are prohibited on {self.name!r}"
            )
        self.invalidate_walks(removal=False)
        with self._txn():
            if target.is_dir:
                raise IsADirectorySimError("cannot hard-link a directory")
            self._check_entry_free(directory, name)
            directory.entries[name] = target
            target.nlink += 1
            self._log("link", directory.number, name, target.number)

    def unlink(self, directory: Inode, name: str) -> None:
        self.invalidate_walks()
        with self._txn():
            inode = self.lookup(directory, name)
            if inode.is_dir:
                raise IsADirectorySimError(f"{name!r} is a directory")
            del directory.entries[name]
            inode.nlink -= 1
            self._index_drop(inode)
            if inode.nlink == 0:
                self._destroy(inode)
            self._log("unlink", directory.number, name)

    def rmdir(self, directory: Inode, name: str) -> None:
        self.invalidate_walks()
        with self._txn():
            inode = self.lookup(directory, name)
            if not inode.is_dir:
                raise NotADirectorySimError(f"{name!r} is not a directory")
            if set(inode.entries) - {".", ".."}:
                raise FilesystemError(f"directory {name!r} not empty")
            del directory.entries[name]
            directory.nlink -= 1
            inode.nlink = 0
            self._index_drop(inode)
            self._destroy(inode)
            self._log("rmdir", directory.number, name)

    def rename(self, src_dir: Inode, src_name: str, dst_dir: Inode,
               dst_name: str) -> None:
        """Atomic rename, overwriting a non-directory destination.

        The whole move — including the implicit unlink of an existing
        destination — is one journal transaction carrying one RENAME
        record, so a crash at any record boundary leaves either the old
        tree or the new tree, never the entry in both directories (or
        neither). All validation happens before the first mutation for
        the same reason: a validation failure must leave no trace.
        """
        self.invalidate_walks()
        with self._txn():
            inode = self.lookup(src_dir, src_name)
            if not dst_dir.is_dir:
                raise NotADirectorySimError(
                    f"rename target parent is not a directory"
                )
            if inode.is_dir:
                # Moving a directory below itself would detach it into
                # an unreachable cycle.
                ancestor = dst_dir
                while ancestor is not inode:
                    parent = ancestor.entries.get("..")
                    if parent is None or parent is ancestor:
                        break
                    ancestor = parent
                if ancestor is inode:
                    raise FilesystemError(
                        f"cannot move {src_name!r} into its own subtree"
                    )
            if "/" in dst_name or dst_name in (".", "..", ""):
                raise FilesystemError(f"invalid entry name {dst_name!r}")
            existing = dst_dir.entries.get(dst_name)
            if existing is inode:
                return
            if existing is not None:
                if existing.is_dir:
                    raise IsADirectorySimError(f"{dst_name!r} exists")
                # Nested op: absorbed into this transaction, no record
                # of its own — replaying RENAME re-derives the unlink.
                self.unlink(dst_dir, dst_name)
            del src_dir.entries[src_name]
            dst_dir.entries[dst_name] = inode
            if inode.is_dir:
                inode.entries[".."] = dst_dir
                src_dir.nlink -= 1
                dst_dir.nlink += 1
            self._index_move(inode, dst_dir, dst_name)
            self._log("rename", src_dir.number, src_name, dst_dir.number,
                      dst_name)

    def readdir(self, directory: Inode) -> List[str]:
        if not directory.is_dir:
            raise NotADirectorySimError("not a directory")
        return sorted(n for n in directory.entries if n not in (".", ".."))

    def _check_entry_free(self, directory: Inode, name: str) -> None:
        if not directory.is_dir:
            raise NotADirectorySimError("parent is not a directory")
        if "/" in name or name in (".", "..", ""):
            raise FilesystemError(f"invalid entry name {name!r}")
        if name in directory.entries:
            raise FileExistsSimError(f"entry {name!r} exists")

    def _destroy(self, inode: Inode) -> None:
        self._on_destroy(inode)
        self._index_drop(inode)
        if inode.memobj is not None:
            inode.memobj.free()
        self._inodes.pop(inode.number, None)

    # ------------------------------------------------------------------
    # file I/O (offset-based; fd bookkeeping lives in the VFS)
    # ------------------------------------------------------------------

    def read_file(self, inode: Inode, offset: int, length: int) -> bytes:
        if not inode.is_file:
            raise IsADirectorySimError("read of non-regular file")
        assert inode.memobj is not None
        return inode.memobj.read(offset, length)

    def write_file(self, inode: Inode, offset: int, data: bytes) -> int:
        if not inode.is_file:
            raise IsADirectorySimError("write of non-regular file")
        assert inode.memobj is not None
        with self._txn():
            self._check_write(inode, offset + len(data))
            written = inode.memobj.write(offset, data)
            self._log("write", inode.number, offset,
                      bytes(data[:written]))
        return written

    def truncate_file(self, inode: Inode, size: int) -> None:
        if not inode.is_file:
            raise IsADirectorySimError("truncate of non-regular file")
        assert inode.memobj is not None
        with self._txn():
            self._check_write(inode, size)
            inode.memobj.truncate(size)
            self._log("truncate", inode.number, size)

    # ------------------------------------------------------------------
    # reverse lookup
    # ------------------------------------------------------------------

    def path_of_inode(self, ino: int) -> str:
        """Volume-relative path of inode *ino*.

        On hard-link-free volumes this is a dictionary hit against the
        incrementally maintained index; elsewhere (where an inode may
        have several paths) it falls back to a volume walk and returns
        the first path found.
        """
        if self._index_paths:
            path = self._ino_paths.get(ino)
            if path:
                return path
            raise FileNotFoundSimError(f"no path for inode {ino}")
        found: List[str] = []

        def visit(path: str, inode: Inode) -> None:
            if inode.number == ino:
                found.append(path)

        self.walk(visit)
        if not found:
            raise FileNotFoundSimError(f"no path for inode {ino}")
        return found[0]

    # ------------------------------------------------------------------

    def walk(self, visit: Callable[[str, Inode], None],
             directory: Optional[Inode] = None, prefix: str = "") -> None:
        """Depth-first traversal calling ``visit(path, inode)``."""
        directory = directory or self.root
        for name in self.readdir(directory):
            child = directory.entries[name]
            path = f"{prefix}/{name}"
            visit(path, child)
            if child.is_dir:
                self.walk(visit, child, path)
