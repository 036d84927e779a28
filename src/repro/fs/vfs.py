"""The virtual file system: mounts, path walking, open files.

The VFS stitches volumes into one name space. In the standard Hemlock
configuration the kernel mounts a regular :class:`Filesystem` at ``/``
and a :class:`~repro.sfs.SharedFilesystem` at ``/shared`` — the "special
disk partition" of §3 on which all public modules and their templates
must reside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    BusySimError,
    FileExistsSimError,
    FileNotFoundSimError,
    FilesystemError,
    IsADirectorySimError,
    NotADirectorySimError,
    PermissionSimError,
)
from repro.fs.filesystem import DEFAULT_DIR_MODE, DEFAULT_FILE_MODE, Filesystem
from repro.fs.inode import Inode, Stat
from repro.fs.path import normalize, split_path

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_EXCL = 0x80
O_TRUNC = 0x200
O_APPEND = 0x400

_ACCMODE = 0x3
_MAX_SYMLINKS = 40
#: Entries per path-walk cache dict; a full dict is cleared, not evicted.
_WALK_CACHE_LIMIT = 4096


@dataclass
class OpenFile:
    """An open file description (shared across dup'ed descriptors)."""

    vfs: "Vfs"
    fs: Filesystem
    inode: Inode
    path: str
    flags: int
    offset: int = 0
    refcount: int = 1

    @property
    def readable(self) -> bool:
        return (self.flags & _ACCMODE) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & _ACCMODE) in (O_WRONLY, O_RDWR)

    def read(self, length: int) -> bytes:
        if not self.readable:
            raise PermissionSimError(f"{self.path!r} not open for reading")
        data = self.fs.read_file(self.inode, self.offset, length)
        injector = self.vfs.injector
        if injector is not None:
            data = injector.filter_read(self.path, data, site="read")
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if not self.writable:
            raise PermissionSimError(f"{self.path!r} not open for writing")
        if self.flags & O_APPEND:
            self.offset = self.inode.size
        pending = None
        injector = self.vfs.injector
        if injector is not None:
            data, pending = injector.filter_write(self.path, data,
                                                  site="write")
        written = self.fs.write_file(self.inode, self.offset, data)
        self.offset += written
        if pending is not None:
            # Torn write: the shortened prefix persisted before the
            # error surfaces, exactly like a mid-write crash.
            raise pending
        return written

    def pread(self, offset: int, length: int) -> bytes:
        if not self.readable:
            raise PermissionSimError(f"{self.path!r} not open for reading")
        data = self.fs.read_file(self.inode, offset, length)
        injector = self.vfs.injector
        if injector is not None:
            data = injector.filter_read(self.path, data, site="read")
        return data

    def pwrite(self, offset: int, data: bytes) -> int:
        if not self.writable:
            raise PermissionSimError(f"{self.path!r} not open for writing")
        pending = None
        injector = self.vfs.injector
        if injector is not None:
            data, pending = injector.filter_write(self.path, data,
                                                  site="write")
        written = self.fs.write_file(self.inode, offset, data)
        if pending is not None:
            raise pending
        return written

    def lseek(self, offset: int, whence: int = 0) -> int:
        if whence == 0:
            new = offset
        elif whence == 1:
            new = self.offset + offset
        elif whence == 2:
            new = self.inode.size + offset
        else:
            raise FilesystemError(f"bad whence {whence}")
        if new < 0:
            raise FilesystemError("negative seek")
        self.offset = new
        return new

    def truncate(self, size: int) -> None:
        if not self.writable:
            raise PermissionSimError(f"{self.path!r} not open for writing")
        self.fs.truncate_file(self.inode, size)


class Vfs:
    """Mount table plus path-level operations."""

    def __init__(self, rootfs: Filesystem) -> None:
        self._mounts: Dict[str, Filesystem] = {"/": rootfs}
        self.injector = None  # set by repro.inject.install_injector
        # The path-walk cache, keyed (normalized path, uid, follow):
        # walks that found an inode, and walks that raised (the error's
        # class and args). Filesystem.invalidate_walks keeps it exact.
        self._found: Dict[Tuple[str, int, bool],
                          Tuple[Filesystem, Inode]] = {}
        self._missing: Dict[Tuple[str, int, bool], tuple] = {}
        rootfs.mounted_in.append(self)

    @property
    def rootfs(self) -> Filesystem:
        return self._mounts["/"]

    def mount(self, path: str, fs: Filesystem, uid: int = 0) -> None:
        """Mount *fs* at *path*, creating the mount-point directory."""
        path = normalize(path)
        if path in self._mounts:
            raise FilesystemError(f"{path!r} is already a mount point")
        parent_fs, parent = self._resolve_dir(dirname_of(path), uid)
        name = split_path(path)[-1]
        covered = parent.entries.get(name)
        if covered is None:
            parent_fs.mkdir(parent, name, uid)
        elif not covered.is_dir:
            raise NotADirectorySimError(f"{path!r} is not a directory")
        self._mounts[path] = fs
        fs.mounted_in.append(self)
        self._found.clear()
        self._missing.clear()

    def filesystem_at(self, path: str) -> Optional[Filesystem]:
        return self._mounts.get(normalize(path))

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------

    def resolve(self, path: str, uid: int = 0, follow: bool = True,
                cwd: str = "/") -> Tuple[Filesystem, Inode]:
        """Walk *path* to its inode, crossing mounts and symlinks.

        The result of each walk is cached; a cached miss raises a fresh
        error of the same class with the same message.
        """
        key = (normalize(path, cwd), uid, follow)
        found = self._found.get(key)
        if found is not None:
            return found
        missing = self._missing.get(key)
        if missing is not None:
            raise missing[0](*missing[1])
        try:
            fs, inode, _, _ = self._walk(key[0], uid, follow)
        except FilesystemError as error:
            if len(self._missing) >= _WALK_CACHE_LIMIT:
                self._missing.clear()
            self._missing[key] = (type(error), error.args)
            raise
        if len(self._found) >= _WALK_CACHE_LIMIT:
            self._found.clear()
        found = self._found[key] = (fs, inode)
        return found

    def _resolve_dir(self, path: str, uid: int) -> Tuple[Filesystem, Inode]:
        fs, inode = self.resolve(path, uid)
        if not inode.is_dir:
            raise NotADirectorySimError(f"{path!r} is not a directory")
        return fs, inode

    def _walk(self, path: str, uid: int, follow: bool,
              depth: int = 0) -> Tuple[Filesystem, Inode, Filesystem, Inode]:
        """Returns (fs, inode, parent_fs, parent_inode)."""
        if depth > _MAX_SYMLINKS:
            raise FilesystemError("too many levels of symbolic links")
        fs = self._mounts["/"]
        inode = fs.root
        parent_fs, parent = fs, fs.root
        components = split_path(path)
        # The path walked so far, "" at the root: what the mount table
        # is keyed by, grown one component at a time.
        walked = ""
        last = len(components) - 1
        for index, name in enumerate(components):
            if not inode.is_dir:
                raise NotADirectorySimError(
                    (walked or "/") + " is not a directory"
                )
            if not inode.check_access(uid, "x"):
                raise PermissionSimError(
                    "search permission denied on " + (walked or "/")
                )
            parent_fs, parent = fs, inode
            child = fs.lookup(inode, name)
            base = walked
            walked = base + "/" + name
            mounted = self._mounts.get(walked)
            if mounted is not None:
                fs, child = mounted, mounted.root
            if child.is_symlink and (follow or index != last):
                target = child.symlink_target or ""
                rest = "/".join(components[index + 1:])
                new_path = normalize(
                    target if target.startswith("/")
                    else base + "/" + target
                )
                if rest:
                    new_path = new_path.rstrip("/") + "/" + rest
                return self._walk(new_path, uid, follow, depth + 1)
            fs, inode = fs, child
        return fs, inode, parent_fs, parent

    def _locate_parent(self, path: str, uid: int,
                       cwd: str = "/") -> Tuple[Filesystem, Inode, str]:
        """Resolve the parent directory of *path*; returns the leaf name."""
        path = normalize(path, cwd)
        components = split_path(path)
        if not components:
            raise FilesystemError("cannot operate on the root directory")
        parent_path = "/" + "/".join(components[:-1])
        fs, parent = self._resolve_dir(parent_path, uid)
        return fs, parent, components[-1]

    # ------------------------------------------------------------------
    # file and directory operations
    # ------------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, uid: int = 0,
             mode: int = DEFAULT_FILE_MODE, cwd: str = "/") -> OpenFile:
        path = normalize(path, cwd)
        created = False
        try:
            fs, inode = self.resolve(path, uid)
            if flags & O_CREAT and flags & O_EXCL:
                raise FileExistsSimError(f"{path!r} exists")
        except FileNotFoundSimError:
            if not flags & O_CREAT:
                raise
            fs, parent, name = self._locate_parent(path, uid)
            if not parent.check_access(uid, "w"):
                raise PermissionSimError(f"cannot create in {path!r}")
            inode = fs.create_file(parent, name, uid, mode)
            created = True
            self._seed_created(path, uid, fs, parent, name, inode)
        if inode.is_dir and (flags & _ACCMODE) != O_RDONLY:
            raise IsADirectorySimError(f"{path!r} is a directory")
        accmode = flags & _ACCMODE
        # As in Unix, the creating open is not subject to the new file's
        # mode bits; only later opens are.
        if not created:
            if accmode in (O_RDONLY, O_RDWR) \
                    and not inode.check_access(uid, "r"):
                raise PermissionSimError(
                    f"read permission denied on {path!r}"
                )
            if accmode in (O_WRONLY, O_RDWR) \
                    and not inode.check_access(uid, "w"):
                raise PermissionSimError(
                    f"write permission denied on {path!r}"
                )
        handle = OpenFile(self, fs, inode, path, flags)
        if flags & O_TRUNC and inode.is_file and handle.writable:
            fs.truncate_file(inode, 0)
        return handle

    def _seed_created(self, path: str, uid: int, fs: Filesystem,
                      parent: Inode, name: str, inode: Inode) -> None:
        """Cache the walk of a file just created at *path* (normalized)
        in *parent*, without walking it.

        The walk to *parent* succeeded, and adding *name* cannot change
        it, so walking *path* would repeat it and then take one step
        more: search *parent*, look *name* up and land on *inode*, a
        file, so nothing to follow. That step reaches *inode* when
        *parent* grants *uid* search permission (the open's own walk,
        which missed *name*, already showed it does) and no volume is
        mounted there. A mount point is matched by its last component
        alone, because symlinks can make the parent's walked path differ
        from *path*.
        """
        if not parent.check_access(uid, "x"):
            return
        for point in self._mounts:
            if point != "/" and point.rsplit("/", 1)[1] == name:
                return
        if len(self._found) >= _WALK_CACHE_LIMIT:
            self._found.clear()
        self._found[(path, uid, True)] = (fs, inode)

    def stat(self, path: str, uid: int = 0, follow: bool = True,
             cwd: str = "/") -> Stat:
        _, inode = self.resolve(path, uid, follow=follow, cwd=cwd)
        return inode.stat()

    def exists(self, path: str, uid: int = 0, cwd: str = "/") -> bool:
        try:
            self.resolve(path, uid, cwd=cwd)
            return True
        except (FileNotFoundSimError, NotADirectorySimError):
            return False

    def mkdir(self, path: str, uid: int = 0, mode: int = DEFAULT_DIR_MODE,
              cwd: str = "/") -> None:
        fs, parent, name = self._locate_parent(path, uid, cwd)
        if not parent.check_access(uid, "w"):
            raise PermissionSimError(f"cannot create directory {path!r}")
        fs.mkdir(parent, name, uid, mode)

    def makedirs(self, path: str, uid: int = 0) -> None:
        """mkdir -p."""
        built = ""
        for part in split_path(normalize(path)):
            built += "/" + part
            if not self.exists(built, uid):
                self.mkdir(built, uid)

    def symlink(self, target: str, linkpath: str, uid: int = 0,
                cwd: str = "/") -> None:
        fs, parent, name = self._locate_parent(linkpath, uid, cwd)
        fs.symlink(parent, name, target, uid)

    def readlink(self, path: str, uid: int = 0, cwd: str = "/") -> str:
        _, inode = self.resolve(path, uid, follow=False, cwd=cwd)
        if not inode.is_symlink:
            raise FilesystemError(f"{path!r} is not a symlink")
        return inode.symlink_target or ""

    def link(self, existing: str, new: str, uid: int = 0,
             cwd: str = "/") -> None:
        src_fs, inode = self.resolve(existing, uid, cwd=cwd)
        dst_fs, parent, name = self._locate_parent(new, uid, cwd)
        if src_fs is not dst_fs:
            raise FilesystemError("cross-volume hard links are not allowed")
        dst_fs.link(parent, name, inode)

    def unlink(self, path: str, uid: int = 0, cwd: str = "/") -> None:
        fs, parent, name = self._locate_parent(path, uid, cwd)
        if not parent.check_access(uid, "w"):
            raise PermissionSimError(f"cannot unlink {path!r}")
        fs.unlink(parent, name)

    def rmdir(self, path: str, uid: int = 0, cwd: str = "/") -> None:
        fs, parent, name = self._locate_parent(path, uid, cwd)
        self._refuse_mount_point(parent, name)
        fs.rmdir(parent, name)

    def rename(self, old: str, new: str, uid: int = 0,
               cwd: str = "/") -> None:
        src_fs, src_parent, src_name = self._locate_parent(old, uid, cwd)
        self._refuse_mount_point(src_parent, src_name)
        dst_fs, dst_parent, dst_name = self._locate_parent(new, uid, cwd)
        if src_fs is not dst_fs:
            raise FilesystemError("cross-volume rename is not allowed")
        src_fs.rename(src_parent, src_name, dst_parent, dst_name)

    def _refuse_mount_point(self, parent: Inode, name: str) -> None:
        """Raise BusySimError if entry *name* of *parent* has a volume
        mounted on it: removing or moving it would hide that volume."""
        for point in self._mounts:
            if point == "/" or split_path(point)[-1] != name:
                continue
            try:
                _, covering = self.resolve(dirname_of(point))
            except FilesystemError:
                continue
            if covering is parent:
                raise BusySimError(f"{point!r} is a mount point")

    def listdir(self, path: str, uid: int = 0, cwd: str = "/") -> List[str]:
        fs, inode = self.resolve(path, uid, cwd=cwd)
        if not inode.check_access(uid, "r"):
            raise PermissionSimError(f"cannot list {path!r}")
        return fs.readdir(inode)

    # convenience whole-file helpers -----------------------------------

    def read_whole(self, path: str, uid: int = 0, cwd: str = "/") -> bytes:
        """The whole file: :meth:`open`'s read-only checks, then one
        :meth:`OpenFile.pread` of every byte, with no handle built."""
        path = normalize(path, cwd)
        fs, inode = self.resolve(path, uid)
        if not inode.check_access(uid, "r"):
            raise PermissionSimError(f"read permission denied on {path!r}")
        data = fs.read_file(inode, 0, inode.size)
        injector = self.injector
        if injector is not None:
            data = injector.filter_read(path, data, site="read")
        return data

    def write_whole(self, path: str, data: bytes, uid: int = 0,
                    mode: int = DEFAULT_FILE_MODE, cwd: str = "/") -> None:
        handle = self.open(path, O_WRONLY | O_CREAT | O_TRUNC, uid, mode,
                           cwd=cwd)
        handle.write(data)


def dirname_of(path: str) -> str:
    parts = split_path(path)
    return "/" + "/".join(parts[:-1]) if parts else "/"
