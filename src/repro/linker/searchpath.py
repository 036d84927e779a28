"""Module search strategy — §3 "The Linkers".

At static link time ``lds`` searches, in order:

1. the current directory;
2. the path specified in a special command-line argument (``-L``);
3. the path specified by the ``LD_LIBRARY_PATH`` environment variable;
4. the default library directories.

At execution time ``ldl`` searches:

1. the path specified by ``LD_LIBRARY_PATH`` *now* (changing it before
   execution is how users substitute module versions — and how the
   Presto-style parallel apps of §4 point children at a per-instance
   temporary directory);
2. the directories in which lds searched for static modules: the
   directory in which static linking occurred, the lds ``-L``
   directories, the ``LD_LIBRARY_PATH`` directories at static link time,
   and the defaults.

If there is more than one module with the same name, the first found
wins. Each template may in addition carry its *own* search path
(``.searchdir``), the basis of scoped linking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.fs.path import join, normalize
from repro.fs.vfs import Vfs

DEFAULT_LIBRARY_DIRS = ["/lib", "/usr/lib", "/shared/lib"]


def parse_library_path(value: str) -> List[str]:
    """Split a colon-separated LD_LIBRARY_PATH value."""
    return [part for part in value.split(":") if part]


@dataclass
class SearchPath:
    """An ordered list of directories plus the lookup primitive."""

    directories: List[str] = field(default_factory=list)

    @classmethod
    def for_static_link(cls, cwd: str, cmdline_dirs: List[str],
                        ld_library_path: str) -> "SearchPath":
        """The lds search order."""
        dirs = [cwd]
        dirs += cmdline_dirs
        dirs += parse_library_path(ld_library_path)
        dirs += DEFAULT_LIBRARY_DIRS
        return cls(_dedup(dirs))

    @classmethod
    def for_run_time(cls, ld_library_path_now: str,
                     static_search_path: List[str]) -> "SearchPath":
        """The ldl search order: current LD_LIBRARY_PATH first, then
        everywhere lds looked."""
        dirs = parse_library_path(ld_library_path_now)
        dirs += static_search_path
        return cls(_dedup(dirs))

    def find(self, vfs: Vfs, name: str, uid: int = 0,
             cwd: str = "/") -> Optional[str]:
        """Locate module *name*; returns an absolute path or None.

        Absolute (or explicitly relative) names bypass the search, as
        they do for ld. Only regular files count — a directory that
        happens to share the module's name is not a module.
        """
        if name.startswith("/"):
            path = normalize(name)
            return path if _is_regular_file(vfs, path, uid) else None
        if name.startswith("./") or name.startswith("../"):
            path = normalize(name, cwd)
            return path if _is_regular_file(vfs, path, uid) else None
        for directory in self.directories:
            path = normalize(join(directory, name), cwd)
            if _is_regular_file(vfs, path, uid):
                return path
        return None

    def __iter__(self):
        return iter(self.directories)


def _is_regular_file(vfs: Vfs, path: str, uid: int) -> bool:
    from repro.errors import FilesystemError

    try:
        return vfs.resolve(path, uid)[1].is_file
    except FilesystemError:
        return False


def _dedup(items: List[str]) -> List[str]:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
