"""The passwd database as a shared data structure.

Lookups read records in place; edits update one record under the
segment file's advisory lock (the vipw discipline); the ckpw checker
runs over the records directly. Export/import to the classic text form
addresses §5's "Loss of Commonality": the shared database can still be
materialized for text tools, explicitly rather than on every access.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.apps.admin.common import (
    GECOS_LEN,
    HOME_LEN,
    NAME_LEN,
    PasswdEntry,
    SHELL_LEN,
    validate_database,
    validate_entry,
)
from repro.errors import SimulationError
from repro.fs.vfs import O_RDONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.kernel.syscalls import FLOCK_EX, FLOCK_UN
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem, StructDef

DB_MAGIC = 0x50415353  # "PASS"
DB_SEGMENT = "/shared/passwd.db"
HEADER_SIZE = 8

RECORD = StructDef("passwd_record", [
    ("name", f"cstr:{NAME_LEN}"),
    ("uid", "u32"),
    ("gid", "u32"),
    ("gecos", f"cstr:{GECOS_LEN}"),
    ("home", f"cstr:{HOME_LEN}"),
    ("shell", f"cstr:{SHELL_LEN}"),
])


class SharedPasswd:
    """The shared-memory passwd database."""

    def __init__(self, kernel: Kernel, proc: Process, max_users: int = 256,
                 segment: str = DB_SEGMENT) -> None:
        self.kernel = kernel
        self.proc = proc
        self.segment = segment
        self.max_users = max_users
        self.mem = Mem(kernel, proc)
        runtime = runtime_for(kernel, proc)
        size = HEADER_SIZE + max_users * RECORD.size
        if kernel.vfs.exists(segment, proc.uid):
            self.base = runtime.segment_base(segment)
        else:
            self.base = runtime.create_segment(segment, size)
            self.mem.store_u32(self.base, DB_MAGIC)
            self.mem.store_u32(self.base + 4, 0)

    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        if self.mem.load_u32(self.base) != DB_MAGIC:
            raise SimulationError(f"{self.segment!r} is not a passwd db")
        return self.mem.load_u32(self.base + 4)

    def _record(self, index: int):
        return RECORD.view(
            self.mem, self.base + HEADER_SIZE + index * RECORD.size
        )

    def _store(self, index: int, entry: PasswdEntry) -> None:
        self._record(index).update(
            name=entry.name, uid=entry.uid, gid=entry.gid,
            gecos=entry.gecos, home=entry.home, shell=entry.shell,
        )

    def _load(self, index: int) -> PasswdEntry:
        return PasswdEntry(*self._record(index).get_many(
            "name", "uid", "gid", "gecos", "home", "shell"))

    # ------------------------------------------------------------------

    def write_all(self, entries: List[PasswdEntry]) -> None:
        validate_database(entries)
        if len(entries) > self.max_users:
            raise SimulationError("passwd database full")
        for index, entry in enumerate(entries):
            self._store(index, entry)
        self.mem.store_u32(self.base + 4, len(entries))

    def read_all(self) -> List[PasswdEntry]:
        return [self._load(index) for index in range(self.count)]

    def getpwnam(self, name: str) -> Optional[PasswdEntry]:
        """Scan records in place — no file reads, no parsing."""
        for index in range(self.count):
            if self._record(index).get("name") == name:
                return self._load(index)
        return None

    def getpwuid(self, uid: int) -> Optional[PasswdEntry]:
        for index in range(self.count):
            if self._record(index).get("uid") == uid:
                return self._load(index)
        return None

    # ------------------------------------------------------------------

    def vipw(self, mutate: Callable[[List[PasswdEntry]], None]) -> None:
        """Locked edit of the shared database (same discipline as the
        file version, but no linearize/parse round trip)."""
        sys = self.kernel.syscalls
        fd = sys.open(self.proc, self.segment, O_RDONLY)
        try:
            sys.flock(self.proc, fd, FLOCK_EX)
            try:
                entries = self.read_all()
                mutate(entries)
                validate_database(entries)
                self.write_all(entries)
            finally:
                sys.flock(self.proc, fd, FLOCK_UN)
        finally:
            sys.close(self.proc, fd)

    def update_entry(self, name: str,
                     mutate: Callable[[PasswdEntry], None]) -> bool:
        """In-place single-record edit under the lock; True if found."""
        sys = self.kernel.syscalls
        fd = sys.open(self.proc, self.segment, O_RDONLY)
        try:
            sys.flock(self.proc, fd, FLOCK_EX)
            try:
                for index in range(self.count):
                    if self._record(index).get("name") != name:
                        continue
                    entry = self._load(index)
                    mutate(entry)
                    validate_entry(entry)
                    if entry.name != name:
                        raise SimulationError(
                            "update_entry cannot rename; use vipw"
                        )
                    self._store(index, entry)
                    return True
                return False
            finally:
                sys.flock(self.proc, fd, FLOCK_UN)
        finally:
            sys.close(self.proc, fd)

    # ------------------------------------------------------------------
    # §5 Loss of Commonality: explicit bridges to the text world
    # ------------------------------------------------------------------

    def export_text(self, path: str) -> None:
        """Materialize the classic text form for byte-stream tools."""
        from repro.apps.admin.fileimpl import FilePasswd

        FilePasswd(self.kernel, self.proc, path).write_all(
            self.read_all()
        )

    def import_text(self, path: str) -> None:
        from repro.apps.admin.fileimpl import FilePasswd

        self.write_all(FilePasswd(self.kernel, self.proc,
                                  path).read_all())
