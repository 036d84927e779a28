"""The classic /etc/passwd: parse-on-every-access, vipw-style editing."""

from __future__ import annotations

from typing import List, Optional

from repro.apps.admin.common import PasswdEntry, validate_database
from repro.errors import SimulationError
from repro.fs.vfs import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.kernel.syscalls import FLOCK_EX, FLOCK_UN

PASSWD_PATH = "/etc/passwd"
PARSE_CYCLES_PER_BYTE = 4


def format_line(entry: PasswdEntry) -> str:
    return (f"{entry.name}:x:{entry.uid}:{entry.gid}:{entry.gecos}:"
            f"{entry.home}:{entry.shell}")


def parse_line(line: str) -> PasswdEntry:
    parts = line.split(":")
    if len(parts) != 7:
        raise SimulationError(f"malformed passwd line {line!r}")
    return PasswdEntry(
        name=parts[0], uid=int(parts[2]), gid=int(parts[3]),
        gecos=parts[4], home=parts[5], shell=parts[6],
    )


class FilePasswd:
    """The traditional interface over the text file."""

    def __init__(self, kernel: Kernel, proc: Process,
                 path: str = PASSWD_PATH) -> None:
        self.kernel = kernel
        self.proc = proc
        self.path = path
        kernel.vfs.makedirs(path.rsplit("/", 1)[0] or "/", proc.uid)

    # ------------------------------------------------------------------

    def write_all(self, entries: List[PasswdEntry]) -> None:
        validate_database(entries)
        blob = "\n".join(format_line(e) for e in entries) + "\n"
        data = blob.encode("latin-1")
        self.kernel.clock.charge("translation",
                                 len(data) * PARSE_CYCLES_PER_BYTE)
        sys = self.kernel.syscalls
        fd = sys.open(self.proc, self.path, O_WRONLY | O_CREAT | O_TRUNC)
        try:
            sys.write(self.proc, fd, data)
        finally:
            sys.close(self.proc, fd)

    def read_all(self) -> List[PasswdEntry]:
        sys = self.kernel.syscalls
        fd = sys.open(self.proc, self.path, O_RDONLY)
        try:
            data = sys.read(self.proc, fd, sys.fstat(self.proc,
                                                     fd).st_size)
        finally:
            sys.close(self.proc, fd)
        self.kernel.clock.charge("translation",
                                 len(data) * PARSE_CYCLES_PER_BYTE)
        return [parse_line(line)
                for line in data.decode("latin-1").splitlines() if line]

    def getpwnam(self, name: str) -> Optional[PasswdEntry]:
        """Reads and parses the whole file, like the real one."""
        for entry in self.read_all():
            if entry.name == name:
                return entry
        return None

    # ------------------------------------------------------------------

    def vipw(self, mutate) -> None:
        """Locked edit: lock, read, mutate, validate (ckpw), rewrite.

        *mutate* receives the entry list and modifies it in place.
        """
        sys = self.kernel.syscalls
        fd = sys.open(self.proc, self.path, O_RDONLY)
        try:
            sys.flock(self.proc, fd, FLOCK_EX)
            try:
                entries = self.read_all()
                mutate(entries)
                validate_database(entries)  # ckpw before committing
                self.write_all(entries)
            finally:
                sys.flock(self.proc, fd, FLOCK_UN)
        finally:
            sys.close(self.proc, fd)
