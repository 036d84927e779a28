"""File-based rwhod — the original implementation.

"As originally conceived, it maintains a collection of local files, one
per remote machine, that contain the most recent information received
from those machines. Every time it receives a message from a peer it
rewrites the corresponding file. Utility programs read these files and
generate terminal output."

The status files use a packed binary format (``struct whod`` style), so
both the daemon and the utilities pay the linearize/parse translation
cost on every operation — precisely the overhead the shared-memory
version eliminates.
"""

from __future__ import annotations

import struct
from typing import List

from repro.apps.rwho.common import (
    HOSTNAME_LEN,
    HostStatus,
    MAX_USERS_PER_HOST,
    TTY_LEN,
    USERNAME_LEN,
    UserEntry,
    WhodFormatError,
    format_ruptime_line,
    format_rwho_line,
    stored_hostname,
)
from repro.errors import FileNotFoundSimError
from repro.fs.vfs import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process

_HEADER = struct.Struct(f"<{HOSTNAME_LEN}sIIiiiI")
_USER = struct.Struct(f"<{USERNAME_LEN}s{TTY_LEN}sI")

RWHO_DIR = "/var/rwho"


def pack_status(status: HostStatus) -> bytes:
    """Linearize a status record into the on-disk whod format."""
    blob = _HEADER.pack(
        stored_hostname(status.hostname).encode("latin-1"),
        status.boot_time,
        status.update_time,
        status.load_1,
        status.load_5,
        status.load_15,
        min(len(status.users), MAX_USERS_PER_HOST),
    )
    for user in status.users[:MAX_USERS_PER_HOST]:
        blob += _USER.pack(
            user.name.encode("latin-1"),
            user.tty.encode("latin-1"),
            user.idle_seconds,
        )
    return blob


def unpack_status(blob: bytes) -> HostStatus:
    """Parse the on-disk whod format back into a status record."""
    if len(blob) < _HEADER.size:
        raise WhodFormatError(f"whod record of {len(blob)} bytes is "
                              f"shorter than its {_HEADER.size}-byte "
                              f"header")
    hostname, boot, update, l1, l5, l15, nusers = \
        _HEADER.unpack_from(blob, 0)
    expected = _HEADER.size + nusers * _USER.size
    if nusers > MAX_USERS_PER_HOST or len(blob) != expected:
        raise WhodFormatError(f"whod record of {len(blob)} bytes "
                              f"claims {nusers} user(s)")
    hostname, nul, padding = hostname.partition(b"\x00")
    if not nul or padding.strip(b"\x00"):
        raise WhodFormatError("whod record's hostname field does not "
                              "hold one NUL-terminated name")
    users = []
    offset = _HEADER.size
    for _ in range(nusers):
        name, tty, idle = _USER.unpack_from(blob, offset)
        offset += _USER.size
        users.append(UserEntry(
            name.rstrip(b"\x00").decode("latin-1"),
            tty.rstrip(b"\x00").decode("latin-1"),
            idle,
        ))
    return HostStatus(
        hostname.decode("latin-1"),
        boot, update, l1, l5, l15, users,
    )


class FileRwhod:
    """The daemon half: receive a broadcast, rewrite the host's file."""

    def __init__(self, kernel: Kernel, proc: Process,
                 directory: str = RWHO_DIR) -> None:
        self.kernel = kernel
        self.proc = proc
        self.directory = directory
        kernel.vfs.makedirs(directory, proc.uid)

    def receive(self, status: HostStatus) -> None:
        """Handle one broadcast: linearize and rewrite whod.<host>."""
        sys = self.kernel.syscalls
        path = f"{self.directory}/whod.{stored_hostname(status.hostname)}"
        fd = sys.open(self.proc, path, O_WRONLY | O_CREAT | O_TRUNC)
        try:
            sys.write(self.proc, fd, pack_status(status))
        finally:
            sys.close(self.proc, fd)


def _read_all(kernel: Kernel, proc: Process,
              directory: str) -> List[HostStatus]:
    sys = kernel.syscalls
    statuses = []
    for name in sorted(sys.listdir(proc, directory)):
        if not name.startswith("whod."):
            continue
        path = f"{directory}/{name}"
        try:
            fd = sys.open(proc, path, O_RDONLY)
        except FileNotFoundSimError:
            continue
        try:
            blob = sys.read(proc, fd, sys.fstat(proc, fd).st_size)
        finally:
            sys.close(proc, fd)
        statuses.append(unpack_status(blob))
    return statuses


def file_rwho(kernel: Kernel, proc: Process,
              directory: str = RWHO_DIR) -> str:
    """The rwho utility: who is logged in, network-wide."""
    lines = []
    for status in _read_all(kernel, proc, directory):
        for user in status.users:
            lines.append(format_rwho_line(status.hostname, user))
    return "\n".join(sorted(lines))


def file_ruptime(kernel: Kernel, proc: Process,
                 directory: str = RWHO_DIR) -> str:
    """The ruptime utility: per-host uptime and load."""
    lines = [format_ruptime_line(status)
             for status in _read_all(kernel, proc, directory)]
    return "\n".join(sorted(lines))
