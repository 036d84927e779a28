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

_HEADER_FIELDS = (("hostname", f"{HOSTNAME_LEN}s"), ("boot_time", "I"),
                  ("update_time", "I"), ("load_1", "i"), ("load_5", "i"),
                  ("load_15", "i"), ("nusers", "I"))
_USER_FIELDS = (("name", f"{USERNAME_LEN}s"), ("tty", f"{TTY_LEN}s"),
                ("idle_seconds", "I"))
_HEADER = struct.Struct("<" + "".join(code for _, code in _HEADER_FIELDS))
_USER = struct.Struct("<" + "".join(code for _, code in _USER_FIELDS))

RWHO_DIR = "/var/rwho"


def pack_status(status: HostStatus) -> bytes:
    """Linearize a status record into the on-disk whod format. A field
    the format cannot hold is a :class:`WhodFormatError` naming it."""
    host = stored_hostname(status.hostname)
    try:
        blob = _HEADER.pack(
            host.encode("latin-1"),
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
    except (struct.error, UnicodeEncodeError):
        raise _refusal(host, status) from None
    return blob


def _refusal(host: str, status: HostStatus) -> WhodFormatError:
    """The error naming the first field of *status*, in packing order,
    that the whod format cannot hold."""
    numbers = (status.boot_time, status.update_time, status.load_1,
               status.load_5, status.load_15)
    fields = [(f"host {host!r} {name}", code, value)
              for (name, code), value in zip(_HEADER_FIELDS[1:], numbers)]
    for user in status.users[:MAX_USERS_PER_HOST]:
        fields += [(f"host {host!r} user {user.name!r} {name}", code, value)
                   for (name, code), value in zip(
                       _USER_FIELDS, (user.name, user.tty,
                                      user.idle_seconds))]
    for what, code, value in fields:
        try:
            struct.pack("<" + code, value.encode("latin-1")
                        if isinstance(value, str) else value)
        except UnicodeEncodeError as error:
            return WhodFormatError(f"{what} {value!r} is not latin-1 "
                                   f"text: {error.reason}")
        except struct.error as error:
            return WhodFormatError(f"{what} {value!r} does not fit the "
                                   f"whod record: {error}")
    return WhodFormatError(f"host {host!r} does not fit the whod record")


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
    if b"/" in hostname:
        # pack_status refuses such a name (see stored_hostname)
        raise WhodFormatError(
            f"hostname {hostname.decode('latin-1')!r} contains '/'")
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
        """Handle one broadcast: linearize and rewrite whod.<host>. A
        record :func:`pack_status` refuses leaves the file as it was."""
        sys = self.kernel.syscalls
        path = f"{self.directory}/whod.{stored_hostname(status.hostname)}"
        blob = pack_status(status)
        fd = sys.open(self.proc, path, O_WRONLY | O_CREAT | O_TRUNC)
        try:
            sys.write(self.proc, fd, blob)
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
