"""Shared-memory rwhod — the Hemlock re-implementation (§4).

The database is a fixed-layout array of host records in one shared
segment. The daemon updates records in place (no linearization, no file
rewrite); the utilities read the records directly. The only syscalls on
the fast path are the one-time segment mapping — afterwards both sides
run at memory speed, which is where the "saves a little over a second"
comes from.

Layout::

    db:       [magic u32][nhosts u32]  then nhosts host records
    host:     [hostname cstr:32][boot u32][update u32]
              [load1 i32][load5 i32][load15 i32][nusers u32]
              4 inline user records
    user:     [name cstr:12][tty cstr:8][idle u32]
"""

from __future__ import annotations

from typing import List

from repro.apps.rwho.common import (
    HostStatus,
    MAX_USERS_PER_HOST,
    UserEntry,
    WhodFormatError,
    format_ruptime_line,
    format_rwho_line,
)
from repro.errors import SimulationError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem, StructDef
from repro.vm.layout import PAGE_SIZE

DB_MAGIC = 0x5257484F  # "RWHO"
DB_SEGMENT = "/shared/rwho.db"

USER_STRUCT = StructDef("rwho_user", [
    ("name", "cstr:12"),
    ("tty", "cstr:8"),
    ("idle", "u32"),
])

HOST_STRUCT = StructDef("rwho_host", [
    ("hostname", "cstr:32"),
    ("boot_time", "u32"),
    ("update_time", "u32"),
    ("load_1", "i32"),
    ("load_5", "i32"),
    ("load_15", "i32"),
    ("nusers", "u32"),
    ("users", f"bytes:{USER_STRUCT.size * MAX_USERS_PER_HOST}"),
])

DB_HEADER_SIZE = 8


def db_size(nhosts: int) -> int:
    return DB_HEADER_SIZE + nhosts * HOST_STRUCT.size


def _stored_hostname(hostname: str) -> str:
    """*hostname* as its record's ``cstr:32`` field reads it back:
    latin-1, cut to 31 bytes and at the first NUL. The daemon's index
    is keyed by this form, the one :meth:`ShmRwhod._load_index` reads."""
    stored = HOST_STRUCT.packing["hostname"][1](hostname)
    return stored.split(b"\x00", 1)[0].decode("latin-1")


class ShmRwhod:
    """The daemon half: owns the shared database segment."""

    def __init__(self, kernel: Kernel, proc: Process, nhosts: int,
                 segment: str = DB_SEGMENT) -> None:
        self.kernel = kernel
        self.proc = proc
        self.segment = segment
        self.nhosts = nhosts
        self.mem = Mem(kernel, proc)
        runtime = runtime_for(kernel, proc)
        if kernel.vfs.exists(segment, proc.uid):
            self.base = runtime.segment_base(segment)
        else:
            self.base = runtime.create_segment(segment, db_size(nhosts))
            self.mem.store_u32(self.base, DB_MAGIC)
            self.mem.store_u32(self.base + 4, 0)
        self._index: dict = {}
        self._load_index()

    def _load_index(self) -> None:
        count = self.mem.load_u32(self.base + 4)
        for slot in range(count):
            view = self._record(slot)
            self._index[view.get("hostname")] = slot

    def _record(self, slot: int):
        return HOST_STRUCT.view(
            self.mem, self.base + DB_HEADER_SIZE + slot * HOST_STRUCT.size
        )

    def receive(self, status: HostStatus) -> None:
        """Handle one broadcast: update the host's record in place."""
        key = _stored_hostname(status.hostname)
        slot = self._index.get(key)
        if slot is None:
            slot = self.mem.load_u32(self.base + 4)
            if slot >= self.nhosts:
                raise SimulationError("rwho database full")
            self.mem.store_u32(self.base + 4, slot + 1)
            self._index[key] = slot
        view = self._record(slot)
        view.update(hostname=status.hostname,
                    boot_time=status.boot_time,
                    update_time=status.update_time,
                    load_1=status.load_1, load_5=status.load_5,
                    load_15=status.load_15,
                    nusers=min(len(status.users), MAX_USERS_PER_HOST))
        users_base = view.field_address("users")
        for index, user in enumerate(status.users[:MAX_USERS_PER_HOST]):
            entry = USER_STRUCT.view(self.mem,
                                     users_base + index * USER_STRUCT.size)
            entry.update(name=user.name, tty=user.tty,
                         idle=user.idle_seconds)


def _capacity(proc: Process, base: int, segment: str) -> int:
    """Host records the mapped database at *base* has room for: the
    bytes of its segment from *base* on, as the mapping's object holds
    them (the load of the header mapped it)."""
    mapping = proc.address_space.mapping_at(base)
    if mapping is None or mapping.memobj is None:
        raise SimulationError(f"{segment!r} is not mapped at 0x{base:x}")
    size = mapping.memobj.size - mapping.obj_page * PAGE_SIZE \
        - (base - mapping.start)
    return max(size - DB_HEADER_SIZE, 0) // HOST_STRUCT.size


def read_database(kernel: Kernel, proc: Process,
                  segment: str = DB_SEGMENT) -> List[HostStatus]:
    """Read every record straight out of the shared database.

    The first access faults and maps the segment; everything after that
    is plain loads.
    """
    runtime = runtime_for(kernel, proc)
    mem = Mem(kernel, proc)
    base = runtime.segment_base(segment)
    if mem.load_u32(base) != DB_MAGIC:
        raise SimulationError(f"{segment!r} is not an rwho database")
    count = mem.load_u32(base + 4)
    capacity = _capacity(proc, base, segment)
    if count > capacity:
        raise WhodFormatError(
            f"{segment!r} claims {count} host(s), more than its "
            f"{capacity} record slots")
    statuses = []
    for slot in range(count):
        view = HOST_STRUCT.view(
            mem, base + DB_HEADER_SIZE + slot * HOST_STRUCT.size
        )
        nusers = view.get("nusers")
        if nusers > MAX_USERS_PER_HOST:
            raise WhodFormatError(
                f"{segment!r} record {slot} claims {nusers} user(s), "
                f"more than its {MAX_USERS_PER_HOST} slots")
        users_base = view.field_address("users")
        users = [
            UserEntry(*USER_STRUCT.view(
                mem, users_base + index * USER_STRUCT.size
            ).get_many("name", "tty", "idle"))
            for index in range(nusers)
        ]
        statuses.append(HostStatus(
            *view.get_many("hostname", "boot_time", "update_time",
                           "load_1", "load_5", "load_15"),
            users,
        ))
    return statuses


def shm_rwho(kernel: Kernel, proc: Process,
             segment: str = DB_SEGMENT) -> str:
    """The rwho utility against the shared database."""
    lines = []
    for status in read_database(kernel, proc, segment):
        for user in status.users:
            lines.append(format_rwho_line(status.hostname, user))
    return "\n".join(sorted(lines))


def shm_ruptime(kernel: Kernel, proc: Process,
                segment: str = DB_SEGMENT) -> str:
    """The ruptime utility against the shared database."""
    lines = [format_ruptime_line(status)
             for status in read_database(kernel, proc, segment)]
    return "\n".join(sorted(lines))
