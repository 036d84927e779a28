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
              4 inline user slots
    user:     [name cstr:12][tty cstr:8][idle u32]

Each side touches a host row with one compiled record access
(:meth:`StructDef.record`): the daemon writes the host fields, nusers
and the kept users at once, and a reader, after loading nusers, reads
those users and the host fields at once. Where the compiled access
cannot run (a row straddling a page, a page missing from the TLB, an
armed injector or sanitizer, a value a field refuses) it falls back to
one ``get``/``set`` per field in the same order, so the simulation ends
exactly where the per-record sequence it replaces left it.
"""

from __future__ import annotations

from typing import List

from repro.apps.rwho.common import (
    HOSTNAME_LEN,
    HostStatus,
    MAX_USERS_PER_HOST,
    UserEntry,
    WhodFormatError,
    format_ruptime_line,
    format_rwho_line,
    stored_hostname,
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

#: a host's own fields, in the order of the record and of HostStatus
HOST_FIELDS = ("hostname", "boot_time", "update_time",
               "load_1", "load_5", "load_15")

#: the inline user slots are USER_STRUCT's fields, slot i named
#: ``user{i}_<field>``, so one compiled record covers a whole host row
HOST_STRUCT = StructDef("rwho_host", [
    ("hostname", f"cstr:{HOSTNAME_LEN}"),
    ("boot_time", "u32"),
    ("update_time", "u32"),
    ("load_1", "i32"),
    ("load_5", "i32"),
    ("load_15", "i32"),
    ("nusers", "u32"),
    *[(f"user{slot}_{name}", kind)
      for slot in range(MAX_USERS_PER_HOST)
      for name, kind in USER_STRUCT.fields],
])


def _user_fields(count: int) -> tuple:
    """The fields of the first *count* user slots, slot by slot."""
    return tuple(f"user{slot}_{name}" for slot in range(count)
                 for name in USER_STRUCT.names)


# The compiled row accessors for 0..MAX_USERS_PER_HOST users, in the
# order the per-record sequence accessed them: the writer set the host
# fields and nusers, then each user; the reader read each user, then
# the host fields (after its own nusers load).
_ROW_WRITES = tuple(HOST_STRUCT.record(HOST_FIELDS + ("nusers",)
                                       + _user_fields(count))
                    for count in range(MAX_USERS_PER_HOST + 1))
_ROW_READS = tuple(HOST_STRUCT.record(_user_fields(count) + HOST_FIELDS)
                   for count in range(MAX_USERS_PER_HOST + 1))
#: values per user in a row read
_USER_WIDTH = len(USER_STRUCT.names)

DB_HEADER_SIZE = 8


def db_size(nhosts: int) -> int:
    return DB_HEADER_SIZE + nhosts * HOST_STRUCT.size


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
        capacity = _checked_capacity(self.proc, self.base, self.segment,
                                     count)
        #: the slots new hosts may take: *nhosts*, but never past the
        #: segment an attached database already has
        self.slots = min(self.nhosts, capacity)
        for slot in range(count):
            view = self._record(slot)
            self._index[view.get("hostname")] = slot

    def _record(self, slot: int):
        return HOST_STRUCT.view(
            self.mem, self.base + DB_HEADER_SIZE + slot * HOST_STRUCT.size
        )

    def receive(self, status: HostStatus) -> None:
        """Handle one broadcast: update the host's record in place."""
        key = stored_hostname(status.hostname)
        slot = self._index.get(key)
        if slot is None:
            slot = self.mem.load_u32(self.base + 4)
            if slot >= self.slots:
                raise SimulationError("rwho database full")
            self.mem.store_u32(self.base + 4, slot + 1)
            self._index[key] = slot
        users = status.users[:MAX_USERS_PER_HOST]
        values = [key, status.boot_time, status.update_time,
                  status.load_1, status.load_5, status.load_15,
                  len(users)]
        for user in users:
            values += (user.name, user.tty, user.idle_seconds)
        _ROW_WRITES[len(users)].write(self._record(slot), values)


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


def _checked_capacity(proc: Process, base: int, segment: str,
                      count: int) -> int:
    """:func:`_capacity`, or a :class:`WhodFormatError` when the
    header's host *count* claims more records than that."""
    capacity = _capacity(proc, base, segment)
    if count > capacity:
        raise WhodFormatError(
            f"{segment!r} claims {count} host(s), more than its "
            f"{capacity} record slots")
    return capacity


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
    _checked_capacity(proc, base, segment, count)
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
        row = _ROW_READS[nusers].read(view)
        cut = _USER_WIDTH * nusers
        users = [UserEntry(*row[at:at + _USER_WIDTH])
                 for at in range(0, cut, _USER_WIDTH)]
        statuses.append(HostStatus(*row[cut:], users))
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
