"""rwho: the file baseline and the shared-memory version must agree —
and the shared version must be cheaper."""

import dataclasses
import hashlib
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import boot
from repro.apps.rwho import (
    FileRwhod,
    ShmRwhod,
    file_ruptime,
    file_rwho,
    generate_network,
    shm_ruptime,
    shm_rwho,
)
from repro.apps.rwho.common import (
    MAX_USERS_PER_HOST,
    HostStatus,
    UserEntry,
    stored_hostname,
    updated_status,
)
from repro.apps.rwho.fileimpl import (
    WhodFormatError,
    pack_status,
    unpack_status,
)
from repro.apps.rwho.shmimpl import (
    DB_HEADER_SIZE,
    DB_MAGIC,
    DB_SEGMENT,
    HOST_STRUCT,
    USER_STRUCT,
    _capacity,
    db_size,
    read_database,
)
from repro.bench.workloads import make_shell
from repro.errors import SimulationError
from repro.inject import FaultKind, FaultPlan, Plane, install_injector
from repro.inject.injector import Injector
from repro.kernel import arming
from repro.net import Cluster
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem, StructView
from repro.sanitize import sanitizing
from repro.sanitize import state as san_state
from repro.trace import tracer as _trace
from repro.trace.tracer import tracing
from repro.util.rng import DeterministicRng
from repro.vm.address_space import (
    default_tlb_enabled, set_default_tlb_enabled,
)
from tests.test_views_differential import (
    SETTINGS, ordered_clock_state, outcome, tlb_state,
)


@pytest.fixture
def network():
    return generate_network(nhosts=12, seed=3)


class TestWorkload:
    def test_deterministic(self):
        a = generate_network(nhosts=5, seed=1)
        b = generate_network(nhosts=5, seed=1)
        assert [h.hostname for h in a] == [h.hostname for h in b]
        assert [h.load_1 for h in a] == [h.load_1 for h in b]

    def test_paper_network_size(self):
        assert len(generate_network()) == 65

    def test_update_preserves_identity(self):
        rng = DeterministicRng(9)
        host = generate_network(nhosts=1)[0]
        updated = updated_status(host, 60, rng)
        assert updated.hostname == host.hostname
        assert updated.boot_time == host.boot_time
        assert updated.update_time == host.update_time + 60


class TestWireFormat:
    def test_pack_unpack_roundtrip(self, network):
        for status in network:
            clone = unpack_status(pack_status(status))
            assert clone.hostname == status.hostname
            assert clone.load_1 == status.load_1
            assert len(clone.users) == len(status.users)
            for a, b in zip(clone.users, status.users):
                assert (a.name, a.tty, a.idle_seconds) == \
                    (b.name, b.tty, b.idle_seconds)


    def test_packs_at_most_the_user_cap(self):
        host = generate_network(nhosts=1)[0]
        user = UserEntry("extra", "ttyx", 5)
        crowded = HostStatus(host.hostname, host.boot_time,
                             host.update_time, host.load_1, host.load_5,
                             host.load_15, [user] * (MAX_USERS_PER_HOST + 3))
        clone = unpack_status(pack_status(crowded))
        assert len(clone.users) == MAX_USERS_PER_HOST

    def test_short_or_oversized_blob_is_a_typed_error(self, network):
        blob = pack_status(network[0])
        for bad in (b"", blob[:10], blob[:-1], blob + b"\x00"):
            with pytest.raises(WhodFormatError):
                unpack_status(bad)

    def test_slash_in_the_stored_name_is_a_typed_error(self, network):
        # pack_status refuses such a name, so no record can carry one
        blob = b"/" + pack_status(network[0])[1:]
        with pytest.raises(WhodFormatError, match="contains '/'"):
            unpack_status(blob)


_UNPACKABLE = [
    ("name", HostStatus("h", 1, 2, 3, 4, 5, [UserEntry("\u20ac", "tty", 1)])),
    ("tty", HostStatus("h", 1, 2, 3, 4, 5, [UserEntry("bob", "tty\u20ac", 1)])),
    ("boot_time", HostStatus("h", -1, 2, 3, 4, 5, [])),
    ("idle_seconds", HostStatus("h", 1, 2, 3, 4, 5,
                                [UserEntry("bob", "tty", -1)])),
    ("load_5", HostStatus("h", 1, 2, 3, 1 << 31, 5, [])),
]


class TestUnpackableRecords:
    """A status the whod format cannot hold is refused with a
    WhodFormatError naming the field, before the file daemon touches
    ``whod.<host>``."""

    @pytest.mark.parametrize("field,status", _UNPACKABLE,
                             ids=[field for field, _ in _UNPACKABLE])
    def test_pack_names_the_field(self, field, status):
        with pytest.raises(WhodFormatError, match=f"host 'h'.* {field} "):
            pack_status(status)

    @pytest.mark.parametrize("field,status", _UNPACKABLE,
                             ids=[field for field, _ in _UNPACKABLE])
    def test_refused_record_leaves_the_file_as_it_was(self, kernel, shell,
                                                      field, status):
        daemon = FileRwhod(kernel, shell)
        with pytest.raises(WhodFormatError):
            daemon.receive(status)
        assert kernel.vfs.listdir("/var/rwho") == []
        good = HostStatus("h", 1, 2, 3, 4, 5, [UserEntry("bob", "tty", 1)])
        daemon.receive(good)
        before = (kernel.vfs.read_whole("/var/rwho/whod.h"),
                  file_rwho(kernel, shell), file_ruptime(kernel, shell))
        with pytest.raises(WhodFormatError):
            daemon.receive(status)
        assert (kernel.vfs.read_whole("/var/rwho/whod.h"),
                file_rwho(kernel, shell),
                file_ruptime(kernel, shell)) == before
        assert "bob" in before[1]


def _round_trips_or_rejects(blob: bytes) -> None:
    """*blob* parses to a status that packs back to exactly *blob*, or
    is refused with a SimulationError subclass."""
    try:
        status = unpack_status(blob)
    except SimulationError:
        return
    assert pack_status(status) == blob


class TestMutatedRecords:
    """Every 1-3 byte mutant or truncation of a packed whod record is an
    exact round trip or a typed error, never a raw struct.error or
    UnicodeDecodeError."""

    BLOBS = [pack_status(status)
             for status in generate_network(nhosts=6, seed=3)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutation_property(self, data):
        blob = bytearray(data.draw(st.sampled_from(self.BLOBS),
                                   label="record"))
        for _ in range(data.draw(st.integers(1, 3), label="count")):
            index = data.draw(st.integers(0, len(blob) - 1),
                              label="index")
            blob[index] = data.draw(st.integers(0, 255), label="byte")
        cut = data.draw(st.none() | st.integers(0, len(blob)),
                        label="truncate at")
        _round_trips_or_rejects(bytes(blob[:cut]))

    def test_seeded_mutants(self):
        rng = DeterministicRng(1993)
        kept = 0
        for _ in range(2000):
            blob = bytearray(self.BLOBS[rng.randint(0, 5)])
            for _ in range(rng.randint(1, 3)):
                blob[rng.randint(0, len(blob) - 1)] = rng.randint(0, 255)
            if rng.randint(0, 4) == 0:
                blob = blob[:rng.randint(0, len(blob))]
            try:
                status = unpack_status(bytes(blob))
            except SimulationError:
                continue
            assert pack_status(status) == blob
            kept += 1
        assert 0 < kept < 2000


class TestEquivalence:
    def test_rwho_outputs_identical(self, kernel, shell, network):
        file_daemon = FileRwhod(kernel, shell)
        shm_daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in network:
            file_daemon.receive(status)
            shm_daemon.receive(status)
        assert file_rwho(kernel, shell) == shm_rwho(kernel, shell)
        assert file_ruptime(kernel, shell) == shm_ruptime(kernel, shell)

    def test_long_hostnames_are_cut_alike(self, kernel, shell, network):
        """Two 36-character hosts that share a 35-character prefix
        agree in their first 31 bytes, the part both daemons keep: each
        implementation holds one record for the pair, under one name."""
        pair = [dataclasses.replace(network[index],
                                    hostname="a" * 35 + str(index))
                for index in (1, 2)]
        file_daemon = FileRwhod(kernel, shell)
        shm_daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in pair:
            file_daemon.receive(status)
            shm_daemon.receive(status)
        assert file_rwho(kernel, shell) == shm_rwho(kernel, shell)
        assert file_ruptime(kernel, shell) == shm_ruptime(kernel, shell)
        assert file_ruptime(kernel, shell).split()[0] == "a" * 31
        assert kernel.vfs.listdir("/var/rwho") == ["whod." + "a" * 31]

    def test_slash_in_hostname_is_refused_alike(self, kernel, shell,
                                                network):
        """``lab/cs01`` could not name one ``whod.<host>`` file, so both
        daemons refuse it before either writes anything."""
        status = dataclasses.replace(network[0], hostname="lab/cs01")
        file_daemon = FileRwhod(kernel, shell)
        shm_daemon = ShmRwhod(kernel, shell, nhosts=len(network))

        def snapshot():
            return (kernel.vfs.listdir("/var/rwho"),
                    kernel.vfs.read_whole(DB_SEGMENT))

        before = snapshot()
        for daemon in (file_daemon, shm_daemon):
            with pytest.raises(WhodFormatError, match="contains '/'"):
                daemon.receive(status)
        assert snapshot() == before

    def test_slash_past_the_cut_is_kept_alike(self, kernel, shell,
                                              network):
        """A ``/`` beyond the 31 bytes both daemons keep is cut away."""
        status = dataclasses.replace(network[0],
                                     hostname="b" * 31 + "/cs01")
        file_daemon = FileRwhod(kernel, shell)
        shm_daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        file_daemon.receive(status)
        shm_daemon.receive(status)
        assert file_rwho(kernel, shell) == shm_rwho(kernel, shell)
        assert file_ruptime(kernel, shell) == shm_ruptime(kernel, shell)
        assert kernel.vfs.listdir("/var/rwho") == ["whod." + "b" * 31]

    def test_update_in_place(self, kernel, shell, network):
        daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in network:
            daemon.receive(status)
        rng = DeterministicRng(4)
        refreshed = updated_status(network[0], 60, rng)
        daemon.receive(refreshed)
        records = read_database(kernel, shell)
        assert len(records) == len(network)  # no duplicate slot
        by_name = {r.hostname: r for r in records}
        assert by_name[network[0].hostname].update_time == \
            refreshed.update_time

    def test_database_survives_daemon_restart(self, kernel, shell,
                                              network):
        daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in network:
            daemon.receive(status)
        # A "restarted" daemon attaches to the existing segment.
        daemon2 = ShmRwhod(kernel, shell, nhosts=len(network))
        assert daemon2.base == daemon.base
        rng = DeterministicRng(4)
        daemon2.receive(updated_status(network[1], 60, rng))
        assert len(read_database(kernel, shell)) == len(network)

    def test_user_count_past_the_slots_is_a_typed_error(self, kernel,
                                                         shell, network):
        """A record claiming more users than its inline slots would be
        read on into the next host's record; the reader refuses it
        with the error the file format's parser raises."""
        daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in network:
            daemon.receive(status)
        record = HOST_STRUCT.view(Mem(kernel, shell),
                                  daemon.base + DB_HEADER_SIZE)
        record.set("nusers", MAX_USERS_PER_HOST)
        assert len(read_database(kernel, shell)[0].users) == \
            MAX_USERS_PER_HOST
        record.set("nusers", MAX_USERS_PER_HOST + 5)
        with pytest.raises(WhodFormatError, match="claims 9 user"):
            read_database(kernel, shell)

    def test_host_count_past_the_segment_is_a_typed_error(self, kernel,
                                                          shell, network):
        """A header claiming more hosts than the segment has slots for
        would decode the zeroed bytes past the last slot as hosts and
        then fault at the segment's end; the reader refuses it."""
        daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in network[:4]:
            daemon.receive(status)
        mem = Mem(kernel, shell)
        mem.store_u32(daemon.base + 4, len(network))  # every slot
        assert len(read_database(kernel, shell)) == len(network)
        for count in (len(network) + 1, 1000):
            mem.store_u32(daemon.base + 4, count)
            with pytest.raises(WhodFormatError,
                               match=f"claims {count} host"):
                read_database(kernel, shell)

    def test_long_hostname_keeps_its_slot_after_a_restart(self, kernel,
                                                          shell, network):
        """A record keeps 31 bytes of a hostname, and a restarted daemon
        indexes the names it reads back; a longer name must find its
        slot again instead of taking a second one."""
        status = dataclasses.replace(network[0], hostname="h" * 40)
        daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        daemon.receive(status)
        daemon.receive(status)
        restarted = ShmRwhod(kernel, shell, nhosts=len(network))
        refreshed = updated_status(status, 60, DeterministicRng(4))
        restarted.receive(refreshed)
        records = read_database(kernel, shell)
        assert [record.hostname for record in records] == ["h" * 31]
        assert records[0].update_time == refreshed.update_time

    def test_restart_with_more_hosts_stays_in_the_segment(self, kernel,
                                                          shell, network):
        """A restarted daemon given a larger *nhosts* than the segment
        it attaches to has room for refuses a new host once the
        segment is full, before the header counts it, so the database
        stays readable."""
        daemon = ShmRwhod(kernel, shell, nhosts=4)
        for status in network[:4]:
            daemon.receive(status)
        restarted = ShmRwhod(kernel, shell, nhosts=40)
        restarted.receive(updated_status(network[0], 60,
                                         DeterministicRng(4)))
        for status in network[4:]:
            with pytest.raises(SimulationError,
                               match="rwho database full"):
                restarted.receive(status)
        records = read_database(kernel, shell)
        assert [record.hostname for record in records] == \
            [status.hostname for status in network[:4]]
        assert len(kernel.vfs.read_whole(DB_SEGMENT)) == db_size(4)

    @pytest.mark.parametrize("count", [5, 28, 1000])
    def test_attach_refuses_a_host_count_past_the_segment(self, kernel,
                                                          shell, network,
                                                          count):
        """A restarted daemon reads the header the reader checks, and
        refuses a count its segment has no slots for with the reader's
        error instead of indexing the bytes past the last slot."""
        daemon = ShmRwhod(kernel, shell, nhosts=4)
        for status in network[:4]:
            daemon.receive(status)
        Mem(kernel, shell).store_u32(daemon.base + 4, count)
        message = f"claims {count} host\\(s\\), more than its 4 record"
        with pytest.raises(WhodFormatError, match=message):
            read_database(kernel, shell)
        with pytest.raises(WhodFormatError, match=message):
            ShmRwhod(kernel, shell, nhosts=40)

    def test_reader_in_other_process(self, kernel, shell, network):
        from repro.bench.workloads import make_shell

        daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in network:
            daemon.receive(status)
        reader = make_shell(kernel, "reader")
        assert shm_rwho(kernel, reader) == shm_rwho(kernel, shell)


class TestCosts:
    def test_shared_query_cheaper_than_files(self, kernel, shell):
        """The headline claim: rwho against the shared database beats
        rwho against 65 files."""
        network = generate_network(nhosts=65)
        file_daemon = FileRwhod(kernel, shell)
        shm_daemon = ShmRwhod(kernel, shell, nhosts=65)
        for status in network:
            file_daemon.receive(status)
            shm_daemon.receive(status)

        start = kernel.clock.snapshot()
        file_rwho(kernel, shell)
        file_cycles = kernel.clock.snapshot() - start

        start = kernel.clock.snapshot()
        shm_rwho(kernel, shell)
        shm_cycles = kernel.clock.snapshot() - start

        assert shm_cycles < file_cycles / 5

    def test_shared_update_cheaper_than_rewrite(self, kernel, shell):
        network = generate_network(nhosts=20)
        file_daemon = FileRwhod(kernel, shell)
        shm_daemon = ShmRwhod(kernel, shell, nhosts=20)
        for status in network:  # warm both
            file_daemon.receive(status)
            shm_daemon.receive(status)
        rng = DeterministicRng(8)

        start = kernel.clock.snapshot()
        for status in network:
            file_daemon.receive(updated_status(status, 60, rng))
        file_cycles = kernel.clock.snapshot() - start

        start = kernel.clock.snapshot()
        for status in network:
            shm_daemon.receive(updated_status(status, 60, rng))
        shm_cycles = kernel.clock.snapshot() - start

        assert shm_cycles < file_cycles


class TestDaemonProcesses:
    """rwhod running as a real process, fed by a message-queue network."""

    def test_daemon_processes_broadcasts(self, kernel, network):
        from repro.apps.rwho.daemon import run_network

        received = run_network(kernel, network, "shm")
        assert received == len(network)
        assert shm_rwho(kernel,
                        kernel.create_native_process("u", _noop_body))

    def test_both_daemons_agree(self, kernel, network):
        from repro.apps.rwho.daemon import run_network
        from repro.bench.workloads import make_shell

        run_network(kernel, network, "file")
        run_network(kernel, network, "shm")
        user = make_shell(kernel, "user")
        assert file_rwho(kernel, user) == shm_rwho(kernel, user)
        assert file_ruptime(kernel, user) == shm_ruptime(kernel, user)

    def test_daemon_handles_interleaved_rounds(self, kernel, network):
        from repro.apps.rwho.daemon import run_network
        from repro.apps.rwho.common import updated_status
        from repro.apps.rwho.shmimpl import read_database
        from repro.bench.workloads import make_shell
        from repro.util.rng import DeterministicRng

        rng = DeterministicRng(6)
        rounds = list(network)
        for status in network:
            rounds.append(updated_status(status, 60, rng))
        received = run_network(kernel, rounds, "shm")
        assert received == len(rounds)
        user = make_shell(kernel, "user")
        records = read_database(kernel, user)
        assert len(records) == len(network)  # updates, not duplicates


def _noop_body(_kernel, _proc):
    return
    yield


# ----------------------------------------------------------------------
# the on-segment format: the compiled rows keep every byte in place
# ----------------------------------------------------------------------

class TestLayout:
    def test_host_record_offsets(self):
        offsets = {"hostname": 0, "boot_time": 32, "update_time": 36,
                   "load_1": 40, "load_5": 44, "load_15": 48,
                   "nusers": 52}
        for slot in range(MAX_USERS_PER_HOST):
            for name, delta in (("name", 0), ("tty", 12), ("idle", 20)):
                offsets[f"user{slot}_{name}"] = 56 + 24 * slot + delta
        assert HOST_STRUCT.size == 152
        assert HOST_STRUCT.offsets == offsets
        assert USER_STRUCT.size == 24

    def test_segment_bytes_of_a_received_network(self, kernel, shell,
                                                 network):
        daemon = ShmRwhod(kernel, shell, nhosts=len(network))
        for status in network:
            daemon.receive(status)
        data = kernel.vfs.read_whole(DB_SEGMENT)
        assert len(data) == db_size(12) == 1832
        assert hashlib.sha256(data).hexdigest() == (
            "a98e98bb07be311872e198ce3098378e"
            "4495d427a55a16abecd55e16bf46e27b")


# ----------------------------------------------------------------------
# the compiled host rows against the per-record sequence
# ----------------------------------------------------------------------

#: the first inline user slot of a host record
USERS_AT = HOST_STRUCT.offsets["user0_name"]


def per_record_receive(daemon, status):
    """``ShmRwhod.receive`` as the per-record sequence: one update of
    the host fields and nusers, then one ``USER_STRUCT`` update per
    kept user."""
    key = stored_hostname(status.hostname)
    slot = daemon._index.get(key)
    if slot is None:
        slot = daemon.mem.load_u32(daemon.base + 4)
        if slot >= daemon.slots:
            raise SimulationError("rwho database full")
        daemon.mem.store_u32(daemon.base + 4, slot + 1)
        daemon._index[key] = slot
    view = daemon._record(slot)
    view.update(hostname=key, boot_time=status.boot_time,
                update_time=status.update_time, load_1=status.load_1,
                load_5=status.load_5, load_15=status.load_15,
                nusers=min(len(status.users), MAX_USERS_PER_HOST))
    for index, user in enumerate(status.users[:MAX_USERS_PER_HOST]):
        USER_STRUCT.view(
            daemon.mem, view.address + USERS_AT + index * USER_STRUCT.size
        ).update(name=user.name, tty=user.tty, idle=user.idle_seconds)


def per_record_read(kernel, proc):
    """``read_database`` as the per-record sequence: per host, the
    nusers load, one ``get_many`` per user, then the host's."""
    mem = Mem(kernel, proc)
    base = runtime_for(kernel, proc).segment_base(DB_SEGMENT)
    if mem.load_u32(base) != DB_MAGIC:
        raise SimulationError(f"{DB_SEGMENT!r} is not an rwho database")
    count = mem.load_u32(base + 4)
    capacity = _capacity(proc, base, DB_SEGMENT)
    if count > capacity:
        raise WhodFormatError(
            f"{DB_SEGMENT!r} claims {count} host(s), more than its "
            f"{capacity} record slots")
    statuses = []
    for slot in range(count):
        view = HOST_STRUCT.view(
            mem, base + DB_HEADER_SIZE + slot * HOST_STRUCT.size)
        nusers = view.get("nusers")
        if nusers > MAX_USERS_PER_HOST:
            raise WhodFormatError(
                f"{DB_SEGMENT!r} record {slot} claims {nusers} user(s), "
                f"more than its {MAX_USERS_PER_HOST} slots")
        users = [
            UserEntry(*USER_STRUCT.view(
                mem, view.address + USERS_AT + index * USER_STRUCT.size
            ).get_many("name", "tty", "idle"))
            for index in range(nusers)
        ]
        statuses.append(HostStatus(
            *view.get_many("hostname", "boot_time", "update_time",
                           "load_1", "load_5", "load_15"),
            users))
    return statuses


def sides(reference):
    """(receive, read) of the per-record sequence or of the code."""
    if reference:
        return per_record_receive, per_record_read
    return ShmRwhod.receive, read_database


def filler(index):
    """A host that takes slot *index* ahead of the drawn ones."""
    return HostStatus(f"filler{index}", 1, 2, 3, 4, 5,
                      [UserEntry("f", "tty", index)])


#: slot 26 (bytes 3960-4111 of the segment) straddles its first page
ROW_SLOTS = st.sampled_from([0, 25, 26, 27])
ROW_NHOSTS = 32
U32 = st.integers(0, 2**32 - 1)
I32 = st.integers(-2**31, 2**31 - 1)
#: "€" is not latin-1: the write refuses it mid-row
USER = st.builds(UserEntry,
                 st.sampled_from(["alice", "bob", "carol" * 3, "€"]),
                 st.sampled_from(["tty0", "console", "pts/10"]), U32)
#: two letters, so that names of 32 and 40 bytes share a stored name
HOSTNAME = st.builds(lambda letter, length: letter * length,
                     st.sampled_from("pq"), st.sampled_from([0, 31, 32, 40]))
STATUS = st.builds(HostStatus, HOSTNAME, U32, U32, I32, I32, I32,
                   st.lists(USER, max_size=6))
STATUSES = st.lists(STATUS, min_size=1, max_size=4)
#: a full row in the straddling slot, its third user refused mid-row
FULL_ROW = [HostStatus("q" * 40, 1, 2, -3, 4, 5,
                       [UserEntry("alice", "tty0", 1),
                        UserEntry("bob", "tty1", 2),
                        UserEntry("€", "tty2", 3),
                        UserEntry("carol", "tty3", 4)]),
            HostStatus("p" * 31, 6, 7, 8, 9, 10,
                       [UserEntry(f"u{index}", "tty", index)
                        for index in range(5)])]


def logged_decisions(decisions):
    """``Injector._decide`` that also logs each decision site."""
    decide = Injector._decide

    def logged(self, plane, site, subject, pid, kinds=None, addr=0):
        state = decide(self, plane, site, subject, pid, kinds, addr)
        decisions.append((plane.value, site, subject, pid, addr,
                          state is not None))
        return state

    return logged


def own_sanitizer(env):
    """A fresh sanitizer for one twin under the ``sanitizer`` env, or
    under one armed process-wide (``REPRO_SAN=1``), which would number
    and track the twins' kernels as one machine; else nothing."""
    if env == "sanitizer" or san_state.ACTIVE is not None:
        return sanitizing()
    return nullcontext()


def run_rows(statuses, slot, env, reference, plan=(0, 0.0), core=None):
    """A daemon receives *statuses* after *slot* fillers, so that the
    first new host lands in that slot, and a reader in another process
    reads the database twice; then the same again. *env* is ``plain``,
    ``tlb_off`` (``REPRO_TLB=0``), ``injector`` (a spurious-VMFAULT
    plan, *plan* its (seed, probability)), ``sanitizer`` or ``smp``
    (four cores, the clock charging *core*)."""
    receive, read = sides(reference)
    decisions = []
    tlb = default_tlb_enabled()
    set_default_tlb_enabled(env != "tlb_off")
    try:
        with own_sanitizer(env) as sanitizer, tracing(), mock.patch.object(
                Injector, "_decide", logged_decisions(decisions)):
            kernel = boot(ncores=4 if env == "smp" else None).kernel
            owner = make_shell(kernel, "rwhod")
            daemon = ShmRwhod(kernel, owner, nhosts=ROW_NHOSTS)
            for index in range(slot):
                receive(daemon, filler(index))
            reader = make_shell(kernel, "reader")
            if env == "injector":
                install_injector(kernel, [FaultPlan(
                    Plane.VMFAULT, FaultKind.SPURIOUS,
                    probability=plan[1])], seed=plan[0])
            clock = kernel.clock
            results = []
            clock.current_core = core
            try:
                for _ in range(2):
                    for status in statuses:
                        results.append(outcome(
                            lambda: receive(daemon, status)))
                    for _ in range(2):
                        results.append(outcome(
                            lambda: read(kernel, reader)))
            finally:
                clock.current_core = None
            events = _trace.TRACER.events()
    finally:
        set_default_tlb_enabled(tlb)
    checked = None if env != "sanitizer" \
        else tuple(vars(sanitizer.stats).values())
    state = (results, ordered_clock_state(clock),
             tlb_state(owner.address_space),
             tlb_state(reader.address_space), events, decisions, checked)
    return state + (kernel.vfs.read_whole(DB_SEGMENT),)


def run_cluster_rows(statuses, slot, reference):
    """The daemon on node 0 of a two-node cluster, the reader on node
    1, whose copies of the segment's pages the daemon's next round
    invalidates; each round's daemon attaches to the database."""
    receive, read = sides(reference)
    results = []

    def serve(kernel, proc):
        first = not kernel.vfs.exists(DB_SEGMENT, proc.uid)
        daemon = ShmRwhod(kernel, proc, nhosts=ROW_NHOSTS)
        if first:
            for index in range(slot):
                receive(daemon, filler(index))
        for status in statuses:
            results.append(outcome(lambda: receive(daemon, status)))
        results.append(tlb_state(proc.address_space))
        yield
        return 0

    def look(kernel, proc):
        for _ in range(2):
            results.append(outcome(lambda: read(kernel, proc)))
        results.append(tlb_state(proc.address_space))
        yield
        return 0

    with own_sanitizer("cluster"), tracing():
        cluster = Cluster(2, seed=7)
        for _ in range(2):
            cluster.spawn(0, "rwhod", serve)
            cluster.run()
            cluster.spawn(1, "reader", look)
            cluster.run()
        events = _trace.TRACER.events()
    state = (results,
             [ordered_clock_state(machine.kernel.clock)
              for machine in cluster.machines],
             cluster.coherence_stats(), events,
             cluster.machines[0].kernel.vfs.read_whole(DB_SEGMENT))
    cluster.shutdown()
    return state


def same_rows(statuses, slot, env, **options):
    fast = run_rows(statuses, slot, env, False, **options)
    assert fast == run_rows(statuses, slot, env, True, **options)
    return fast


class TestRowAccess:
    """``ShmRwhod.receive`` and ``read_database`` access a host row
    through one compiled record; they must leave the simulation exactly
    as the per-record sequence does: every value and error, the
    segment's bytes, the clock (category order included), the TLB
    counters, the trace events and the injector's decision sites."""

    @settings(max_examples=30, **SETTINGS)
    @given(STATUSES, ROW_SLOTS)
    @example(FULL_ROW, 26)
    def test_plain(self, statuses, slot):
        same_rows(statuses, slot, "plain")

    @settings(max_examples=10, **SETTINGS)
    @given(STATUSES, ROW_SLOTS)
    def test_with_the_tlb_off(self, statuses, slot):
        same_rows(statuses, slot, "tlb_off")

    @settings(max_examples=10, **SETTINGS)
    @given(STATUSES, ROW_SLOTS, st.integers(0, 2**16),
           st.floats(0.0, 0.3))
    @example(FULL_ROW, 26, 0, 0.0)
    def test_injector_sees_the_same_sites(self, statuses, slot, seed,
                                          probability):
        fast = same_rows(statuses, slot, "injector",
                         plan=(seed, probability))
        assert fast[5]  # the injector decided at every access

    @settings(max_examples=8, **SETTINGS)
    @given(STATUSES, ROW_SLOTS)
    def test_sanitizer_sees_every_access(self, statuses, slot):
        fast = same_rows(statuses, slot, "sanitizer")
        assert fast[6][0] > 0  # the sanitizer checked accesses

    @settings(max_examples=10, **SETTINGS)
    @given(STATUSES, ROW_SLOTS, st.integers(0, 3))
    def test_on_a_core_of_four(self, statuses, slot, core):
        same_rows(statuses, slot, "smp", core=core)

    @settings(max_examples=5, **SETTINGS)
    @given(STATUSES, ROW_SLOTS)
    def test_reader_on_another_node(self, statuses, slot):
        fast = run_cluster_rows(statuses, slot, False)
        assert fast == run_cluster_rows(statuses, slot, True)

    @pytest.mark.parametrize("slot", [0, 26])
    def test_a_refused_user_name_leaves_the_users_before_it(self, slot):
        """A name that is not latin-1 is refused mid-row: the host and
        the users before it are written and charged, and the read
        sees them and the empty slots after them."""
        status = HostStatus("p" * 31, 7, 8, 9, 10, 11,
                            [UserEntry("alice", "tty0", 1),
                             UserEntry("€", "tty1", 2),
                             UserEntry("bob", "tty2", 3)])
        fast = same_rows([status], slot, "plain")
        assert fast[0][0] == ("error", "SimulationError",
                              "'€' is not latin-1 text: ordinal "
                              "not in range(256)")
        record = fast[0][1][1][slot]
        assert record.users == [UserEntry("alice", "tty0", 1),
                                UserEntry("", "", 0), UserEntry("", "", 0)]

    def test_a_warm_row_is_one_compiled_access(self, network):
        """With the TLB on and no plane armed, a row takes no per-field
        ``set`` on the daemon's side and only the nusers ``get`` on the
        reader's."""
        tlb = default_tlb_enabled()
        set_default_tlb_enabled(True)
        try:
            with arming.suspended():
                kernel = boot().kernel
            shell = make_shell(kernel)
            daemon = ShmRwhod(kernel, shell, nhosts=len(network))
            for status in network:  # maps the segment, fills the TLB
                daemon.receive(status)
            with mock.patch.object(StructView, "set",
                                   side_effect=AssertionError("set")):
                for status in network:
                    daemon.receive(status)
            read_database(kernel, shell)
            with mock.patch.object(StructView, "get", autospec=True,
                                   side_effect=StructView.get) as get:
                records = read_database(kernel, shell)
        finally:
            set_default_tlb_enabled(tlb)
        assert [call.args[1] for call in get.call_args_list] == \
            ["nusers"] * len(network)
        assert [record.hostname for record in records] == \
            [status.hostname for status in network]
