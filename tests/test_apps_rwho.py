"""rwho: the file baseline and the shared-memory version must agree —
and the shared version must be cheaper."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    updated_status,
)
from repro.apps.rwho.fileimpl import (
    WhodFormatError,
    pack_status,
    unpack_status,
)
from repro.apps.rwho.shmimpl import (
    DB_HEADER_SIZE,
    DB_SEGMENT,
    HOST_STRUCT,
    read_database,
)
from repro.errors import SimulationError
from repro.runtime.views import Mem
from repro.util.rng import DeterministicRng


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
