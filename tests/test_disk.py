"""repro.disk: the durable block store, journal, recovery, and fsck.

The acceptance heart is :class:`TestCrashMatrix`: a scripted workload
of 50+ journaled metadata operations is crashed at *every* journal
record boundary; every surviving image must pass ``reprofsck`` with
zero findings, remount, and reopen every public segment by address —
and a second identically-seeded run must recover bit-identically.
"""

from __future__ import annotations

import functools
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.disk import (
    BlockDevice,
    crash_points,
    fsck,
    run_crash_matrix,
    scripted_workload,
    verify_segments,
)
from repro.disk.blockdev import BLOCK_SIZE
from repro.disk.codec import MAX_DEPTH, decode_fields, encode_fields
from repro.disk.fsck import _check_addrmap, _check_sfs, _check_tree, \
    _scratch_volume
from repro.disk.image import serialize_volume
from repro.disk.journal import HEADER_SIZE, REC_OP, _HEADER, \
    _pack_record, scan_journal
from repro.disk.mount import _SUPER_HEAD, compute_geometry, \
    pack_superblock, read_checkpoint_blob, read_superblock
from repro.analyze.report import Report
from repro.errors import (
    DiskCrashedError,
    DiskError,
    DiskFormatError,
    DiskFullError,
    FileExistsSimError,
    FileNotFoundSimError,
    SimulationError,
)


def mount(device):
    return repro.boot(disk=device)


def tree_digest(kernel) -> str:
    """A canonical rendering of both volumes' durable state."""
    return repr([serialize_volume(kernel.vfs.filesystem_at("/")),
                 serialize_volume(kernel.sfs)])


# ---------------------------------------------------------------------------
# the block device
# ---------------------------------------------------------------------------


class TestBlockDevice:
    def test_write_read_and_zero_default(self):
        device = BlockDevice(nblocks=64, seed=1)
        assert device.read(7) == b"\0" * BLOCK_SIZE
        device.write(7, b"hello")
        assert device.read(7).startswith(b"hello\0")

    def test_out_of_range_rejected(self):
        device = BlockDevice(nblocks=64)
        with pytest.raises(DiskError):
            device.read(64)
        with pytest.raises(DiskError):
            device.write(-1, b"")

    def test_barrier_makes_pending_durable(self):
        device = BlockDevice(nblocks=64, seed=1, window=8)
        device.write(3, b"volatile")
        assert device.reopen().read(3).startswith(b"volatile")  # handover
        device2 = BlockDevice(nblocks=64, seed=1, window=8)
        device2.write(3, b"volatile")
        device2.crash()  # window resolves under the seed
        device2.write(4, b"after death")
        assert device2.dropped_writes >= 1
        assert device2.reopen().read(4) == b"\0" * BLOCK_SIZE

    def test_crash_is_seed_deterministic(self):
        def run(seed):
            device = BlockDevice(nblocks=64, seed=seed, window=16)
            for index in range(10):
                device.write(index, bytes([index + 1]) * 32)
            device.crash()
            return [device.read(index) for index in range(10)]

        assert run(7) == run(7)
        # With 10 pending writes at p=0.5 each, seeds differ somewhere.
        assert any(run(7)[i] != run(8)[i] for i in range(10))

    def test_crashed_device_refuses_mount(self):
        device = BlockDevice(nblocks=64)
        device.crash()
        with pytest.raises(DiskCrashedError):
            device.require_alive()

    def test_save_load_round_trip(self, tmp_path):
        device = BlockDevice(nblocks=64, seed=3)
        device.write(5, b"persisted")
        device.barrier()
        path = str(tmp_path / "image.hdsk")
        device.save(path)
        loaded = BlockDevice.load(path)
        assert loaded.nblocks == 64
        assert loaded.read(5).startswith(b"persisted")

    def test_load_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "bad.hdsk")
        with open(path, "wb") as handle:
            handle.write(b"not a device image at all")
        with pytest.raises(DiskError):
            BlockDevice.load(path)

    def test_state_after_requires_history(self):
        plain = BlockDevice(nblocks=64)
        with pytest.raises(DiskError):
            plain.state_after(0)
        recording = BlockDevice(nblocks=64, record_history=True)
        recording.write(2, b"first")
        recording.write(2, b"second")
        assert recording.state_after(1).read(2).startswith(b"first")
        assert recording.state_after(2).read(2).startswith(b"second")


# ---------------------------------------------------------------------------
# journal scan: commit prefixes, torn tails, stale generations
# ---------------------------------------------------------------------------


class TestJournalScan:
    def _armed(self, nblocks=256, seed=2):
        device = BlockDevice(nblocks=nblocks, seed=seed)
        system = mount(device)
        return device, system

    def _geometry(self, device):
        return compute_geometry(device.nblocks)

    def test_committed_transactions_scan_in_order(self):
        device, system = self._armed()
        system.vfs.mkdir("/shared/a")
        system.vfs.mkdir("/shared/b")
        store = system.kernel.disk
        geo = self._geometry(device)
        scan = scan_journal(device.reopen(), geo.journal_start,
                           geo.journal_blocks, store.generation)
        assert [op for _txid, ops in scan.committed
                for _vol, op, _args in ops] == ["mkdir", "mkdir"]
        txids = [txid for txid, _ops in scan.committed]
        assert txids == sorted(txids)
        assert not scan.malformed and not scan.discarded_records

    def test_torn_tail_is_discarded_not_damage(self):
        device, system = self._armed()
        system.vfs.mkdir("/shared/a")
        journal = system.kernel.disk.journal
        # Hand-write a BEGIN+OP with no COMMIT: an interrupted txn.
        journal._write_record(1, 999, b"", "torn")
        journal._write_record(
            REC_OP, 999,
            encode_fields(["sfs", "mkdir", 2, "ghost", 0, 0o755, 77]),
            "torn")
        device.barrier()
        geo = self._geometry(device)
        scan = scan_journal(device.reopen(), geo.journal_start,
                           geo.journal_blocks,
                           system.kernel.disk.generation, deep=True)
        assert scan.discarded_records == 2
        assert scan.uncommitted_txid == 999
        assert not scan.mid_corruption
        # The committed prefix is unaffected.
        assert any(op == "mkdir" and args[1] == "a"
                   for _t, ops in scan.committed
                   for _v, op, args in ops)

    def test_stale_generation_ignored_after_checkpoint(self):
        device, system = self._armed()
        system.vfs.mkdir("/shared/old")
        generation = system.kernel.disk.generation
        system.kernel.sync()  # checkpoint: bumps the generation
        assert system.kernel.disk.generation == generation + 1
        geo = self._geometry(device)
        scan = scan_journal(device.reopen(), geo.journal_start,
                           geo.journal_blocks,
                           system.kernel.disk.generation)
        assert scan.records == []  # old-gen records are stale, not read

    def test_mid_stream_corruption_detected_by_deep_scan(self):
        device, system = self._armed()
        for index in range(4):
            system.vfs.mkdir(f"/shared/d{index}")
        system.kernel.crash()
        survivor = device.reopen()
        geo = self._geometry(device)
        # Zap the first record block: the scan now tears at record 0,
        # but valid records remain beyond it.
        survivor._blocks[geo.journal_start] = b"\xde\xad" * 256
        scan = scan_journal(survivor, geo.journal_start,
                           geo.journal_blocks,
                           system.kernel.disk.generation, deep=True)
        assert scan.committed == []
        assert scan.mid_corruption


# ---------------------------------------------------------------------------
# mount / recovery round trips
# ---------------------------------------------------------------------------


class TestMountRoundTrip:
    def test_clean_shutdown_and_remount(self):
        device = BlockDevice(nblocks=2048, seed=5)
        system = mount(device)
        system.vfs.makedirs("/shared/deep/dir")
        system.vfs.write_whole("/shared/deep/dir/seg", b"abc" * 100)
        system.vfs.symlink("deep/dir/seg", "/shared/alias")
        system.vfs.makedirs("/work")
        system.vfs.write_whole("/work/notes", b"root volume too")
        system.kernel.shutdown()

        system2 = mount(device.reopen())
        assert system2.vfs.read_whole("/shared/deep/dir/seg") \
            == b"abc" * 100
        assert system2.vfs.read_whole("/shared/alias") == b"abc" * 100
        assert system2.vfs.read_whole("/work/notes") == b"root volume too"
        recovery = system2.kernel.recovery
        assert recovery.clean
        assert recovery.replayed_txns == 0
        assert verify_segments(system2.kernel) == []

    def test_crash_recovery_replays_the_journal(self):
        device = BlockDevice(nblocks=2048, seed=5)
        system = mount(device)
        system.vfs.write_whole("/shared/seg", b"committed")
        system.vfs.mkdir("/shared/dir")
        system.vfs.rename("/shared/seg", "/shared/dir/seg")
        system.kernel.crash()  # no checkpoint: only the journal survives

        system2 = mount(device.reopen())
        recovery = system2.kernel.recovery
        assert not recovery.clean
        assert recovery.replayed_txns >= 3
        assert system2.vfs.read_whole("/shared/dir/seg") == b"committed"
        assert not system2.vfs.exists("/shared/seg")
        assert "recovered_txns=" in system2.kernel.stats()

    def test_replay_is_idempotent(self):
        device = BlockDevice(nblocks=2048, seed=5)
        system = mount(device)
        for index in range(8):
            system.vfs.write_whole(f"/shared/seg{index}",
                                   bytes([index]) * 64)
        system.kernel.crash()

        survivor = device.reopen()
        first = mount(survivor)
        digest = tree_digest(first.kernel)
        assert first.kernel.recovery.replayed_txns > 0
        first.kernel.shutdown()

        second = mount(survivor.reopen())
        assert second.kernel.recovery.replayed_txns == 0
        assert tree_digest(second.kernel) == digest

    def test_segments_reopen_by_address_across_reboot(self):
        device = BlockDevice(nblocks=2048, seed=5)
        system = mount(device)
        system.vfs.write_whole("/shared/one", b"first segment")
        system.vfs.write_whole("/shared/two", b"second segment")
        address = system.kernel.sfs.address_of_inode(
            system.vfs.resolve("/shared/one")[1].number)
        system.kernel.crash()

        system2 = mount(device.reopen())
        assert verify_segments(system2.kernel) == []
        inode, offset = system2.kernel.sfs.inode_of_address(address)
        assert offset == 0
        assert inode.memobj.read(0, inode.size) == b"first segment"

    def test_journal_full_triggers_checkpoint(self):
        device = BlockDevice(nblocks=256, seed=9)  # tiny journal region
        system = mount(device)
        generation = system.kernel.disk.generation
        for index in range(60):
            system.vfs.write_whole(f"/shared/f{index}", b"x" * 700)
            system.vfs.unlink(f"/shared/f{index}")
        system.vfs.write_whole("/shared/last", b"still here")
        assert system.kernel.disk.generation > generation  # checkpointed
        system.kernel.crash()
        system2 = mount(device.reopen())
        assert system2.vfs.read_whole("/shared/last") == b"still here"
        assert fsck(device.reopen()).report.codes() == []

    def test_file_past_the_slot_is_a_typed_refusal(self):
        """A sparse file whose last byte lies far beyond what a slot
        can hold: the checkpoint refuses before reading the file."""
        device = BlockDevice(nblocks=2048, seed=5)
        system = mount(device)
        system.vfs.write_whole("/far", b"head")
        root_fs, inode = system.vfs.resolve("/far")
        root_fs.write_file(inode, 1 << 40, b"tail")
        with pytest.raises(DiskFullError):
            system.kernel.sync()

    def test_mapped_store_mutations_persist_via_checkpoint(self):
        """Page-level writes through mapped segments bypass the journal
        (the paper's segments are mapped, not written through a file
        API) — sync() makes them durable wholesale."""
        device = BlockDevice(nblocks=2048, seed=5)
        system = mount(device)
        system.vfs.write_whole("/shared/seg", b"AAAA")
        _fs, inode = system.vfs.resolve("/shared/seg")
        inode.memobj.write(0, b"BBBB")  # a mapped-page store
        system.kernel.sync()
        system.kernel.crash()
        system2 = mount(device.reopen())
        assert system2.vfs.read_whole("/shared/seg") == b"BBBB"

    def test_blank_too_small_device_rejected(self):
        with pytest.raises(DiskError):
            mount(BlockDevice(nblocks=16))

    def test_structurally_damaged_journal_refuses_mount(self):
        device = BlockDevice(nblocks=2048, seed=5)
        system = mount(device)
        journal = system.kernel.disk.journal
        # An OP record with no BEGIN: structural damage, not a tear.
        journal._write_record(
            REC_OP, 424242,
            encode_fields(["sfs", "unlink", 0, "ghost"]), "damage")
        device.barrier()
        system.kernel.crash()
        with pytest.raises(DiskFormatError):
            mount(device.reopen())


# ---------------------------------------------------------------------------
# rename atomicity under the journal
# ---------------------------------------------------------------------------


def _rename_overwrite_workload(kernel) -> None:
    vfs = kernel.vfs
    vfs.write_whole("/shared/src", b"NEW CONTENT")
    vfs.write_whole("/shared/dst", b"old content")
    vfs.rename("/shared/src", "/shared/dst")


class TestRenameAtomicity:
    def test_rename_is_one_record_even_over_existing_dest(self):
        device = BlockDevice(nblocks=2048, seed=4)
        system = mount(device)
        _rename_overwrite_workload(system.kernel)
        geo = compute_geometry(device.nblocks)
        system.kernel.crash()
        scan = scan_journal(device.reopen(), geo.journal_start,
                           geo.journal_blocks,
                           system.kernel.disk.generation)
        ops = [op for _txid, txn_ops in scan.committed
               for _vol, op, _args in txn_ops]
        # The implicit unlink of the existing destination emits no
        # record of its own: exactly one RENAME (no bare "unlink").
        assert ops.count("rename") == 1
        assert "unlink" not in ops

    def test_crash_never_leaves_both_or_neither(self):
        """The destination-exists-overwrite regression: at every crash
        point, dst exists with exactly one of the two contents, and src
        is present iff dst still has the old content."""
        total = run_crash_matrix(
            seed=31, workload=_rename_overwrite_workload).total_records
        for record in range(1, total + 1):
            point_device = BlockDevice(nblocks=2048, seed=31)
            from repro.inject import (
                FaultKind,
                FaultPlan,
                Plane,
                injecting,
            )
            with injecting(
                    [FaultPlan(Plane.DISK, FaultKind.CRASH,
                               site="journal-*", after=record - 1,
                               max_faults=1)], seed=31):
                system = mount(point_device)
                try:
                    _rename_overwrite_workload(system.kernel)
                except SimulationError:
                    pass
                system.kernel.shutdown()
            check = fsck(point_device.reopen(), subject=f"rename@{record}")
            assert len(check.report) == 0, \
                f"record {record}: {check.report.render()}"
            after = mount(point_device.reopen())
            vfs = after.vfs
            state = (
                vfs.read_whole("/shared/src")
                if vfs.exists("/shared/src") else None,
                vfs.read_whole("/shared/dst")
                if vfs.exists("/shared/dst") else None,
            )
            # Exactly the committed-prefix states of the workload —
            # crucially NOT ("NEW CONTENT", "NEW CONTENT") [rename left
            # the entry in both directories] and NOT (None, "old
            # content"-less-src) [entry in neither].
            assert state in (
                (None, None),                          # nothing yet
                (b"", None),                           # src created
                (b"NEW CONTENT", None),                # src written
                (b"NEW CONTENT", b""),                 # dst created
                (b"NEW CONTENT", b"old content"),      # dst written
                (None, b"NEW CONTENT"),                # renamed
            ), f"record {record}: inconsistent state {state}"


# ---------------------------------------------------------------------------
# the crash matrix: the tentpole acceptance test
# ---------------------------------------------------------------------------


def mutated(blob: bytes):
    """One flip, cut, grow or splice of *blob*, the ways a stored file
    goes bad: a changed byte, a lost range, inserted bytes, and a range
    overwritten by a copy of another range of the same file."""
    size = len(blob)
    spot = st.integers(0, size)

    def flip(args):
        index, mask = args
        return blob[:index] + bytes([blob[index] ^ mask]) + blob[index + 1:]

    def cut(args):
        return blob[:min(args)] + blob[max(args):]

    def grow(args):
        index, extra = args
        return blob[:index] + extra + blob[index:]

    def splice(args):
        lo, hi, src_lo, src_hi = args
        return blob[:min(lo, hi)] + blob[min(src_lo, src_hi):
                                         max(src_lo, src_hi)] \
            + blob[max(lo, hi):]

    return st.one_of(
        st.tuples(st.integers(0, size - 1), st.integers(1, 255)).map(flip),
        st.tuples(spot, spot).map(cut),
        st.tuples(spot, st.binary(min_size=1, max_size=16)).map(grow),
        st.tuples(spot, spot, spot, spot).map(splice),
    )


#: every field tag, nested three lists deep
CODEC_SAMPLE = encode_fields([
    1, -2, "héllo", b"\x00\xffraw", None,
    [3, ["nested", [None, b""]], []], "end",
])


class TestCodec:
    def test_invalid_utf8_string_is_a_typed_rejection(self):
        blob = bytearray(encode_fields(["héllo", 7]))
        blob[blob.index(b"\xc3")] = 0xFF  # one bad byte in the S field
        with pytest.raises(DiskFormatError, match="not UTF-8"):
            decode_fields(bytes(blob))

    def test_deep_nesting_is_a_typed_rejection(self):
        with pytest.raises(DiskFormatError, match="nested deeper"):
            decode_fields(b"L\x00\x00\x00\x01" * 5000 + b"N")

    def test_nesting_to_the_bound_decodes(self):
        tree = [None]
        for _ in range(MAX_DEPTH):
            tree = [tree]
        assert decode_fields(encode_fields(tree)) == tree
        with pytest.raises(DiskFormatError, match="nested deeper"):
            decode_fields(encode_fields([tree]))

    @settings(max_examples=300, deadline=None)
    @given(mutant=mutated(CODEC_SAMPLE))
    def test_mutation_property(self, mutant):
        """Each mutant decodes to fields that encode back to exactly
        its bytes, or is refused with a typed error."""
        try:
            fields = decode_fields(mutant)
        except SimulationError:
            return
        assert encode_fields(fields) == mutant


class TestCrashMatrix:
    def test_crash_points_stride_and_thin_evenly(self):
        assert crash_points(5) == [1, 2, 3, 4, 5]
        assert crash_points(10, stride=3) == [1, 4, 7, 10]
        assert crash_points(63, max_points=4) == [1, 16, 32, 48]
        assert crash_points(0) == []


    def test_workload_is_big_enough(self):
        device = BlockDevice(nblocks=2048, seed=0x1993)
        system = mount(device)
        scripted_workload(system.kernel)
        # The acceptance floor: 50+ journaled metadata operations.
        assert system.kernel.disk.journal.txns_committed >= 50
        system.kernel.shutdown()

    def test_every_record_boundary_recovers(self):
        matrix = run_crash_matrix()
        assert matrix.total_records >= 150
        assert len(matrix.points) == matrix.total_records
        assert all(point.crashed for point in matrix.points)
        assert matrix.clean, "\n".join(matrix.failures()[:10])
        # Earlier crashes never recover more than later ones.
        replayed = [point.replayed_txns for point in matrix.points]
        assert replayed == sorted(replayed)

    def test_recovery_is_bit_identical_per_seed(self):
        first = run_crash_matrix(max_points=4)
        again = run_crash_matrix(max_points=4)
        assert [point.record for point in first.points] == [1, 56, 112, 167]
        for point, other in zip(first.points, again.points):
            assert point.trail == other.trail, \
                f"record {point.record} drifted"
            assert point.replayed_txns == other.replayed_txns
            assert point.segments == other.segments


# ---------------------------------------------------------------------------
# fsck: stable DSK findings on genuinely damaged images
# ---------------------------------------------------------------------------


def _crashed_image(seed=6) -> BlockDevice:
    device = BlockDevice(nblocks=2048, seed=seed)
    system = mount(device)
    system.vfs.write_whole("/shared/seg", b"payload")
    system.vfs.mkdir("/shared/dir")
    system.kernel.crash()
    return device.reopen()


class TestFsckFindings:
    def test_blank_device_has_no_superblock(self):
        result = fsck(BlockDevice(nblocks=64))
        assert result.report.codes() == ["DSK001"]

    def test_backup_superblock_is_a_warning(self):
        device = _crashed_image()
        device._blocks[0] = b"\xff" * BLOCK_SIZE
        result = fsck(device)
        assert "DSK002" in result.report.codes()

    def test_both_superblocks_gone(self):
        device = _crashed_image()
        device._blocks[0] = b"\xff" * BLOCK_SIZE
        device._blocks[device.nblocks - 1] = b"\xff" * BLOCK_SIZE
        result = fsck(device)
        assert result.report.codes() == ["DSK001"]

    def test_corrupt_checkpoint_blob(self):
        device = _crashed_image()
        fields = read_superblock(device, 0)
        slot = fields["slot_a"] if fields["active_slot"] == 0 \
            else fields["slot_b"]
        block = bytearray(device._read_durable(slot))
        block[10] ^= 0xFF
        device._blocks[slot] = bytes(block)
        result = fsck(device)
        assert "DSK003" in result.report.codes()

    def test_mid_journal_corruption_is_dsk004(self):
        device = _crashed_image()
        fields = read_superblock(device, 0)
        device._blocks[fields["journal_start"]] = b"\x00" * BLOCK_SIZE
        result = fsck(device)
        assert "DSK004" in result.report.codes()

    def test_op_outside_transaction_is_dsk005(self):
        device = BlockDevice(nblocks=2048, seed=6)
        system = mount(device)
        journal = system.kernel.disk.journal
        journal._write_record(
            REC_OP, 515151,
            encode_fields(["sfs", "unlink", 0, "ghost"]), "damage")
        device.barrier()
        system.kernel.crash()
        result = fsck(device.reopen())
        assert "DSK005" in result.report.codes()

    def test_unreplayable_transaction_is_dsk006(self):
        device = BlockDevice(nblocks=2048, seed=6)
        system = mount(device)
        root_fs = system.vfs.filesystem_at("/")
        with root_fs.journal.transaction():
            root_fs.journal.log("root", "unlink", [424242, "ghost"])
        system.kernel.crash()
        result = fsck(device.reopen())
        assert "DSK006" in result.report.codes()

    def test_healthy_crash_image_is_clean(self):
        result = fsck(_crashed_image())
        assert len(result.report) == 0
        assert result.stats.addrmap_segments == 1


def _copy(device: BlockDevice) -> BlockDevice:
    twin = BlockDevice(nblocks=device.nblocks, seed=device.seed)
    twin._blocks = dict(device._blocks)
    return twin


def _put(device: BlockDevice, start: int, raw: bytes) -> None:
    """Write *raw* over whole blocks from *start*, as durable state."""
    for offset in range(0, len(raw), BLOCK_SIZE):
        device._blocks[start + offset // BLOCK_SIZE] = \
            bytes(raw[offset:offset + BLOCK_SIZE]).ljust(BLOCK_SIZE, b"\0")


def _sign_superblock(device: BlockDevice, fields: dict) -> None:
    """Write *fields* as both superblocks, with a valid checksum."""
    block = pack_superblock(fields, BLOCK_SIZE)
    _put(device, 0, block)
    _put(device, device.nblocks - 1, block)


class TestSuperblockValidation:
    """A superblock with a valid checksum is still refused unless it
    fits the device: fsck says DSK001 and the mount refuses with a
    DiskFormatError, never a raw IndexError or DiskError."""

    @pytest.mark.parametrize("changes", [
        lambda f: {"active_slot": 7},
        lambda f: {"ckpt_len": 10 ** 7},
        lambda f: {"journal_blocks": 10 ** 6},
        lambda f: {"journal_start": 0},
        lambda f: {"slot_b": 5000},
        lambda f: {"slot_a": f["slot_b"], "slot_b": f["slot_a"]},
    ], ids=["active-slot-7", "ckpt-len-past-slot", "journal-past-device",
            "journal-start-0", "slot-b-5000", "slots-swapped"])
    def test_signed_but_misfit_superblock(self, changes):
        device = _crashed_image()
        fields = read_superblock(device, 0)
        _sign_superblock(device, dict(fields, **changes(fields)))
        assert fsck(_copy(device)).report.codes() == ["DSK001"]
        with pytest.raises(DiskFormatError):
            mount(device)


@functools.lru_cache(maxsize=None)
def _mutation_base():
    """The crashed image, its superblock and its journal records."""
    device = _crashed_image()
    fields = read_superblock(device, 0)
    geo = compute_geometry(device.nblocks)
    records = scan_journal(device, geo.journal_start, geo.journal_blocks,
                           fields["generation"]).records
    return device, fields, records


def _mutate(data, raw: bytearray, span: int) -> None:
    for _ in range(data.draw(st.integers(1, 4), label="count")):
        index = data.draw(st.integers(0, span - 1), label="index")
        raw[index] = data.draw(st.integers(0, 255), label="byte")


class TestMutatedImage:
    """Byte mutants of the HDSK superblock, the checkpoint blob and the
    HJRN records of a crashed image. With ``resign`` the checksum over
    the mutated bytes is recomputed, so the decoders behind it run.
    fsck always returns a report; the mount succeeds or refuses through
    a SimulationError."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_mutation_property(self, data):
        base, fields, records = _mutation_base()
        device = _copy(base)
        region = data.draw(st.sampled_from(
            ("superblock", "checkpoint", "journal")), label="region")
        resign = data.draw(st.booleans(), label="resign")
        if region == "superblock":
            raw = bytearray(device.read(0))
            length = len(pack_superblock(fields, BLOCK_SIZE))
            _mutate(data, raw, length)
            if resign:  # the header's payload crc
                raw[8:12] = zlib.crc32(
                    raw[_SUPER_HEAD.size:length]).to_bytes(4, "big")
            _put(device, 0, raw)
        elif region == "checkpoint":
            blob = bytearray(read_checkpoint_blob(base, fields))
            _mutate(data, blob, len(blob))
            start = (fields["slot_a"], fields["slot_b"])[
                fields["active_slot"]]
            _put(device, start, blob)
            if resign:
                _sign_superblock(device, dict(fields,
                                              ckpt_crc=zlib.crc32(blob)))
        else:
            record = data.draw(st.sampled_from(records), label="record")
            raw = bytearray(_pack_record(
                record.rtype, fields["generation"], record.txid,
                record.seq, record.payload))
            _mutate(data, raw, len(raw))
            if resign:
                _magic, rtype, gen, txid, seq, _plen, _pcrc = \
                    _HEADER.unpack_from(raw)
                raw = _pack_record(rtype, gen, txid, seq,
                                   bytes(raw[HEADER_SIZE:]))
            _put(device, record.block, raw)

        fsck(_copy(device))  # a report, never an exception
        try:
            system = mount(device)
        except SimulationError:
            return
        system.kernel.shutdown()


class TestDskTreeChecks:
    """The tree/SFS invariant checkers, driven on scratch volumes."""

    def _report(self):
        return Report(subject="scratch")

    def test_dangling_dirent_dsk010(self):
        fs = _scratch_volume("fs", "t")
        inode = fs.create_file(fs.root, "file", 0)
        del fs._inodes[inode.number]
        report = self._report()
        _check_tree(report, fs)
        assert "DSK010" in report.codes()

    def test_bad_nlink_dsk011(self):
        fs = _scratch_volume("fs", "t")
        fs.create_file(fs.root, "file", 0).nlink = 7
        report = self._report()
        _check_tree(report, fs)
        assert "DSK011" in report.codes()

    def test_orphan_inode_dsk012(self):
        fs = _scratch_volume("fs", "t")
        inode = fs.create_file(fs.root, "file", 0)
        del fs.root.entries["file"]
        inode.nlink = 0
        report = self._report()
        _check_tree(report, fs)
        assert "DSK012" in report.codes()

    def test_empty_symlink_dsk013(self):
        fs = _scratch_volume("fs", "t")
        fs.symlink(fs.root, "link", "target", 0).symlink_target = ""
        report = self._report()
        _check_tree(report, fs)
        assert "DSK013" in report.codes()

    def test_sfs_limit_violation_dsk020(self):
        from repro.sfs.sharedfs import MAX_FILE_SIZE

        sfs = _scratch_volume("sfs", "t")
        inode = sfs.create_file(sfs.root, "seg", 0)
        # Grow the backing object past the limit directly, bypassing
        # the write-path check — at-rest damage only fsck can see.
        inode.memobj.write(0, b"x" * (MAX_FILE_SIZE + 1))
        report = self._report()
        _check_sfs(report, sfs)
        assert "DSK020" in report.codes()

    def test_addrmap_cross_checks_dsk021_022_023(self):
        sfs = _scratch_volume("sfs", "t")
        inode = sfs.create_file(sfs.root, "seg", 0)
        base = sfs.address_of_inode(inode.number)

        report = self._report()  # entry names a nonexistent inode
        _check_addrmap(report, sfs, [(base, 64, inode.number + 500)])
        assert "DSK021" in report.codes()

        report = self._report()  # inode with no map entry
        _check_addrmap(report, sfs, [])
        assert "DSK022" in report.codes()

        report = self._report()  # entry at the wrong address
        _check_addrmap(report, sfs, [(base + 0x100000, 64,
                                      inode.number)])
        assert "DSK023" in report.codes()

    def test_overlapping_segments_dsk024(self):
        sfs = _scratch_volume("sfs", "t")
        first = sfs.create_file(sfs.root, "a", 0)
        sfs.create_file(sfs.root, "b", 0)
        first.segment_span = 1 << 24  # spills into the next slot
        report = self._report()
        _check_sfs(report, sfs)
        assert "DSK024" in report.codes()


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


_NAMES = ("a", "b", "c")


@st.composite
def op_sequences(draw):
    """Short random metadata workloads over a tiny namespace."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(
            ("write", "mkdir", "rename", "unlink", "symlink")))
        ops.append((kind, draw(st.sampled_from(_NAMES)),
                    draw(st.sampled_from(_NAMES)),
                    draw(st.integers(min_value=0, max_value=200))))
    return ops


def _apply_ops(kernel, ops):
    vfs = kernel.vfs
    for kind, name, other, size in ops:
        try:
            if kind == "write":
                vfs.write_whole(f"/shared/{name}", bytes([65]) * size)
            elif kind == "mkdir":
                vfs.mkdir(f"/shared/dir-{name}")
            elif kind == "rename":
                vfs.rename(f"/shared/{name}", f"/shared/{other}")
            elif kind == "unlink":
                vfs.unlink(f"/shared/{name}")
            elif kind == "symlink":
                vfs.symlink(name, f"/shared/link-{name}")
        except (FileNotFoundSimError, FileExistsSimError,
                SimulationError):
            pass  # invalid sequences abort the txn; that's the point


class TestRecoveryProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=op_sequences(), seed=st.integers(min_value=0,
                                                max_value=2 ** 16))
    def test_replay_is_idempotent(self, ops, seed):
        """Mounting a crashed image twice replays the journal once:
        the second mount finds everything in the checkpoint."""
        device = BlockDevice(nblocks=2048, seed=seed)
        system = mount(device)
        _apply_ops(system.kernel, ops)
        system.kernel.crash()

        survivor = device.reopen()
        first = mount(survivor)
        digest = tree_digest(first.kernel)
        first.kernel.shutdown()
        second = mount(survivor.reopen())
        assert second.kernel.recovery.replayed_txns == 0
        assert tree_digest(second.kernel) == digest

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=op_sequences(), seed=st.integers(min_value=0,
                                                max_value=2 ** 16),
           cut=st.floats(min_value=0.0, max_value=1.0))
    def test_crash_prefix_recovers_to_committed_state(self, ops, seed,
                                                      cut):
        """Every write-prefix of the device history recovers to exactly
        the tree as it stood after some committed transaction."""
        device = BlockDevice(nblocks=2048, seed=seed,
                             record_history=True)
        system = mount(device)
        kernel = system.kernel
        baseline_writes = len(device.history)

        snapshots = [tree_digest(kernel)]
        journal = kernel.disk.journal
        original_commit = journal._commit

        def commit_and_snapshot(txn_ops):
            original_commit(txn_ops)
            snapshots.append(tree_digest(kernel))

        journal._commit = commit_and_snapshot
        _apply_ops(kernel, ops)
        journal._commit = original_commit

        total = len(device.history)
        prefix = baseline_writes + int(
            (total - baseline_writes) * cut)
        survivor = device.state_after(prefix)
        check = fsck(survivor, subject=f"prefix@{prefix}")
        assert len(check.report) == 0, check.report.render()
        recovered = mount(survivor)
        assert tree_digest(recovered.kernel) in snapshots
        assert verify_segments(recovered.kernel) == []


# ---------------------------------------------------------------------------
# the ino→path index (the O(n) reverse-lookup fix)
# ---------------------------------------------------------------------------


class TestPathIndex:
    def _count_walks(self, fs):
        calls = []
        original = fs.walk

        def counting_walk(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        fs.walk = counting_walk
        return calls

    def test_sfs_reverse_lookup_never_walks(self, system):
        kernel = system.kernel
        for index in range(20):
            kernel.vfs.write_whole(f"/shared/seg{index}", b"x")
        kernel.vfs.mkdir("/shared/sub")
        kernel.vfs.rename("/shared/seg0", "/shared/sub/moved")
        sfs = kernel.sfs
        segments = sfs.segments()  # the listing itself walks; that's fine
        calls = self._count_walks(sfs)
        for _path, inode in segments:
            assert sfs.path_of_inode(inode.number)
        assert sfs.path_of_inode(
            kernel.vfs.resolve("/shared/sub/moved")[1].number) == "/sub/moved"
        assert calls == [], "path_of_inode walked the volume"

    def test_directory_move_shifts_descendants(self, system):
        vfs = system.vfs
        vfs.makedirs("/shared/top/mid")
        vfs.write_whole("/shared/top/mid/leaf", b"x")
        vfs.mkdir("/shared/elsewhere")
        vfs.rename("/shared/top", "/shared/elsewhere/top")
        sfs = system.kernel.sfs
        inode = system.vfs.resolve("/shared/elsewhere/top/mid/leaf")[1]
        calls = self._count_walks(sfs)
        assert sfs.path_of_inode(inode.number) == "/elsewhere/top/mid/leaf"
        assert calls == []

    def test_index_survives_recovery(self):
        device = BlockDevice(nblocks=2048, seed=12)
        system = mount(device)
        system.vfs.makedirs("/shared/d")
        system.vfs.write_whole("/shared/d/seg", b"x")
        system.kernel.crash()
        system2 = mount(device.reopen())
        sfs = system2.kernel.sfs
        inode = system2.vfs.resolve("/shared/d/seg")[1]
        calls = self._count_walks(sfs)
        assert sfs.path_of_inode(inode.number) == "/d/seg"
        assert calls == []

    def test_root_volume_still_walks_for_hard_links(self, system):
        """Hard links give a root-volume inode several paths, so the
        index stays off there and the walk fallback answers."""
        vfs = system.vfs
        vfs.makedirs("/data")
        vfs.write_whole("/data/original", b"x")
        vfs.link("/data/original", "/data/alias")
        root_fs = vfs.filesystem_at("/")
        inode = vfs.resolve("/data/original")[1]
        assert root_fs.path_of_inode(inode.number) \
            in ("/data/original", "/data/alias")

    def test_unlink_drops_the_index_entry(self, system):
        system.vfs.write_whole("/shared/gone", b"x")
        sfs = system.kernel.sfs
        ino = system.vfs.resolve("/shared/gone")[1].number
        system.vfs.unlink("/shared/gone")
        with pytest.raises(FileNotFoundSimError):
            sfs.path_of_inode(ino)
