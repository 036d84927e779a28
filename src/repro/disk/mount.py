"""Mounting the durable store: format, checkpoint, crash recovery.

On-disk geometry (fixed at format time, recorded in the superblock)::

    block 0                      primary superblock
    blocks 1 .. J                journal region (~half the device)
    blocks J+1 .. J+S            checkpoint slot A
    blocks J+S+1 .. J+2S         checkpoint slot B
    last block                   backup superblock

A *checkpoint* serializes every mounted volume into the inactive slot,
barriers, then flips both superblocks to point at it and bumps the
journal generation — so the flip is atomic (the old superblock stays
valid until the new one is durable) and every journal record written
before the checkpoint becomes stale by generation number, not by
erasure. The journal fills → checkpoint; clean shutdown → checkpoint;
recovery → checkpoint (leaving a freshly clean image).

Recovery (``DiskStore.recover``) is the boot path for a non-blank
device, crashed or not:

1. read the primary superblock, falling back to the backup;
2. restore every volume from the active checkpoint slot, in place;
3. scan the journal for this generation's valid record prefix,
   discarding the torn tail;
4. replay committed transactions beyond ``applied_txid`` through the
   ordinary file-system methods (journal suspended, inode numbers
   forced from the records);
5. rebuild the SFS address↔inode table from the recovered inodes —
   the paper's boot-time scan — so ``open_by_addr`` works across
   reboots;
6. checkpoint.

Every step lands in :class:`RecoveryStats.trail`, a compact record the
crash matrix compares across runs: recovery is required to be
bit-identical per seed.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.disk.blockdev import DEFAULT_WINDOW, BlockDevice
from repro.disk.codec import encode_fields, decode_fields
from repro.disk.image import (
    decode_checkpoint,
    encode_checkpoint,
    restore_volume,
)
from repro.disk.journal import Journal, scan_journal
from repro.errors import DiskError, DiskFormatError, DiskFullError, \
    SimulationError
from repro.kernel import arming
from repro.trace import tracer as _trace
from repro.trace.events import EventKind

SUPER_MAGIC = b"HDSK"
SUPER_VERSION = 1
_SUPER_HEAD = struct.Struct(">4sII")   # magic, payload len, payload crc

#: The volume keys a disk image stores. Order matters for restore (the
#: root volume first, then the shared volume).
VOLUME_KEYS = ("root", "sfs")


@dataclass
class Geometry:
    journal_start: int
    journal_blocks: int
    slot_starts: Tuple[int, int]
    slot_blocks: int
    backup_super: int


def compute_geometry(nblocks: int) -> Geometry:
    usable = nblocks - 2
    journal_blocks = usable // 2
    slot_blocks = (usable - journal_blocks) // 2
    if slot_blocks < 1:
        raise DiskError(f"device too small for a store ({nblocks} blocks)")
    slot_a = 1 + journal_blocks
    return Geometry(1, journal_blocks, (slot_a, slot_a + slot_blocks),
                    slot_blocks, nblocks - 1)


def pack_superblock(fields: dict, block_size: int) -> bytes:
    payload = encode_fields([
        SUPER_VERSION, fields["block_size"], fields["nblocks"],
        fields["journal_start"], fields["journal_blocks"],
        fields["slot_a"], fields["slot_b"], fields["slot_blocks"],
        fields["active_slot"], fields["generation"],
        fields["ckpt_len"], fields["ckpt_crc"],
        fields["applied_txid"], fields["next_txid"],
    ])
    block = _SUPER_HEAD.pack(SUPER_MAGIC, len(payload),
                             zlib.crc32(payload)) + payload
    if len(block) > block_size:
        raise DiskError("superblock does not fit in one block")
    return block


def read_superblock(device: BlockDevice, index: int) -> Optional[dict]:
    """Parse the superblock at *index*; None if invalid."""
    raw = device.read(index)
    if raw[:4] != SUPER_MAGIC:
        return None
    try:
        _magic, length, crc = _SUPER_HEAD.unpack_from(raw)
    except struct.error:
        return None
    payload = raw[_SUPER_HEAD.size:_SUPER_HEAD.size + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        (version, block_size, nblocks, journal_start, journal_blocks,
         slot_a, slot_b, slot_blocks, active_slot, generation,
         ckpt_len, ckpt_crc, applied_txid, next_txid) = \
            decode_fields(payload)
    except (ValueError, DiskFormatError):
        return None
    if version != SUPER_VERSION:
        return None
    return {
        "block_size": block_size, "nblocks": nblocks,
        "journal_start": journal_start, "journal_blocks": journal_blocks,
        "slot_a": slot_a, "slot_b": slot_b, "slot_blocks": slot_blocks,
        "active_slot": active_slot, "generation": generation,
        "ckpt_len": ckpt_len, "ckpt_crc": ckpt_crc,
        "applied_txid": applied_txid, "next_txid": next_txid,
    }


def read_checkpoint_blob(device: BlockDevice, super_fields: dict
                         ) -> bytes:
    """The active slot's checkpoint blob (crc-verified)."""
    start = (super_fields["slot_a"], super_fields["slot_b"])[
        super_fields["active_slot"]]
    length = super_fields["ckpt_len"]
    nblocks = (length + device.block_size - 1) // device.block_size
    raw = bytearray()
    for index in range(nblocks):
        raw += device.read(start + index)
    blob = bytes(raw[:length])
    if zlib.crc32(blob) != super_fields["ckpt_crc"]:
        raise DiskFormatError("checkpoint blob fails its checksum")
    return blob


def apply_journal_op(fs, op: str, args: list) -> None:
    """Replay one logged operation through the ordinary FS methods
    (shared by mount-time recovery and fsck's scratch replay)."""
    def directory(ino):
        inode = fs.inode_by_number(ino)
        if inode is None:
            raise DiskFormatError(f"no inode {ino} on {fs.name!r}")
        return inode

    if op == "create":
        dir_ino, name, uid, mode, ino = args[:5]
        if len(args) > 5 and hasattr(fs, "reserving"):
            with fs.reserving(args[5]):
                fs.create_file(directory(dir_ino), name, uid, mode,
                               _ino=ino)
        else:
            fs.create_file(directory(dir_ino), name, uid, mode,
                           _ino=ino)
    elif op == "mkdir":
        dir_ino, name, uid, mode, ino = args
        fs.mkdir(directory(dir_ino), name, uid, mode, _ino=ino)
    elif op == "symlink":
        dir_ino, name, target, uid, ino = args
        fs.symlink(directory(dir_ino), name, target, uid, _ino=ino)
    elif op == "link":
        dir_ino, name, target_ino = args
        fs.link(directory(dir_ino), name, directory(target_ino))
    elif op == "unlink":
        dir_ino, name = args
        fs.unlink(directory(dir_ino), name)
    elif op == "rmdir":
        dir_ino, name = args
        fs.rmdir(directory(dir_ino), name)
    elif op == "rename":
        src_ino, src_name, dst_ino, dst_name = args
        fs.rename(directory(src_ino), src_name,
                  directory(dst_ino), dst_name)
    elif op == "write":
        ino, offset, data = args
        fs.write_file(directory(ino), offset, data)
    elif op == "truncate":
        ino, size = args
        fs.truncate_file(directory(ino), size)
    else:
        raise DiskFormatError(f"unknown journal op {op!r}")


@dataclass
class RecoveryStats:
    """What one mount's recovery did (surfaced via ``Kernel.stats()``)."""

    generation: int = 0
    applied_txid: int = 0
    clean: bool = True
    used_backup_superblock: bool = False
    replayed_txns: int = 0
    replayed_ops: int = 0
    discarded_records: int = 0
    uncommitted_txid: Optional[int] = None
    addrmap_segments: int = 0
    addrmap_mismatches: int = 0
    #: Compact deterministic log of every recovery step, compared
    #: bit-for-bit across runs by the crash matrix.
    trail: List[tuple] = field(default_factory=list)


class DiskStore:
    """One mounted durable store binding a kernel to a block device."""

    def __init__(self, kernel, device: BlockDevice) -> None:
        self.kernel = kernel
        self.device = device
        self.volumes: Dict[str, object] = {
            "root": kernel.rootfs, "sfs": kernel.sfs,
        }
        self.geometry = compute_geometry(device.nblocks)
        self.active_slot = 0
        self.generation = 0
        self.journal: Optional[Journal] = None
        self.recovery = RecoveryStats()
        self.checkpoints = 0

    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, kernel, device: BlockDevice) -> "DiskStore":
        """Mount *device* into *kernel*: format a blank device, recover
        anything else. The store becomes ``kernel.disk`` and its
        recovery stats ``kernel.recovery``."""
        device.require_alive()
        if device.injector is None:
            device.injector = kernel.injector
        store = cls(kernel, device)
        if store._is_blank():
            store.format()
        else:
            store.recover()
        kernel.disk = store
        kernel.recovery = store.recovery
        return store

    def _is_blank(self) -> bool:
        return (read_superblock(self.device, 0) is None
                and read_superblock(self.device,
                                    self.geometry.backup_super) is None)

    # ------------------------------------------------------------------
    # format / checkpoint
    # ------------------------------------------------------------------

    def format(self) -> None:
        self.generation = 0
        self._arm_journal(generation=0, next_txid=1)
        self.checkpoint()
        self.recovery = RecoveryStats(generation=self.generation,
                                      applied_txid=0, clean=True)
        self.recovery.trail.append(("format", self.generation))

    def checkpoint(self) -> None:
        """Capture every volume and flip to a fresh journal generation."""
        if self.device.crashed:
            return  # power is off; nothing can persist
        assert self.journal is not None
        applied = self.journal.next_txid - 1
        blob = encode_checkpoint(self.volumes, applied)
        geo = self.geometry
        size = self.device.block_size
        span = (len(blob) + size - 1) // size
        if span > geo.slot_blocks:
            raise DiskFullError(
                f"checkpoint of {len(blob)} bytes exceeds the "
                f"{geo.slot_blocks}-block slot"
            )
        target = 1 - self.active_slot
        start = geo.slot_starts[target]
        for index in range(span):
            self.device.write(start + index,
                              blob[index * size:(index + 1) * size])
        self.device.barrier()   # slot contents before the flip
        self.active_slot = target
        self.generation += 1
        fields = {
            "block_size": size, "nblocks": self.device.nblocks,
            "journal_start": geo.journal_start,
            "journal_blocks": geo.journal_blocks,
            "slot_a": geo.slot_starts[0], "slot_b": geo.slot_starts[1],
            "slot_blocks": geo.slot_blocks,
            "active_slot": self.active_slot,
            "generation": self.generation,
            "ckpt_len": len(blob), "ckpt_crc": zlib.crc32(blob),
            "applied_txid": applied,
            "next_txid": self.journal.next_txid,
        }
        block = pack_superblock(fields, size)
        self.device.write(0, block)
        self.device.write(geo.backup_super, block)
        self.device.barrier()   # flip durable before any new record
        self.journal.reset(self.generation, self.journal.next_txid)
        self.checkpoints += 1
        clock = self.kernel.clock
        clock.charge("journal",
                     (span + 2) * self.journal.cost_per_block)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.DISK, name="checkpoint",
                        value=self.generation)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> None:
        device = self.device
        stats = RecoveryStats(clean=False)
        super_fields = read_superblock(device, 0)
        if super_fields is None:
            super_fields = read_superblock(device,
                                           self.geometry.backup_super)
            stats.used_backup_superblock = True
        if super_fields is None:
            raise DiskFormatError(
                "no valid superblock (primary and backup both bad)"
            )
        if super_fields["block_size"] != device.block_size \
                or super_fields["nblocks"] != device.nblocks:
            raise DiskFormatError(
                "superblock geometry disagrees with the device"
            )
        self.active_slot = super_fields["active_slot"]
        self.generation = super_fields["generation"]
        stats.generation = self.generation
        stats.applied_txid = super_fields["applied_txid"]
        blob = read_checkpoint_blob(device, super_fields)
        applied, records = decode_checkpoint(blob)
        stored_maps: Dict[str, Optional[list]] = {}
        for key in VOLUME_KEYS:
            if key not in records:
                raise DiskFormatError(f"checkpoint lacks volume {key!r}")
            stored_maps[key] = restore_volume(self.volumes[key],
                                              records[key])
        stats.trail.append(("checkpoint", self.generation, applied))
        # Cross-check the stored kernel address map against the inode
        # table it was derived from (pre-replay state on both sides).
        sfs = self.volumes["sfs"]
        stored = stored_maps.get("sfs")
        if stored is not None:
            current = {tuple(entry) for entry in sfs.addrmap.entries()}
            stats.addrmap_mismatches = len(
                current.symmetric_difference(
                    tuple(entry) for entry in stored))
        scan = scan_journal(device, self.geometry.journal_start,
                            self.geometry.journal_blocks, self.generation)
        if scan.malformed:
            raise DiskFormatError(
                f"journal is structurally damaged: {scan.malformed[0]}"
            )
        last_txid = applied
        for txid, ops in scan.committed:
            if txid <= applied:
                continue  # already in the checkpoint: replay once only
            self._replay_txn(txid, ops, stats)
            last_txid = txid
        stats.discarded_records = scan.discarded_records
        stats.uncommitted_txid = scan.uncommitted_txid
        if scan.discarded_records:
            stats.trail.append(("discard", scan.discarded_records,
                                scan.uncommitted_txid))
        # The paper's boot-time scan: rebuild addr↔inode from inodes.
        stats.addrmap_segments = sfs.rebuild_address_map()
        stats.trail.append(("addrmap", stats.addrmap_segments))
        stats.clean = (not stats.replayed_txns
                       and not stats.discarded_records
                       and not stats.used_backup_superblock)
        self.recovery = stats
        tracer = _trace.TRACER
        if tracer.enabled:
            for entry in stats.trail:
                tracer.emit(EventKind.RECOVER, name=str(entry[0]),
                            value=int(entry[1]))
        next_txid = max(super_fields["next_txid"], last_txid + 1)
        self._arm_journal(generation=self.generation,
                          next_txid=next_txid)
        self.checkpoint()

    def _replay_txn(self, txid: int, ops: List[tuple],
                    stats: RecoveryStats) -> None:
        for volume, op, args in ops:
            fs = self.volumes.get(volume)
            if fs is None:
                raise DiskFormatError(
                    f"journal names unknown volume {volume!r}"
                )
            try:
                self._apply_op(fs, op, args)
            except DiskFormatError:
                raise
            except (SimulationError, ValueError, TypeError) as error:
                raise DiskFormatError(
                    f"replay of txn {txid} op {op!r} failed: {error}"
                )
            stats.replayed_ops += 1
        stats.replayed_txns += 1
        stats.trail.append(("replay", txid, len(ops)))

    def _apply_op(self, fs, op: str, args: list) -> None:
        apply_journal_op(fs, op, args)

    # ------------------------------------------------------------------

    def _arm_journal(self, generation: int, next_txid: int) -> None:
        geo = self.geometry
        self.journal = Journal(
            self.device, geo.journal_start, geo.journal_blocks,
            generation=generation, next_txid=next_txid,
            clock=self.kernel.clock,
            cost_per_block=self.kernel.clock.costs.journal_block,
        )
        self.journal.on_full = self.checkpoint
        for key, fs in self.volumes.items():
            fs.journal = self.journal
            fs.journal_volume = key

    def detach(self) -> None:
        """Disarm journaling (shutdown teardown)."""
        for fs in self.volumes.values():
            fs.journal = None


# ----------------------------------------------------------------------
# durable campaigns (reprochaos --crash)
# ----------------------------------------------------------------------

#: DiskStores mounted while armed, oldest first — the campaign record.
CAMPAIGN: List[DiskStore] = []


@contextmanager
def durable(nblocks: int = 8192, seed: int = 0,
            window: Optional[int] = None) -> Iterator[List[DiskStore]]:
    """Mount a fresh block device under every kernel booted inside the
    block (the ``disk`` slot of :mod:`repro.kernel.arming`), so an
    unmodified script becomes a crash-recovery workload. Every device
    has the same geometry and seed, so reruns are bit-identical; a boot
    given an explicit ``disk=`` mounts that instead. Yields
    :data:`CAMPAIGN`, cleared on entry, for the caller to crash-test
    and remount each store afterwards."""
    CAMPAIGN.clear()

    def attach(kernel) -> None:
        device = BlockDevice(
            nblocks=nblocks, seed=seed, name=f"disk{len(CAMPAIGN)}",
            window=DEFAULT_WINDOW if window is None else window,
        )
        CAMPAIGN.append(DiskStore.attach(kernel, device))

    with arming.armed("disk", attach):
        yield CAMPAIGN
