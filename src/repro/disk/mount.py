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

Recovery is one routine, :func:`recover_volumes`, run by the boot
path (``DiskStore.recover``) and by ``reprofsck`` (into scratch
volumes):

1. read the primary superblock, falling back to the backup; one counts
   only if its layout is :func:`compute_geometry`'s for the device;
2. restore every volume from the active checkpoint slot, in place;
3. scan the journal for this generation's valid record prefix,
   discarding the torn tail. The record at the tear is read once more
   (a transient read fault usually does not repeat); if it stays bad
   and a valid record lies beyond it, that is damage, not a tear, and
   the image is refused before anything is replayed or written;
4. replay committed transactions beyond ``applied_txid`` through the
   ordinary file-system methods (:func:`apply_journal_op`; inode
   numbers forced from the records);
5. rebuild the SFS address↔inode table from the recovered inodes —
   the paper's boot-time scan — so ``open_by_addr`` works across
   reboots.

A stage that refuses the image raises :class:`RecoveryError`. After a
recovery the boot path checkpoints, leaving a freshly clean image.
Every step lands in the ``trail`` of :func:`recovery_stats`, a compact
record the crash matrix compares across runs: recovery is required to
be bit-identical per seed.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.disk.blockdev import BlockDevice
from repro.disk.codec import encode_fields, decode_fields
from repro.disk.image import (
    decode_checkpoint,
    encode_checkpoint,
    restore_volume,
)
from repro.disk.journal import Journal, scan_journal
from repro.errors import DiskError, DiskFormatError, DiskFullError, \
    RecoveryError, SimulationError
from repro.kernel import arming
from repro.trace import tracer as _trace
from repro.trace.events import EventKind

SUPER_MAGIC = b"HDSK"
SUPER_VERSION = 1
_SUPER_HEAD = struct.Struct(">4sII")   # magic, payload len, payload crc
#: The superblock's payload fields, in order, after its version.
_SUPER_FIELDS = ("block_size", "nblocks", "journal_start",
                 "journal_blocks", "slot_a", "slot_b", "slot_blocks",
                 "active_slot", "generation", "ckpt_len", "ckpt_crc",
                 "applied_txid", "next_txid")

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


def _layout(device: BlockDevice, geo: Geometry) -> dict:
    """The superblock fields the device fixes; every image ever written
    to it carries exactly these."""
    return {
        "block_size": device.block_size, "nblocks": device.nblocks,
        "journal_start": geo.journal_start,
        "journal_blocks": geo.journal_blocks,
        "slot_a": geo.slot_starts[0], "slot_b": geo.slot_starts[1],
        "slot_blocks": geo.slot_blocks,
    }


def pack_superblock(fields: dict, block_size: int) -> bytes:
    payload = encode_fields(
        [SUPER_VERSION] + [fields[name] for name in _SUPER_FIELDS])
    block = _SUPER_HEAD.pack(SUPER_MAGIC, len(payload),
                             zlib.crc32(payload)) + payload
    if len(block) > block_size:
        raise DiskError("superblock does not fit in one block")
    return block


def read_superblock(device: BlockDevice, index: int) -> Optional[dict]:
    """Parse the superblock at *index*; None if its checksum or fields
    are bad (whether it fits the device is :func:`recover_volumes`'
    check)."""
    raw = device.read(index)
    if raw[:4] != SUPER_MAGIC:
        return None
    _magic, length, crc = _SUPER_HEAD.unpack_from(raw)
    payload = raw[_SUPER_HEAD.size:_SUPER_HEAD.size + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        values = decode_fields(payload)
    except DiskFormatError:
        return None
    if values[:1] != [SUPER_VERSION] \
            or len(values) != 1 + len(_SUPER_FIELDS) \
            or not all(isinstance(value, int) for value in values):
        return None
    return dict(zip(_SUPER_FIELDS, values[1:]))


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


#: The argument types of every journaled operation; a ``create`` on
#: sfs64 carries one more int, its address reservation.
_OP_ARGS = {
    "create": (int, str, int, int, int),
    "mkdir": (int, str, int, int, int),
    "symlink": (int, str, str, int, int),
    "link": (int, str, int),
    "unlink": (int, str),
    "rmdir": (int, str),
    "rename": (int, str, int, str),
    "write": (int, int, bytes),
    "truncate": (int, int),
}


def apply_journal_op(fs, op: str, args: list) -> None:
    """Replay one logged operation through the ordinary FS methods.
    An unknown op or mistyped arguments are a DiskFormatError."""
    types = _OP_ARGS.get(op) if isinstance(op, str) else None
    if types is None:
        raise DiskFormatError(f"unknown journal op {op!r}")
    if op == "create" and len(args) == 6:
        types += (int,)
    if len(args) != len(types) or not all(
            isinstance(arg, kind) for arg, kind in zip(args, types)):
        raise DiskFormatError(f"malformed arguments for op {op!r}")

    def directory(ino):
        inode = fs.inode_by_number(ino)
        if inode is None:
            raise DiskFormatError(f"no inode {ino} on {fs.name!r}")
        return inode

    # The first argument is the inode the op works in or on; the rest
    # follow the FS method's own order.
    target, rest = directory(args[0]), args[1:]
    if op == "create":
        name, uid, mode, ino, *span = rest
        with fs.reserving(span[0]) if span and hasattr(fs, "reserving") \
                else nullcontext():
            fs.create_file(target, name, uid, mode, _ino=ino)
    elif op == "mkdir":
        fs.mkdir(target, *rest[:-1], _ino=rest[-1])
    elif op == "symlink":
        fs.symlink(target, *rest[:-1], _ino=rest[-1])
    elif op == "link":
        fs.link(target, rest[0], directory(rest[1]))
    elif op == "unlink":
        fs.unlink(target, *rest)
    elif op == "rmdir":
        fs.rmdir(target, *rest)
    elif op == "rename":
        fs.rename(target, rest[0], directory(rest[1]), rest[2])
    elif op == "write":
        fs.write_file(target, *rest)
    else:
        fs.truncate_file(target, *rest)


def recovery_stats(generation: int = 0) -> SimpleNamespace:
    """What one recovery did (a mount's is ``kernel.recovery``, read
    by ``Kernel.metrics()``; ``reprofsck --verbose`` prints fsck's)."""
    return SimpleNamespace(
        generation=generation,
        applied_txid=0,
        clean=True,
        used_backup_superblock=False,
        committed_txns=0,
        replayed_txns=0,
        discarded_records=0,
        addrmap_segments=0,
        # Inodes per volume after recovery (filled in by fsck).
        inodes={},
        # Compact deterministic log of every recovery step, compared
        # bit-for-bit across runs by the crash matrix.
        trail=[],
    )


def recover_volumes(device: BlockDevice,
                    volume_for: Callable[[str, str], object],
                    stats: SimpleNamespace,
                    inspect: Optional[Callable] = None
                    ) -> Tuple[int, int]:
    """Steps 1–5 of the module docstring, restoring each checkpointed
    volume into ``volume_for(key, kind)`` and filling *stats* as they
    run. Returns the active slot and the next free txid.

    The journal scan is always ``deep``: a valid record beyond the
    tear means the tear is damage, and a mount refuses it rather than
    replay the prefix and lose the committed transactions past it.
    *inspect* is fsck's seam: given, ``inspect(volumes, stored_maps,
    scan)`` runs before any replay, and that damage and malformed
    records are then its to report, not refusals.
    """
    geo = compute_geometry(device.nblocks)
    layout = _layout(device, geo).items()
    slot_bytes = geo.slot_blocks * device.block_size
    for index in (0, geo.backup_super):
        fields = read_superblock(device, index)
        if fields is not None and layout <= fields.items() \
                and fields["active_slot"] in (0, 1) \
                and 0 <= fields["ckpt_len"] <= slot_bytes:
            break
    else:
        raise RecoveryError(
            "superblock", "primary and backup superblocks both invalid")
    stats.used_backup_superblock = index != 0
    generation = stats.generation = fields["generation"]
    stats.applied_txid = fields["applied_txid"]

    volumes: Dict[str, object] = {}
    stored_maps: Dict[str, Optional[list]] = {}
    try:
        applied, records = decode_checkpoint(
            read_checkpoint_blob(device, fields))
        for key in VOLUME_KEYS:
            if key not in records:
                raise DiskFormatError(f"checkpoint lacks volume {key!r}")
            volumes[key] = volume_for(key, records[key][0])
            stored_maps[key] = restore_volume(volumes[key], records[key])
    except DiskFormatError as error:
        raise RecoveryError("checkpoint", str(error)) from None
    stats.trail.append(("checkpoint", generation, applied))

    scan = scan_journal(device, geo.journal_start, geo.journal_blocks,
                        generation, deep=True)
    for block in scan.reread_blocks:
        stats.trail.append(("reread", block))
    if inspect is not None:
        inspect(volumes, stored_maps, scan)
    elif scan.mid_corruption:
        # Replaying the prefix and checkpointing would drop every
        # committed transaction beyond the bad block for good.
        raise RecoveryError(
            "journal",
            f"journal block {scan.stop_block} is unreadable and valid "
            f"records lie beyond it")
    elif scan.malformed:
        raise RecoveryError(
            "journal",
            f"journal is structurally damaged: {scan.malformed[0]}")
    stats.committed_txns = len(scan.committed)
    last_txid = applied
    for txid, ops in scan.committed:
        if txid <= applied:
            continue  # already in the checkpoint: replay once only
        for volume, op, args in ops:
            try:
                if volume not in volumes:
                    raise DiskFormatError(
                        f"journal names unknown volume {volume!r}")
                apply_journal_op(volumes[volume], op, args)
            except (SimulationError, ValueError, TypeError) as error:
                raise RecoveryError(
                    "replay", f"txn {txid} op {op!r}: {error}") from None
        stats.replayed_txns += 1
        stats.trail.append(("replay", txid, len(ops)))
        last_txid = txid
    stats.discarded_records = scan.discarded_records
    if scan.discarded_records:
        stats.trail.append(("discard", scan.discarded_records,
                            scan.uncommitted_txid))
    # The paper's boot-time scan: rebuild addr↔inode from inodes.
    stats.addrmap_segments = volumes["sfs"].rebuild_address_map()
    stats.trail.append(("addrmap", stats.addrmap_segments))
    stats.clean = (not stats.replayed_txns
                   and not stats.discarded_records
                   and not stats.used_backup_superblock)
    return fields["active_slot"], max(fields["next_txid"], last_txid + 1)


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
        self.recovery = recovery_stats()

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
        """Never formatted: both superblock blocks hold only zeros. A
        block with bytes but no valid superblock is damage, which
        recovery refuses; formatting over it would erase the image."""
        for index in (0, self.geometry.backup_super):
            raw = self.device.read(index)
            if raw.count(0) != len(raw):
                return False
        return True

    # ------------------------------------------------------------------
    # format / checkpoint / recover
    # ------------------------------------------------------------------

    def format(self) -> None:
        self.generation = 0
        self._arm_journal(generation=0, next_txid=1)
        self.checkpoint()
        self.recovery = recovery_stats(generation=self.generation)
        self.recovery.trail.append(("format", self.generation))

    def checkpoint(self) -> None:
        """Capture every volume and flip to a fresh journal generation."""
        if self.device.crashed:
            return  # power is off; nothing can persist
        assert self.journal is not None
        applied = self.journal.next_txid - 1
        geo = self.geometry
        size = self.device.block_size
        blob = encode_checkpoint(self.volumes, applied,
                                 geo.slot_blocks * size)
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
        fields = dict(
            _layout(self.device, geo),
            active_slot=self.active_slot, generation=self.generation,
            ckpt_len=len(blob), ckpt_crc=zlib.crc32(blob),
            applied_txid=applied, next_txid=self.journal.next_txid,
        )
        block = pack_superblock(fields, size)
        self.device.write(0, block)
        self.device.write(geo.backup_super, block)
        self.device.barrier()   # flip durable before any new record
        self.journal.reset(self.generation, self.journal.next_txid)
        clock = self.kernel.clock
        clock.charge("journal",
                     (span + 2) * self.journal.cost_per_block)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.DISK, name="checkpoint",
                        value=self.generation)

    def recover(self) -> None:
        """Recover the image into the kernel's own volumes, then re-arm
        the journal and checkpoint."""
        stats = recovery_stats()
        self.active_slot, next_txid = recover_volumes(
            self.device, lambda key, _kind: self.volumes[key], stats)
        self.generation = stats.generation
        self.recovery = stats
        tracer = _trace.TRACER
        if tracer.enabled:
            for entry in stats.trail:
                tracer.emit(EventKind.RECOVER, name=str(entry[0]),
                            value=int(entry[1]))
        self._arm_journal(generation=self.generation,
                          next_txid=next_txid)
        self.checkpoint()

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
def durable(nblocks: int = 8192,
            seed: int = 0) -> Iterator[List[DiskStore]]:
    """Mount a fresh block device under every kernel booted inside the
    block (the ``disk`` slot of :mod:`repro.kernel.arming`), so an
    unmodified script becomes a crash-recovery workload. Every device
    has the same geometry and seed, so reruns are bit-identical; a boot
    given an explicit ``disk=`` mounts that instead. Yields
    :data:`CAMPAIGN`, cleared on entry, for the caller to crash-test
    and remount each store afterwards."""
    CAMPAIGN.clear()

    def attach(kernel) -> None:
        device = BlockDevice(nblocks=nblocks, seed=seed,
                             name=f"disk{len(CAMPAIGN)}")
        CAMPAIGN.append(DiskStore.attach(kernel, device))

    with arming.armed("disk", attach):
        yield CAMPAIGN
