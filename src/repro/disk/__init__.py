"""repro.disk — the durable block store.

A simulated block device with a deterministic write-reordering window
(:mod:`repro.disk.blockdev`), a write-ahead metadata journal every
mutating FS/SFS operation flows through (:mod:`repro.disk.journal`),
whole-volume checkpoint images (:mod:`repro.disk.image`), boot-time
crash recovery that replays committed transactions, discards torn
tails, and rebuilds the kernel's addr↔inode table
(:mod:`repro.disk.mount`), the ``reprofsck`` consistency checker
(:mod:`repro.disk.fsck`), and the crash-at-every-record matrix
(:mod:`repro.disk.crash`). See DESIGN.md §9.

Boot with a device to make the machine durable::

    from repro import boot
    from repro.disk import BlockDevice

    device = BlockDevice()
    system = boot(disk=device)          # blank device: formatted
    system.vfs.write_whole("/shared/seg", b"...")
    system.kernel.shutdown()            # clean checkpoint

    system2 = boot(disk=device.reopen())   # recovers; segments persist
"""

from repro.disk.blockdev import BLOCK_SIZE, DEFAULT_BLOCKS, BlockDevice
from repro.disk.crash import (
    CrashMatrix,
    CrashPoint,
    crash_points,
    run_crash_matrix,
    scripted_workload,
    soak_crashes,
    verify_segments,
)
from repro.disk.fsck import FsckResult, fsck
from repro.disk.journal import Journal, scan_journal
from repro.disk.mount import CAMPAIGN, DiskStore, RecoveryStats, durable

__all__ = [
    "BLOCK_SIZE",
    "BlockDevice",
    "CAMPAIGN",
    "CrashMatrix",
    "CrashPoint",
    "DEFAULT_BLOCKS",
    "DiskStore",
    "FsckResult",
    "Journal",
    "RecoveryStats",
    "crash_points",
    "durable",
    "fsck",
    "run_crash_matrix",
    "scan_journal",
    "scripted_workload",
    "soak_crashes",
    "verify_segments",
]
