"""``reprofsck``: the offline disk-image consistency checker.

fsck is the mount's own recovery
(:func:`repro.disk.mount.recover_volumes`) run into scratch volumes —
never the mounted kernel's; the device is only read — plus invariant
checks, reported with stable ``DSK###`` codes from the shared
:mod:`repro.analyze.report` catalogue. A healthy image — including one
produced by a crash at any journal record boundary — yields an empty
report: a torn journal tail is the *designed* crash outcome and shows
in the recovery stats, not as a finding. Findings mean actual
damage: checksum failures, structural violations, or disagreement
between the kernel's stored address map and the SFS inode table it
was derived from (§3's boot-time rebuild exists precisely because the
map must be reconstructible from — and therefore consistent with — the
inodes).

Checks, in order (a recovery stage that refuses the image ends the
check with its code):

1. superblock validity and fit (DSK001); backup used (DSK002);
2. checkpoint decodability and checksum (DSK003);
3. the stored address map ↔ inode cross-checks, before replay
   (DSK021–DSK023);
4. journal structure: mid-stream damage vs honest torn tail (DSK004),
   ops outside their transaction (DSK005);
5. replay of committed transactions onto the scratch tree (DSK006);
6. tree invariants: dangling dirents (DSK010), link counts (DSK011),
   orphans (DSK012), empty symlinks (DSK013);
7. shared-volume invariants: limits (DSK020), overlaps (DSK024).
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.analyze.report import Report, finding
from repro.disk.blockdev import BlockDevice
from repro.disk.mount import recover_volumes, recovery_stats
from repro.errors import RecoveryError
from repro.fs.filesystem import Filesystem
from repro.vm.pages import PhysicalMemory

#: The finding for each recovery stage that can refuse an image.
_STAGE_CODES = {"superblock": "DSK001", "checkpoint": "DSK003",
                "replay": "DSK006"}


@dataclass
class FsckResult:
    report: Report
    stats: SimpleNamespace


def _scratch_volume(kind: str, name: str) -> Filesystem:
    physmem = PhysicalMemory()
    if kind == "sfs":
        from repro.sfs.sharedfs import SharedFilesystem

        return SharedFilesystem(physmem, name=name)
    if kind == "sfs64":
        from repro.sfs.sfs64 import SharedFilesystem64

        return SharedFilesystem64(physmem, name=name)
    return Filesystem(physmem, name=name)


def fsck(device: BlockDevice, subject: str = "") -> FsckResult:
    """Check *device* and return findings + stats. Read-only."""
    report = Report(subject or device.name)
    stats = recovery_stats()
    volumes: Dict[str, Filesystem] = {}

    def scratch(key: str, kind: str) -> Filesystem:
        volumes[key] = _scratch_volume(kind, f"{device.name}:{key}")
        return volumes[key]

    def inspect(restored, stored_maps, scan) -> None:
        _check_addrmap(report, restored["sfs"], stored_maps["sfs"])
        if scan.mid_corruption:
            report.add(finding(
                "DSK004", device.name,
                "a valid journal record exists beyond the tail — "
                "mid-stream damage, not a crash tear"))
        for violation in scan.malformed:
            report.add(finding("DSK005", device.name, violation))

    try:
        recover_volumes(device, scratch, stats, inspect)
    except RecoveryError as error:
        report.add(finding(_STAGE_CODES[error.stage], device.name,
                           str(error)))
    else:
        for key, fs in volumes.items():
            stats.inodes[key] = fs.inode_count()
            _check_tree(report, fs)
        _check_sfs(report, volumes["sfs"])
    if stats.used_backup_superblock:
        report.findings.insert(0, finding(
            "DSK002", device.name,
            "primary superblock invalid; used the backup"))
    return FsckResult(report, stats)


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------

def _check_tree(report: Report, fs: Filesystem) -> None:
    refs: Dict[int, int] = {fs.root.number: 1}  # the implicit mount ref
    subdirs: Dict[int, int] = {}
    for inode in fs.inodes():
        if not inode.is_dir:
            continue
        for name, child in inode.entries.items():
            if name in (".", ".."):
                continue
            if fs.inode_by_number(child.number) is not child:
                report.add(finding(
                    "DSK010", fs.name,
                    f"entry {name!r} in dir {inode.number} references "
                    f"missing inode {child.number}"))
                continue
            refs[child.number] = refs.get(child.number, 0) + 1
            if child.is_dir:
                subdirs[inode.number] = subdirs.get(inode.number, 0) + 1
    for inode in fs.inodes():
        if inode.is_dir:
            expected = 2 + subdirs.get(inode.number, 0)
        else:
            expected = refs.get(inode.number, 0)
        if inode.nlink != expected:
            report.add(finding(
                "DSK011", fs.name,
                f"inode {inode.number} has nlink {inode.nlink}, "
                f"directory tree implies {expected}"))
        if inode.is_symlink and not inode.symlink_target:
            report.add(finding(
                "DSK013", fs.name,
                f"symlink inode {inode.number} has no target"))
    reachable = {fs.root.number}
    fs.walk(lambda _path, inode: reachable.add(inode.number))
    for inode in fs.inodes():
        if inode.number not in reachable:
            report.add(finding(
                "DSK012", fs.name,
                f"inode {inode.number} ({inode.type.value}) is "
                f"unreachable from the root"))


def _check_addrmap(report: Report, sfs, stored: Optional[list]) -> None:
    """The stored kernel map vs the inode table it must mirror."""
    if stored is None:
        return
    stored_by_ino = {}
    for base, span, ino in stored:
        stored_by_ino[ino] = (base, span)
        if sfs.inode_by_number(ino) is None \
                or not sfs.inode_by_number(ino).is_file:
            report.add(finding(
                "DSK021", sfs.name,
                f"map entry 0x{base:x}+0x{span:x} names inode {ino}, "
                f"which is not a segment inode"))
    for inode in sfs.inodes():
        if not inode.is_file:
            continue
        entry = stored_by_ino.get(inode.number)
        if entry is None:
            report.add(finding(
                "DSK022", sfs.name,
                f"segment inode {inode.number} has no stored map entry"))
            continue
        base, _span = entry
        expected = sfs.address_of_inode(inode.number)
        if base != expected:
            report.add(finding(
                "DSK023", sfs.name,
                f"map places inode {inode.number} at 0x{base:x}, the "
                f"inode's address is 0x{expected:x}"))


def _check_sfs(report: Report, sfs) -> None:
    from repro.sfs.sharedfs import (
        MAX_FILE_SIZE,
        MAX_INODES,
        SharedFilesystem,
    )
    narrow = isinstance(sfs, SharedFilesystem) \
        and not hasattr(sfs, "_cursor")
    ranges: List[tuple] = []
    for inode in sfs.inodes():
        if narrow and not 0 <= inode.number < MAX_INODES:
            report.add(finding(
                "DSK020", sfs.name,
                f"inode number {inode.number} outside the "
                f"{MAX_INODES}-inode volume"))
            continue
        if not inode.is_file:
            continue
        if narrow and inode.size > MAX_FILE_SIZE:
            report.add(finding(
                "DSK020", sfs.name,
                f"segment inode {inode.number} holds {inode.size} "
                f"bytes (limit {MAX_FILE_SIZE})"))
        span = getattr(inode, "segment_span", MAX_FILE_SIZE)
        base = sfs.address_of_inode(inode.number)
        ranges.append((base, span, inode.number))
    ranges.sort()
    for (base_a, span_a, ino_a), (base_b, _span_b, ino_b) \
            in zip(ranges, ranges[1:]):
        if base_a + span_a > base_b:
            report.add(finding(
                "DSK024", sfs.name,
                f"segments of inodes {ino_a} and {ino_b} overlap "
                f"(0x{base_a:x}+0x{span_a:x} vs 0x{base_b:x})"))


__all__ = ["fsck", "FsckResult"]
