"""The crash matrix: power-fail at *every* journal record boundary.

The strongest claim ``repro.disk`` makes is not "recovery usually
works" but "there is **no** record boundary at which a crash loses
consistency". One crash loop, :func:`soak_crashes`, makes that claim
executable for the A9 matrix (:func:`run_crash_matrix`) and for
``reprochaos --crash`` alike:

1. a baseline run under :func:`~repro.disk.mount.durable` (each kernel
   the workload boots mounts a fresh, identically seeded device)
   counts the journal records it writes, N;
2. for each sampled k in 1..N, the same workload runs again with a
   ``DISK``-plane CRASH plan armed to fire at the k-th record — power
   dies mid-write, the device's pending-write window resolves under its
   seed, and the rest of the workload runs against a dead disk (writes
   silently lost, exactly like hardware);
3. every surviving image is checked by ``reprofsck`` (zero findings
   required — a torn tail is designed behaviour, not damage), then
   remounted: recovery must replay the committed prefix, and every
   public segment that survived must reopen *by address* through the
   real ``open_by_addr`` syscall with intact contents;
4. each point's :class:`RecoveryStats.trail` is captured so a second
   identical run can assert bit-identical recovery, record for record.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.disk.fsck import fsck
from repro.disk.mount import RecoveryStats, durable
from repro.errors import SimulationError
from repro.inject import (
    FaultKind,
    FaultPlan,
    Plane,
    injecting,
)

DEFAULT_SEED = 0x1993
DEFAULT_NBLOCKS = 2048


def scripted_workload(kernel) -> int:
    """50+ journaled metadata operations across both volumes.

    Exercises every journaled op: create, write, truncate, mkdir,
    rmdir, symlink, link (root volume only), unlink, rename — including
    the rename-over-existing-destination case whose atomicity the
    journal's nested-transaction rule guarantees. Returns the number of
    VFS calls made (each is one or two journal transactions).
    """
    vfs = kernel.vfs
    calls = 0

    def did() -> None:
        nonlocal calls
        calls += 1

    # --- root volume: logs with rotation ------------------------------
    vfs.makedirs("/var/tmp"); did()
    for i in range(6):
        vfs.write_whole(f"/var/tmp/log{i}",
                        f"host-log-{i}\n".encode() * (i + 1)); did()
    vfs.link("/var/tmp/log0", "/var/tmp/log0.hard"); did()
    vfs.rename("/var/tmp/log1", "/var/tmp/rotated"); did()
    vfs.rename("/var/tmp/log2", "/var/tmp/rotated"); did()  # overwrite
    vfs.unlink("/var/tmp/log3"); did()
    vfs.write_whole("/var/tmp/log4", b"rewritten\n"); did()

    # --- shared volume: segments moved between directories ------------
    vfs.makedirs("/shared/data/a"); did()
    vfs.mkdir("/shared/data/b"); did()
    for i in range(10):
        vfs.write_whole(f"/shared/data/a/seg{i}",
                        bytes([0x40 + i]) * (192 + 64 * i)); did()
    vfs.symlink("data/a/seg9", "/shared/latest"); did()
    for i in range(0, 10, 2):
        vfs.rename(f"/shared/data/a/seg{i}",
                   f"/shared/data/b/seg{i}"); did()
    # Rename over an existing destination on the shared volume too.
    vfs.rename("/shared/data/a/seg1", "/shared/data/b/seg0"); did()
    vfs.unlink("/shared/data/a/seg3"); did()
    vfs.write_whole("/shared/data/b/seg2", b"updated"); did()
    vfs.mkdir("/shared/data/scratch"); did()
    vfs.rmdir("/shared/data/scratch"); did()
    vfs.rename("/shared/data/a/seg5", "/shared/data/seg5"); did()
    vfs.unlink("/shared/latest"); did()
    vfs.symlink("data/b/seg0", "/shared/latest"); did()
    return calls


def verify_segments(kernel) -> List[str]:
    """Reopen every public segment by its address through the real
    ``open_by_addr`` syscall; return a list of failures (ideally [])."""

    def _probe_body(_kernel, _proc):
        yield

    proc = kernel.create_native_process("fsck-probe", _probe_body)
    failures: List[str] = []
    sfs = kernel.sfs
    syscalls = kernel.syscalls
    for path, inode in sfs.segments():
        address = sfs.address_of_inode(inode.number)
        expect = kernel.sfs_mount + path
        try:
            got_path, offset = syscalls.addr_to_path(proc, address)
            fd = syscalls.open_by_address(proc, address)
            data = syscalls.read(proc, fd, inode.size + 1)
            syscalls.close(proc, fd)
        except SimulationError as error:
            failures.append(f"{expect}: {type(error).__name__}: {error}")
            continue
        if got_path != expect or offset != 0:
            failures.append(
                f"{expect}: addr 0x{address:x} resolved to "
                f"{got_path!r}+{offset}")
        elif data != inode.memobj.read(0, inode.size):
            failures.append(f"{expect}: contents differ when reopened "
                            f"by address")
    return failures


@dataclass
class CrashPoint:
    """One cell of the matrix: crash at record *k*, then recover (one
    per store the workload mounted)."""

    record: int
    crashed: bool
    findings: List[str]
    seg_failures: List[str]
    replayed_txns: int
    discarded_records: int
    segments: int
    trail: Tuple[tuple, ...]

    @property
    def clean(self) -> bool:
        return not self.findings and not self.seg_failures


@dataclass
class CrashMatrix:
    total_records: int
    #: The record boundaries crashed at (see :func:`crash_points`).
    sampled: List[int] = field(default_factory=list)
    points: List[CrashPoint] = field(default_factory=list)
    #: Runs where an exception escaped the simulation's typed errors.
    deaths: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.deaths and all(p.clean for p in self.points)

    def failures(self) -> List[str]:
        out = list(self.deaths)
        for point in self.points:
            for text in point.findings:
                out.append(f"record {point.record}: fsck: {text}")
            for text in point.seg_failures:
                out.append(f"record {point.record}: segment: {text}")
        return out


def crash_points(total: int, stride: int = 1,
                 max_points: Optional[int] = None) -> List[int]:
    """The record boundaries a crash matrix visits: every *stride*-th
    of ``1..total``, thinned evenly to at most *max_points*."""
    ks = list(range(1, total + 1, max(stride, 1)))
    if max_points is not None and len(ks) > max_points:
        step = len(ks) / max_points
        ks = [ks[int(i * step)] for i in range(max_points)]
    return ks


def _durable_run(run: Callable[[], None], seed: int, nblocks: int,
                 plans: List[FaultPlan]) -> Tuple[str, list]:
    """Run *run* with a durable store under every kernel it boots and
    *plans* armed; returns (kernel-death detail or "", the stores)."""
    from repro.rr.oracle import classify_run

    faults = injecting(plans, seed=seed) if plans else nullcontext()
    with durable(nblocks=nblocks, seed=seed) as stores, faults:
        outcome, detail = classify_run(run)
    return (detail if outcome == "kernel-death" else ""), list(stores)


def _check_store(k: int, store) -> CrashPoint:
    """fsck the store's surviving image, then remount it and reopen
    every segment by address."""
    from repro import boot

    survivor = store.device.reopen()
    findings = [str(item) for item in fsck(survivor).report]
    recovery, seg_failures = RecoveryStats(), []
    if not findings:
        system = boot(disk=survivor)
        recovery = system.kernel.recovery
        seg_failures = verify_segments(system.kernel)
        system.kernel.shutdown()
    return CrashPoint(
        record=k,
        crashed=store.device.crashed,
        findings=findings,
        seg_failures=seg_failures,
        replayed_txns=recovery.replayed_txns,
        discarded_records=recovery.discarded_records,
        segments=recovery.addrmap_segments,
        trail=tuple(recovery.trail),
    )


def soak_crashes(run: Callable[[], None], seed: int = DEFAULT_SEED,
                 nblocks: int = DEFAULT_NBLOCKS, stride: int = 1,
                 max_points: Optional[int] = None) -> CrashMatrix:
    """The crash loop: crash *run* at every sampled journal record
    boundary and check every store it mounted (module docstring)."""
    death, stores = _durable_run(run, seed, nblocks, [])
    if death:
        return CrashMatrix(0, deaths=[f"baseline: kernel death: {death}"])
    matrix = CrashMatrix(max((store.journal.records_written
                              for store in stores), default=0))
    matrix.sampled = crash_points(matrix.total_records, stride,
                                  max_points)
    for k in matrix.sampled:
        plan = FaultPlan(Plane.DISK, FaultKind.CRASH, site="journal-*",
                         after=k - 1, max_faults=1)
        death, stores = _durable_run(run, seed, nblocks, [plan])
        if death:
            matrix.deaths.append(f"record {k}: kernel death: {death}")
        else:
            matrix.points.extend(_check_store(k, store) for store in stores)
    return matrix


def run_crash_matrix(seed: int = DEFAULT_SEED,
                     nblocks: int = DEFAULT_NBLOCKS,
                     stride: int = 1,
                     max_points: Optional[int] = None,
                     workload: Callable = scripted_workload
                     ) -> CrashMatrix:
    """Crash *workload* (run on one booted kernel) at every stride-th
    record boundary."""
    def run() -> None:
        from repro import boot

        system = boot()
        try:
            workload(system.kernel)
        except SimulationError:
            pass  # post-crash op surfaced an error; acceptable
        system.kernel.shutdown()

    return soak_crashes(run, seed, nblocks, stride, max_points)
