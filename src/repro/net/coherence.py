"""Cluster-wide shared segments: single-writer invalidation.

The directory (homed on node 0) maps each published segment base to
its owner, version, and copyset. The protocol piggybacks on the
existing SFS fault plumbing: a touch of an unmapped public address on
any node reaches :meth:`CoherenceAgent.on_fault` through the Hemlock
SIGSEGV handler, which fetches a replica from the owner — pinned to the
*same inode number*, so the segment keeps its globally agreed address
on every node. A write to a shared copy faults (the replica is mapped
read-only), upgrades through the directory, and invalidates every
other copy; the previous holders' next touch re-faults and re-fetches.

State machine, per segment::

    ABSENT ──publish──▶ EXCLUSIVE(owner)
    EXCLUSIVE ──fetch(read) by B──▶ SHARED {owner, B}   (owner demoted RO)
    SHARED ──upgrade by B──▶ EXCLUSIVE(B), version+1    (others invalidated)
    SHARED/EXCLUSIVE ──fetch(write) by B──▶ EXCLUSIVE(B), version+1
    any ──unpublish by owner──▶ ABSENT                  (copies invalidated)

Every handler is idempotent: a retransmitted request (a GRANT lost on
the wire, replayed by the fabric's bounded retransmission) re-derives
the same end state and re-ships the same grant, so NET-plane faults
never wedge the protocol — they only cost deterministic retries.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.errors import InjectedFaultError, NetError
from repro.net.link import Frame, FrameKind, Nic
from repro.sfs.sharedfs import SEGMENT_SPAN, SFS_BASE
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.util.bits import align_up
from repro.vm.address_space import MAP_SHARED, PROT_RWX, PROT_RX
from repro.vm.faults import AccessKind
from repro.vm.layout import PAGE_SIZE

#: the well-known port every node's coherence agent listens on
COHERENCE_PORT = 1

#: the node whose agent keeps the segment directory
HOME = 0


class SegmentState(enum.Enum):
    EXCLUSIVE = "exclusive"   # exactly one copy, writable on its owner
    SHARED = "shared"         # one or more read-only copies


@dataclass
class _Entry:
    """One directory row.

    ``owner == -1`` marks a reclaimed row: the holder died with the
    only authoritative copy, and :attr:`snapshot` — the bytes last
    seen transiting the home — serves the next grant. ``leases`` maps
    each non-home holder to the round its grant expires (renewed by
    heartbeats, reaped by :meth:`repro.net.ha.HaManager.reap_entry`);
    both fields stay empty unless the cluster arms HA."""

    path: str                 # volume path on the owning node's SFS
    owner: int
    version: int
    state: SegmentState
    copyset: List[int]        # nodes holding a copy, insertion order
    leases: Dict[int, int] = field(default_factory=dict)
    snapshot: bytes = b""     # last bytes that transited the home


@dataclass
class SegmentDirectory:
    """The home node's segment metadata (plain state; the home node's
    agent is the only code that reads or writes it)."""

    entries: Dict[int, _Entry] = field(default_factory=dict)

    def lookup_path(self, path: str) -> Optional[int]:
        """Base address of the segment published as *path*, lowest base
        first when several nodes published the same volume path."""
        for base in sorted(self.entries):
            if self.entries[base].path == path:
                return base
        return None


# LOOKUP / PUBLISH payloads carry the path; numeric fields go first.
_U32 = struct.Struct("<I")
_FETCH = struct.Struct("<IB")          # base, want_write
_GRANT_HEAD = struct.Struct("<IIH")    # version, size, path length


def _pack_grant(version: int, size: int, path: str,
                data: bytes) -> bytes:
    encoded = path.encode()
    return _GRANT_HEAD.pack(version, size, len(encoded)) + encoded + data


def _unpack_grant(payload: bytes):
    version, size, path_len = _GRANT_HEAD.unpack_from(payload)
    offset = _GRANT_HEAD.size
    path = payload[offset:offset + path_len].decode()
    data = payload[offset + path_len:]
    return version, size, path, data


class CoherenceAgent:
    """One node's half of the protocol.

    Installed as ``kernel.coherence`` (consulted by the Hemlock SIGSEGV
    handler) and ``kernel.sfs.coherence`` (notified of segment create /
    destroy). ``suspended`` gates the SFS callbacks while the agent
    itself manipulates replica files, so replica bookkeeping never
    re-enters the protocol.
    """

    def __init__(self, cluster, node_id: int, kernel,
                 nic: Nic, directory: SegmentDirectory) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.kernel = kernel
        self.nic = nic
        self.directory = directory
        # Per-node protocol counters.
        self.stats = SimpleNamespace(
            publishes=0,
            unpublishes=0,
            fetches=0,          # replicas this node pulled in
            upgrades=0,         # shared->exclusive promotions won
            downgrades=0,       # exclusive->shared demotions suffered
            invalidations=0,    # copies this node discarded on request
            bytes_fetched=0,    # segment bytes shipped to this node
            naks=0,             # refused requests (unknown segment)
        )
        self.suspended = False
        #: local holding mode per base: "shared" | "exclusive"
        self.modes: Dict[int, str] = {}
        nic.bind(COHERENCE_PORT, self._handle)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _emit(self, name: str, base: int, value: int = 0,
              pid: int = 0) -> None:
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.NET, name=name, pid=pid, addr=base,
                        value=value)

    @staticmethod
    def base_of(address: int) -> int:
        return SFS_BASE + ((address - SFS_BASE) // SEGMENT_SPAN) \
            * SEGMENT_SPAN

    @staticmethod
    def ino_of(base: int) -> int:
        return (base - SFS_BASE) // SEGMENT_SPAN

    def _call_home(self, kind: FrameKind, payload: bytes) -> Frame:
        """One exchange with the directory: a wire RPC from remote
        nodes, a plain call on the home node itself."""
        if self.node_id == HOME:
            home_agent = self.cluster.machines[HOME].agent
            reply_kind, reply_payload = home_agent._handle(
                Frame(kind, self.node_id, HOME, COHERENCE_PORT,
                      0, payload))
            return Frame(reply_kind, HOME, self.node_id,
                         COHERENCE_PORT, 0, reply_payload)
        return self.nic.call(HOME, kind, COHERENCE_PORT, payload)

    # ------------------------------------------------------------------
    # SFS lifecycle hooks (via sfs.coherence)
    # ------------------------------------------------------------------

    def segment_created(self, inode) -> None:
        if self.suspended:
            return
        base = self.kernel.sfs.address_of_inode(inode.number)
        path = self.kernel.sfs.path_of_inode(inode.number)
        self.modes[base] = "exclusive"
        self.stats.publishes += 1
        self._emit("publish", base, value=inode.number)
        payload = _U32.pack(base) + path.encode()
        self._call_home(FrameKind.PUBLISH, payload)

    def segment_destroyed(self, inode) -> None:
        if self.suspended:
            return
        base = self.kernel.sfs.address_of_inode(inode.number)
        self.modes.pop(base, None)
        self.stats.unpublishes += 1
        self._emit("unpublish", base, value=inode.number)
        self._call_home(FrameKind.UNPUBLISH, _U32.pack(base))

    # ------------------------------------------------------------------
    # path -> base (the cluster-aware half of segment_base)
    # ------------------------------------------------------------------

    def lookup_path(self, path: str) -> Optional[int]:
        """Directory lookup of a full (mounted) path; None if unknown
        or not under the shared mount."""
        mount = self.kernel.sfs_mount
        if not path.startswith(mount + "/"):
            return None
        volume_path = path[len(mount):]
        self._emit("lookup", 0)
        reply = self._call_home(FrameKind.LOOKUP, volume_path.encode())
        if reply.kind is not FrameKind.GRANT:
            return None
        return _U32.unpack_from(reply.payload)[0]

    # ------------------------------------------------------------------
    # the fault hook (via kernel.coherence)
    # ------------------------------------------------------------------

    def on_fault(self, proc, info) -> Optional[bool]:
        """Resolve a public-region fault through the cluster.

        Returns True (mapped/upgraded: retry the access), False (the
        fault stands), or None (not cluster-managed here: let the
        default segment mapper take it).
        """
        address = info.address
        base = self.base_of(address)
        want_write = info.access is AccessKind.WRITE
        mode = self.modes.get(base)
        local = self.kernel.sfs.addrmap.lookup_address(address) \
            is not None
        try:
            if local:
                if mode == "shared":
                    if want_write:
                        return self._upgrade(proc, base)
                    if info.present:
                        return False
                    return self._map_local(proc, base, PROT_RX)
                # exclusive here (or not protocol-managed): the default
                # mapper handles it at full rights.
                return None
            return self._fetch(proc, base, want_write)
        except InjectedFaultError as error:
            self.kernel.note_contained(error)
            proc.pending_fault_error = error
            return False
        except NetError:
            return False

    # ------------------------------------------------------------------
    # requester side
    # ------------------------------------------------------------------

    def _fetch(self, proc, base: int, want_write: bool) -> bool:
        reply = self._call_home(
            FrameKind.FETCH, _FETCH.pack(base, 1 if want_write else 0))
        if reply.kind is not FrameKind.GRANT:
            self.stats.naks += 1
            return False
        version, size, path, data = _unpack_grant(reply.payload)
        self._install_replica(base, path, size, data)
        self.modes[base] = "exclusive" if want_write else "shared"
        self.stats.fetches += 1
        self.stats.bytes_fetched += len(data)
        self._emit("fetch", base, value=version, pid=proc.pid)
        self._map_into(proc, base, size,
                       PROT_RWX if want_write else PROT_RX)
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            sanitizer.coherence_acquire(self.kernel, proc, base)
        return True

    def _upgrade(self, proc, base: int) -> bool:
        reply = self._call_home(FrameKind.UPGRADE, _U32.pack(base))
        if reply.kind is not FrameKind.GRANT:
            self.stats.naks += 1
            return False
        version = _GRANT_HEAD.unpack_from(reply.payload)[0]
        self.modes[base] = "exclusive"
        self.stats.upgrades += 1
        self._emit("upgrade", base, value=version, pid=proc.pid)
        self._reprotect_local(base, PROT_RWX)
        if proc.address_space.mapping_at(base) is None:
            inode = self.kernel.sfs.inode_by_number(self.ino_of(base))
            assert inode is not None
            self._map_into(proc, base, inode.size, PROT_RWX)
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            sanitizer.coherence_acquire(self.kernel, proc, base)
        return True

    def _map_local(self, proc, base: int, prot: int) -> bool:
        inode = self.kernel.sfs.inode_by_number(self.ino_of(base))
        if inode is None:
            return False
        self._map_into(proc, base, inode.size, prot)
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            sanitizer.coherence_acquire(self.kernel, proc, base)
        return True

    def _install_replica(self, base: int, path: str, size: int,
                         data: bytes) -> None:
        sfs = self.kernel.sfs
        ino = self.ino_of(base)
        inode = sfs.inode_by_number(ino)
        if inode is None or not inode.is_file:
            mount = self.kernel.sfs_mount
            full = mount + path
            directory = full.rsplit("/", 1)[0] or mount
            self.suspended = True
            try:
                self.kernel.vfs.makedirs(directory)
                fs, parent = self.kernel.vfs.resolve(directory)
                if fs is not sfs:
                    raise NetError(
                        f"replica path {full!r} is off the shared "
                        f"mount")
                name = full.rsplit("/", 1)[1]
                inode = sfs.create_file(parent, name, uid=0, _ino=ino)
            finally:
                self.suspended = False
        self.suspended = True
        try:
            if data:
                sfs.write_file(inode, 0, data)
            sfs.truncate_file(inode, size)
        finally:
            self.suspended = False
        self.kernel.clock.copy(len(data))

    def _map_into(self, proc, base: int, size: int, prot: int) -> None:
        inode = self.kernel.sfs.inode_by_number(self.ino_of(base))
        assert inode is not None and inode.memobj is not None
        length = align_up(max(size, 1), PAGE_SIZE)
        existing = proc.address_space.mapping_at(base)
        if existing is not None:
            proc.address_space.unmap_mapping(existing)
        volume_path = self.kernel.sfs.path_of_inode(inode.number)
        proc.address_space.map(
            base, length, memobj=inode.memobj, offset=0, prot=prot,
            flags=MAP_SHARED, name=self.kernel.sfs_mount + volume_path)
        self.kernel.clock.map_segment()

    # ------------------------------------------------------------------
    # remote-initiated local transitions
    # ------------------------------------------------------------------

    def _reprotect_local(self, base: int, prot: int) -> None:
        """mprotect every local mapping of *base* (TLB shootdown cost
        charged per mapping)."""
        for pid in sorted(self.kernel.processes):
            proc = self.kernel.processes[pid]
            if not proc.alive:
                continue
            mapping = proc.address_space.mapping_at(base)
            if mapping is None:
                continue
            proc.address_space.mprotect(
                mapping.start, mapping.end - mapping.start, prot)
            self.kernel.clock.map_segment()

    def _downgrade_local(self, base: int) -> bytes:
        """Demote this node's exclusive copy to shared; returns the
        authoritative bytes for the directory to forward."""
        inode = self.kernel.sfs.inode_by_number(self.ino_of(base))
        if inode is None:
            return b""
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            # This node stops writing: publish its clocks so the next
            # GRANT's recipient is ordered after everything it did.
            sanitizer.coherence_release(self.kernel, base)
        self.modes[base] = "shared"
        self.stats.downgrades += 1
        self._emit("downgrade", base, value=inode.size)
        self._reprotect_local(base, PROT_RX)
        data = self.kernel.sfs.read_file(inode, 0, inode.size)
        self.kernel.clock.copy(len(data))
        return data

    def _read_local(self, base: int) -> bytes:
        inode = self.kernel.sfs.inode_by_number(self.ino_of(base))
        if inode is None:
            return b""
        data = self.kernel.sfs.read_file(inode, 0, inode.size)
        self.kernel.clock.copy(len(data))
        return data

    def _invalidate_local(self, base: int) -> None:
        """Discard this node's copy: unmap everywhere, unlink the
        replica file (suspended, so no unpublish fires)."""
        sfs = self.kernel.sfs
        inode = sfs.inode_by_number(self.ino_of(base))
        if inode is None:
            self.modes.pop(base, None)
            return
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            sanitizer.coherence_release(self.kernel, base)
        for pid in sorted(self.kernel.processes):
            proc = self.kernel.processes[pid]
            if not proc.alive:
                continue
            mapping = proc.address_space.mapping_at(base)
            if mapping is not None:
                proc.address_space.unmap_mapping(mapping)
                self.kernel.clock.map_segment()
        volume_path = sfs.path_of_inode(inode.number)
        self.suspended = True
        try:
            self.kernel.vfs.unlink(self.kernel.sfs_mount + volume_path)
        finally:
            self.suspended = False
        self.modes.pop(base, None)
        self.stats.invalidations += 1
        self._emit("invalidate", base)

    # ------------------------------------------------------------------
    # directory side (runs on the home node's agent only)
    # ------------------------------------------------------------------

    def _remote_op(self, node: int, kind: FrameKind,
                   payload: bytes) -> Frame:
        """Home-initiated sub-exchange with *node* (downgrade,
        invalidate, pull); local call when *node* is the home itself."""
        if node == self.node_id:
            reply_kind, reply_payload = self._handle(
                Frame(kind, self.node_id, node, COHERENCE_PORT, 0,
                      payload))
            return Frame(reply_kind, node, self.node_id,
                         COHERENCE_PORT, 0, reply_payload)
        return self.nic.call(node, kind, COHERENCE_PORT, payload)

    def _ha(self):
        """The cluster's HA manager, or None when not armed."""
        return self.cluster.ha

    def _lease(self, entry: _Entry, node: int) -> None:
        """Stamp *node*'s round-bounded lease on a grant (HA only)."""
        ha = self._ha()
        if ha is not None:
            ha.grant_lease(entry, node)

    def _persist_directory(self) -> None:
        """Journal the segment table through the home's disk after a
        directory-shape change (HA only; lease renewals don't count —
        recovery re-grants leases with a fresh grace window anyway)."""
        ha = self._ha()
        if ha is not None:
            ha.persist_directory()

    def _invalidate_copies(self, entry: _Entry, base: int,
                           keep: int) -> None:
        """INVALIDATE every copy but *keep*'s. Unreachable holders are
        skipped — lease reaping already dropped (or will drop) them
        from the row, and the re-join handshake discards whatever copy
        they still hold before they can trust it again."""
        ha = self._ha()
        for node in list(entry.copyset):
            if node == keep:
                continue
            if ha is not None and not ha.can_talk_to(node):
                continue
            self._remote_op(node, FrameKind.INVALIDATE,
                            _U32.pack(base))

    def _pull(self, entry: _Entry, base: int,
              downgrade: bool) -> bytes:
        """The authoritative bytes, from the owner (demoting it when
        *downgrade*); the home's snapshot when the owner died with the
        only copy (a reclaimed row)."""
        if entry.owner < 0:
            return entry.snapshot
        kind = FrameKind.DOWNGRADE if downgrade else FrameKind.FETCH
        if entry.owner == self.node_id:
            if downgrade:
                return self._downgrade_local(base)
            return self._read_local(base)
        if downgrade:
            reply = self._remote_op(entry.owner, FrameKind.DOWNGRADE,
                                    _U32.pack(base))
        else:
            # a plain read of the owner's copy (owner already shared)
            reply = self._remote_op(entry.owner, FrameKind.FETCH,
                                    _FETCH.pack(base, 2))
        if reply.kind is not FrameKind.GRANT:
            raise NetError(
                f"owner {entry.owner} refused {kind.name} of "
                f"0x{base:08x}")
        _version, _size, _path, data = _unpack_grant(reply.payload)
        return data

    def _handle(self, frame: Frame):
        """The COHERENCE_PORT handler: directory requests when this is
        the home node, peer requests (downgrade/invalidate/serve)
        otherwise. Returns ``(FrameKind, payload)``."""
        kind = frame.kind
        payload = frame.payload
        if kind is FrameKind.PUBLISH:
            base = _U32.unpack_from(payload)[0]
            path = payload[_U32.size:].decode()
            entry = self.directory.entries.get(base)
            if entry is None or entry.owner != frame.src:
                fresh = _Entry(
                    path=path, owner=frame.src, version=1,
                    state=SegmentState.EXCLUSIVE, copyset=[frame.src])
                self._lease(fresh, frame.src)
                self.directory.entries[base] = fresh
                self._persist_directory()
            return FrameKind.ACK, b""
        if kind is FrameKind.UNPUBLISH:
            base = _U32.unpack_from(payload)[0]
            entry = self.directory.entries.get(base)
            if entry is not None:
                if frame.src == entry.owner:
                    self._invalidate_copies(entry, base,
                                            keep=entry.owner)
                    del self.directory.entries[base]
                    self._persist_directory()
                elif frame.src in entry.copyset:
                    entry.copyset.remove(frame.src)
                    entry.leases.pop(frame.src, None)
                    self._persist_directory()
            return FrameKind.ACK, b""
        if kind is FrameKind.LOOKUP:
            base = self.directory.lookup_path(payload.decode())
            if base is None:
                return FrameKind.NAK, b""
            return FrameKind.GRANT, _U32.pack(base)
        if kind is FrameKind.FETCH:
            base, want = _FETCH.unpack_from(payload)
            if want == 2:
                # a peer read of this node's own copy, for the home
                data = self._read_local(base)
                return FrameKind.GRANT, _pack_grant(0, len(data), "",
                                                    data)
            return self._serve_fetch(frame.src, base, want == 1)
        if kind is FrameKind.UPGRADE:
            base = _U32.unpack_from(payload)[0]
            return self._serve_upgrade(frame.src, base)
        if kind is FrameKind.DOWNGRADE:
            base = _U32.unpack_from(payload)[0]
            data = self._downgrade_local(base)
            return FrameKind.GRANT, _pack_grant(0, len(data), "", data)
        if kind is FrameKind.INVALIDATE:
            base = _U32.unpack_from(payload)[0]
            self._invalidate_local(base)
            return FrameKind.ACK, b""
        return FrameKind.NAK, b""

    def _serve_fetch(self, src: int, base: int, want_write: bool):
        entry = self.directory.entries.get(base)
        if entry is None:
            return FrameKind.NAK, b""
        ha = self._ha()
        if ha is not None:
            # the requester just proved it is alive: never reap it
            ha.reap_entry(base, entry, keep=src)
        if want_write:
            data = b"" if entry.owner == src \
                else self._pull(entry, base, downgrade=False)
            if data:
                entry.snapshot = data
            self._invalidate_copies(entry, base, keep=src)
            if entry.owner != src or entry.state is not \
                    SegmentState.EXCLUSIVE or entry.copyset != [src]:
                entry.owner = src
                entry.version += 1
                entry.state = SegmentState.EXCLUSIVE
                entry.copyset = [src]
                entry.leases = {}
                self._lease(entry, src)
                self._persist_directory()
            return FrameKind.GRANT, _pack_grant(
                entry.version, len(data), entry.path, data)
        # read intent
        if entry.state is SegmentState.EXCLUSIVE \
                and entry.owner != src:
            data = self._pull(entry, base, downgrade=True)
            entry.state = SegmentState.SHARED
        else:
            data = b"" if entry.owner == src \
                else self._pull(entry, base, downgrade=False)
        if data:
            entry.snapshot = data
        self._lease(entry, src)
        if src not in entry.copyset:
            entry.copyset.append(src)
            self._persist_directory()
        return FrameKind.GRANT, _pack_grant(
            entry.version, len(data), entry.path, data)

    def _serve_upgrade(self, src: int, base: int):
        entry = self.directory.entries.get(base)
        if entry is None:
            return FrameKind.NAK, b""
        ha = self._ha()
        if ha is not None:
            ha.reap_entry(base, entry, keep=src)
        if src not in entry.copyset:
            return FrameKind.NAK, b""
        if entry.owner != src or entry.state is not \
                SegmentState.EXCLUSIVE or entry.copyset != [src]:
            self._invalidate_copies(entry, base, keep=src)
            entry.owner = src
            entry.version += 1
            entry.state = SegmentState.EXCLUSIVE
            entry.copyset = [src]
            entry.leases = {}
            self._lease(entry, src)
            self._persist_directory()
        return FrameKind.GRANT, _pack_grant(entry.version, 0,
                                            entry.path, b"")
