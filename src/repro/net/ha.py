"""repro.ha — node failures as first-class, seeded, replayable events.

The paper's flagship deployment was rwho on 65 Suns that crashed and
rebooted constantly; a cluster model that wedges forever the moment one
node dies reproduces the mechanism but not the environment. This
module makes whole-machine failure part of the deterministic schedule:

* **NODE fault plane.** Each scheduling round the manager asks each
  node's injector for a CRASH/WEDGE decision (and each crashed node's
  injector for a REBOOT), plus one cluster-wide PARTITION draw — all
  through the standard per-plan splitmix64 RNG, so a failure schedule
  is a pure function of ``(seed, plans)`` and replays bit-identically.
* **Leases.** Directory grants are stamped with a round-bounded lease,
  renewed by heartbeats. When a holder's lease expires (or the holder
  is suspected dead), the directory *reclaims* it: the holder's copy is
  declared dead, and the home's last snapshot of the bytes becomes the
  authoritative copy — so a crashed writer unblocks readers within a
  bounded number of rounds instead of wedging the protocol.
* **Membership.** Round-based heartbeats flow through the ordinary
  fabric (charged like any other frame); the home suspects a node after
  :attr:`HaConfig.suspicion_rounds` silent rounds, or immediately when
  one of its own exchanges with the node times out. A suspected node's
  first heartbeat after the fault heals re-joins it: stale replicas it
  still holds (bases the directory no longer lists it for) are
  invalidated before it touches them.
* **Recovery.** The home journals its segment table through the node's
  ``repro.disk`` store on every directory-shape change; a REBOOTed home
  recovers the table fsck-clean from its volume and re-grants leases
  with a fresh grace window. Rebooted nodes sweep foreign-inode replica
  files from a recovered SFS (replicas are exactly the files pinned
  outside the node's own inode stripe), so stale copies can never be
  re-mapped silently.

Pay-for-use: a cluster booted without ``ha=True`` never constructs a
manager, sends no heartbeats, and every fabric hook costs one ``is not
None`` check — fault-free runs stay bit-identical to the pre-HA model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import NetError, SimulationError
from repro.inject.plan import FaultKind
from repro.net.coherence import HOME
from repro.net.link import FrameKind
from repro.sfs.sharedfs import MAX_INODES
from repro.trace import tracer as _trace
from repro.trace.events import EventKind

#: well-known port heartbeats arrive on (netd hands them to the manager)
HA_PORT = 2

#: where the home persists its segment table (journaled by repro.disk)
DIRSTORE_DIR = "/var/hemlock"
DIRSTORE_PATH = "/var/hemlock/segdir"

_U32 = struct.Struct("<I")
_HB_HEAD = struct.Struct("<H")  # number of held bases

_CRASH = frozenset({FaultKind.CRASH})
_WEDGE = frozenset({FaultKind.WEDGE})
_PARTITION = frozenset({FaultKind.PARTITION})
_REBOOT = frozenset({FaultKind.REBOOT})


def _emit(name: str, addr: int = 0, value: int = 0) -> None:
    tracer = _trace.TRACER
    if tracer.enabled:
        tracer.emit(EventKind.HA, name=name, addr=addr, value=value)


@dataclass(frozen=True)
class HaConfig:
    """Protocol constants, all in scheduling rounds."""

    lease_rounds: int = 40       # grant validity without renewal
    heartbeat_every: int = 4     # per-node heartbeat cadence
    suspicion_rounds: int = 12   # silent rounds before suspicion
    min_wedge_rounds: int = 8    # WEDGE window bounds (drawn per fault)
    max_wedge_rounds: int = 60
    min_partition_rounds: int = 8
    max_partition_rounds: int = 40

    def __post_init__(self) -> None:
        if self.heartbeat_every < 1:
            raise NetError("heartbeat_every must be >= 1")
        if self.suspicion_rounds <= self.heartbeat_every:
            raise NetError(
                "suspicion_rounds must exceed heartbeat_every")
        if self.lease_rounds <= self.suspicion_rounds:
            raise NetError("lease_rounds must exceed suspicion_rounds")


@dataclass
class HaStats:
    """Counters over the failure model and the recovery machinery."""

    crashes: int = 0
    wedges: int = 0
    partitions: int = 0
    heals: int = 0           # partition windows that expired
    reboots: int = 0
    heartbeats: int = 0      # processed by the home (frames + self)
    suspects: int = 0
    rejoins: int = 0
    lease_reclaims: int = 0  # dead holders reaped from directory rows
    stale_invalidated: int = 0  # re-join copies discarded
    dir_persists: int = 0
    dir_recovered: int = 0   # entries restored from the disk journal


def _had_body(ha: "HaManager", node: int):
    """The heartbeat daemon: one datagram to the home every
    ``heartbeat_every`` rounds (a direct call on the home itself — no
    frame, no cycles for the self-heartbeat). Staggered by node id so
    the fleet does not burst on the same round."""

    def body(kernel, proc):
        config = ha.config
        while True:
            rnd = ha.cluster.round
            if rnd % config.heartbeat_every \
                    == node % config.heartbeat_every:
                agent = kernel.coherence
                bases = sorted(agent.modes)
                if node == HOME:
                    ha.on_heartbeat(node, bases)
                else:
                    payload = _HB_HEAD.pack(len(bases)) \
                        + b"".join(_U32.pack(base) for base in bases)
                    kernel.nic.send(proc, HOME, HA_PORT, payload,
                                    kind=FrameKind.HEARTBEAT)
            yield

    return body


class HaManager:
    """The cluster's failure model and membership/lease authority.

    One instance per armed cluster. Physical truth (who is crashed,
    which links a partition cuts) lives here and gates the fabric via
    :meth:`filter_send`; the *membership view* (who the home currently
    believes is alive) is derived from heartbeats and exchange timeouts
    and is what lease reclamation consults — the protocol never reads
    ground truth it could not have observed.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.config = HaConfig()
        self.stats = HaStats()
        self.crashed: Dict[int, int] = {}    # node -> round it died
        self.wedged: Dict[int, int] = {}     # node -> heal round
        #: active cuts: (side_a, side_b, heal_round)
        self.partitions: List[Tuple[FrozenSet[int], FrozenSet[int],
                                    int]] = []
        self.suspected: set = set()
        self.last_seen: Dict[int, int] = {}  # node -> last hb round
        self._view_epoch = 0                 # round the view (re)reset
        self._dir_dirty = False              # flushed at round start
        #: callbacks ``hook(cluster, node, machine)`` run after a node
        #: reboots — scenarios respawn their daemons here
        self.on_reboot: List[Callable] = []

    # ------------------------------------------------------------------
    # physical truth (consulted by the fabric)
    # ------------------------------------------------------------------

    def filter_send(self, src: int, dst: int) -> Optional[str]:
        """``"down"`` / ``"cut"`` if a frame from *src* to *dst* cannot
        arrive right now, else None."""
        if dst in self.crashed or src in self.crashed:
            return "down"
        for side_a, side_b, _heal in self.partitions:
            if (src in side_a and dst in side_b) \
                    or (src in side_b and dst in side_a):
                return "cut"
        return None

    def can_talk_to(self, node: int) -> bool:
        """May the home address *node* right now (reachable and not
        suspected)? Used to skip invalidations that could only time
        out — the re-join handshake cleans those copies up instead."""
        return node not in self.crashed \
            and node not in self.suspected \
            and self.filter_send(HOME, node) is None

    def note_timeout(self, src: int, dst: int) -> None:
        """A synchronous exchange from *src* exhausted its budget with
        every attempt blocked by the failure model. Only the home's own
        observations feed the membership view (fail-fast suspicion)."""
        if src == HOME and dst != HOME \
                and dst not in self.suspected:
            self.suspected.add(dst)
            self.stats.suspects += 1
            _emit("suspect", value=dst)

    # ------------------------------------------------------------------
    # the per-round driver (called from Cluster.step)
    # ------------------------------------------------------------------

    def on_round(self, rnd: int) -> None:
        self._flush_directory()
        self._heal(rnd)
        self._decide_faults(rnd)
        self._update_view(rnd)

    def _heal(self, rnd: int) -> None:
        for node, heal in list(self.wedged.items()):
            if heal <= rnd:
                del self.wedged[node]
                machine = self.cluster.machines[node]
                if not machine.crashed:
                    machine.nic.wedged = False
                _emit("unwedge", value=node)
        if self.partitions:
            kept = []
            for cut in self.partitions:
                if cut[2] <= rnd:
                    self.stats.heals += 1
                    _emit("partition-heal", value=rnd)
                else:
                    kept.append(cut)
            self.partitions = kept

    def _decide_faults(self, rnd: int) -> None:
        cluster = self.cluster
        config = self.config
        live = cluster.nnodes - len(self.crashed)
        for node in range(cluster.nnodes):
            machine = cluster.machines[node]
            injector = machine.kernel.injector
            if injector is None:
                continue
            subject = f"node{node}"
            if node in self.crashed:
                if injector.on_node("reboot", subject, _REBOOT) \
                        is not None:
                    self.reboot(node)
                    live += 1
                continue
            # Never kill the last live node: with nobody left to drive
            # rounds toward recovery the cluster could only time out.
            if live > 1 \
                    and injector.on_node("crash", subject, _CRASH) \
                    is not None:
                self.crash(node)
                live -= 1
                continue
            if node not in self.wedged:
                state = injector.on_node("wedge", subject, _WEDGE)
                if state is not None:
                    span = state.rng.randint(config.min_wedge_rounds,
                                             config.max_wedge_rounds)
                    self.wedge(node, rnd + span)
        if not self.partitions and not self.crashed \
                and cluster.nnodes >= 2:
            coordinator = cluster.machines[0].kernel.injector
            if coordinator is not None:
                state = coordinator.on_node("partition", "cluster",
                                            _PARTITION)
                if state is not None:
                    span = state.rng.randint(
                        config.min_partition_rounds,
                        config.max_partition_rounds)
                    sides = [state.rng.randint(0, 1)
                             for _ in range(cluster.nnodes)]
                    if len(set(sides)) == 1:  # force both sides real
                        sides[state.rng.randint(
                            0, cluster.nnodes - 1)] ^= 1
                    side_a = frozenset(n for n, s in enumerate(sides)
                                       if s == 0)
                    side_b = frozenset(n for n, s in enumerate(sides)
                                       if s == 1)
                    self.partition(side_a, side_b, rnd + span)

    def _update_view(self, rnd: int) -> None:
        """Heartbeat-miss suspicion, from the home's point of view."""
        if HOME in self.crashed:
            return  # nobody is keeping the view while the home is down
        threshold = self.config.suspicion_rounds
        for node in range(self.cluster.nnodes):
            if node == HOME or node in self.suspected:
                continue
            last = self.last_seen.get(node, self._view_epoch)
            if rnd - last > threshold:
                self.suspected.add(node)
                self.stats.suspects += 1
                _emit("suspect", value=node)

    # ------------------------------------------------------------------
    # the faults themselves
    # ------------------------------------------------------------------

    def crash(self, node: int) -> None:
        """Halt *node* mid-round: volatile state (memory, queues, NIC
        inbox, directory if it was the home) is gone; its disk loses
        power through the device's reorder window."""
        cluster = self.cluster
        machine = cluster.machines[node]
        machine.crashed = True
        self.crashed[node] = cluster.round
        self.wedged.pop(node, None)
        machine.nic.inbox.clear()
        cluster.fabric.purge_node(node)
        machine.kernel.crash()  # power loss through the disk's window
        if node == HOME:
            # the directory was volatile home-node memory
            cluster.directory.entries.clear()
        self.stats.crashes += 1
        _emit("crash", value=node)

    def wedge(self, node: int, heal_round: int) -> None:
        """The node's netd stops draining until *heal_round*; frames
        pile up in its inbox and deliver late — delayed, never lost."""
        machine = self.cluster.machines[node]
        machine.nic.wedged = True
        self.wedged[node] = heal_round
        self.stats.wedges += 1
        _emit("wedge", addr=heal_round, value=node)

    def partition(self, side_a: FrozenSet[int], side_b: FrozenSet[int],
                  heal_round: int) -> None:
        """Cut every link between *side_a* and *side_b* until
        *heal_round* (frames between the sides are lost, not delayed)."""
        if not side_a or not side_b:
            raise NetError("a partition needs two non-empty sides")
        self.partitions.append((side_a, side_b, heal_round))
        self.stats.partitions += 1
        _emit("partition", addr=heal_round, value=len(side_b))

    def reboot(self, node: int) -> None:
        """Re-boot a crashed node from its durable volume (volatile if
        it had none) through the cluster's one member boot path, which
        bumps its boot generation; recover the directory when it is
        the home, and run the scenario's re-spawn hooks. The order —
        boot, ``resume_from``, replica sweep, directory recovery,
        ``had``, hooks — fixes process creation order, which sanitizer
        thread ids, trace order and ``.rrr`` bytes depend on."""
        cluster = self.cluster
        old_kernel = cluster.machines[node].kernel
        del self.crashed[node]
        machine = cluster._boot_member(
            node, None if old_kernel.disk is None
            else old_kernel.disk.device.reopen())
        if old_kernel.injector is not None \
                and machine.kernel.injector is not None:
            # the fault campaign is cluster-scoped: `after` offsets and
            # `max_faults` caps keep counting across the reboot
            machine.kernel.injector.resume_from(old_kernel.injector)
        self._sweep_replicas(machine)
        if node == HOME:
            self._recover_directory(machine.kernel)
            # fresh view: give every node a grace period to re-report
            self.last_seen = {}
            self._view_epoch = cluster.round
        self.stats.reboots += 1
        _emit("reboot", value=node)
        machine.add_daemon("had", _had_body(self, node))
        for hook in list(self.on_reboot):
            hook(cluster, node, machine)

    def _sweep_replicas(self, machine) -> None:
        """Unlink foreign-inode files from a recovered SFS. Replicas
        are pinned to inos outside the node's own stripe, so this is
        exactly the set of copies whose directory standing (and
        content) can no longer be trusted after a crash."""
        kernel = machine.kernel
        stripe = MAX_INODES // self.cluster.nnodes
        lo = machine.node_id * stripe
        agent = machine.agent
        swept = 0
        for volume_path, inode in kernel.sfs.segments():
            if lo <= inode.number < lo + stripe:
                continue
            agent.suspended = True
            try:
                kernel.vfs.unlink(kernel.sfs_mount + volume_path)
            except SimulationError:
                pass
            finally:
                agent.suspended = False
            swept += 1
        if swept:
            _emit("replica-sweep", value=swept)

    # ------------------------------------------------------------------
    # heartbeats, leases, re-join
    # ------------------------------------------------------------------

    def on_heartbeat_frame(self, frame) -> None:
        """A HEARTBEAT datagram drained by the home's netd."""
        count = _HB_HEAD.unpack_from(frame.payload)[0]
        offset = _HB_HEAD.size
        bases = [
            _U32.unpack_from(frame.payload, offset + i * _U32.size)[0]
            for i in range(count)
        ]
        self.on_heartbeat(frame.src, bases)

    def on_heartbeat(self, node: int, bases: List[int]) -> None:
        """Process one i-am-alive: refresh the view, renew the sender's
        leases, and invalidate any copy it holds that the directory no
        longer lists it for (the re-join handshake)."""
        cluster = self.cluster
        rnd = cluster.round
        self.last_seen[node] = rnd
        self.stats.heartbeats += 1
        if node in self.suspected and node not in self.crashed:
            self.suspected.discard(node)
            self.stats.rejoins += 1
            _emit("rejoin", value=node)
        entries = cluster.directory.entries
        expiry = rnd + self.config.lease_rounds
        home_agent = cluster.machines[HOME].agent
        for base in bases:
            entry = entries.get(base)
            if entry is not None and node in entry.copyset:
                if node != HOME:
                    entry.leases[node] = expiry
            elif node != HOME and self.can_talk_to(node):
                # a stale copy from before a fault: discard it before
                # the holder can touch (and trust) it again
                home_agent._remote_op(node, FrameKind.INVALIDATE,
                                      _U32.pack(base))
                self.stats.stale_invalidated += 1
                _emit("stale-invalidate", addr=base, value=node)

    def grant_lease(self, entry, node: int) -> None:
        """Stamp/renew *node*'s lease on a directory row (the home's
        own copy needs none — it *is* the directory)."""
        if node != HOME:
            entry.leases[node] = \
                self.cluster.round + self.config.lease_rounds

    def reap_entry(self, base: int, entry,
                   keep: Optional[int] = None) -> None:
        """Drop dead holders from a directory row before serving it.

        A holder is dead when its lease expired (it stopped renewing)
        or the membership view suspects it. A reaped owner leaves the
        row with ``owner == -1``: the home's snapshot of the bytes is
        then the authoritative copy for the next grant. *keep* names a
        node that just proved itself alive (the requester) and is
        never reaped."""
        rnd = self.cluster.round
        for node in list(entry.copyset):
            if node == HOME or node == keep:
                continue
            lease = entry.leases.get(node)
            expired = lease is not None and lease < rnd
            if not expired and node not in self.suspected:
                continue
            entry.copyset.remove(node)
            entry.leases.pop(node, None)
            if entry.owner == node:
                entry.owner = -1
            self.stats.lease_reclaims += 1
            _emit("lease-reclaim", addr=base, value=node)

    # ------------------------------------------------------------------
    # directory persistence (through the home's repro.disk journal)
    # ------------------------------------------------------------------

    def persist_directory(self) -> None:
        """Mark the segment table dirty; the write happens at the next
        round boundary. Coherence calls this from inside SFS mutation
        hooks, where the home's journal already has an open transaction
        — logging the table's own VFS writes there would nest them into
        a foreign op record and the journal would absorb them (the
        rename-implicit-unlink rule), losing them from recovery.
        Deferring to :meth:`on_round` guarantees transaction depth zero,
        at the cost of losing at most the current round's shape change
        to a crash — exactly a real write-behind cache's window."""
        self._dir_dirty = True

    def _flush_directory(self) -> None:
        """Serialize the segment table to the home's root volume. Every
        mutating VFS write is journaled when the volume is disk-backed,
        so the table survives a power loss fsck-clean. Leases are not
        persisted — recovery re-grants them with a grace window."""
        if not self._dir_dirty or HOME in self.crashed:
            return
        kernel = self.cluster.machines[HOME].kernel
        if kernel.disk is None:
            self._dir_dirty = False
            return
        from repro.disk.codec import encode_fields

        entries = self.cluster.directory.entries
        rows = [
            [base, entry.path, entry.owner, entry.version,
             entry.state.value, list(entry.copyset), entry.snapshot]
            for base, entry in sorted(entries.items())
        ]
        if not kernel.vfs.exists(DIRSTORE_DIR):
            kernel.vfs.makedirs(DIRSTORE_DIR)
        kernel.vfs.write_whole(DIRSTORE_PATH, encode_fields(rows))
        self._dir_dirty = False
        self.stats.dir_persists += 1
        _emit("dir-persist", value=len(rows))

    def _recover_directory(self, kernel) -> None:
        """Rebuild the segment table from the rebooted home's volume."""
        from repro.disk.codec import decode_fields
        from repro.net.coherence import SegmentState, _Entry

        try:
            blob = kernel.vfs.read_whole(DIRSTORE_PATH)
        except SimulationError:
            return  # no (or volatile) store: the directory starts empty
        rnd = self.cluster.round
        grace = rnd + self.config.lease_rounds
        entries = {}
        for base, path, owner, version, state, copyset, snapshot \
                in decode_fields(blob):
            entries[base] = _Entry(
                path=path, owner=owner, version=version,
                state=SegmentState(state), copyset=list(copyset),
                leases={node: grace for node in copyset
                        if node != HOME},
                snapshot=snapshot)
        directory = self.cluster.directory
        directory.entries.clear()
        directory.entries.update(entries)
        self.stats.dir_recovered += len(entries)
        _emit("dir-recover", value=len(entries))

    # ------------------------------------------------------------------
    # progress + checkpoint capture
    # ------------------------------------------------------------------

    def state_signature(self) -> tuple:
        """The HA facts whose change counts as cluster progress (fault
        windows opening/closing, membership shifts) — deliberately
        excluding heartbeat counters, which tick forever."""
        return (
            tuple(sorted(self.crashed.items())),
            tuple(sorted(self.wedged.items())),
            tuple((tuple(sorted(a)), tuple(sorted(b)), heal)
                  for a, b, heal in self.partitions),
            tuple(sorted(self.suspected)),
            self.stats.reboots,
            self.stats.lease_reclaims,
        )

    def capture(self) -> list:
        """Deterministic snapshot for reprorr cluster checkpoints."""
        entries = self.cluster.directory.entries
        return [
            sorted(self.crashed.items()),
            sorted(self.wedged.items()),
            [[sorted(a), sorted(b), heal]
             for a, b, heal in self.partitions],
            sorted(self.suspected),
            sorted(self.last_seen.items()),
            self._dir_dirty,
            list(self.cluster.fabric.generations),
            [self.stats.crashes, self.stats.wedges,
             self.stats.partitions, self.stats.heals,
             self.stats.reboots, self.stats.suspects,
             self.stats.rejoins, self.stats.lease_reclaims,
             self.stats.stale_invalidated],
            [[base, entry.path, entry.owner, entry.version,
              entry.state.value, list(entry.copyset),
              sorted(entry.leases.items()), entry.snapshot]
             for base, entry in sorted(entries.items())],
        ]
