"""A deterministic multi-node Hemlock cluster.

A :class:`Cluster` boots N fully independent machines — each with its
own kernel, VM, clock, and (optionally) its own durable volume — and
steps them under a round-based scheduler that is the cluster's single
source of happens-before order: every round first delivers the due
frames into NIC inboxes (in the fabric's total ``(round, seq, copy)``
order), then runs one round of every machine's own scheduler (its
:class:`~repro.kernel.smp.SmpCoordinator`, so a multi-core node runs
its processes on its cores), machines in node order. Two boots from
the same ``(seed, fault plan)`` therefore produce bit-identical
traffic, traces, and per-node cycle counts.

Each machine reorders its SFS free-inode list so it allocates from its
own contiguous stripe of the 1024 global slots (``MAX_INODES //
nnodes`` inos per node). Segment addresses are a pure function of the
inode number, so striping is what makes addresses *cluster-wide*
agreed: a segment created on node 2 occupies an address no other node
will ever hand out. Foreign inos stay on the free list (replica
installation pins them by number); a node that exhausts its stripe
starts allocating foreign inos and loses the global-uniqueness
guarantee — the prototype's documented limit, matching the paper's
fixed 1024-slot partition.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NetError, SimulationError
from repro.kernel.process import ProcessState
from repro.net.coherence import CoherenceAgent, SegmentDirectory
from repro.net.ha import HaConfig, HaManager, _had_body
from repro.net.link import Fabric, FrameKind, Nic
from repro.sfs.sharedfs import MAX_INODES

#: ceiling for :meth:`Cluster.run` when the caller gives none
DEFAULT_MAX_ROUNDS = 100_000

#: consecutive no-progress rounds before :meth:`Cluster.run` declares
#: a wedge (daemons alive and runnable, so never quiescent, but no
#: frame, queue, or process-state change — e.g. a dead consumer whose
#: queue nobody will ever drain)
WEDGE_ROUNDS = 1_000


def _netd_body(kernel, proc):
    """The per-machine network daemon: drains the NIC inbox each round
    and forwards application datagrams into the local message queue
    keyed by the frame's port, so ordinary queue-reading daemons work
    unchanged on a clustered machine. Runs forever (a daemon); the
    cluster terminates it at shutdown.

    A daemon death would wedge the whole cluster (frames pile up in an
    inbox nobody drains), so injected syscall faults are absorbed: the
    frame stays on a backlog and the forward retries next round."""
    nic = kernel.nic
    sys = kernel.syscalls
    backlog = []
    while True:
        for frame in nic.poll(proc):
            if frame.kind is FrameKind.DATA:
                backlog.append(frame)
            elif frame.kind is FrameKind.HEARTBEAT \
                    and kernel.ha is not None:
                kernel.ha.on_heartbeat_frame(frame)
        while backlog:
            frame = backlog[0]
            try:
                sys.msgget(proc, frame.port)
                if not sys.msgsnd(proc, frame.port, frame.payload,
                                  blocking=False):
                    yield  # queue full: let a reader drain it, retry
                    continue
            except SimulationError:
                injector = kernel.injector
                if injector is not None:
                    injector.note_retry()
                yield
                continue
            backlog.pop(0)
        yield


class NodePort:
    """The ``boot(net=...)`` attachment for one cluster slot: carries
    just enough identity for the booting kernel to wire itself in."""

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id

    def attach(self, kernel) -> None:
        self.cluster._attach(self.node_id, kernel)


class Machine:
    """One cluster member: a booted kernel plus its NIC, coherence
    agent, and network daemon."""

    def __init__(self, cluster: "Cluster", node_id: int, kernel,
                 nic: Nic, agent: CoherenceAgent) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.kernel = kernel
        self.nic = nic
        self.agent = agent
        self.system = None  # the repro.System, filled in after boot()
        self.crashed = False  # set by HaManager.crash, never cleared —
        # a reboot replaces the whole Machine object
        self._stripe_inos(cluster.nnodes)
        self.daemon_pids: set = set()
        self.netd = kernel.create_native_process("netd", _netd_body)
        self.daemon_pids.add(self.netd.pid)

    def _stripe_inos(self, nnodes: int) -> None:
        """Put this node's inode stripe at the allocation end of the
        free list (lowest ino first), keeping foreign inos allocatable
        so replica installation can pin them by number."""
        stripe = MAX_INODES // nnodes
        lo = self.node_id * stripe
        own = set(range(lo, lo + stripe))
        free = self.kernel.sfs._free_inos
        foreign = [ino for ino in free if ino not in own]
        mine = sorted((ino for ino in free if ino in own), reverse=True)
        self.kernel.sfs._free_inos = foreign + mine

    def add_daemon(self, name: str, body):
        """Create a native process excluded from idle detection (the
        cluster terminates it at shutdown)."""
        proc = self.kernel.create_native_process(name, body)
        self.daemon_pids.add(proc.pid)
        return proc

    def step_round(self) -> int:
        """One coordinator round of this machine's kernel: every
        currently runnable process gets one quantum, on its home core.
        Returns how many processes were planned."""
        return self.kernel.smp.run_round()

    def workload_done(self) -> bool:
        """Every non-daemon process has exited."""
        for pid, proc in self.kernel.processes.items():
            if pid in self.daemon_pids:
                continue
            if proc.state is not ProcessState.ZOMBIE:
                return False
        return True


class Cluster:
    """N machines, one fabric, one directory, one global order.

    *boot_args* are forwarded to every :func:`repro.boot` call (so the
    whole cluster shares lazy/scoped/costs settings); *disks* optionally
    gives each node its own durable volume. ``wide_addresses`` is
    rejected: the coherence protocol relies on the 32-bit prototype's
    pure ino→address function.
    """

    def __init__(self, nnodes: int, seed: int = 1993, home: int = 0,
                 disks: Optional[list] = None, base_delay: int = 1,
                 jitter: int = 2, ha=None, **boot_args) -> None:
        if boot_args.get("wide_addresses"):
            raise NetError("clusters require the 32-bit address scheme")
        if not 1 <= nnodes <= MAX_INODES:
            raise NetError(f"cluster size {nnodes} out of range")
        if disks is not None and len(disks) != nnodes:
            raise NetError("disks must give one device per node")
        if not 0 <= home < nnodes:
            raise NetError(f"directory home {home} is not a node")
        from repro import boot

        self.nnodes = nnodes
        self.seed = seed
        self.round = 0
        self.fabric = Fabric(nnodes, seed, base_delay=base_delay,
                             jitter=jitter)
        self.directory = SegmentDirectory(home=home)
        #: boot() kwargs replayed verbatim when a node reboots
        self.boot_args = dict(boot_args)
        self.disks = disks
        # ha=True arms the failure model with default HaConfig;
        # pass an HaConfig to tune it. None keeps HA entirely out of
        # the cluster: no manager, no heartbeats, and the fabric hooks
        # cost one is-None check — fault-free runs are bit-identical
        # to an HA-less build.
        if ha is None or ha is False:
            self.ha = None
        elif isinstance(ha, HaConfig):
            self.ha = HaManager(self, ha)
        else:
            self.ha = HaManager(self, HaConfig())
        self.fabric.ha = self.ha
        self.machines: List[Machine] = []
        for node in range(nnodes):
            args = dict(boot_args)
            if disks is not None:
                args["disk"] = disks[node]
            system = boot(net=NodePort(self, node), **args)
            self.machines[node].system = system
        if self.ha is not None:
            for node in range(nnodes):
                self.machines[node].add_daemon(
                    "had", _had_body(self.ha, node))

    def _attach(self, node_id: int, kernel) -> None:
        rebooting = node_id < len(self.machines) \
            and self.machines[node_id].crashed
        if not rebooting and len(self.machines) != node_id:
            raise NetError(f"node {node_id} attached out of order")
        nic = Nic(self.fabric, node_id, kernel)
        if rebooting:
            self.fabric.reattach(node_id, nic)
        else:
            self.fabric.attach(node_id, nic)
        kernel.nic = nic
        kernel.node_id = node_id
        kernel.ha = self.ha
        agent = CoherenceAgent(self, node_id, kernel, nic,
                               self.directory)
        kernel.coherence = agent
        kernel.sfs.coherence = agent
        machine = Machine(self, node_id, kernel, nic, agent)
        if rebooting:
            self.machines[node_id] = machine
        else:
            self.machines.append(machine)
        # An armed recording (reprorr) must checkpoint cluster members
        # at round boundaries — a globally consistent cut — not at
        # per-kernel clock crossings that land mid-round.
        from repro.rr import recorder as _rr_recorder

        _rr_recorder.attach_cluster(self, kernel)

    # ------------------------------------------------------------------
    # the round scheduler
    # ------------------------------------------------------------------

    def step(self) -> None:
        """One global round: deliver due traffic, then one scheduler
        round per live machine, machines in node order."""
        self.round += 1
        if self.ha is not None:
            self.ha.on_round(self.round)
        self.fabric.deliver_due(self.round)
        for machine in self.machines:
            if machine.crashed:
                continue
            machine.step_round()
        # Round boundary: every due frame delivered, every runnable
        # process sliced — the consistent cut reprorr checkpoints at.
        from repro.rr import recorder as _rr_recorder

        if _rr_recorder.CAMPAIGN:
            _rr_recorder.on_cluster_round(self)

    def idle(self) -> bool:
        """Nothing left to do: no wire traffic, no queued datagrams, no
        undelivered messages, and every non-daemon process has exited."""
        if self.fabric.pending_workload():
            return False
        for machine in self.machines:
            if machine.crashed:
                continue  # a dead node has no work left by definition
            if machine.nic.inbox:
                # live netd drains within the round; only a wedged
                # node holds frames here, and wedges always heal
                return False
            if not machine.kernel.queues.drained():
                return False
            if not machine.workload_done():
                return False
        return True

    def _quiescent(self) -> bool:
        """No machine can make progress and no traffic is in flight."""
        if self.fabric.pending():
            return False
        for machine in self.machines:
            if machine.crashed:
                continue
            if machine.nic.inbox or machine.kernel.runnable():
                return False
        return True

    def _progress_signature(self) -> tuple:
        """Everything that changes when the cluster is getting closer
        to idle: traffic counters, inbox and queue depths, and process
        states. A forever-runnable daemon (netd polling an empty inbox)
        keeps the cluster non-quiescent without advancing any of
        these."""
        stats = self.fabric.stats
        # Heartbeats tick forever; counting them would make a wedged
        # HA cluster look alive. Subtract them so the signature tracks
        # workload traffic only, and fold in the HA facts (fault
        # windows, membership, reclaims) whose change *is* progress.
        hb_sent = stats.by_kind.get("HEARTBEAT", 0)
        parts = [stats.frames_sent - hb_sent,
                 stats.frames_delivered - stats.heartbeats_delivered]
        if self.ha is not None:
            parts.append(stats.ha_dropped)
            parts.append(self.ha.state_signature())
        for machine in self.machines:
            kernel = machine.kernel
            parts.append(len(machine.nic.inbox))
            parts.append(kernel.queues.backlog())
            parts.append(sum(1 for p in kernel.processes.values()
                             if p.state is ProcessState.ZOMBIE))
            parts.append(sum(1 for p in kernel.processes.values()
                             if p.state is ProcessState.BLOCKED))
        return tuple(parts)

    def run(self, max_rounds: int = DEFAULT_MAX_ROUNDS) -> int:
        """Step until idle; returns the number of rounds consumed.

        Raises :class:`~repro.errors.NetError` on a deadlock (nothing
        runnable, nothing in flight), on a wedge (runnable daemons but
        no observable progress for :data:`WEDGE_ROUNDS` rounds — say, a
        queue whose only consumer died), or when *max_rounds* run out.
        """
        start = self.round
        signature = None
        stable = 0
        while not self.idle():
            if self._quiescent():
                blocked = [
                    f"{m.node_id}:{p.name}"
                    for m in self.machines
                    if not m.crashed
                    for p in m.kernel.processes.values()
                    if p.state is ProcessState.BLOCKED
                ]
                raise NetError(
                    "cluster deadlock: no runnable process, nothing "
                    "in flight" + self._dead_node_report() +
                    (f" (blocked: {', '.join(blocked)})" if blocked
                     else ""))
            current = self._progress_signature()
            if current == signature:
                stable += 1
                if stable >= WEDGE_ROUNDS:
                    # The signature skips nothing a crashed node does
                    # (it does nothing), so stability here means the
                    # *live* members stopped progressing: report dead
                    # daemons and dead nodes as separate facts.
                    dead = [
                        f"{m.node_id}:{p.name} ({p.death_reason})"
                        for m in self.machines
                        if not m.crashed
                        for p in m.kernel.processes.values()
                        if p.pid in m.daemon_pids
                        and p.death_reason not in (None, "cluster "
                                                   "shutdown")
                    ]
                    backlog = sum(m.kernel.queues.backlog()
                                  for m in self.machines
                                  if not m.crashed)
                    raise NetError(
                        f"cluster wedged: no progress among live "
                        f"members for {WEDGE_ROUNDS} rounds, "
                        f"{backlog} queued message(s) nobody will "
                        f"drain" + self._dead_node_report() +
                        (f" (dead daemons: {', '.join(dead)})" if dead
                         else ""))
            else:
                signature = current
                stable = 0
            if self.round - start >= max_rounds:
                raise NetError(
                    f"cluster did not quiesce within {max_rounds} "
                    f"rounds")
            self.step()
        return self.round - start

    def _dead_node_report(self) -> str:
        """`` (crashed nodes: ...)`` for run()'s errors, or ``""``."""
        if self.ha is None or not self.ha.crashed:
            return ""
        nodes = ", ".join(str(n) for n in sorted(self.ha.crashed))
        return f" (crashed nodes: {nodes})"

    def shutdown(self) -> None:
        """Terminate every registered daemon (netd included)."""
        for machine in self.machines:
            if machine.crashed:
                continue
            for pid in sorted(machine.daemon_pids):
                proc = machine.kernel.processes.get(pid)
                if proc is not None and proc.alive:
                    machine.kernel.terminate(proc, 0,
                                             reason="cluster shutdown")

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def spawn(self, node: int, name: str, body):
        """A native workload process on *node* (counted by idle())."""
        if self.machines[node].crashed:
            raise NetError(f"node {node} is crashed; reboot it first")
        return self.machines[node].kernel.create_native_process(
            name, body)

    def cycle_counts(self) -> List[int]:
        """Per-node total simulated cycles (node order)."""
        return [m.kernel.clock.cycles for m in self.machines]

    def net_cycles(self) -> List[int]:
        """Per-node cycles charged to the ``net`` category."""
        return [m.kernel.clock.by_category.get("net", 0)
                for m in self.machines]

    def coherence_stats(self) -> List[Dict[str, int]]:
        """Per-node protocol counters as plain dicts."""
        return [vars(m.agent.stats).copy() for m in self.machines]
