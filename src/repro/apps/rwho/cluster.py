"""rwhod across a Hemlock cluster — the paper's example at scale.

The admin database lives in one cluster-wide shared segment owned by
the server node's rwhod. Gateway nodes broadcast their hosts' status
datagrams over the fabric; the server's ``netd`` forwards them into the
local message queue, so the *unmodified* ``daemon_body`` from the
single-machine experiment runs the database. A reader anywhere in the
cluster runs ``rwho`` against the shared segment: its first touch
fetches the whole database once (coherence FETCH/GRANT), after which
every record access is a plain load.

The file baseline keeps the original per-host files on the server and
makes remote readers ask for them: one LIST call plus one GET call per
host, so read traffic scales with the host count instead of the
constant one-segment fetch — the cluster-scale restatement of the
paper's §4 comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.rwho.common import HostStatus, UserEntry, \
    format_rwho_line
from repro.apps.rwho.daemon import RWHO_QUEUE_KEY, daemon_body, \
    run_network
from repro.apps.rwho.fileimpl import RWHO_DIR, pack_status, \
    unpack_status
from repro.apps.rwho.shmimpl import shm_rwho
from repro.errors import SimulationError
from repro.net.cluster import Cluster
from repro.net.link import FrameKind

#: the fabric port ``netd`` bridges to the rwhod message queue
RWHO_PORT = RWHO_QUEUE_KEY          # 0x5257, "RW"

#: the file-baseline record service ("RF")
FILE_PORT = 0x5246


def synth_statuses(nhosts: int,
                   users_per_host: int = 1) -> List[HostStatus]:
    """A deterministic fleet of *nhosts* host records (no RNG: the
    values are pure functions of the index, so every run and every
    caller agrees on them)."""
    statuses = []
    for index in range(nhosts):
        users = [
            UserEntry(f"u{index}_{slot}", f"tty{slot}",
                      (index * 7 + slot * 13) % 3600)
            for slot in range(users_per_host)
        ]
        statuses.append(HostStatus(
            hostname=f"host{index:05d}",
            boot_time=100_000 + index,
            update_time=200_000 + index,
            load_1=(index * 3) % 900,
            load_5=(index * 5) % 700,
            load_15=(index * 7) % 500,
            users=users,
        ))
    return statuses


def _broadcaster_over_fabric(server: int, statuses: List[HostStatus]):
    """A gateway-node process: one DATA datagram per host record."""

    def body(kernel, proc):
        nic = kernel.nic
        for index, status in enumerate(statuses):
            nic.send(proc, server, RWHO_PORT, pack_status(status))
            if index % 16 == 15:
                yield  # let netd and the scheduler breathe
        return len(statuses)

    return body


def _file_service(kernel):
    """The server-side record service for the file baseline: LIST the
    per-host files, GET one file's bytes. Charged as honest file I/O on
    the server's clock."""
    vfs = kernel.vfs
    clock = kernel.clock

    def handle(frame):
        request = frame.payload
        if request[:1] == b"L":
            try:
                names = sorted(name for name in vfs.listdir(RWHO_DIR)
                               if name.startswith("whod."))
            except SimulationError:
                names = []
            payload = "\n".join(names).encode()
            clock.file_io(len(payload))
            return FrameKind.REPLY, payload
        if request[:1] == b"G":
            path = f"{RWHO_DIR}/{request[1:].decode()}"
            try:
                blob = vfs.read_whole(path)
            except SimulationError:
                return FrameKind.NAK, b""
            clock.file_io(len(blob))
            return FrameKind.REPLY, blob
        return FrameKind.NAK, b""

    return handle


def remote_file_rwho(kernel, proc, server: int) -> str:
    """The rwho utility on a remote node, file baseline: every record
    crosses the wire as its own synchronous exchange."""
    nic = kernel.nic
    listing = nic.call(server, FrameKind.CALL, FILE_PORT, b"L")
    if listing.kind is not FrameKind.REPLY:
        raise SimulationError("file service refused LIST")
    names = listing.payload.decode().split("\n") \
        if listing.payload else []
    lines = []
    for name in names:
        reply = nic.call(server, FrameKind.CALL, FILE_PORT,
                         b"G" + name.encode())
        if reply.kind is not FrameKind.REPLY:
            continue
        status = unpack_status(reply.payload)
        for user in status.users:
            lines.append(format_rwho_line(status.hostname, user))
    return "\n".join(sorted(lines))


def run_cluster_rwho(cluster: Cluster, statuses: List[HostStatus],
                     implementation: str = "shm", server: int = 0,
                     readers: Optional[List[int]] = None,
                     max_rounds: int = 200_000) -> Dict[str, object]:
    """The full scenario on an already-booted *cluster*.

    Gateways (every node but *server*) broadcast an even share of
    *statuses*; the server's rwhod builds the database; then one reader
    process per node in *readers* runs rwho remotely. Returns outputs
    and exact traffic counters.
    """
    if implementation not in ("shm", "file"):
        raise ValueError(f"unknown implementation {implementation!r}")
    nnodes = cluster.nnodes
    if nnodes < 2:
        raise SimulationError("the scenario needs a server + gateways")
    if readers is None:
        readers = [(server + 1) % nnodes]
    nhosts = len({status.hostname for status in statuses})

    server_machine = cluster.machines[server]
    server_machine.add_daemon(f"rwhod-{implementation}",
                              daemon_body(implementation, nhosts))
    if implementation == "file":
        server_machine.nic.bind(FILE_PORT,
                                _file_service(server_machine.kernel))

    gateways = [node for node in range(nnodes) if node != server]
    for lane, node in enumerate(gateways):
        share = statuses[lane::len(gateways)]
        if share:
            cluster.spawn(node, f"gateway{node}",
                          _broadcaster_over_fabric(server, share))
    broadcast_rounds = cluster.run(max_rounds)

    outputs: Dict[int, str] = {}

    def reader_body(node):
        def body(kernel, proc):
            if implementation == "shm":
                outputs[node] = shm_rwho(kernel, proc)
            else:
                outputs[node] = remote_file_rwho(kernel, proc, server)
            yield
            return 0

        return body

    for node in readers:
        cluster.spawn(node, f"rwho-reader{node}", reader_body(node))
    read_rounds = cluster.run(max_rounds)

    stats = cluster.fabric.stats
    return {
        "implementation": implementation,
        "nhosts": nhosts,
        "outputs": outputs,
        "broadcast_rounds": broadcast_rounds,
        "read_rounds": read_rounds,
        "frames_sent": stats.frames_sent,
        "frames_delivered": stats.frames_delivered,
        "bytes_sent": stats.bytes_sent,
        "bytes_delivered": stats.bytes_delivered,
        "by_kind": dict(stats.by_kind),
        "net_cycles": [m.kernel.clock.by_category.get("net", 0)
                       for m in cluster.machines],
        "cycles": [m.kernel.clock.cycles for m in cluster.machines],
        "coherence": cluster.coherence_stats(),
    }


def run_ha_rwho(cluster: Cluster, statuses: List[HostStatus],
                oracle: str, server: int = 0, max_epochs: int = 30,
                max_rounds: int = 200_000) -> Dict[str, object]:
    """The recovery scenario: clustered rwho under the armed failure
    model, driven in *epochs* until the database a fresh probe reads
    equals *oracle* (the single-kernel output for the same fleet).

    Each epoch re-broadcasts the whole fleet from every live gateway
    (records lost to a crash or cut are simply sent again — rwhod
    record processing is idempotent), then runs one fresh probe on a
    live non-server node. A probe killed by a contained coherence
    fault (its home timed out mid-fetch) counts as a failed epoch, not
    an error: the next epoch retries with a new process. Between
    failed epochs the cluster is pumped ``lease_rounds`` rounds so
    heartbeats, suspicion, reboots and partition heals keep advancing
    even when no workload is runnable.

    The server's rwhod is re-spawned by an HA reboot hook, which first
    unlinks the recovered ``rwho.db`` — its mmap-written content is
    journal-stale by construction — so the database is republished
    fresh and every stale replica in the cluster is invalidated.
    """
    if cluster.ha is None:
        raise SimulationError("run_ha_rwho needs Cluster(..., ha=...)")
    nnodes = cluster.nnodes
    if nnodes < 2:
        raise SimulationError("the scenario needs a server + gateways")
    nhosts = len({status.hostname for status in statuses})
    db_path = cluster.machines[server].kernel.sfs_mount + "/rwho.db"

    cluster.machines[server].add_daemon("rwhod-shm",
                                        daemon_body("shm", nhosts))

    def respawn(cluster_, node, machine):
        if node != server:
            return  # gateways and probes are re-spawned per epoch
        kernel = machine.kernel
        try:
            kernel.vfs.unlink(db_path)
        except SimulationError:
            pass
        machine.add_daemon("rwhod-shm", daemon_body("shm", nhosts))

    cluster.ha.on_reboot.append(respawn)

    outputs: Dict[int, str] = {}
    total_rounds = 0
    epochs = 0
    converged = False
    pump = cluster.ha.config.lease_rounds
    for epoch in range(max_epochs):
        epochs = epoch + 1
        live = [node for node in range(nnodes)
                if not cluster.machines[node].crashed]
        gateways = [node for node in live if node != server]
        if server in live:
            for lane, node in enumerate(gateways):
                share = statuses[lane::len(gateways)]
                if share:
                    cluster.spawn(
                        node, f"gw{node}e{epoch}",
                        _broadcaster_over_fabric(server, share))
        total_rounds += cluster.run(max_rounds)

        probes = [node for node in range(nnodes)
                  if node != server
                  and not cluster.machines[node].crashed]
        if probes:
            where = probes[epoch % len(probes)]

            def probe_body(kernel, proc, _epoch=epoch):
                outputs[_epoch] = shm_rwho(kernel, proc)
                yield
                return 0

            cluster.spawn(where, f"probe{epoch}", probe_body)
            total_rounds += cluster.run(max_rounds)
        if outputs.get(epoch) == oracle:
            converged = True
            break
        # keep the failure schedule (reboot draws, heals, suspicion)
        # moving even though nothing is runnable
        for _ in range(pump):
            cluster.step()
        total_rounds += pump

    ha_stats = vars(cluster.ha.stats).copy()
    return {
        "converged": converged,
        "epochs": epochs,
        "rounds": total_rounds,
        "outputs": outputs,
        "nhosts": nhosts,
        "ha": ha_stats,
        "frames_sent": cluster.fabric.stats.frames_sent,
        "ha_dropped": cluster.fabric.stats.ha_dropped,
    }


def single_kernel_rwho(statuses: List[HostStatus]) -> str:
    """The differential oracle: the same fleet through the classic
    single-machine experiment (one kernel, message-queue 'network')."""
    from repro import boot
    from repro.bench.workloads import make_shell

    system = boot()
    run_network(system.kernel, statuses, "shm")
    probe = make_shell(system.kernel, "rwho-probe")
    return shm_rwho(system.kernel, probe)
