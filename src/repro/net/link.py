"""The simulated wire: frames, links, and the cluster fabric.

Every byte that crosses between machines travels as a checksummed
:class:`Frame`. Datagrams are asynchronous — enqueued with a per-link
seeded latency (in scheduler rounds) and delivered when the cluster
reaches that round, which is where loss-free reordering comes from.
Protocol exchanges (coherence, application RPC) are synchronous calls
with bounded retransmission: a dropped or corrupted frame costs the
caller a deterministic backoff and a resend, and a request that
exhausts its budget surfaces as :class:`repro.errors.InjectedNetError`
(the fabric itself is lossless; only the NET fault plane loses frames).
An exchange hands its request and reply frames from NIC to NIC and
builds their wire bytes only when an injector is installed, the one
thing that can change a byte in transit; datagrams always travel as
wire bytes, because the inbox holds them.

Determinism: per-link jitter comes from a splitmix64-derived
:class:`~repro.util.rng.DeterministicRng` per ordered node pair, frame
sequence numbers are globally monotonic, and due frames deliver sorted
by ``(deliver_round, seq, copy)`` — so two runs of the same seeded
cluster see byte-identical traffic in the same order.

Node failures (``repro.ha``): every frame carries its sender's *boot
generation*, packed into the high bits of the 16-bit src field so the
wire format (and therefore every cycle charge) is byte-identical to a
generation-0 cluster. Receivers dedupe per ``(sender, generation)``
with a bounded high-water window, and the reply cache tags entries with
the serving node's boot generation — so a rebooted node neither has its
fresh frames swallowed as duplicates nor serves replies recorded before
its crash.
"""

from __future__ import annotations

import enum
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.errors import InjectedNetError, NetError
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.util.rng import DeterministicRng

_MASK64 = 0xFFFFFFFFFFFFFFFF

FRAME_MAGIC = b"HNET"
FRAME_VERSION = 1

#: rounds a datagram spends on a link: LINK_DELAY plus a seeded draw
#: of 0..LINK_JITTER more
LINK_DELAY = 1
LINK_JITTER = 2

#: attempts a synchronous exchange makes before giving up
MAX_RETRANSMITS = 8

#: replies remembered per NIC for retransmitted (duplicate) requests
REPLY_CACHE_LIMIT = 512

#: per-sender duplicate-suppression window: a datagram whose seq falls
#: at least this far below the sender's high-water mark is a duplicate
DEDUPE_WINDOW = 1024

#: the 16-bit src field carries node id (low bits) + boot generation
_NODE_MASK = 0x3FF
_GEN_SHIFT = 10
_GEN_MASK = 0x3F


def mix_seed(seed: int, index: int) -> int:
    """splitmix64-style finalizer, the same derivation the injector
    uses, so per-link streams never alias each other or the plan RNGs."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class FrameKind(enum.IntEnum):
    """What a frame carries."""

    DATA = 0         # an application datagram (forwarded to a queue)
    CALL = 1         # a generic application RPC request
    REPLY = 2        # a generic application RPC reply
    ACK = 3          # protocol acknowledgement (no payload)
    NAK = 4          # protocol refusal (unknown segment / port)
    PUBLISH = 5      # coherence: a new segment enters the directory
    UNPUBLISH = 6    # coherence: a segment leaves the directory
    FETCH = 7        # coherence: give me a copy (read or write intent)
    GRANT = 8        # coherence: here is your copy / permission
    UPGRADE = 9      # coherence: promote my shared copy to exclusive
    INVALIDATE = 10  # coherence: discard your copy
    DOWNGRADE = 11   # coherence: demote your exclusive copy to shared
    LOOKUP = 12      # coherence: path -> base address
    HEARTBEAT = 13   # membership: i-am-alive + lease renewal piggyback


# magic, version, kind, port, src, dst, seq, length, crc
_HEADER = struct.Struct("<4sBBHHHIII")
HEADER_SIZE = _HEADER.size
#: the header up to (not including) its crc field
_HEAD = struct.Struct("<4sBBHHHII")
_CRC = struct.Struct("<I")
#: what the crc field holds while the checksum is computed
_ZERO_CRC = bytes(_CRC.size)
#: kind number -> FrameKind (kinds are numbered 0..n-1), and kind ->
#: its name, without an enum call
_KINDS = tuple(FrameKind)
_KIND_NAMES = tuple(kind.name for kind in _KINDS)
_crc32 = zlib.crc32


@dataclass(slots=True)
class Frame:
    """One unit of cluster traffic."""

    kind: FrameKind
    src: int
    dst: int
    port: int
    seq: int
    payload: bytes = b""
    gen: int = 0  # sender's boot generation (rides the src high bits)

    def pack(self) -> bytes:
        payload = self.payload
        head = _HEAD.pack(FRAME_MAGIC, FRAME_VERSION, self.kind, self.port,
                          (self.src & _NODE_MASK)
                          | ((self.gen & _GEN_MASK) << _GEN_SHIFT),
                          self.dst, self.seq, len(payload))
        # the crc covers the header with a zeroed crc field, then the
        # payload: chained, so no concatenated copy is built
        crc = _crc32(payload, _crc32(_ZERO_CRC, _crc32(head)))
        return head + _CRC.pack(crc) + payload

    @classmethod
    def unpack(cls, wire: bytes) -> "Frame":
        """Parse and verify; raises :class:`NetError` on any damage."""
        if len(wire) < HEADER_SIZE:
            raise NetError(f"runt frame ({len(wire)} bytes)")
        magic, version, kind, port, src_field, dst, seq, length, crc = \
            _HEADER.unpack_from(wire)
        payload = wire[HEADER_SIZE:]
        if magic != FRAME_MAGIC or version != FRAME_VERSION:
            raise NetError("bad frame magic/version")
        if length != len(payload):
            raise NetError(
                f"frame length mismatch ({length} != {len(payload)})")
        if _crc32(payload, _crc32(_ZERO_CRC, _crc32(wire[:_HEAD.size]))) \
                != crc:
            raise NetError(f"frame checksum mismatch (seq {seq})")
        if kind >= len(_KINDS):
            raise NetError(f"unknown frame kind {kind}")
        return cls(_KINDS[kind], src_field & _NODE_MASK, dst, port, seq,
                   payload, gen=src_field >> _GEN_SHIFT)


def _check_port(port) -> None:
    """Refuse a port the 16-bit header field cannot carry."""
    if not (isinstance(port, int) and 0 <= port <= 0xFFFF):
        raise NetError(f"port {port!r} out of range 0..0xFFFF")


def _wire_fields(port: int, kind, payload) -> Tuple[FrameKind, bytes]:
    """*kind* and *payload* as a frame to *port* carries them: a kind
    number becomes its :class:`FrameKind`, and a bytearray or
    memoryview payload is copied to ``bytes``, as a parse of its wire
    would. A bad port, a kind number with no :class:`FrameKind` or a
    payload that is not bytes-like is refused with a :class:`NetError`
    naming the port."""
    _check_port(port)
    if kind.__class__ is not FrameKind:
        if not (isinstance(kind, int) and 0 <= kind < len(_KINDS)):
            raise NetError(f"port {port}: unknown frame kind {kind!r}")
        kind = _KINDS[kind]
    if payload.__class__ is not bytes:
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise NetError(f"port {port}: payload must be bytes-like, "
                           f"not {type(payload).__name__}")
        payload = bytes(payload)
    return kind, payload


class _Link:
    """One ordered node pair: the base delay plus seeded jitter."""

    __slots__ = ("jitter", "rng")

    def __init__(self, rng: DeterministicRng) -> None:
        self.jitter = LINK_JITTER
        self.rng = rng

    def draw_delay(self) -> int:
        """Rounds until delivery for one datagram on this link."""
        return LINK_DELAY + self.rng.randint(0, self.jitter)


class _SenderWindow:
    """Bounded dedupe state for one (sender, generation).

    Seqs are fabric-global and monotonic, so per sender they arrive
    almost sorted: remember the ones near the high-water mark and treat
    anything at least :data:`DEDUPE_WINDOW` below it as a duplicate.
    A generation bump (the sender rebooted) resets the window, so a
    restarted seq counter is never swallowed.
    """

    __slots__ = ("gen", "high", "recent")

    def __init__(self) -> None:
        self.gen = 0
        self.high = 0
        self.recent: set = set()

    def reset(self, gen: int) -> None:
        self.gen = gen
        self.high = 0
        self.recent.clear()

    def is_duplicate(self, seq: int) -> bool:
        if seq in self.recent:
            return True
        return self.high >= DEDUPE_WINDOW \
            and seq <= self.high - DEDUPE_WINDOW

    def note(self, seq: int) -> None:
        self.recent.add(seq)
        if seq > self.high:
            self.high = seq
        if len(self.recent) > 2 * DEDUPE_WINDOW:
            floor = self.high - DEDUPE_WINDOW
            self.recent = {s for s in self.recent if s > floor}


class Nic:
    """One machine's network interface.

    Holds the datagram inbox the cluster fills at round boundaries, the
    per-port RPC handlers, and the reply cache that makes retransmitted
    requests idempotent. All receive-side cycle charging happens here,
    on the owning machine's clock.
    """

    def __init__(self, fabric: "Fabric", node_id: int, kernel) -> None:
        self.fabric = fabric
        self.node_id = node_id
        self.kernel = kernel
        self.gen = 0         # this node's boot generation
        self.wedged = False  # True: netd stops draining the inbox
        self.inbox: List[bytes] = []
        self._seen: Dict[int, _SenderWindow] = {}
        self._handlers: Dict[int, object] = {}
        # (src, src_gen, seq) -> (serving boot generation, reply frame)
        self._reply_cache: \
            "OrderedDict[Tuple[int, int, int], Tuple[int, Frame]]" = \
            OrderedDict()

    def bind(self, port: int, handler) -> None:
        """Register *handler* for synchronous frames to *port*.

        The handler takes the request :class:`Frame` and returns
        ``(FrameKind, payload_bytes)``.
        """
        _check_port(port)
        if port in self._handlers:
            raise NetError(f"port {port} already bound on node "
                           f"{self.node_id}")
        self._handlers[port] = handler

    # ------------------------------------------------------------------
    # datagrams
    # ------------------------------------------------------------------

    def send(self, proc, dst: int, port: int, payload: bytes,
             kind: FrameKind = FrameKind.DATA) -> None:
        """Queue one datagram onto the fabric (fire and forget)."""
        self.fabric.send_datagram(self, proc, dst, port, payload, kind)

    def poll(self, proc) -> List[Frame]:
        """Drain the inbox: verify, dedupe, charge, return good frames.

        Called from the ``netd`` daemon each scheduling round, so
        receive-side cycles land on this machine's clock while its
        network daemon runs.
        """
        if self.wedged or not self.inbox:
            return []
        raw, self.inbox = self.inbox, []
        clock = self.kernel.clock
        stats = self.fabric.stats
        tracer = _trace.TRACER
        good: List[Frame] = []
        for wire in raw:
            clock.net(len(wire))
            try:
                frame = Frame.unpack(wire)
            except NetError:
                stats.corrupt_dropped += 1
                if tracer.enabled:
                    tracer.emit(EventKind.NET, name="rx-bad",
                                pid=proc.pid, value=len(wire))
                continue
            window = self._seen.get(frame.src)
            if window is None:
                window = _SenderWindow()
                self._seen[frame.src] = window
            if frame.gen != window.gen:
                if frame.gen < window.gen:
                    # a straggler from before the sender's reboot
                    stats.dup_dropped += 1
                    if tracer.enabled:
                        tracer.emit(EventKind.NET, name="rx-stale-gen",
                                    pid=proc.pid, addr=frame.seq)
                    continue
                window.reset(frame.gen)
            if window.is_duplicate(frame.seq):
                stats.dup_dropped += 1
                if tracer.enabled:
                    tracer.emit(EventKind.NET, name="rx-dup",
                                pid=proc.pid, addr=frame.seq)
                continue
            window.note(frame.seq)
            stats.frames_delivered += 1
            stats.bytes_delivered += len(wire)
            if frame.kind is FrameKind.HEARTBEAT:
                stats.heartbeats_delivered += 1
            if tracer.enabled:
                tracer.emit(EventKind.NET,
                            name=f"rx:{frame.kind.name.lower()}",
                            pid=proc.pid, addr=frame.seq,
                            value=len(wire))
            good.append(frame)
        return good

    # ------------------------------------------------------------------
    # synchronous exchanges
    # ------------------------------------------------------------------

    def call(self, dst: int, kind: FrameKind, port: int,
             payload: bytes) -> Frame:
        """One synchronous request/reply exchange with node *dst*."""
        return self.fabric.rpc(self, dst, kind, port, payload)

    def _serve(self, frame: Frame, cache: bool = True) -> Frame:
        """Execute (or replay) the handler for a request frame; returns
        the reply frame. With *cache*, retransmitted requests are
        answered from the reply cache so every handler observes each
        seq once; the fabric passes ``cache=False`` when the exchange
        cannot be retransmitted. Cache entries are tagged with the boot
        generation that produced them: a reply recorded before a crash
        must never be replayed by the rebooted incarnation (its
        volatile state is gone)."""
        if cache:
            key = (frame.src, frame.gen, frame.seq)
            cached = self._reply_cache.get(key)
            if cached is not None:
                gen_at, reply = cached
                if gen_at == self.gen:
                    return reply
                del self._reply_cache[key]  # stale: pre-reboot reply
        port = frame.port
        handler = self._handlers.get(port)
        if handler is None:
            reply_kind, reply_payload = FrameKind.NAK, b""
        else:
            reply_kind, reply_payload = handler(frame)
        reply_kind, reply_payload = _wire_fields(port, reply_kind,
                                                 reply_payload)
        reply = Frame(reply_kind, self.node_id, frame.src, port,
                      frame.seq, reply_payload, gen=self.gen)
        if cache:
            self._reply_cache[key] = (self.gen, reply)
            while len(self._reply_cache) > REPLY_CACHE_LIMIT:
                self._reply_cache.popitem(last=False)
        return reply


class Fabric:
    """The seeded network joining a cluster's machines."""

    def __init__(self, nnodes: int, seed: int = 1993) -> None:
        if nnodes < 1:
            raise NetError("a fabric needs at least one node")
        self.nnodes = nnodes
        self.seed = seed
        # Exact counters over everything the fabric carried.
        self.stats = SimpleNamespace(
            frames_sent=0,
            frames_delivered=0,
            bytes_sent=0,
            bytes_delivered=0,
            dropped=0,          # lost to an injected DROP
            duplicated=0,       # extra copies from injected DUP
            delayed=0,          # frames held back by injected DELAY
            corrupt_dropped=0,  # discarded at the NIC on checksum failure
            dup_dropped=0,      # duplicate datagrams suppressed by seq
            retransmits=0,      # synchronous-exchange resends
            ha_dropped=0,       # frames lost to a dead node / partition cut
            heartbeats_delivered=0,  # HEARTBEAT datagrams drained
            by_kind={},
        )
        self.round = 0
        #: the cluster's HA manager when armed (None = no failure model;
        #: the send/rpc paths then cost exactly one attribute check)
        self.ha = None
        #: per-node boot generation, bumped by :meth:`reattach`
        self.generations: List[int] = [0] * nnodes
        self._next_seq = 1
        self._nics: List[Optional[Nic]] = [None] * nnodes
        self._links: Dict[Tuple[int, int], _Link] = {}
        for src in range(nnodes):
            for dst in range(nnodes):
                if src == dst:
                    continue
                index = src * nnodes + dst
                self._links[(src, dst)] = _Link(
                    DeterministicRng(mix_seed(seed, index)))
        # (deliver_round, seq, copy, dst, wire, kind)
        self._in_flight: List[
            Tuple[int, int, int, int, bytes, FrameKind]] = []

    def attach(self, node_id: int, nic: Nic) -> None:
        if self._nics[node_id] is not None:
            raise NetError(f"node {node_id} already attached")
        self._nics[node_id] = nic

    def reattach(self, node_id: int, nic: Nic) -> None:
        """Replace a crashed node's NIC with its rebooted incarnation.

        Bumps the node's boot generation so receivers reset their
        dedupe windows and the node's own reply cache goes stale."""
        if self._nics[node_id] is None:
            raise NetError(f"node {node_id} was never attached")
        self.generations[node_id] += 1
        nic.gen = self.generations[node_id] & _GEN_MASK
        self._nics[node_id] = nic

    def purge_node(self, node_id: int) -> int:
        """Drop every in-flight frame addressed to *node_id* (it lost
        power: whatever was on its wire never arrives)."""
        keep = [entry for entry in self._in_flight
                if entry[3] != node_id]
        purged = len(self._in_flight) - len(keep)
        self._in_flight = keep
        self.stats.ha_dropped += purged
        return purged

    def pending(self) -> int:
        """Frames queued on the wire, not yet delivered."""
        return len(self._in_flight)

    def pending_workload(self) -> int:
        """Like :meth:`pending`, minus HEARTBEAT frames — the
        membership plane beats forever, so it must not keep an
        otherwise-finished cluster from looking idle."""
        return sum(1 for entry in self._in_flight
                   if entry[5] is not FrameKind.HEARTBEAT)

    def _nic(self, node_id: int) -> Nic:
        if not 0 <= node_id < self.nnodes:
            raise NetError(f"no such node {node_id}")
        nic = self._nics[node_id]
        if nic is None:
            raise NetError(f"node {node_id} is not attached")
        return nic

    def _allocate_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # ------------------------------------------------------------------
    # datagram path
    # ------------------------------------------------------------------

    def send_datagram(self, src_nic: Nic, proc, dst: int, port: int,
                      payload: bytes, kind: FrameKind) -> None:
        kind, payload = _wire_fields(port, kind, payload)
        self._nic(dst)  # validate early, on the sender's side
        frame = Frame(kind, src_nic.node_id, dst, port,
                      self._allocate_seq(), payload, gen=src_nic.gen)
        wire = frame.pack()
        clock = src_nic.kernel.clock
        clock.net(len(wire))
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += len(wire)
        name = _KIND_NAMES[kind]
        stats.by_kind[name] = stats.by_kind.get(name, 0) + 1
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.NET, name=f"tx:{kind.name.lower()}",
                        pid=proc.pid if proc is not None else 0,
                        addr=frame.seq, value=len(wire))
        if self.ha is not None:
            verdict = self.ha.filter_send(frame.src, dst)
            if verdict is not None:
                stats.ha_dropped += 1
                if tracer.enabled:
                    tracer.emit(EventKind.NET,
                                name=f"ha-drop:{verdict}",
                                addr=frame.seq)
                return
        extra = 0
        copies = 1
        injector = src_nic.kernel.injector
        if injector is not None:
            subject = f"{frame.src}->{dst}:{port}"
            wire, action = injector.filter_frame(subject, wire,
                                                 site="send")
            if action == "drop":
                stats.dropped += 1
                if tracer.enabled:
                    tracer.emit(EventKind.NET, name="drop",
                                addr=frame.seq)
                return
            if action == "dup":
                stats.duplicated += 1
                copies = 2
            elif isinstance(action, tuple) and action[0] == "delay":
                stats.delayed += 1
                extra = action[1]
        link = self._links[(frame.src, dst)]
        for copy in range(copies):
            deliver = self.round + link.draw_delay() + extra
            self._in_flight.append(
                (deliver, frame.seq, copy, dst, wire, kind))

    def deliver_due(self, current_round: int) -> int:
        """Move every frame whose round has come into its NIC inbox.

        Delivery order is ``(deliver_round, seq, copy)`` — a total
        order independent of insertion order, so reordering comes only
        from the seeded latencies.
        """
        self.round = current_round
        if not self._in_flight:
            return 0
        due = [entry for entry in self._in_flight
               if entry[0] <= current_round]
        if not due:
            return 0
        self._in_flight = [entry for entry in self._in_flight
                           if entry[0] > current_round]
        due.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        for _deliver, _seq, _copy, dst, wire, _kind in due:
            self._nic(dst).inbox.append(wire)
        return len(due)

    # ------------------------------------------------------------------
    # synchronous exchange path
    # ------------------------------------------------------------------

    def rpc(self, src_nic: Nic, dst: int, kind: FrameKind, port: int,
            payload: bytes) -> Frame:
        """One request/reply exchange, with bounded retransmission.

        The caller's clock is charged for every (re)send, the
        round-trip stall, and the received reply; the responder's clock
        for every request it sees and every reply it produces. A lost
        or damaged frame costs the caller a deterministic backoff and a
        resend; the responder's reply cache absorbs duplicates. The
        fabric itself never loses frames, so exhausting the budget can
        only happen under the NET fault plane — hence the typed
        :class:`InjectedNetError`.

        The request and reply :class:`Frame` objects pass from NIC to
        NIC. Only an installed injector can change a byte on the wire,
        so only then is each frame packed, filtered and parsed again;
        every charge and byte count is ``HEADER_SIZE + len(payload)``,
        which is exactly the length of the packed frame.
        """
        kind, payload = _wire_fields(port, kind, payload)
        dst_nic = self._nic(dst)
        if dst == src_nic.node_id:
            raise NetError("synchronous exchange with self")
        request = Frame(kind, src_nic.node_id, dst, port,
                        self._allocate_seq(), payload, gen=src_nic.gen)
        request_size = HEADER_SIZE + len(payload)
        src_clock = src_nic.kernel.clock
        dst_clock = dst_nic.kernel.clock
        latency = src_clock.costs.net_latency  # one net_stall(1)
        stats = self.stats
        tracer = _trace.TRACER
        injector = src_nic.kernel.injector
        ha = self.ha
        # Only the injector and HA lose frames, so only under them can
        # a request be resent, and only then is its reply cached.
        retry = injector is not None or ha is not None
        # With no trace event, HA filter or injector between them, the
        # request's charge and its propagation stall are adjacent on
        # the caller's clock, and are charged as one pair.
        direct = not retry and not tracer.enabled
        ha_blocked: Optional[str] = None
        for attempt in range(1, MAX_RETRANSMITS + 1):
            if attempt > 1:
                stats.retransmits += 1
                src_clock.backoff(attempt - 1)
            if direct:
                src_clock.charge_pair(
                    "net", src_clock.net_cycles(request_size), latency)
            else:
                src_clock.net(request_size)
            stats.frames_sent += 1
            stats.bytes_sent += request_size
            name = _KIND_NAMES[kind]
            stats.by_kind[name] = stats.by_kind.get(name, 0) + 1
            # the wire the responder parses; None: the frame itself
            wire: Optional[bytes] = None
            size = request_size
            copies = 1
            if not direct:
                if tracer.enabled:
                    tracer.emit(EventKind.NET,
                                name=f"tx:{kind.name.lower()}",
                                addr=request.seq, value=request_size)
                if ha is not None:
                    verdict = ha.filter_send(request.src, dst)
                    if verdict is not None:
                        # dead node or partition cut: the caller waits
                        # out the same timeout window an injected drop
                        # costs
                        ha_blocked = verdict
                        stats.ha_dropped += 1
                        if tracer.enabled:
                            tracer.emit(EventKind.NET,
                                        name=f"ha-drop:{verdict}",
                                        addr=request.seq)
                        src_clock.net_stall(2)
                        continue
                if injector is not None:
                    wire, action = injector.filter_frame(
                        f"{request.src}->{dst}:{port}", request.pack(),
                        site="rpc")
                    size = len(wire)
                    if action == "drop":
                        stats.dropped += 1
                        if tracer.enabled:
                            tracer.emit(EventKind.NET, name="drop",
                                        addr=request.seq)
                        src_clock.net_stall(2)  # the timeout window
                        continue
                    if action == "dup":
                        stats.duplicated += 1
                        copies = 2
                    elif isinstance(action, tuple) \
                            and action[0] == "delay":
                        stats.delayed += 1
                        src_clock.net_stall(action[1])
                src_clock.net_stall(1)  # request propagation
            reply: Optional[Frame] = None
            for _copy in range(copies):
                dst_clock.net(size)
                seen = request
                if wire is not None:
                    try:
                        seen = Frame.unpack(wire)
                    except NetError:
                        stats.corrupt_dropped += 1
                        if tracer.enabled:
                            tracer.emit(EventKind.NET, name="rx-bad",
                                        addr=request.seq)
                        continue
                stats.frames_delivered += 1
                stats.bytes_delivered += size
                if tracer.enabled:
                    tracer.emit(EventKind.NET,
                                name=f"rx:{seen.kind.name.lower()}",
                                addr=seen.seq, value=size)
                served = dst_nic._serve(seen, retry)
                if reply is None:
                    reply = served
            if reply is None:
                # the request never parsed: wait out the timeout, resend
                src_clock.net_stall(1)
                continue
            size = HEADER_SIZE + len(reply.payload)
            dst_clock.net(size)
            stats.frames_sent += 1
            stats.bytes_sent += size
            if ha is not None:
                verdict = ha.filter_send(dst, request.src)
                if verdict is not None:
                    # the cut fell between request and reply
                    ha_blocked = verdict
                    stats.ha_dropped += 1
                    if tracer.enabled:
                        tracer.emit(EventKind.NET,
                                    name=f"ha-drop-reply:{verdict}",
                                    addr=request.seq)
                    src_clock.net_stall(1)
                    continue
            wire = None
            if injector is not None:
                reply_subject = f"{dst}->{request.src}:{port}"
                wire, action = injector.filter_frame(
                    reply_subject, reply.pack(), site="rpc-reply")
                size = len(wire)
                if action == "drop":
                    stats.dropped += 1
                    if tracer.enabled:
                        tracer.emit(EventKind.NET, name="drop-reply",
                                    addr=request.seq)
                    src_clock.net_stall(1)
                    continue
                if isinstance(action, tuple) and action[0] == "delay":
                    stats.delayed += 1
                    src_clock.net_stall(action[1])
            # the reply's propagation stall, then its charge through the
            # caller's NIC: adjacent, so always one pair
            src_clock.charge_pair("net", latency,
                                  src_clock.net_cycles(size))
            if wire is not None:
                try:
                    reply = Frame.unpack(wire)
                except NetError:
                    stats.corrupt_dropped += 1
                    if tracer.enabled:
                        tracer.emit(EventKind.NET, name="rx-bad",
                                    addr=request.seq)
                    continue
            stats.frames_delivered += 1
            stats.bytes_delivered += size
            name = _KIND_NAMES[reply.kind]
            stats.by_kind[name] = stats.by_kind.get(name, 0) + 1
            if tracer.enabled:
                tracer.emit(EventKind.NET,
                            name=f"rx:{reply.kind.name.lower()}",
                            addr=reply.seq, value=size)
            return reply
        if ha_blocked is not None:
            # every failure was the failure model, not the fault plane:
            # tell the membership view the peer timed out (fail fast)
            ha.note_timeout(request.src, dst)
            error = InjectedNetError(
                f"exchange {kind.name}->{dst}:{port} timed out "
                f"({'node down' if ha_blocked == 'down' else 'partition'})")
            error.plane = "node"
            error.site = "rpc"
            error.fault_kind = \
                "node-down" if ha_blocked == "down" else "partition"
            return self._raise(error)
        error = InjectedNetError(
            f"exchange {kind.name}->{dst}:{port} exhausted "
            f"{MAX_RETRANSMITS} attempts")
        error.plane = "net"
        error.site = "rpc"
        error.fault_kind = "timeout"
        return self._raise(error)

    @staticmethod
    def _raise(error: InjectedNetError) -> Frame:
        raise error
