"""The ``.rrr`` recording container.

A recording is everything needed to re-create a run bit-for-bit and to
check that the re-creation *was* bit-for-bit:

* **manifest** — the run's inputs: script path and argv, the
  ``REPRO_*`` environment, the armed fault plans and injection seed,
  the observed cluster topology, the checkpoint interval, and the
  tracer configuration;
* **boots** — one record per kernel booted during the run (chaos
  crash/recovery cycles boot several), with final total cycles and the
  sorted per-category breakdown;
* **events** — the full :mod:`repro.trace` stream, packed as plain
  field tuples (the divergence oracle's primary evidence);
* **checkpoints** — periodic full-machine state trees from
  :mod:`repro.rr.checkpoint`, each with its cycle, tracer cursor, and
  content digest.

The on-disk format mirrors :meth:`repro.disk.BlockDevice.save`: a
magic header, then the zlib-compressed TLV encoding of the payload
(:mod:`repro.disk.codec`), so identical runs produce identical files.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.disk.codec import decode_fields, encode_fields
from repro.errors import DiskFormatError, RRError
from repro.inject.plan import FaultKind, FaultPlan, Plane
from repro.trace.events import kinds_mask

RECORDING_VERSION = 1
_MAGIC = b"HMLKRRR1"

#: Default ring capacity while recording: large enough that the full
#: event stream of every example survives for the oracle to diff.
RECORD_CAPACITY = 1 << 20


_OPT_INT = (int, type(None))
# The field types of one row of each kind, in the order the writer
# packs them: pack_event, encode_plan, Checkpoint.to_fields.
_EVENT_ROW = (int, int, int, int, str, int, int, int)
_PLAN_ROW = (str, str, str, str, _OPT_INT, str, _OPT_INT, int, str, int)
_CHECKPOINT_ROW = (int, int, int, bytes, list)
#: the manifest row's fields, in the order :meth:`Recording.to_bytes`
#: packs them
_MANIFEST_KEYS = ("script", "argv", "env", "plans", "inject_seed", "nodes",
                  "net_seed", "interval", "kinds", "capacity")


def _row(value, types: tuple, what: str) -> list:
    """*value*, a list with one field of each of *types*; anything else
    is a malformed *what*."""
    if type(value) is not list or len(value) != len(types) \
            or not all(map(isinstance, value, types)):
        raise RRError(f"malformed {what} in recording")
    return value


def pack_event(event) -> list:
    """One trace event as a codec-encodable field list (stable order,
    matching :meth:`repro.trace.events.Event.to_dict`)."""
    return [int(event.kind), event.cycle, event.pid, event.addr,
            event.name, event.value, event.dur, event.boot]


def encode_plan(plan: FaultPlan) -> list:
    """A fault plan as constructor fields (floats go through ``repr``
    — the codec is int/str/bytes only and ``repr`` round-trips)."""
    return [plan.plane.value, plan.kind.value, plan.match, plan.site,
            plan.pid, repr(plan.probability), plan.max_faults,
            plan.after, plan.errno, int(plan.transient)]


def decode_plan(record: list) -> FaultPlan:
    (plane, kind, match, site, pid, probability, max_faults, after,
     errno, transient) = _row(record, _PLAN_ROW, "fault plan")
    try:
        return FaultPlan(plane=Plane.parse(plane), kind=FaultKind(kind),
                         match=match, site=site, pid=pid,
                         probability=float(probability),
                         max_faults=max_faults, after=after, errno=errno,
                         transient=bool(transient))
    except ValueError as error:
        raise RRError(f"malformed fault plan in recording: {error}")


@dataclass
class Checkpoint:
    """One captured machine (or cluster) state."""

    boot: int           # tracer boot index the capture belongs to
    cycle: int          # clock cycles at capture time
    cursor: int         # tracer sequence cursor at capture time
    digest: bytes       # sha256 over the encoded state tree
    state: list         # the state tree itself (codec-encodable)

    def to_fields(self) -> list:
        return [self.boot, self.cycle, self.cursor, self.digest,
                self.state]

    @classmethod
    def from_fields(cls, row: list) -> "Checkpoint":
        return cls(*_row(row, _CHECKPOINT_ROW, "checkpoint row"))


@dataclass
class Recording:
    """An in-memory recording (see the module docstring for layout)."""

    manifest: Dict[str, object] = field(default_factory=dict)
    boots: List[Tuple[int, List[list]]] = field(default_factory=list)
    events: List[list] = field(default_factory=list)
    checkpoints: List[Checkpoint] = field(default_factory=list)
    emitted: int = 0    # total events accepted by the tracer
    dropped: int = 0    # events lost to ring overflow (0 normally)
    outcome: str = ""   # clean | workload-failure | kernel-death
    # why the run failed, if it did (neither saved nor compared)
    detail: str = field(default="", compare=False)

    # -- manifest conveniences -------------------------------------------

    @property
    def plans(self) -> List[FaultPlan]:
        return [decode_plan(row) for row in
                self.manifest.get("plans", [])]

    @property
    def interval(self) -> Optional[int]:
        return self.manifest.get("interval")

    def nearest_checkpoint(self, cycle: int) -> Optional[Checkpoint]:
        """The latest checkpoint at or before *cycle* (in the last
        recorded boot), or None if the run must replay from boot."""
        best = None
        for checkpoint in self.checkpoints:
            if checkpoint.cycle <= cycle \
                    and (best is None or checkpoint.cycle > best.cycle):
                best = checkpoint
        return best

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        manifest = self.manifest
        payload = encode_fields([
            RECORDING_VERSION,
            [
                manifest.get("script"),
                list(manifest.get("argv", [])),
                [[key, value] for key, value
                 in sorted(manifest.get("env", {}).items())],
                [list(row) for row in manifest.get("plans", [])],
                manifest.get("inject_seed"),
                manifest.get("nodes", 0),
                manifest.get("net_seed"),
                manifest.get("interval"),
                (None if manifest.get("kinds") is None
                 else [str(kind) for kind in manifest["kinds"]]),
                manifest.get("capacity", RECORD_CAPACITY),
            ],
            [[cycles, categories] for cycles, categories in self.boots],
            self.events,
            [checkpoint.to_fields() for checkpoint in self.checkpoints],
            self.emitted,
            self.dropped,
            self.outcome,
        ])
        return _MAGIC + zlib.compress(payload, level=6)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Recording":
        """Decode a recording. Bytes that are not one compressed
        payload of the shape :meth:`to_bytes` writes raise
        :class:`~repro.errors.RRError`, so a recording that decodes
        re-encodes to exactly its payload."""
        if blob[:len(_MAGIC)] != _MAGIC:
            raise RRError("not a reprorr recording (bad magic)")
        stream = zlib.decompressobj()
        try:
            payload = stream.decompress(blob[len(_MAGIC):])
            if not stream.eof or stream.unused_data:
                raise RRError("undecodable recording: the compressed "
                              "payload is cut short or followed by bytes")
            fields = decode_fields(payload)
        except (zlib.error, DiskFormatError) as error:
            raise RRError(f"undecodable recording: {error}")
        (version, manifest_row, boots, events, checkpoints, emitted,
         dropped, outcome) = _row(fields, (int, object, list, list, list,
                                           int, int, str), "payload")
        if version != RECORDING_VERSION:
            raise RRError(f"unsupported recording version {version}")
        _, argv, env, plans, *_, kinds, capacity = _row(manifest_row, (
            (str, type(None)), list, list, list, _OPT_INT, int, _OPT_INT,
            _OPT_INT, (list, type(None)), int), "manifest")
        _row(argv, (str,) * len(argv), "argv")
        keys = [_row(row, (str, str), "environment")[0] for row in env]
        if keys != sorted(set(keys)):
            raise RRError("malformed environment in recording")
        for row in plans:
            decode_plan(row)
        names = kinds or []
        try:
            kinds_mask(_row(names, (str,) * len(names), "event kinds"))
        except KeyError as error:
            raise RRError(f"unknown event kind {error} in recording")
        if capacity <= 0:
            raise RRError("malformed tracer capacity in recording")
        for row in boots:
            for pair in _row(row, (int, list), "boot")[1]:
                _row(pair, (str, int), "boot")
        for row in events:
            _row(row, _EVENT_ROW, "event")
        return cls(
            manifest=dict(zip(_MANIFEST_KEYS, manifest_row), env=dict(env)),
            boots=[(cycles, categories) for cycles, categories in boots],
            events=events,
            checkpoints=list(map(Checkpoint.from_fields, checkpoints)),
            emitted=emitted,
            dropped=dropped,
            outcome=outcome,
        )

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "Recording":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    def describe(self) -> str:
        """Human-readable summary (the ``reprorr info`` output)."""
        manifest = self.manifest
        lines = [
            f"script:      {manifest.get('script') or '<call>'}",
            f"argv:        {' '.join(manifest.get('argv', [])) or '-'}",
            f"plans:       {len(manifest.get('plans', []))} "
            f"(seed {manifest.get('inject_seed')})",
            f"cluster:     "
            f"{manifest.get('nodes') or 0} node(s)"
            + (f", seed {manifest.get('net_seed')}"
               if manifest.get("net_seed") is not None else ""),
            f"interval:    {manifest.get('interval') or 'off'}",
            f"boots:       {len(self.boots)}",
            f"events:      {len(self.events)} retained "
            f"({self.emitted} emitted, {self.dropped} dropped)",
            f"checkpoints: {len(self.checkpoints)}"
            + ("".join(f"\n  @cycle {cp.cycle} (boot {cp.boot}, "
                       f"cursor {cp.cursor}, "
                       f"digest {cp.digest.hex()[:16]})"
                       for cp in self.checkpoints)),
            f"outcome:     {self.outcome or '-'}",
        ]
        for cycles, categories in self.boots:
            lines.append(f"  boot: {cycles} cycles, "
                         + " ".join(f"{name}={value}"
                                    for name, value in categories))
        return "\n".join(lines)
