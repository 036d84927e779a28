"""The write-ahead metadata journal.

Every mutating file-system operation flows through here as one
*transaction*: a ``BEGIN`` record, one ``OP`` record per logical
operation (create, unlink, rename, write, ...), a **barrier** — so the
operation payload (including file data) is durable strictly before —
then a ``COMMIT`` record and a final barrier. Recovery replays
committed transactions in order and discards the torn tail: a crash
between records loses at most the uncommitted transaction, never
half of one.

Record layout (block-aligned; a record spans consecutive blocks)::

    +----------------------------- 36-byte header ----------------------+
    | magic 'HJRN' | type B | pad | gen H | txid Q | seq Q | plen I |   |
    | payload crc32 I | header crc32 I                                  |
    +--------------------------------------------------------------------+
    | payload (OP records: TLV-encoded [volume, op, args...])           |
    +--------------------------------------------------------------------+

``gen`` is the journal generation: each checkpoint bumps it, so stale
records from the previous generation — still physically present in the
ring — are ignored by the scan. ``seq`` numbers records within a
generation; a gap or repeat ends the valid prefix.

Nesting: a transaction opened inside another transaction is absorbed
into it, and only the *outermost* operation emits an OP record. That is
what makes ``rename`` over an existing destination atomic — its
internal unlink adds no record of its own, so recovery sees exactly one
RENAME to replay (which re-performs the unlink itself).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.disk.blockdev import BlockDevice
from repro.disk.codec import encode_fields, decode_fields
from repro.errors import DiskFormatError, DiskFullError
from repro.trace import tracer as _trace
from repro.trace.events import EventKind

MAGIC = b"HJRN"
REC_BEGIN = 1
REC_OP = 2
REC_COMMIT = 3

_HEADER = struct.Struct(">4sBxHQQII")
_HCRC = struct.Struct(">I")
HEADER_SIZE = _HEADER.size + _HCRC.size      # 36 bytes

_SITES = {REC_BEGIN: "journal-begin", REC_OP: "journal-op",
          REC_COMMIT: "journal-commit"}


def _pack_record(rtype: int, gen: int, txid: int, seq: int,
                 payload: bytes) -> bytes:
    head = _HEADER.pack(MAGIC, rtype, gen, txid, seq, len(payload),
                        zlib.crc32(payload))
    return head + _HCRC.pack(zlib.crc32(head)) + payload


@dataclass
class ScannedRecord:
    """One valid record met by the scan."""

    rtype: int
    txid: int
    seq: int
    block: int
    nblocks: int
    payload: bytes


@dataclass
class JournalScan:
    """The scan's verdict over one generation of the journal region."""

    records: List[ScannedRecord] = field(default_factory=list)
    #: Committed transactions, in commit order: (txid, [(vol, op, args)]).
    committed: List[Tuple[int, List[tuple]]] = field(default_factory=list)
    #: Records belonging to an unfinished transaction at the tail.
    discarded_records: int = 0
    #: txid of the transaction left open at the tail, if any.
    uncommitted_txid: Optional[int] = None
    #: Structural violations (op outside txn, double begin, ...).
    malformed: List[str] = field(default_factory=list)
    #: True when a valid same-generation record exists *after* the first
    #: invalid one, and that one stayed invalid when read again —
    #: mid-stream corruption, not a legitimate torn tail.
    mid_corruption: bool = False
    #: The block of that still-invalid record (with mid_corruption).
    stop_block: Optional[int] = None
    #: Blocks whose record parsed only when read a second time.
    reread_blocks: List[int] = field(default_factory=list)


def scan_journal(device: BlockDevice, start: int, nblocks: int,
                 generation: int, deep: bool = False) -> JournalScan:
    """Walk the journal region, collecting the valid record prefix.

    The scan stops at the first invalid record (torn tail). With
    ``deep=True`` the record there is read once more, and the scan
    goes on if it now parses. If it is still bad, the rest of the
    region is probed for a valid same-generation record with a higher
    seq, which an honest crash cannot leave behind: if one is found,
    :attr:`JournalScan.mid_corruption` is set and
    :attr:`JournalScan.stop_block` names the bad block.
    """
    scan = JournalScan()
    end = start + nblocks
    block = start
    seq = 0
    open_txid: Optional[int] = None
    open_ops: List[tuple] = []
    while block < end:
        record, span = _read_record(device, block, end, generation, seq)
        if record is None and deep:
            # a transient read fault usually does not repeat
            record, span = _read_record(device, block, end, generation,
                                        seq)
            if record is not None:
                scan.reread_blocks.append(block)
            elif _valid_beyond(device, block + 1, end, generation, seq):
                scan.mid_corruption = True
                scan.stop_block = block
        if record is None:
            break
        scan.records.append(record)
        if record.rtype == REC_BEGIN:
            if open_txid is not None:
                scan.malformed.append(
                    f"BEGIN txn {record.txid} inside open txn {open_txid}"
                )
            open_txid = record.txid
            open_ops = []
        elif record.rtype == REC_OP:
            if open_txid is None or record.txid != open_txid:
                scan.malformed.append(
                    f"OP record for txn {record.txid} outside its "
                    f"transaction"
                )
            else:
                try:
                    fields = decode_fields(record.payload)
                    volume, op = fields[0], fields[1]
                    open_ops.append((volume, op, fields[2:]))
                except (DiskFormatError, IndexError) as error:
                    scan.malformed.append(
                        f"undecodable OP payload in txn {record.txid}: "
                        f"{error}"
                    )
        elif record.rtype == REC_COMMIT:
            if open_txid is None or record.txid != open_txid:
                scan.malformed.append(
                    f"COMMIT for txn {record.txid} without its BEGIN"
                )
            else:
                scan.committed.append((open_txid, open_ops))
                open_txid = None
                open_ops = []
        block += span
        seq += 1
    if open_txid is not None:
        # The crash interrupted this transaction before COMMIT: its
        # records are discarded — the designed outcome, not damage.
        scan.discarded_records += 1 + len(open_ops)
        scan.uncommitted_txid = open_txid
    return scan


def _valid_beyond(device: BlockDevice, probe: int, end: int,
                  generation: int, seq: int) -> bool:
    """True when a valid record of *generation* with a seq above *seq*
    starts at some block in ``probe..end-1``."""
    while probe < end:
        record, _span = _read_record(device, probe, end, generation, None)
        if record is not None and record.seq > seq:
            return True
        probe += 1
    return False


def _read_record(device: BlockDevice, block: int, end: int,
                 generation: int, expect_seq: Optional[int]):
    """Parse the record starting at *block*; (record, span) or (None, 0)."""
    raw = device.read(block)
    if raw[:4] != MAGIC:
        return None, 0
    try:
        magic, rtype, gen, txid, seq, plen, pcrc = _HEADER.unpack_from(raw)
        (hcrc,) = _HCRC.unpack_from(raw, _HEADER.size)
    except struct.error:
        return None, 0
    if zlib.crc32(raw[:_HEADER.size]) != hcrc:
        return None, 0
    if gen != generation or rtype not in _SITES:
        return None, 0
    if expect_seq is not None and seq != expect_seq:
        return None, 0
    span = (HEADER_SIZE + plen + device.block_size - 1) \
        // device.block_size
    if block + span > end:
        return None, 0
    payload = bytearray(raw[HEADER_SIZE:])
    for extra in range(1, span):
        payload += device.read(block + extra)
    payload = bytes(payload[:plen])
    if zlib.crc32(payload) != pcrc:
        return None, 0
    return ScannedRecord(rtype, txid, seq, block, span, payload), span


class _NullTxn:
    """The no-journal fast path: entering a transaction does nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_TXN = _NullTxn()


class _Txn:
    def __init__(self, journal: "Journal") -> None:
        self.journal = journal

    def __enter__(self):
        self.journal._enter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.journal._exit(exc_type is None)
        return False


class Journal:
    """The append-side of the journal, bound to one device region."""

    def __init__(self, device: BlockDevice, start: int, nblocks: int,
                 generation: int = 1, next_txid: int = 1,
                 clock=None, cost_per_block: int = 120) -> None:
        self.device = device
        self.start = start
        self.nblocks = nblocks
        self.generation = generation
        self.next_txid = next_txid
        self.clock = clock
        self.cost_per_block = cost_per_block
        self.suspended = False
        #: Checkpoint callback armed by the DiskStore: invoked when the
        #: region cannot hold the next transaction.
        self.on_full: Optional[Callable[[], None]] = None
        self.records_written = 0
        self.txns_committed = 0
        self._head = start
        self._seq = 0
        self._depth = 0
        self._ops: List[Tuple[str, str, list]] = []

    # ------------------------------------------------------------------
    # transaction API (used by repro.fs.filesystem)
    # ------------------------------------------------------------------

    def transaction(self) -> _Txn:
        return _Txn(self)

    def _enter(self) -> None:
        self._depth += 1

    def _exit(self, ok: bool) -> None:
        self._depth -= 1
        if self._depth > 0:
            return
        ops, self._ops = self._ops, []
        if ok and ops and not self.suspended:
            self._commit(ops)

    def log(self, volume: str, op: str, fields: list) -> None:
        """Record one logical operation.

        Only the outermost operation of a nested group is recorded —
        inner mutations (rename's implicit unlink) are re-derived by
        replaying the outer op. A log outside any transaction gets an
        implicit single-op transaction.
        """
        if self.suspended:
            return
        if self._depth == 0:
            with self.transaction():
                self._ops.append((volume, op, fields))
            return
        if self._depth == 1:
            self._ops.append((volume, op, fields))

    # ------------------------------------------------------------------
    # record emission
    # ------------------------------------------------------------------

    def _commit(self, ops: List[Tuple[str, str, list]]) -> None:
        txid = self.next_txid
        self.next_txid += 1
        payloads = [encode_fields([volume, op] + list(fields))
                    for volume, op, fields in ops]
        total = self._record_span(0)  # BEGIN
        total += sum(self._record_span(len(p)) for p in payloads)
        total += self._record_span(0)  # COMMIT
        if self._head + total > self.start + self.nblocks:
            # The region cannot hold this transaction: checkpoint. The
            # in-memory state (which already includes these ops) is
            # captured wholesale, so the records need not be written.
            if self.on_full is None:
                raise DiskFullError(
                    f"journal region full ({self.nblocks} blocks) and "
                    f"no checkpoint handler armed"
                )
            self.on_full()
            if total > self.nblocks:
                raise DiskFullError(
                    f"transaction of {total} blocks exceeds the whole "
                    f"journal region ({self.nblocks} blocks)"
                )
            return
        subjects = [f"{volume}:{op}" for volume, op, _fields in ops]
        self._write_record(REC_BEGIN, txid, b"", f"txn{txid}")
        for payload, subject in zip(payloads, subjects):
            self._write_record(REC_OP, txid, payload, subject)
        self.device.barrier()   # ops (and their data) before commit
        self._write_record(REC_COMMIT, txid, b"", f"txn{txid}")
        self.device.barrier()   # commit durable before acknowledging
        self.txns_committed += 1

    def _record_span(self, payload_len: int) -> int:
        return (HEADER_SIZE + payload_len + self.device.block_size - 1) \
            // self.device.block_size

    def _write_record(self, rtype: int, txid: int, payload: bytes,
                      subject: str) -> None:
        site = _SITES[rtype]
        self.records_written += 1
        injector = self.device.injector
        if injector is not None and injector.on_disk_record(site, subject):
            # Crash-at-record: power dies as this record is written —
            # neither it nor anything after it persists.
            self.device.crash()
        record = _pack_record(rtype, self.generation, txid, self._seq,
                              payload)
        span = self._record_span(len(payload))
        size = self.device.block_size
        for index in range(span):
            self.device.write(self._head + index,
                              record[index * size:(index + 1) * size])
        self._head += span
        self._seq += 1
        if self.clock is not None:
            self.clock.charge("journal", span * self.cost_per_block)
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.DISK, name=f"{site}:{subject}",
                        value=txid)

    # ------------------------------------------------------------------

    def reset(self, generation: int, next_txid: int) -> None:
        """Start a fresh generation (after a checkpoint)."""
        self.generation = generation
        self.next_txid = next_txid
        self._head = self.start
        self._seq = 0
