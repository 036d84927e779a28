"""A simulated block device with a deterministic write-reordering window.

The device is the durability boundary of the whole ``repro.disk``
subsystem: bytes are *durable* only once they leave the pending window,
either by aging out (the window holds at most ``window`` block writes)
or through an explicit :meth:`barrier`. A crash — injected through the
``DISK`` plane's crash-at-record kind, or called directly — resolves the
pending window with the device's seeded RNG: each pending write
independently persists or vanishes, and the newest surviving write may
be torn mid-block. That models a real disk's freedom to reorder and
partially apply cached writes, while staying bit-reproducible per seed
(rr's requirement that recovery paths be replayable for debugging).

The journal layered on top (:mod:`repro.disk.journal`) turns this
adversarial device into a crash-consistent store by placing barriers
between data/op records and the commit record.

Devices serialize to host files (``save``/``load``) so ``reprofsck``
can examine an image out-of-process.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.errors import DiskCrashedError, DiskError
from repro.util.rng import DeterministicRng

BLOCK_SIZE = 512
DEFAULT_BLOCKS = 32768          # 16 MiB
DEFAULT_WINDOW = 8              # pending block writes before auto-flush

#: Host-file header: magic, version, block size, block count.
_HOST_HEADER = struct.Struct(">8sIII")
_HOST_MAGIC = b"HMLKDSK1"


class BlockDevice:
    """Fixed-geometry block store with bounded, crash-lossy caching."""

    def __init__(self, nblocks: int = DEFAULT_BLOCKS,
                 block_size: int = BLOCK_SIZE, name: str = "disk0",
                 seed: int = 0, window: int = DEFAULT_WINDOW,
                 record_history: bool = False) -> None:
        if nblocks < 16:
            raise DiskError("device too small (need at least 16 blocks)")
        self.nblocks = nblocks
        self.block_size = block_size
        self.name = name
        self.seed = seed
        self.window = max(window, 0)
        self.crashed = False
        self.injector = None  # set by repro.inject.install_injector
        # Durable content; missing index = zero block.
        self._blocks: Dict[int, bytes] = {}
        # The reorder window: ordered, acknowledged, not yet durable.
        self._pending: List[Tuple[int, bytes]] = []
        self._rng = DeterministicRng(seed or 0xD15C_0001)
        # Counters (observability + tests).
        self.writes = 0
        self.barriers = 0
        self.dropped_writes = 0   # writes ignored post-crash or injected
        # Optional append-only write log for crash-prefix properties.
        self.history: Optional[List[Tuple[int, bytes]]] = \
            [] if record_history else None

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.nblocks:
            raise DiskError(
                f"block {index} out of range (device has {self.nblocks})"
            )

    def write(self, index: int, data: bytes) -> None:
        """Write one block (short data is zero-padded). Acknowledged
        writes sit in the reorder window until a barrier or age-out."""
        self._check_index(index)
        if len(data) > self.block_size:
            raise DiskError(
                f"write of {len(data)} bytes exceeds block size "
                f"{self.block_size}"
            )
        if self.crashed:
            # Power is off: the write is silently lost, exactly like a
            # store to a dead disk. Callers keep running; nothing more
            # persists. The remount sees the state at the crash point.
            self.dropped_writes += 1
            return
        block = bytes(data).ljust(self.block_size, b"\0")
        injector = self.injector
        if injector is not None:
            block, action = injector.filter_disk_write(
                f"{self.name}:{index}", block)
            if action == "drop":
                self.dropped_writes += 1
                return
            if action == "crash":
                self.crash()
                return
            if len(block) < self.block_size:
                # Torn block: the prefix lands over the old contents.
                block = block + self._read_durable(index)[len(block):]
        self.writes += 1
        if self.history is not None:
            self.history.append((index, block))
        self._pending.append((index, block))
        while len(self._pending) > self.window:
            old_index, old_block = self._pending.pop(0)
            self._blocks[old_index] = old_block

    def _read_durable(self, index: int) -> bytes:
        return self._blocks.get(index, b"\0" * self.block_size)

    def read(self, index: int) -> bytes:
        """Read one block; sees pending (acknowledged) writes."""
        self._check_index(index)
        block = None
        for pend_index, pend_block in reversed(self._pending):
            if pend_index == index:
                block = pend_block
                break
        if block is None:
            block = self._read_durable(index)
        injector = self.injector
        if injector is not None:
            block = injector.filter_disk_read(f"{self.name}:{index}",
                                              block)
        return block

    def barrier(self) -> None:
        """Flush the reorder window: everything acknowledged so far is
        durable before any later write can be."""
        if self.crashed:
            return
        self.barriers += 1
        for index, block in self._pending:
            self._blocks[index] = block
        self._pending.clear()

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss. Each write in the reorder window independently
        persists or vanishes (seeded RNG), the newest survivor may be
        torn; every write after this point is silently dropped."""
        if self.crashed:
            return
        survivors = [pair for pair in self._pending
                     if self._rng.random() < 0.5]
        if survivors:
            index, block = survivors[-1]
            keep = self._rng.randint(0, self.block_size)
            if keep < self.block_size:
                survivors[-1] = (
                    index, block[:keep] + self._read_durable(index)[keep:]
                )
        for index, block in survivors:
            self._blocks[index] = block
        self.dropped_writes += len(self._pending) - len(survivors)
        self._pending.clear()
        self.crashed = True

    def reopen(self, seed: Optional[int] = None) -> "BlockDevice":
        """A fresh powered-on device over this device's durable state —
        what the next boot mounts after a crash or clean shutdown."""
        clone = BlockDevice(self.nblocks, self.block_size, self.name,
                            seed if seed is not None else self.seed,
                            self.window)
        clone._blocks = dict(self._blocks)
        for index, block in self._pending:
            # An un-crashed reopen (clean handover) keeps acknowledged
            # writes; a crashed device has an empty pending list.
            clone._blocks[index] = block
        return clone

    def state_after(self, nwrites: int) -> "BlockDevice":
        """A device holding only the first *nwrites* issued writes
        (requires ``record_history=True``): the canonical crash-prefix
        states the Hypothesis recovery property quantifies over."""
        if self.history is None:
            raise DiskError("device was not recording write history")
        clone = BlockDevice(self.nblocks, self.block_size, self.name,
                            self.seed, self.window)
        for index, block in self.history[:nwrites]:
            clone._blocks[index] = block
        return clone

    # ------------------------------------------------------------------
    # host-file persistence (reprofsck's input)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the durable state (pending writes excluded — they
        are not durable) to a compressed host-side image."""
        raw = bytearray(self.nblocks * self.block_size)
        for index, block in sorted(self._blocks.items()):
            raw[index * self.block_size:(index + 1) * self.block_size] \
                = block
        return _HOST_HEADER.pack(_HOST_MAGIC, 1, self.block_size,
                                 self.nblocks) + zlib.compress(bytes(raw))

    @classmethod
    def from_bytes(cls, data: bytes, name: str = "disk0",
                   seed: int = 0) -> "BlockDevice":
        if len(data) < _HOST_HEADER.size:
            raise DiskError("not a device image (too short)")
        magic, version, block_size, nblocks = \
            _HOST_HEADER.unpack_from(data)
        if magic != _HOST_MAGIC:
            raise DiskError(f"not a device image (magic {magic!r})")
        if version != 1:
            raise DiskError(f"unsupported device image version {version}")
        raw = zlib.decompress(data[_HOST_HEADER.size:])
        if len(raw) != nblocks * block_size:
            raise DiskError("device image length disagrees with header")
        device = cls(nblocks, block_size, name=name, seed=seed)
        zero = b"\0" * block_size
        for index in range(nblocks):
            block = raw[index * block_size:(index + 1) * block_size]
            if block != zero:
                device._blocks[index] = block
        return device

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path: str, name: Optional[str] = None,
             seed: int = 0) -> "BlockDevice":
        with open(path, "rb") as handle:
            data = handle.read()
        return cls.from_bytes(
            data, name=name or path.rsplit("/", 1)[-1], seed=seed)

    # ------------------------------------------------------------------

    def require_alive(self) -> None:
        """Raise if the device has crashed (used by mount paths that
        must not run against a dead disk)."""
        if self.crashed:
            raise DiskCrashedError(
                f"device {self.name!r} has crashed; reopen() it"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "ok"
        return (f"<BlockDevice {self.name} {self.nblocks}x"
                f"{self.block_size} {state} writes={self.writes}>")
