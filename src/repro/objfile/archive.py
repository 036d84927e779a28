"""``ar``-style archives of HOF objects.

Archives let the baseline linker pull in only the members that satisfy
outstanding undefined references, the way ``ld`` treats ``libc.a``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ObjectFormatError
from repro.objfile.format import ObjectFile
from repro.objfile.serialize import BinaryReader, BinaryWriter

ARCHIVE_MAGIC = b"HAR1"


class Archive:
    """An ordered collection of named object members with a symbol index."""

    def __init__(self, name: str = "<archive>") -> None:
        self.name = name
        self.members: List[ObjectFile] = []

    def add(self, obj: ObjectFile) -> None:
        if any(m.name == obj.name for m in self.members):
            raise ObjectFormatError(
                f"archive {self.name!r} already has a member {obj.name!r}"
            )
        self.members.append(obj)

    def symbol_index(self) -> Dict[str, ObjectFile]:
        """Map from each defined global symbol to the member defining it.

        The first member wins on duplicates, matching ld's first-found
        archive semantics.
        """
        index: Dict[str, ObjectFile] = {}
        for member in self.members:
            for symbol in member.defined_globals():
                index.setdefault(symbol.name, member)
        return index

    def member(self, name: str) -> Optional[ObjectFile]:
        for candidate in self.members:
            if candidate.name == name:
                return candidate
        return None

    def resolve(self, undefined: "set[str]") -> List[ObjectFile]:
        """Members needed to satisfy *undefined*, in link order.

        Iterates to a fixed point because pulling in one member can add
        new undefined references satisfied by a later member.
        """
        index = self.symbol_index()
        chosen: List[ObjectFile] = []
        pending = set(undefined)
        changed = True
        while changed:
            changed = False
            for name in sorted(pending):
                member = index.get(name)
                if member is not None and member not in chosen:
                    chosen.append(member)
                    pending |= set(member.undefined_symbols())
                    pending -= {s.name for s in member.defined_globals()}
                    changed = True
        return chosen

    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        writer = BinaryWriter()
        writer.raw(ARCHIVE_MAGIC)
        writer.string(self.name)
        writer.u32(len(self.members))
        for member in self.members:
            writer.blob(member.to_bytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Archive":
        reader = BinaryReader(data)
        if reader.raw(4) != ARCHIVE_MAGIC:
            raise ObjectFormatError("not a HOF archive")
        archive = cls(reader.string())
        for _ in range(reader.u32()):
            archive.add(ObjectFile.from_bytes(reader.blob()))
        if not reader.at_end():
            raise ObjectFormatError("trailing bytes after archive")
        return archive
