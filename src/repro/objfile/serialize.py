"""Minimal binary serialization helpers for object files and metadata.

A deliberately simple length-prefixed binary encoding: fixed-width
little-endian integers and UTF-8 strings. All HOF on-disk structures are
built from these primitives so the format stays byte-exact and versioned.
"""

from __future__ import annotations

import struct
from typing import List

from repro.errors import ObjectFormatError

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")


class BinaryWriter:
    """Accumulates a byte buffer from typed writes."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u8(self, value: int) -> "BinaryWriter":
        self._parts.append(_U8.pack(value & 0xFF))
        return self

    def u16(self, value: int) -> "BinaryWriter":
        self._parts.append(_U16.pack(value & 0xFFFF))
        return self

    def u32(self, value: int) -> "BinaryWriter":
        self._parts.append(_U32.pack(value & 0xFFFFFFFF))
        return self

    def i32(self, value: int) -> "BinaryWriter":
        self._parts.append(_I32.pack(value))
        return self

    def string(self, text: str) -> "BinaryWriter":
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ObjectFormatError("string too long to serialize")
        self.u16(len(encoded))
        self._parts.append(encoded)
        return self

    def blob(self, data: bytes) -> "BinaryWriter":
        self.u32(len(data))
        self._parts.append(bytes(data))
        return self

    def raw(self, data: bytes) -> "BinaryWriter":
        self._parts.append(bytes(data))
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class BinaryReader:
    """Sequential reader matching :class:`BinaryWriter`'s encoding."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ObjectFormatError("truncated object data")
        chunk = self._data[self._pos: self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def i32(self) -> int:
        return _I32.unpack(self._take(4))[0]

    def string(self) -> str:
        length = self.u16()
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError:
            raise ObjectFormatError("string is not valid UTF-8") from None

    def enum(self, kind):
        """One u8 as a member of the enum *kind*."""
        code = self.u8()
        try:
            return kind(code)
        except ValueError:
            raise ObjectFormatError(
                f"unknown {kind.__name__} code {code}") from None

    def blob(self) -> bytes:
        length = self.u32()
        return bytes(self._take(length))

    def raw(self, n: int) -> bytes:
        return bytes(self._take(n))

    @property
    def offset(self) -> int:
        return self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)
