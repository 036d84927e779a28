"""Minimal binary serialization helpers for object files and metadata.

A deliberately simple length-prefixed binary encoding: fixed-width
little-endian integers and UTF-8 strings. All HOF on-disk structures are
built from these primitives so the format stays byte-exact and versioned.
"""

from __future__ import annotations

import struct
from typing import List

from repro.errors import ObjectFormatError

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")

_TRUNCATED = "truncated object data"


def encode_string(text: str) -> bytes:
    """*text* as a u16 length and its UTF-8 bytes."""
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ObjectFormatError("string too long to serialize")
    return _U16.pack(len(encoded)) + encoded


class BinaryWriter:
    """Accumulates a byte buffer from typed writes."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u32(self, value: int) -> "BinaryWriter":
        self._parts.append(_U32.pack(value & 0xFFFFFFFF))
        return self

    def string(self, text: str) -> "BinaryWriter":
        self._parts.append(encode_string(text))
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
    """Sequential reader matching :class:`BinaryWriter`'s encoding.

    Every read checks its bounds once and raises
    :class:`ObjectFormatError` past the end of the data.
    """

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset
        self._end = len(data)

    def _take(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if end > self._end:
            raise ObjectFormatError(_TRUNCATED)
        self._pos = end
        return self._data[pos:end]

    def row(self, layout: struct.Struct) -> tuple:
        """One fixed-width row of *layout*'s fields."""
        pos = self._pos
        end = pos + layout.size
        if end > self._end:
            raise ObjectFormatError(_TRUNCATED)
        self._pos = end
        return layout.unpack_from(self._data, pos)

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise ObjectFormatError(_TRUNCATED)
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        pos = self._pos
        end = pos + 4
        if end > self._end:
            raise ObjectFormatError(_TRUNCATED)
        self._pos = end
        return _U32.unpack_from(self._data, pos)[0]

    def i32(self) -> int:
        return self.row(_I32)[0]

    def string(self) -> str:
        data, pos = self._data, self._pos
        start = pos + 2
        if start > self._end:
            raise ObjectFormatError(_TRUNCATED)
        end = start + (data[pos] | data[pos + 1] << 8)
        if end > self._end:
            raise ObjectFormatError(_TRUNCATED)
        self._pos = end
        try:
            return str(data[start:end], "utf-8")
        except UnicodeDecodeError:
            raise ObjectFormatError("string is not valid UTF-8") from None

    def enum(self, kind):
        """One u8 as a member of the enum *kind*."""
        return enum_member(kind, self.u8())

    def blob(self) -> bytes:
        length = self.u32()
        return bytes(self._take(length))

    def raw(self, n: int) -> bytes:
        return bytes(self._take(n))

    def at_end(self) -> bool:
        return self._pos >= self._end


def enum_member(kind, code: int):
    """The member of the enum *kind* with value *code*."""
    try:
        return kind(code)
    except ValueError:
        raise ObjectFormatError(
            f"unknown {kind.__name__} code {code}") from None
