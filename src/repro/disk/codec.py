"""A tiny deterministic binary codec for on-disk structures.

The journal and the checkpoint image both need a binary-safe,
byte-stable encoding of heterogeneous field tuples (ints, strings, raw
file bytes, nested lists). JSON cannot carry raw bytes and pickle is not
byte-stable across interpreter versions, so records use a minimal TLV
scheme: one type byte per field, then a fixed-width value or a
length-prefixed payload. Identical inputs encode to identical bytes on
every platform — the property the crash matrix's bit-identical-replay
assertions rest on.

Field types:

* ``I`` — signed 64-bit big-endian integer;
* ``S`` — UTF-8 string, 4-byte length prefix;
* ``B`` — raw bytes, 4-byte length prefix;
* ``N`` — None;
* ``L`` — list of fields, 4-byte count prefix, fields nested, at most
  :data:`MAX_DEPTH` lists deep.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import DiskFormatError

_INT = struct.Struct(">q")
_LEN = struct.Struct(">I")

#: deepest list nesting a decode accepts: far above the ten lists a
#: cluster recording nests, far below what exhausts the stack
MAX_DEPTH = 64


def encode_fields(fields) -> bytes:
    """Encode a sequence of fields to bytes."""
    out = bytearray()
    _encode_into(out, fields)
    return bytes(out)


def _encode_into(out: bytearray, fields) -> None:
    for field in fields:
        if field is None:
            out += b"N"
        elif isinstance(field, bool):
            # bool is an int subclass; normalize so decode returns int.
            out += b"I" + _INT.pack(int(field))
        elif isinstance(field, int):
            out += b"I" + _INT.pack(field)
        elif isinstance(field, str):
            raw = field.encode("utf-8")
            out += b"S" + _LEN.pack(len(raw)) + raw
        elif isinstance(field, (bytes, bytearray, memoryview)):
            raw = bytes(field)
            out += b"B" + _LEN.pack(len(raw)) + raw
        elif isinstance(field, (list, tuple)):
            out += b"L" + _LEN.pack(len(field))
            _encode_into(out, field)
        else:
            raise DiskFormatError(
                f"cannot encode field of type {type(field).__name__}"
            )


def decode_fields(data: bytes) -> List[object]:
    """Decode bytes produced by :func:`encode_fields`."""
    fields, offset = _decode_count(data, 0, None, 0)
    if offset != len(data):
        raise DiskFormatError(
            f"trailing garbage after field {len(fields)} "
            f"(offset {offset} of {len(data)})"
        )
    return fields


def _decode_count(data: bytes, offset: int, count,
                  depth: int) -> Tuple[List[object], int]:
    fields: List[object] = []
    while (count is None and offset < len(data)) \
            or (count is not None and len(fields) < count):
        if offset >= len(data):
            raise DiskFormatError("truncated field stream")
        tag = data[offset:offset + 1]
        offset += 1
        if tag == b"N":
            fields.append(None)
        elif tag == b"I":
            if offset + 8 > len(data):
                raise DiskFormatError("truncated integer field")
            fields.append(_INT.unpack_from(data, offset)[0])
            offset += 8
        elif tag in (b"S", b"B"):
            if offset + 4 > len(data):
                raise DiskFormatError("truncated length prefix")
            length = _LEN.unpack_from(data, offset)[0]
            offset += 4
            if offset + length > len(data):
                raise DiskFormatError("truncated payload")
            raw = data[offset:offset + length]
            offset += length
            if tag == b"S":
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as error:
                    raise DiskFormatError(
                        f"string field is not UTF-8: {error.reason} "
                        f"at byte {offset - length + error.start}"
                    ) from None
            fields.append(raw)
        elif tag == b"L":
            if offset + 4 > len(data):
                raise DiskFormatError("truncated list prefix")
            if depth == MAX_DEPTH:
                raise DiskFormatError(
                    f"lists nested deeper than {MAX_DEPTH}")
            nested_count = _LEN.unpack_from(data, offset)[0]
            offset += 4
            nested, offset = _decode_count(data, offset, nested_count,
                                           depth + 1)
            fields.append(nested)
        else:
            raise DiskFormatError(f"unknown field tag {tag!r}")
    return fields, offset
