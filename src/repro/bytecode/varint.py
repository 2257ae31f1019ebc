"""LEB128 variable-length integers and small helpers for the binary
format.  Compactness is part of the reproduction (experiment S2a —
"CLI makes a compact program representation" [15])."""

from __future__ import annotations

from typing import Tuple


def write_uint(out: bytearray, value: int) -> None:
    assert value >= 0
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uint(raw: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = raw[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def write_uints(out: bytearray, values) -> None:
    """A counted list of unsigned varints."""
    write_uint(out, len(values))
    for value in values:
        write_uint(out, value)


def read_uints(raw: bytes, pos: int) -> Tuple[list, int]:
    count, pos = read_uint(raw, pos)
    values = []
    for _ in range(count):
        value, pos = read_uint(raw, pos)
        values.append(value)
    return values, pos


def write_sint(out: bytearray, value: int) -> None:
    """Width-independent zig-zag signed LEB128.

    The classic C formulation ``(v << 1) ^ (v >> 63)`` bakes a word
    width into the sign-replicating shift; with Python's
    arbitrary-precision integers any fixed width silently corrupts
    values of magnitude >= 2**width (a hard-coded ``>> 127`` broke at
    the 128-bit boundary).  ``~(v << 1)`` is the same interleaving —
    ``-(v << 1) - 1``, mapping -1, -2, ... to 1, 3, ... — for *any*
    magnitude, so no width assumption is needed at all.
    """
    write_uint(out, (value << 1) if value >= 0 else ~(value << 1))


def read_sint(raw: bytes, pos: int) -> Tuple[int, int]:
    encoded, pos = read_uint(raw, pos)
    return (encoded >> 1) ^ -(encoded & 1), pos


def write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    write_uint(out, len(data))
    out.extend(data)


def read_str(raw: bytes, pos: int) -> Tuple[str, int]:
    length, pos = read_uint(raw, pos)
    return raw[pos:pos + length].decode("utf-8"), pos + length


def write_bytes(out: bytearray, data: bytes) -> None:
    write_uint(out, len(data))
    out.extend(data)


def read_bytes(raw: bytes, pos: int) -> Tuple[bytes, int]:
    length, pos = read_uint(raw, pos)
    return raw[pos:pos + length], pos + length
