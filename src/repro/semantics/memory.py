"""Flat little-endian byte-addressable memory.

All engines (interpreter, VM, simulators) execute against this model:
address 0 is reserved (a null-pointer guard page of 64 bytes), a bump
allocator hands out heap blocks, and each call frame carves its slots
from a downward-growing stack at the top of memory.

Scalar and vector accesses go through cached :class:`struct.Struct`
instances — one per scalar type, one per ``(element, lanes)`` pair —
so the hot load/store paths do a single ``unpack_from``/``pack_into``
against the backing ``bytearray`` with no intermediate copies.
"""

from __future__ import annotations

import struct
from typing import List

from repro.lang import types as ty
from repro.semantics.errors import TrapError

_FORMAT_CHARS = {
    (8, True): "b", (8, False): "B",
    (16, True): "h", (16, False): "H",
    (32, True): "i", (32, False): "I",
    (64, True): "q", (64, False): "Q",
}

#: one cached Struct per scalar language type
_SCALAR_STRUCTS = {}
for _bits_signed, _char in _FORMAT_CHARS.items():
    _int_ty = ty.IntType(*_bits_signed)
    _SCALAR_STRUCTS[_int_ty] = struct.Struct("<" + _char)
_SCALAR_STRUCTS[ty.F32] = struct.Struct("<f")
_SCALAR_STRUCTS[ty.F64] = struct.Struct("<d")

_VECTOR_STRUCTS = {}

#: wrong-type values handed to a cached packer (floats into an int
#: slot, out-of-range ints); the slow path coerces exactly like the
#: old per-scalar code did.  OverflowError is deliberately absent —
#: packing a float too large for f32 must propagate, as the reference
#: per-scalar pack would raise it too.  The fast engines' generated
#: store code shares this tuple so coercion behaviour cannot drift.
PACK_COERCE_ERRORS = (struct.error, TypeError)
_PACK_ERRORS = PACK_COERCE_ERRORS

NULL_GUARD = 64
_MASK64 = (1 << 64) - 1


def scalar_struct(value_ty) -> struct.Struct:
    """The cached packer/unpacker for a scalar type (KeyError if the
    type has no byte representation)."""
    return _SCALAR_STRUCTS[value_ty]


def vector_struct(elem_ty, lanes: int) -> struct.Struct:
    """Cached bulk packer for ``lanes`` contiguous elements."""
    key = (elem_ty, lanes)
    cached = _VECTOR_STRUCTS.get(key)
    if cached is None:
        elem_fmt = _SCALAR_STRUCTS[elem_ty].format[1:]
        cached = struct.Struct("<" + elem_fmt * lanes)
        _VECTOR_STRUCTS[key] = cached
    return cached


class Memory:
    """A fixed-size flat memory with bump allocation."""

    def __init__(self, size: int = 1 << 20):
        if size < 4 * NULL_GUARD:
            raise ValueError("memory too small")
        self.size = size
        self.data = bytearray(size)
        self.heap_ptr = NULL_GUARD
        self.stack_ptr = size          # grows downward
        self._saved_sps: List[int] = []

    # -- allocation -----------------------------------------------------------

    def alloc(self, size: int, align: int = 16) -> int:
        """Allocate ``size`` bytes on the heap; returns the address."""
        addr = (self.heap_ptr + align - 1) // align * align
        if addr + size > self.stack_ptr:
            raise TrapError("out of memory (heap meets stack)")
        self.heap_ptr = addr + size
        return addr

    def push_frame(self, size: int) -> int:
        """Reserve a stack frame; returns its base address."""
        new_sp = (self.stack_ptr - size) & ~15
        if new_sp <= self.heap_ptr:
            raise TrapError("stack overflow")
        self._saved_sps.append(self.stack_ptr)
        self.stack_ptr = new_sp
        return new_sp

    def pop_frame(self, base: int, size: int) -> None:
        """Release the most recent frame (frames are strictly LIFO).

        Restores the *exact* pre-push stack pointer.  ``base + size``
        loses the padding :meth:`push_frame` introduced by aligning the
        new pointer down to 16 bytes, so restoring it would leak that
        padding and creep the stack downward across repeated calls.
        """
        if self._saved_sps:
            self.stack_ptr = self._saved_sps.pop()
        else:
            # Unpaired pop (hand-driven harnesses): best-effort restore.
            self.stack_ptr = min(base + size, self.size)

    # -- bounds ---------------------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < NULL_GUARD or addr + nbytes > self.size:
            raise TrapError(f"memory access out of bounds: "
                            f"addr={addr:#x} size={nbytes}")

    # -- typed scalar access ---------------------------------------------------

    def load(self, value_ty, addr: int):
        addr &= _MASK64
        packer = _SCALAR_STRUCTS.get(value_ty)
        if packer is None:
            raise TrapError(f"cannot load type {value_ty}")
        size = packer.size
        if addr < NULL_GUARD or addr + size > self.size:
            raise TrapError(f"memory access out of bounds: "
                            f"addr={addr:#x} size={size}")
        return packer.unpack_from(self.data, addr)[0]

    def store(self, value_ty, addr: int, value) -> None:
        addr &= _MASK64
        packer = _SCALAR_STRUCTS.get(value_ty)
        if packer is None:
            raise TrapError(f"cannot store type {value_ty}")
        size = packer.size
        if addr < NULL_GUARD or addr + size > self.size:
            raise TrapError(f"memory access out of bounds: "
                            f"addr={addr:#x} size={size}")
        try:
            packer.pack_into(self.data, addr, value)
        except _PACK_ERRORS:
            packer.pack_into(self.data, addr, self._coerce(value_ty, value))

    @staticmethod
    def _coerce(value_ty, value):
        if isinstance(value_ty, ty.IntType):
            return ty.wrap_int(int(value), value_ty)
        return float(value)

    # -- vector access ----------------------------------------------------------

    def load_vec(self, elem_ty, lanes: int, addr: int) -> List:
        if not lanes:
            return []
        addr &= _MASK64
        packer = vector_struct(elem_ty, lanes)
        self._check(addr, packer.size)
        return list(packer.unpack_from(self.data, addr))

    def store_vec(self, elem_ty, addr: int, values: List) -> None:
        if not len(values):     # len(): a scalar raises here, as on
            return              # the fast engines; only [] is a no-op
        addr &= _MASK64
        packer = vector_struct(elem_ty, len(values))
        self._check(addr, packer.size)
        try:
            packer.pack_into(self.data, addr, *values)
        except _PACK_ERRORS:
            packer.pack_into(self.data, addr,
                             *[self._coerce(elem_ty, v) for v in values])

    # -- convenience for tests and workloads -------------------------------------

    def write_array(self, elem_ty, addr: int, values) -> None:
        self.store_vec(elem_ty, addr, list(values))

    def read_array(self, elem_ty, addr: int, count: int) -> List:
        return self.load_vec(elem_ty, count, addr)

    def alloc_array(self, elem_ty, values) -> int:
        values = list(values)
        addr = self.alloc(max(1, len(values)) * ty.sizeof(elem_ty))
        self.write_array(elem_ty, addr, values)
        return addr
