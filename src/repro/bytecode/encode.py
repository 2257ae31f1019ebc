"""Binary serialization of PVI modules.

Layout (all integers LEB128 unless noted)::

    magic 'PVI1' | version u16 | module name
    function count
      per function: name | params | ret | locals | frame slots | code
    annotation count
      per annotation: kind | function | payload bytes

Instruction encoding: opcode byte, type-tag byte (0xFF = none), then an
opcode-specific argument (varint, IEEE float, string, or nothing).
The format is self-contained — ``decode_module(encode_module(m))``
round-trips exactly, which the property tests exercise.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.bytecode.annotations import decode_annotation, encode_annotation
from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, FrameSlotInfo,
)
from repro.bytecode.opcodes import ALL_OPS, BCInstr, OP_CODES
from repro.bytecode.varint import (
    read_sint, read_str, read_uint, write_sint, write_str, write_uint,
)

MAGIC = b"PVI1"
#: the set of annotation kinds is part of the wire format (2: kind 5,
#: the lane table, in; kind 1, the vector-loop descriptor, out)
VERSION = 2

_TAG_BYTES = {}
_BYTE_TAGS = {}
for _i, _tag in enumerate(
        ("i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64",
         "f32", "f64",
         "v128:i8", "v128:u8", "v128:i16", "v128:u16",
         "v128:i32", "v128:u32", "v128:i64", "v128:u64",
         "v128:f32", "v128:f64")):
    _TAG_BYTES[_tag] = _i
    _BYTE_TAGS[_i] = _tag
_NO_TAG = 0xFF

#: opcodes that never carry a type tag (saves a byte each)
_UNTYPED_OPS = {"ldarg", "ldloc", "stloc", "frame", "br", "brif",
                "call", "ret", "pop"}


def encode_module(module: BytecodeModule) -> bytes:
    out = bytearray()
    out.extend(MAGIC)
    out.extend(struct.pack("<H", VERSION))
    write_str(out, module.name)
    write_uint(out, len(module.functions))
    for func in module:
        _encode_function(out, func)
    write_uint(out, len(module.annotations))
    for annotation in module.annotations:
        encode_annotation(out, annotation)
    return bytes(out)


def encoded_code_size(func: BytecodeFunction) -> int:
    """Bytes of the encoded instruction stream alone (no headers) —
    the like-for-like quantity to compare with native code bytes in
    the code-size experiment."""
    out = bytearray()
    for instr in func.code:
        _encode_instr(out, instr)
    return len(out)


def decode_module(raw: bytes) -> BytecodeModule:
    if raw[:4] != MAGIC:
        raise ValueError("not a PVI module (bad magic)")
    version = struct.unpack_from("<H", raw, 4)[0]
    if version != VERSION:
        raise ValueError(f"unsupported PVI version {version}")
    pos = 6
    name, pos = read_str(raw, pos)
    module = BytecodeModule(name)
    count, pos = read_uint(raw, pos)
    for _ in range(count):
        func, pos = _decode_function(raw, pos)
        module.add(func)
    count, pos = read_uint(raw, pos)
    for _ in range(count):
        annotation, pos = decode_annotation(raw, pos)
        module.annotations.append(annotation)
    return module


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------

def _encode_function(out: bytearray, func: BytecodeFunction) -> None:
    write_str(out, func.name)
    write_uint(out, len(func.param_types))
    for tag in func.param_types:
        out.append(_TAG_BYTES[tag])
    out.append(_NO_TAG if func.ret_type is None
               else _TAG_BYTES[func.ret_type])
    write_uint(out, len(func.local_types))
    for tag in func.local_types:
        out.append(_TAG_BYTES[tag])
    write_uint(out, len(func.frame_slots))
    for slot in func.frame_slots:
        write_str(out, slot.name)
        write_uint(out, slot.size)
        write_uint(out, slot.align)
    write_uint(out, len(func.code))
    for instr in func.code:
        _encode_instr(out, instr)


def _decode_function(raw: bytes, pos: int) -> Tuple[BytecodeFunction, int]:
    name, pos = read_str(raw, pos)
    nparams, pos = read_uint(raw, pos)
    params = []
    for _ in range(nparams):
        params.append(_BYTE_TAGS[raw[pos]])
        pos += 1
    ret_byte = raw[pos]
    pos += 1
    ret = None if ret_byte == _NO_TAG else _BYTE_TAGS[ret_byte]
    nlocals, pos = read_uint(raw, pos)
    locals_ = []
    for _ in range(nlocals):
        locals_.append(_BYTE_TAGS[raw[pos]])
        pos += 1
    nslots, pos = read_uint(raw, pos)
    slots: List[FrameSlotInfo] = []
    for _ in range(nslots):
        slot_name, pos = read_str(raw, pos)
        size, pos = read_uint(raw, pos)
        align, pos = read_uint(raw, pos)
        slots.append(FrameSlotInfo(slot_name, size, align))
    ncode, pos = read_uint(raw, pos)
    code = []
    for _ in range(ncode):
        instr, pos = _decode_instr(raw, pos)
        code.append(instr)
    return BytecodeFunction(name, params, ret, locals_, slots, code), pos


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

def _encode_instr(out: bytearray, instr: BCInstr) -> None:
    out.append(OP_CODES[instr.op])
    if instr.op not in _UNTYPED_OPS:
        out.append(_NO_TAG if instr.ty is None else _TAG_BYTES[instr.ty])
    op = instr.op
    if op == "const":
        if instr.ty in ("f32", "f64"):
            out.extend(struct.pack("<d", float(instr.arg)))
        else:
            write_sint(out, int(instr.arg))
    elif op in ("ldarg", "ldloc", "stloc", "frame", "br", "brif"):
        write_uint(out, int(instr.arg))
    elif op == "cmp":
        write_str(out, instr.arg)
    elif op == "cast":
        write_str(out, instr.arg)
    elif op == "call":
        write_str(out, instr.arg)
    elif op == "vec.reduce":
        reduce_op, acc_tag = instr.arg
        write_str(out, reduce_op)
        write_str(out, acc_tag)
    # all other opcodes carry no argument


def _decode_instr(raw: bytes, pos: int) -> Tuple[BCInstr, int]:
    op = ALL_OPS[raw[pos]]
    pos += 1
    type_tag = None
    if op not in _UNTYPED_OPS:
        tag_byte = raw[pos]
        pos += 1
        type_tag = None if tag_byte == _NO_TAG else _BYTE_TAGS[tag_byte]
    arg = None
    if op == "const":
        if type_tag in ("f32", "f64"):
            arg = struct.unpack_from("<d", raw, pos)[0]
            pos += 8
        else:
            arg, pos = read_sint(raw, pos)
    elif op in ("ldarg", "ldloc", "stloc", "frame", "br", "brif"):
        arg, pos = read_uint(raw, pos)
    elif op in ("cmp", "cast", "call"):
        arg, pos = read_str(raw, pos)
    elif op == "vec.reduce":
        reduce_op, pos = read_str(raw, pos)
        acc_tag, pos = read_str(raw, pos)
        arg = (reduce_op, acc_tag)
    return BCInstr(op, type_tag, arg), pos
