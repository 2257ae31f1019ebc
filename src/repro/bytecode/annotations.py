"""Bytecode annotations — the split-compilation information channel.

The paper's central mechanism: expensive offline analyses distill their
results into compact annotations carried by the bytecode, and the
online step applies (or checks) them in one linear pass instead of
re-running the analysis.  A module's shipped knowledge lives here and
nowhere else, so it reaches every consumer the bytecode reaches: a
memory hit, a disk hit, a process seam, a device.  Four kinds:

* :class:`RegAllocAnnotation` — portable spill-priority ranking from
  the expensive offline allocation (Diouf et al. [18]); read by the
  JIT (``jit/compiler.py``) to drive the linear-time online
  assignment of experiment S4a.
* :class:`HotnessAnnotation` — profile weight from previous runs (the
  "idle time between different runs" step of the program lifetime);
  read by the JIT's adaptive gate and by the VM's tier-2 promotion
  gate (``vm/threaded.py``).
* :class:`HWRequirementAnnotation` — module-level hardware appetite
  ("benefits from hardware floating point or vector processing
  support"); read by the deployment manager (``core/platform.py``)
  when mapping onto heterogeneous cores.
* :class:`LaneFactsAnnotation` — the VM tier-2 lane/tuple table of a
  function at its fixed point; read by the VM's tier-2 build
  (``vm/threaded.py``), which generates code under it.

No kind is trusted: every kind either cannot change a result
(``RegAlloc`` orders spills, ``Hotness`` and ``HWRequirement`` choose
when and where code runs) or is checked by the pass that consumes it
(``LaneFacts``: the base case at adoption, the inductive step in
``check_facts``; see :class:`repro.analysis.passes.LaneRules`).  A
stale, foreign or hostile annotation can cost performance or make one
function decline a tier, never change what it computes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bytecode.varint import (
    read_bytes, read_str, read_uint, read_uints, write_bytes, write_str,
    write_uint, write_uints,
)


@dataclass
class Annotation:
    """Base: every annotation names the function it describes."""
    function: str

    KIND = 0

    def payload(self) -> bytes:          # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def from_payload(cls, function: str, raw: bytes) -> "Annotation":
        raise NotImplementedError        # pragma: no cover - abstract


@dataclass
class RegAllocAnnotation(Annotation):
    """Portable spill priorities: a rank per local, lower = keep in
    a register longer.  Independent of the target's register count —
    the online allocator cuts the ranking at whatever K it has (that
    portability is the point of the split: one offline analysis, any
    number of targets)."""
    priorities: List[int] = field(default_factory=list)

    KIND = 2

    def payload(self) -> bytes:
        out = bytearray()
        write_uints(out, self.priorities)
        return bytes(out)

    @classmethod
    def from_payload(cls, function: str, raw: bytes) -> "RegAllocAnnotation":
        return cls(function, read_uints(raw, 0)[0])


@dataclass
class HotnessAnnotation(Annotation):
    """Relative execution weight (profile feedback)."""
    weight: int = 0

    KIND = 3

    def payload(self) -> bytes:
        out = bytearray()
        write_uint(out, self.weight)
        return bytes(out)

    @classmethod
    def from_payload(cls, function: str, raw: bytes) -> "HotnessAnnotation":
        weight, _ = read_uint(raw, 0)
        return cls(function, weight)


@dataclass
class HWRequirementAnnotation(Annotation):
    """What hardware the function benefits from."""
    wants_simd: bool = False
    wants_fp: bool = False
    wants_fp64: bool = False
    memory_bound: bool = False

    KIND = 4

    def payload(self) -> bytes:
        bits = (self.wants_simd | (self.wants_fp << 1) |
                (self.wants_fp64 << 2) | (self.memory_bound << 3))
        return struct.pack("<B", bits)

    @classmethod
    def from_payload(cls, function: str,
                     raw: bytes) -> "HWRequirementAnnotation":
        bits = raw[0]
        return cls(function, bool(bits & 1), bool(bits & 2),
                   bool(bits & 4), bool(bits & 8))


@dataclass
class LaneFactsAnnotation(Annotation):
    """What the VM's tier-2 may assume of a function's vector locals:
    the table :func:`repro.analysis.passes.lane_fixpoint` computes and
    the tier-2 build generates code under, shipped or computed (one
    type either way).  The payload is three counted lists of varints,
    so a decoded table holds nothing but non-negative integers; what
    they *say* is outside input, checked by its consumer."""
    #: locals that may ever hold a deferred vec tuple
    tuple_locals: frozenset = frozenset()
    #: vector local -> the lane count every ``stloc`` preserves
    lane_locals: Dict[int, int] = field(default_factory=dict)
    #: every memory access width (bytes) a limit is hoisted for
    access_widths: frozenset = frozenset()

    KIND = 5

    def payload(self) -> bytes:
        out = bytearray()
        write_uints(out, sorted(self.tuple_locals))
        write_uints(out, [n for pair in sorted(self.lane_locals.items())
                          for n in pair])
        write_uints(out, sorted(self.access_widths))
        return bytes(out)

    @classmethod
    def from_payload(cls, function: str,
                     raw: bytes) -> "LaneFactsAnnotation":
        tuples, pos = read_uints(raw, 0)
        lanes, pos = read_uints(raw, pos)
        widths, pos = read_uints(raw, pos)
        return cls(function, frozenset(tuples),
                   dict(zip(lanes[::2], lanes[1::2], strict=True)),
                   frozenset(widths))


ANNOTATION_KINDS: Dict[int, type] = {
    cls.KIND: cls
    for cls in (RegAllocAnnotation, HotnessAnnotation,
                HWRequirementAnnotation, LaneFactsAnnotation)
}


def encode_annotation(out: bytearray, annotation: Annotation) -> None:
    write_uint(out, annotation.KIND)
    write_str(out, annotation.function)
    write_bytes(out, annotation.payload())


def decode_annotation(raw: bytes, pos: int) -> Tuple[Annotation, int]:
    kind, pos = read_uint(raw, pos)
    function, pos = read_str(raw, pos)
    payload, pos = read_bytes(raw, pos)
    cls = ANNOTATION_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown annotation kind {kind}")
    return cls.from_payload(function, payload), pos
