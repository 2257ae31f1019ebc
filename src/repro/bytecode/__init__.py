"""PVI — the Portable Virtual ISA.

A CLI-flavored, processor-independent stack bytecode with:

* typed scalar operations over ``i8..u64, f32, f64``;
* portable 128-bit vector builtins (``vec.*``) in the spirit of the
  paper's vectorized bytecode [Rohou, GROW'10];
* a side table of **annotations** — the split-compilation channel
  through which the offline compiler ships analysis results
  (register-allocation hints, hotness, hardware requirements, the VM
  tier-2 lane table) to the online side;
* a compact binary encoding (experiment S2a measures it), a structural
  + stack-type verifier, and a disassembler.
"""

from repro.bytecode.opcodes import BCInstr, TYPE_TAGS, tag_of, type_of
from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, FrameSlotInfo,
)
from repro.bytecode.annotations import (
    Annotation, HotnessAnnotation, HWRequirementAnnotation,
    LaneFactsAnnotation, RegAllocAnnotation,
)
from repro.bytecode.emit import emit_module
from repro.bytecode.encode import decode_module, encode_module
from repro.bytecode.verifier import BytecodeVerifyError, verify_module
from repro.bytecode.disasm import disassemble

__all__ = [
    "BCInstr", "TYPE_TAGS", "tag_of", "type_of",
    "BytecodeFunction", "BytecodeModule", "FrameSlotInfo",
    "Annotation", "RegAllocAnnotation", "HotnessAnnotation",
    "HWRequirementAnnotation", "LaneFactsAnnotation",
    "emit_module", "encode_module", "decode_module",
    "verify_module", "BytecodeVerifyError", "disassemble",
]
