"""The simulated processor catalog.

Register-file sizes are "allocatable registers as a JIT back-end sees
them" (total architectural registers minus ABI-reserved, scratch and
assembler temporaries), in the spirit of Mono's per-ISA back-ends the
paper ran on.  They matter a lot: the scalarizing JITs expand 16-lane
``u8`` vectors into 16 live scalars, which fits PowerPC's 28
allocatable GPRs but thrashes UltraSparc's 16 — reproducing Table 1's
"slightly worse to better than scalar" split without per-kernel tuning.
"""

from repro.targets.machine import CostModel, SizeModel, TargetDesc

#: x86 with 128-bit SIMD (SSE-class).  Variable-length encoding,
#: cheap branches (good predictor), powerful vector unit.
X86 = TargetDesc(
    name="x86",
    description="x86-64 class core with 128-bit SIMD (SSE)",
    has_simd=True,
    int_regs=12,
    flt_regs=14,
    vec_regs=14,
    costs=CostModel(
        # Pipelined L1 loads and fused compare-and-branch retire in one
        # cycle; unaligned 128-bit memory ops split into two halves
        # (SSE-era movups), hence the 3-cycle vector memory cost.
        alu=1, mul=3, div=18, fp_alu=2, fp_mul=3, fp_div=16,
        load=1, store=1, subword_mem_extra=0,
        branch=1, jump=1,
        vec_alu=1, vec_mul=2, vec_load=3, vec_store=3,
        vec_splat=2, vec_reduce=4,
    ),
    sizes=SizeModel(fixed=0, alu_bytes=3, mem_bytes=4, imm_extra=2,
                    branch_bytes=2, call_bytes=5, vec_bytes=5,
                    prologue_bytes=10),
)

#: UltraSparc-class RISC: no SIMD, modest allocatable integer file
#: (register windows reserve a lot), fixed 4-byte encoding, sub-word
#: memory traffic costs extra (alignment fix-ups in the JIT's code).
SPARC = TargetDesc(
    name="sparc",
    description="UltraSparc-class in-order RISC, no SIMD",
    has_simd=False,
    int_regs=16,
    flt_regs=28,
    vec_regs=0,
    costs=CostModel(
        # Sub-word memory traffic costs two extra cycles: UltraSparc's
        # JIT-emitted byte/halfword accesses go through alignment and
        # zero-extension fix-ups.  The scalar loop pays this once per
        # element; the memory-temp vector emulation pays it three times
        # (load lane, park lane, re-read lane), which is where Table
        # 1's sub-1.0 UltraSparc entries come from.
        alu=1, mul=4, div=24, fp_alu=2, fp_mul=3, fp_div=18,
        load=2, store=2, subword_mem_extra=2,
        branch=2, jump=1,
    ),
    sizes=SizeModel(fixed=4, prologue_bytes=24),
)

#: PowerPC-class RISC: no SIMD (pre-AltiVec config, as in the paper's
#: JIT which ignored the builtins), big register file, cheap branches
#: (branch unit), fixed 4-byte encoding.
PPC = TargetDesc(
    name="ppc",
    description="PowerPC-class RISC, vector builtins scalarized",
    has_simd=False,
    int_regs=28,
    flt_regs=28,
    vec_regs=0,
    costs=CostModel(
        alu=1, mul=3, div=20, fp_alu=2, fp_mul=3, fp_div=18,
        load=2, store=2, subword_mem_extra=0,
        branch=1, jump=1,
    ),
    sizes=SizeModel(fixed=4, prologue_bytes=24),
)

#: A VLIW DSP accelerator for the heterogeneous-SoC experiments:
#: SIMD-capable, fast clock-for-clock on dense arithmetic, terrible at
#: branchy control code (no branch prediction, deep exposed pipeline).
DSP = TargetDesc(
    name="dsp",
    description="VLIW DSP accelerator: wide SIMD, expensive control flow",
    has_simd=True,
    int_regs=24,
    flt_regs=24,
    vec_regs=16,
    costs=CostModel(
        alu=1, mul=2, div=30, fp_alu=1, fp_mul=1, fp_div=24,
        load=1, store=1, subword_mem_extra=0,
        branch=6, jump=3, call_base=12,
        vec_alu=1, vec_mul=1, vec_load=1, vec_store=1,
        vec_splat=1, vec_reduce=2,
    ),
    sizes=SizeModel(fixed=8, prologue_bytes=32),  # wide instruction words
    clock_scale=1.5,
)

#: The host microcontroller of the SoC: small, scalar, slow clock.
HOST = TargetDesc(
    name="host",
    description="host microcontroller: scalar in-order, small register file",
    has_simd=False,
    int_regs=10,
    flt_regs=8,
    vec_regs=0,
    costs=CostModel(
        alu=1, mul=5, div=30, fp_alu=4, fp_mul=6, fp_div=30,
        load=2, store=2, subword_mem_extra=0,
        branch=2, jump=1,
    ),
    sizes=SizeModel(fixed=2, prologue_bytes=8),   # compressed 16-bit encoding
    clock_scale=0.5,
)

#: ARM Cortex-A-class embedded core with NEON: 128-bit SIMD like x86,
#: but a RISC register file and fixed 4-byte encoding like PowerPC —
#: the RISC-V/ARM-class embedded cores the related virtualization work
#: targets.  Pure data: this entry is the whole port.
ARM = TargetDesc(
    name="arm",
    description="ARM Cortex-A-class embedded core with 128-bit NEON",
    has_simd=True,
    int_regs=14,
    flt_regs=16,
    vec_regs=16,
    costs=CostModel(
        # NEON-era costs: single-cycle vector ALU, 2-cycle vector
        # multiplies, aligned 128-bit memory ops at 2 cycles (no
        # unaligned split penalty, unlike SSE-era movups).
        alu=1, mul=3, div=20, fp_alu=2, fp_mul=3, fp_div=17,
        load=2, store=2, subword_mem_extra=0,
        branch=1, jump=1,
        vec_alu=1, vec_mul=2, vec_load=2, vec_store=2,
        vec_splat=1, vec_reduce=3,
    ),
    sizes=SizeModel(fixed=4, prologue_bytes=16),
    clock_scale=1.2,
)

#: the built-in native-backend catalog; the authoritative, *open* set
#: lives in :mod:`repro.targets.registry` (which also holds targets on
#: other backends, e.g. the ``wasm32`` stack machine).
TARGETS = {t.name: t for t in (X86, SPARC, PPC, DSP, HOST, ARM)}
