"""Predecoded, block-threaded execution core for the machine simulator.

The reference simulator (``Simulator._call``) re-dispatches every
:class:`~repro.targets.isa.MInst` through a string ladder, keeps
register files as dict-of-dicts, creates a fresh ``read()`` closure
per call and bumps five counters per executed instruction.  This
module translates a :class:`~repro.targets.isa.CompiledFunction`
**once** into handler closures over *flat-list* register files (an
``_UNSET`` sentinel standing in for "never written"), with operand
locations, semantics kernels and cycle costs resolved at decode time.

The structure is the tier scaffold (:mod:`repro.tiers`) shared with
:mod:`repro.vm.threaded`; this module supplies the machine operand
model (the per-opcode lowering over register files — the only
fast-engine statement of what an opcode does — the ``_t2`` frame
lines, the register layout) and the block *counter vector*.  Every
*fuel block* (ending at a branch, ``ret`` or ``call``) becomes one
Python function (an instance of a memoized block template,
:func:`repro.tiers.block_template`) that debits fuel **and all
counters** (instructions, cycles, branches, spills, calls) on entry —
blocks execute linearly to their terminator, so successful runs
reproduce the reference engine's per-instruction totals exactly.  A
debit crossing the fuel limit (:class:`repro.engine.MeterTrip`) steps
the instructions the fuel still covers one at a time
(:func:`repro.tiers.replay_metered`), so the fuel trap lands on
precisely the reference engine's instruction.
A step is the same lowering applied to a one-instruction block, built
on first use; a block whose code generation bails steps the same way,
under the same block-entry debit.

The predecoded form is cached on the function object
(``CompiledFunction.cached_predecode``) keyed by a structural content
token, so the first simulation of an image pays decode exactly once no
matter how many Simulators run it.  A caller that wants that build
outside a timed region prepays it with :func:`warm_module`.

When the module is *frozen* (``CompiledModule.freeze()`` — the JIT
freezes every image it emits), ``call`` targets resolve once at
predecode time: the callee :class:`CompiledFunction` is bound
directly into the handlers (per-call inline caching) instead of being
looked up in ``sim.module.functions`` per executed call; the cache
records the binding module and content-token invalidation works
unchanged.
"""

from __future__ import annotations

import re

from repro.analysis.facts import machine_facts
from repro.engine import (      # MeterTrip: caught by the trampolines
    MeterTrip, inline_binop, inline_cast, inline_cmp, inline_unop,
    normalize_branch_target,
)
from repro.semantics.errors import TrapError
from repro.semantics.kernels import (
    binop_kernel, cast_kernel, cmp_kernel, identity_kernel, unop_kernel,
    vec_binop_kernel,
)
from repro.semantics.memory import (
    NULL_GUARD, scalar_struct, vector_struct,
)
from repro.targets.isa import CompiledFunction, CompiledModule
from repro.tiers import (
    _TIER2_UNBUILT, BlockEmitter, Lowering, Predecoded, Tier,
    Tier2BuildStats, block_tier, whole_tier, wraps_u64,
)

#: "register never written" sentinel for the flat register files
UNSET = object()

_REG_FILES = {"int": "ri", "flt": "rf", "vec": "rv"}
_CLS_INDEX = {"int": 0, "flt": 1, "vec": 2}

#: this engine's tier-2 build-site counters (``warm`` builds come from
#: :func:`warm_module`)
TIER2_BUILDS = Tier2BuildStats()
tier2_build_stats = TIER2_BUILDS.tier2_build_stats
reset_tier2_build_stats = TIER2_BUILDS.reset_tier2_build_stats


class PredecodedMachine(Predecoded):
    """A compiled function's decoded form plus the simulator's
    per-call register-file layout."""

    #: ``reg_counts``: (n_int, n_flt, n_vec); ``param_locs``:
    #: [(cls_index | -1, index)]; ``tier2_hint``: the JIT marked this
    #: function for whole-function translation (hotness annotation
    #: cleared the threshold, or an explicit ``JITOptions(tier2=True)``)
    __slots__ = ("reg_counts", "param_locs", "frame_bytes", "tier2_hint")


def predecode_machine(func: CompiledFunction,
                      module=None) -> PredecodedMachine:
    """The (cached) predecoded form of ``func`` — see
    :meth:`repro.tiers.Lowering.predecode`: with a *frozen* ``module``
    (the JIT freezes every image it emits) the callee
    :class:`CompiledFunction` is bound directly into the handlers."""
    return _MachineLowering.predecode(func, module)


def warm_module(module: CompiledModule) -> CompiledModule:
    """Predecode every function of an image ahead of its first run —
    a plain function for a caller that wants the build outside a timed
    region; the service never calls it, the engine builds lazily.

    Functions the JIT hinted for tier-2 — and every on-stack
    replacement candidate (any function with a loop header) — also
    get their whole-function translation built here: the call prepays
    the build the payback gate would otherwise defer until the loops
    have run long enough to repay it, so later runs start in tier-2
    at pc 0 with no compile pause (:func:`tier2_build_stats` proves
    it: runs of an image this function has seen leave the ``request``
    bucket untouched)."""
    for func in module.functions.values():
        pre = predecode_machine(func, module)
        if pre.tier2_hint or pre.osr_leaders:
            pre.tier2(warm=True)
    return module


def _register_layout(func: CompiledFunction):
    """((n_int, n_flt, n_vec), [(cls_index | -1, index)]) — the flat
    register-file sizes and parameter homes a call needs."""
    reg_counts = [0, 0, 0]
    param_locs = []
    for kind, index in func.param_locs:
        if kind == "slot":
            param_locs.append((-1, index))
        else:
            cls = _CLS_INDEX[kind]
            param_locs.append((cls, index))
            reg_counts[cls] = max(reg_counts[cls], index + 1)
    for instr in func.code:
        if instr.dst is not None and instr.dst[0] in _CLS_INDEX:
            cls = _CLS_INDEX[instr.dst[0]]
            reg_counts[cls] = max(reg_counts[cls], instr.dst[1] + 1)
        for kind, value in instr.srcs:
            if kind in _CLS_INDEX and isinstance(value, int):
                cls = _CLS_INDEX[kind]
                reg_counts[cls] = max(reg_counts[cls], value + 1)
    return tuple(reg_counts), param_locs


# ---------------------------------------------------------------------------
# block code generation
# ---------------------------------------------------------------------------

def _gen_block_lines(low: _MachineLowering, leader: int, length: int,
                     tier: Tier) -> BlockEmitter:
    """The per-instruction lowering shared by the block tier and the
    tier-2 whole-function compiler.  ``tier.place`` maps a register
    file name + index to its lvalue (flat list vs lowered Python
    local, where the uninitialized check tests the local directly
    instead of reading into a temp).  Under ``tier.tier2`` the
    arith/cmp/cast kernels are inlined as Python expressions where
    provably identical.  In both tiers ``em.impure`` is set exactly
    where the emitted code can raise: it is what puts the instruction
    in the block's rollback table.
    """
    name, code, env = low.name, low.code, low.env
    tier2 = tier.tier2
    reg_fmt, goto_fmt, data = tier.place, tier.goto_fmt, tier.data
    written = set(low.entry_written.get(leader, low.param_regs))
    em = BlockEmitter(env, tier, low.widths)
    lines, emit, newt, lit = em.lines, em.emit, em.newt, em.lit

    def read(operand, indent: str = "") -> str:
        kind, value = operand
        if kind == "imm":
            if type(value) is int:
                return f"({lit(value)})"
            return env.bind(value, "c")
        if kind not in _REG_FILES:
            # Malformed operand: trap where the reference's ``read``
            # does — when (and only if) this read is reached.
            em.impure = True
            message = env.bind(
                "raw slot operand outside spill op" if kind == "slot"
                else f"{name}: read of uninitialized register "
                     f"{kind}{value}", "m")
            emit(f"raise TrapError({message})", indent)
            return "None"
        location = reg_fmt.format(_REG_FILES[kind], lit(value))
        if (kind, value) in written:
            return location
        em.impure = True            # the uninitialized-register trap
        message = env.bind(f"{name}: read of uninitialized register "
                           f"{kind}{value}", "m")
        if tier2:
            emit(f"if {location} is _UNSET:", indent)
            emit(f"raise TrapError({message})", indent + "    ")
            return location
        t = newt()
        emit(f"{t} = {location}", indent)
        emit(f"if {t} is _UNSET:", indent)
        emit(f"raise TrapError({message})", indent + "    ")
        return t

    def dst_of(instr, masked: bool = False, lanes=None) -> str:
        """The destination's place, marked written (``masked`` /
        ``lanes``: what tier-2 knows of the value: ``em.rewrite``)."""
        kind, index = instr.dst
        written.add((kind, index))
        place = reg_fmt.format(_REG_FILES[kind], lit(index))
        if tier2:
            em.rewrite(place, masked, lanes)
        return place

    def addr_of(instr, srcs) -> str:
        base = read(srcs[0])
        if len(srcs) > 1:
            offset = read(srcs[1])
            t = newt()
            emit(f"{t} = ({base}) + ({offset})")
            base = t
        return em.address(base, base in em.masked)

    exit_pc = leader + length

    for pc in range(leader, exit_pc):
        instr = code[pc]
        op = instr.op
        em.begin()

        # NB: sources must be read (and uninitialized-register checked)
        # *before* dst_of marks the destination written — a dst that
        # aliases an unwritten source must still trap.
        if op == "bin":
            template = inline_binop(instr.arg, instr.ty, env) \
                if tier2 else None
            a = read(instr.srcs[0])
            b = read(instr.srcs[1])
            if template is not None:
                expr, pure = template
                if not pure:
                    em.impure = True
                emit(f"{dst_of(instr, wraps_u64(instr.ty))} = "
                     f"{expr.format(a=a, b=b)}")
            else:
                em.impure = True    # div/rem trap; kernel calls too
                kernel = env.bind(binop_kernel(instr.arg, instr.ty),
                                  "k")
                emit(f"{dst_of(instr)} = {kernel}({a}, {b})")
        elif op == "mov":
            source = read(instr.srcs[0])
            emit(f"{dst_of(instr)} = {source}")
        elif op == "cmp":
            template = inline_cmp(instr.arg, instr.ty) \
                if tier2 else None
            a = read(instr.srcs[0])
            b = read(instr.srcs[1])
            if template is not None:
                emit(f"{dst_of(instr)} = "
                     f"{template.format(a=a, b=b)}")
            else:
                em.impure = True    # undefined predicates trap
                kernel = env.bind(cmp_kernel(instr.arg, instr.ty), "k")
                emit(f"{dst_of(instr)} = {kernel}({a}, {b})")
        elif op == "un":
            template = inline_unop(instr.arg, instr.ty, env) \
                if tier2 else None
            source = read(instr.srcs[0])
            if template is not None:
                expr, pure = template
                if not pure:
                    em.impure = True
                emit(f"{dst_of(instr)} = {expr.format(a=source)}")
            else:
                em.impure = True
                kernel = env.bind(unop_kernel(instr.arg, instr.ty),
                                  "k")
                emit(f"{dst_of(instr)} = {kernel}({source})")
        elif op == "cast":
            from_ty, to_ty = instr.arg
            kernel = cast_kernel(from_ty, to_ty)
            template = inline_cast(from_ty, to_ty, env) \
                if tier2 and kernel is not identity_kernel else None
            source = read(instr.srcs[0])
            if kernel is identity_kernel:
                emit(f"{dst_of(instr)} = {source}")
            elif template is not None:
                expr, pure = template
                if not pure:
                    em.impure = True
                emit(f"{dst_of(instr, wraps_u64(to_ty))} = "
                     f"{expr.format(a=source)}")
            else:
                em.impure = True    # float->int: NaN/inf trap
                emit(f"{dst_of(instr)} = "
                     f"{env.bind(kernel, 'k')}({source})")
        elif op == "select":
            # Lazy like the reference: only the chosen operand is read
            # (and only it gets the uninitialized-register check); the
            # destination counts as written only after both branches
            # are generated, so a dst-aliasing operand still checks.
            cond = read(instr.srcs[0])
            kind, index = instr.dst
            dst = reg_fmt.format(_REG_FILES[kind], lit(index))
            emit(f"if ({cond}) != 0:")
            taken = read(instr.srcs[1], "    ")
            emit(f"{dst} = {taken}", "    ")
            emit("else:")
            untaken = read(instr.srcs[2], "    ")
            emit(f"{dst} = {untaken}", "    ")
            written.add((kind, index))
            if tier2:
                em.rewrite(dst)
        elif op == "load":
            em.impure = True
            packer = scalar_struct(instr.ty)
            unpack = env.bind(packer.unpack_from, "u")
            addr = addr_of(instr, instr.srcs)
            em.bounds(addr, packer.size)
            emit(f"{dst_of(instr)} = {unpack}({data}, {addr})[0]")
        elif op == "store":
            em.impure = True
            packer, pack, coerce = em.store_kernels(instr.ty)
            addr = addr_of(instr, instr.srcs[:-1])
            value = read(instr.srcs[-1])
            em.bounds(addr, packer.size)
            em.store(pack, coerce, addr, value)
        elif op == "lea.frame":
            emit(f"{dst_of(instr)} = fb + {lit(instr.arg)}")
        elif op == "spill.ld":
            em.impure = True        # empty-slot trap
            message = env.bind(f"{name}: reload of empty spill slot "
                               f"{instr.arg}", "m")
            emit("try:")
            emit(f"{dst_of(instr)} = slots[{lit(instr.arg)}]", "    ")
            emit("except KeyError:")
            emit(f"raise TrapError({message})", "    ")
        elif op == "spill.st":
            emit(f"slots[{lit(instr.arg)}] = {read(instr.srcs[0])}")
        elif op == "br":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):     # the reference's
                # ``pc`` comparison raises TypeError here too
                raise TypeError("non-integer branch target")
            emit(goto_fmt.format(lit(target)))
        elif op == "brif":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):     # the reference's
                # ``pc`` comparison raises TypeError here too
                raise TypeError("non-integer branch target")
            cond = read(instr.srcs[0])
            test = f"({cond}) != 0"
            if tier2 and lines:
                # Peephole: a register just written by an inlined
                # comparison — branch on the comparison itself (the
                # register write stays, for deopt and later reads).
                prefix = f"{cond} = (1 if "
                if lines[-1].startswith(prefix) \
                        and lines[-1].endswith(" else 0)"):
                    inner = lines[-1][len(prefix):-len(" else 0)")]
                    if not re.search(rf"\b{re.escape(cond)}\b", inner):
                        test = inner
            emit(goto_fmt.format(
                f"{lit(target)} if {test} else {lit(exit_pc)}"))
        elif op == "call":
            em.impure = True
            resolved = low._resolved_callee(instr.arg)
            values = []
            for operand in instr.srcs:
                if operand[0] == "slot":
                    # KeyError propagates raw, exactly like the
                    # reference's direct slots[...] access; read into
                    # a temp so operand traps keep their source order
                    t = newt()
                    emit(f"{t} = slots[{lit(operand[1])}]")
                    values.append(t)
                else:
                    values.append(read(operand))
            result = newt()
            if resolved is not None:
                # Inline cache: the frozen module pins the callee.
                emit(f"{result} = sim._call_fast("
                     f"{env.bind(resolved, 'f')}, "
                     f"[{', '.join(values)}], res)")
            else:
                callee = env.bind(instr.arg, "n")
                emit(f"{result} = sim._call_fast(sim.module.functions"
                     f"[{callee}], [{', '.join(values)}], res)")
            if instr.dst is not None:
                emit(f"{dst_of(instr)} = {result}")
            emit(goto_fmt.format(lit(exit_pc)))
        elif op == "ret":
            if instr.srcs:
                emit(f"sim._ret = {read(instr.srcs[0])}")
            else:
                emit("sim._ret = None")
            for line in low.ret_lines:
                emit(line)
        elif op == "vload":
            em.impure = True
            packer = vector_struct(instr.ty.elem, instr.ty.lanes)
            unpack = env.bind(packer.unpack_from, "u")
            addr = addr_of(instr, instr.srcs)
            em.bounds(addr, packer.size)
            emit(f"{dst_of(instr, lanes=instr.ty.lanes)} = "
                 f"list({unpack}({data}, {addr}))")
        elif op == "vstore":
            em.impure = True
            lanes = instr.ty.lanes
            packer = vector_struct(instr.ty.elem, lanes)
            pack = env.bind(packer.pack_into, "p")
            elem_name = env.bind(instr.ty.elem, "e")
            addr = addr_of(instr, instr.srcs[:-1])
            value = read(instr.srcs[-1])
            # Not re-checked: the lane count of a vector this block
            # wrote, and with it a range it checked at this width.
            pad = "    "
            if em.lanes.get(value) != lanes:
                emit(f"if len({value}) == {lit(lanes)} and "
                     f"{addr} >= {NULL_GUARD} and "
                     f"{addr} + {lit(packer.size)} <= {tier.size}:")
            elif (addr, packer.size) not in em.proven:
                emit(f"if {addr} >= {NULL_GUARD} and {addr} <= "
                     f"{em.bound_limit(packer.size)}:")
            else:
                pad = ""
            emit("try:", pad)
            emit(f"{pack}({data}, {addr}, *{value})", pad + "    ")
            emit("except _PE:", pad)
            emit(f"mem.store_vec({elem_name}, {addr}, {value})",
                 pad + "    ")
            if pad:
                emit("else:")
                emit(f"mem.store_vec({elem_name}, {addr}, {value})", pad)
        elif op == "vbin":
            em.impure = True        # lane-count mismatch traps, and
            a = read(instr.srcs[0])  # the f32 repack can overflow
            b = read(instr.srcs[1])
            bop = instr.arg
            elem = instr.ty.elem
            quad = em.quad_kernels(bop, elem)
            kernel = env.bind(vec_binop_kernel(bop, elem), "v")
            if quad is not None:
                # Any other shape than 4 x 4 lanes falls back to the
                # kernel in the else arm: only operands this block did
                # not write as 4 lanes are asked.  With one proven
                # operand the fallback can only trap on a mismatch, so
                # whatever flows on has 4 lanes.
                guards = [f"len({v}) == 4" for v in (a, b)
                          if em.lanes.get(v) != 4]
                em.quad(quad, a, b, guards,
                        dst_of(instr, lanes=4 if len(guards) < 2 else None),
                        "list({0})", kernel)
            else:
                emit(f"{dst_of(instr)} = {kernel}({a}, {b})")
        elif op == "vsplat":
            source = read(instr.srcs[0])
            emit(f"{dst_of(instr, lanes=instr.ty.lanes)} = [{source}] * "
                 f"{lit(instr.ty.lanes)}")
        elif op == "vreduce":
            em.impure = True        # empty-vector trap
            reduce_op, acc_ty = instr.arg
            acc = em.reduce(reduce_op, instr.ty.elem, acc_ty,
                            lambda: read(instr.srcs[0]))
            emit(f"{dst_of(instr)} = {acc}")
        else:
            raise TrapError(f"bad machine opcode {op!r}")

        em.end(pc - leader)

    if code[exit_pc - 1].op not in ("br", "brif", "ret", "call"):
        emit(goto_fmt.format(lit(exit_pc)))

    return em


# ---------------------------------------------------------------------------
# the engine: the simulator's hooks under the tier scaffold
# ---------------------------------------------------------------------------

class _MachineLowering(Lowering):
    """The simulator's operand model under the shared tier scaffold:
    flat ``_UNSET``-initialized register files, and a counter vector
    that debits the result counters along with the fuel."""

    signature = "ri, rf, rv, slots, fb, mem, sim, res"
    machine = "sim"
    executed = "_executed"
    fuel_trap = "simulation fuel exhausted"
    fields = ("instructions", "cycles", "branches", "spill_loads",
              "spill_stores", "calls")
    tags = ("pvi-sim", "pvi-sim-t2")
    env_extras = {"_UNSET": UNSET}
    block_tier = block_tier("{0}[{1}]")
    tier2_tier = whole_tier("{0}{1}")
    predecoded = PredecodedMachine
    stats = TIER2_BUILDS

    def __init__(self, func, binding=None):
        super().__init__(func, binding)
        #: (kind, index) registers guaranteed written at function entry
        self.param_regs = {loc for loc in func.param_locs
                           if loc[0] != "slot"}
        #: leader -> must-written registers (``begin_tier2``); the
        #: block tier only knows the parameters
        self.entry_written: dict = {}

    def lower(self, leader, length, tier):
        return _gen_block_lines(self, leader, length, tier)

    def charges(self, leader: int, length: int) -> dict:
        charge = dict.fromkeys(self.fields, 0)
        charge["instructions"] = length
        for instr in self.code[leader:leader + length]:
            charge["cycles"] += instr.cost
            if instr.op in ("br", "brif"):
                charge["branches"] += 1
            elif instr.op == "spill.ld":
                charge["spill_loads"] += 1
            elif instr.op == "spill.st":
                charge["spill_stores"] += 1
            elif instr.op == "call":
                charge["calls"] += 1
        return {field: amount for field, amount in charge.items()
                if amount or field in ("instructions", "cycles")}

    def osr_candidates(self) -> frozenset:
        # The JIT's ``osr_hint`` (JITOptions.osr) can opt a function
        # out of mid-call promotion entirely; the candidate set stays
        # empty and the trampoline never counts its back edges.
        if not getattr(self.func, "osr_hint", True):
            return frozenset()
        return super().osr_candidates()

    def frame_data(self, module) -> dict:
        reg_counts, param_locs = _register_layout(self.func)
        return dict(reg_counts=reg_counts, param_locs=param_locs,
                    frame_bytes=self.func.frame_bytes,
                    tier2_hint=getattr(self.func, "tier2_hint", False))

    @staticmethod
    def facts(func, shipped):
        # Nothing ships: the must-written sets are a function of the
        # JIT's output, which exists only on the device.
        return machine_facts(func)

    def begin_tier2(self, facts):
        # The per-leader must-written register sets come proven from
        # the dataflow plane
        # (``repro.analysis.passes.written_at_block_entry``): along any
        # internal edge the whole predecessor block executed (a
        # mid-block trap propagates out, a fuel deopt returns to the
        # block trampoline), so every destination it names is written.
        self.entry_written = facts.written_at_entry
        reg_counts, _ = _register_layout(self.func)
        regs = [(file_name, k) for file_name, count
                in zip(("ri", "rf", "rv"), reg_counts)
                for k in range(count)]
        if not regs:
            return [], [], []
        return ([],
                ["; ".join(f"{f}{k} = {f}[{k}]" for f, k in regs)],
                ["; ".join(f"{f}[{k}] = {f}{k}" for f, k in regs)])

    def fact_guards(self, entries):
        count, lines = 0, []
        for leader in entries:
            assumed = self.entry_written.get(leader, self.param_regs) \
                - self.param_regs
            names = sorted(f"{_REG_FILES[kind]}{index}"
                           for kind, index in assumed)
            if names:
                count += len(names)
                unset = " or ".join(f"{reg} is _UNSET" for reg in names)
                lines += [f"if pc == {leader} and ({unset}):",
                          "    return pc"]
        return count, lines
