"""Predecoded, block-threaded execution core for the machine simulator.

The reference simulator (``Simulator._call``) re-dispatches every
:class:`~repro.targets.isa.MInst` through a string ladder, keeps
register files as dict-of-dicts, creates a fresh ``read()`` closure
per call and bumps five counters per executed instruction.  This
module translates a :class:`~repro.targets.isa.CompiledFunction`
**once** into handler closures over *flat-list* register files (an
``_UNSET`` sentinel standing in for "never written"), with operand
locations, semantics kernels and cycle costs resolved at decode time.

Structure mirrors :mod:`repro.vm.threaded`: every *fuel block* (ending
at a branch, ``ret`` or ``call``) compiles to one Python function that
debits fuel **and all counters** (instructions, cycles, branches,
spills, calls) on entry — blocks execute linearly to their terminator,
so successful runs reproduce the reference engine's per-instruction
totals exactly.  A debit crossing the fuel limit re-runs the block
instruction-by-instruction via the raw closures
(:class:`repro.engine.MeterTrip` -> ``Simulator._run_metered``), so
the fuel trap lands on precisely the reference engine's instruction.
Blocks whose code generation bails fall back to the raw closures with
the same block-entry debit.

The predecoded form is cached on the function object
(``CompiledFunction.cached_predecode``) keyed by a structural content
token, so the first simulation of an image pays decode exactly once no
matter how many Simulators run it.  Latency-sensitive deployments can
prepay it with :func:`warm_module` (the backend's ``warm`` hook).

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
from typing import Callable, List

from repro.analysis.facts import machine_facts
from repro.engine import (
    CodegenEnv, MASK64_LITERAL, MeterTrip, _ARITH_SYMS, _F32_QUAD,
    backedge_targets, fuel_blocks, inline_binop, inline_cast,
    inline_cmp, inline_unop, keep_osr_guards, normalize_branch_target,
)
from repro.lang import types as ty
from repro.semantics.errors import TrapError
from repro.semantics.kernels import (
    binop_kernel, cast_kernel, cmp_kernel, identity_kernel, unop_kernel,
    vec_binop_kernel,
)
from repro.semantics.memory import (
    NULL_GUARD, PACK_COERCE_ERRORS, scalar_struct, vector_struct,
)
from repro.targets.isa import CompiledFunction, CompiledModule

#: "register never written" sentinel for the flat register files
UNSET = object()

_REG_FILES = {"int": "ri", "flt": "rf", "vec": "rv"}
_CLS_INDEX = {"int": 0, "flt": 1, "vec": 2}

#: handler signature:
#: (ri, rf, rv, slots, fb, mem, sim, res) -> pc   (-1 = returned)
Handler = Callable

#: "tier-2 translation not attempted yet" marker (``None`` = attempted
#: and failed — don't retry per call)
_TIER2_UNBUILT = object()

#: tier-2 build-site accounting: ``warm`` builds happen off the hot
#: path (``warm_module`` — the backend ``warm`` hook); ``request``
#: builds happen inside a serving call.  A warmed image keeps the
#: request bucket at zero — the stat that proves warming prepays
#: whole-function codegen (see the service executors' warm-on-return
#: path).  ``facts_warm``/``facts_request`` count fresh dataflow-plane
#: analyses by the same split (facts provenance), and
#: ``guards_elided``/``guards_kept`` count OSR prologue ``_UNSET``
#: guards the must-written analysis proved redundant (kept only under
#: ``PVI_OSR_GUARDS=1``).
TIER2_BUILDS = {"warm": 0, "request": 0,
                "facts_warm": 0, "facts_request": 0,
                "guards_elided": 0, "guards_kept": 0}


def tier2_build_stats() -> dict:
    """Copy of the tier-2 build-site counters (see TIER2_BUILDS)."""
    return dict(TIER2_BUILDS)


def reset_tier2_build_stats() -> None:
    for key in TIER2_BUILDS:
        TIER2_BUILDS[key] = 0


class PredecodedMachine:
    """One compiled function's decoded form."""

    __slots__ = ("token", "handlers", "raw", "reg_counts", "param_locs",
                 "frame_bytes", "tier2_hint", "osr_leaders", "_tier2",
                 "_tier2_args")

    def __init__(self, token, handlers, raw, reg_counts, param_locs,
                 frame_bytes, tier2_hint=False,
                 osr_leaders=frozenset(), tier2_args=(None, None)):
        self.token = token
        self.handlers = handlers
        self.raw = raw
        self.reg_counts = reg_counts          # (n_int, n_flt, n_vec)
        self.param_locs = param_locs          # [(cls_index | -1, index)]
        self.frame_bytes = frame_bytes
        #: the JIT marked this function for whole-function translation
        #: (hotness annotation cleared the threshold, or an explicit
        #: ``JITOptions(tier2=True)``)
        self.tier2_hint = tier2_hint
        #: back-edge target leaders — candidate on-stack replacement
        #: entry points (empty when the JIT's ``osr_hint`` opted the
        #: function out).  The generated ``_t2`` carries its own entry
        #: whitelist and validates the snapshot itself.
        self.osr_leaders = osr_leaders
        self._tier2 = _TIER2_UNBUILT
        self._tier2_args = tier2_args

    def tier2(self, warm: bool = False):
        """The whole-function tier-2 translation, built lazily on
        first request and cached here (so it rides the predecode
        cache); ``None`` when translation failed.  ``warm`` marks a
        build happening off the serving path, for the build-site
        stats."""
        t2 = self._tier2
        if t2 is _TIER2_UNBUILT:
            func, binding = self._tier2_args
            if func is None:
                t2 = self._tier2 = None
            else:
                TIER2_BUILDS["warm" if warm else "request"] += 1
                t2 = self._tier2 = _build_tier2(func, binding,
                                                warm=warm)
            self._tier2_args = (None, None)
        return t2


def predecode_machine(func: CompiledFunction,
                      module=None) -> PredecodedMachine:
    """The (cached) predecoded form of ``func``.

    With a *frozen* ``module`` supplied (the JIT freezes every image
    it emits), ``call`` targets are resolved once here — the callee
    :class:`CompiledFunction` is bound directly into the handlers
    (per-call inline caching).  The cache records the binding module;
    in-place code edits invalidate via the existing content token.
    """
    binding = module if module is not None and \
        getattr(module, "frozen", False) else None
    token = func.content_token()
    cached = func.cached_predecode(token, binding)
    if cached is not None:
        return cached
    pre = _build(func, token, binding)
    func.store_predecode(token, pre, binding)
    return pre


def warm_module(module: CompiledModule) -> CompiledModule:
    """Predecode every function of an image (JIT/service warm hook).

    Functions the JIT hinted for tier-2 — and every on-stack
    replacement candidate (any function with a loop header, which a
    long-running call may promote mid-loop) — also get their
    whole-function translation built here, so warmed deployments
    dispatch straight into tier-2 code with no in-request compile
    pause (:func:`tier2_build_stats` proves it: serving calls on a
    warmed image leave the ``request`` bucket untouched)."""
    for func in module.functions.values():
        pre = predecode_machine(func, module)
        if pre.tier2_hint or pre.osr_leaders:
            pre.tier2(warm=True)
    return module


def _resolved_callee(binding, name):
    """The callee bound at predecode time, or ``None`` to fall back to
    the dynamic per-call lookup (no frozen module, or a call to a
    missing function — which must keep failing at execution time,
    exactly like the reference engine)."""
    if binding is None:
        return None
    return binding.functions.get(name)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _build(func: CompiledFunction, token,
           binding=None) -> PredecodedMachine:
    code = func.code
    n = len(code)
    name = func.name

    def tail(ri, rf, rv, slots, fb, mem, sim, res):
        raise TrapError(f"{name}: fell off code end")

    raw: List[Handler] = [None] * (n + 1)
    raw[n] = tail
    for pc, instr in enumerate(code):
        try:
            raw[pc] = _make_raw_handler(name, pc, instr, n, binding)
        except Exception as exc:
            def deferred(ri, rf, rv, slots, fb, mem, sim, res,
                         _exc=exc):
                raise _exc
            raw[pc] = deferred

    handlers = list(raw)
    blocks = fuel_blocks(code)
    env = {"TrapError": TrapError, "MeterTrip": MeterTrip,
           "_PE": PACK_COERCE_ERRORS, "_UNSET": UNSET}
    written_at_entry = _param_regs(func)
    sources = []
    compiled = {}
    for leader, length in blocks.items():
        try:
            sources.append(_gen_block(name, code, leader, length, env,
                                      written_at_entry, binding))
            compiled[leader] = f"_b{leader}"
        except Exception:
            handlers[leader] = _interp_block(code, raw, leader, length)
    if sources:
        try:
            exec(compile("\n".join(sources), f"<pvi-sim:{name}>",
                         "exec"), env)
            for leader, block_name in compiled.items():
                handlers[leader] = env[block_name]
        except Exception:       # defensive: degrade, never break
            for leader in compiled:
                handlers[leader] = _interp_block(code, raw, leader,
                                                 blocks[leader])

    reg_counts, param_locs = _register_layout(func)

    # The JIT's ``osr_hint`` (JITOptions.osr) can opt a function out
    # of mid-call promotion entirely; the candidate set stays empty
    # and the trampoline never counts its back edges.
    osr_leaders = backedge_targets(code, blocks) \
        if getattr(func, "osr_hint", True) else frozenset()

    return PredecodedMachine(token, handlers, raw, reg_counts,
                             param_locs, func.frame_bytes,
                             tier2_hint=getattr(func, "tier2_hint",
                                                False),
                             osr_leaders=osr_leaders,
                             tier2_args=(func, binding))


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


def _param_regs(func: CompiledFunction) -> set:
    """(kind, index) registers guaranteed written at function entry."""
    return {loc for loc in func.param_locs if loc[0] != "slot"}


def _block_counters(code, leader: int, length: int) -> dict:
    counters = {"cycles": 0, "branches": 0, "spill_loads": 0,
                "spill_stores": 0, "calls": 0}
    for instr in code[leader:leader + length]:
        counters["cycles"] += instr.cost
        if instr.op in ("br", "brif"):
            counters["branches"] += 1
        elif instr.op == "spill.ld":
            counters["spill_loads"] += 1
        elif instr.op == "spill.st":
            counters["spill_stores"] += 1
        elif instr.op == "call":
            counters["calls"] += 1
    return counters


def _debit_lines(code, leader: int, length: int) -> List[str]:
    counters = _block_counters(code, leader, length)
    lines = [
        f"executed = sim._executed + {length}",
        "sim._executed = executed",
        "if executed > sim.fuel:",
        f"    sim._executed = executed - {length}",
        f"    raise MeterTrip({leader})",
        f"res.instructions += {length}",
        f"res.cycles += {counters['cycles']}",
    ]
    for field in ("branches", "spill_loads", "spill_stores", "calls"):
        if counters[field]:
            lines.append(f"res.{field} += {counters[field]}")
    return lines


def _interp_block(code, raw, leader: int, length: int) -> Handler:
    counters = _block_counters(code, leader, length)
    cycles = counters["cycles"]
    branches = counters["branches"]
    spill_loads = counters["spill_loads"]
    spill_stores = counters["spill_stores"]
    calls = counters["calls"]

    def block(ri, rf, rv, slots, fb, mem, sim, res):
        executed = sim._executed + length
        sim._executed = executed
        if executed > sim.fuel:
            sim._executed = executed - length
            raise MeterTrip(leader)
        res.instructions += length
        res.cycles += cycles
        if branches:
            res.branches += branches
        if spill_loads:
            res.spill_loads += spill_loads
        if spill_stores:
            res.spill_stores += spill_stores
        if calls:
            res.calls += calls
        pc = leader
        step = length - 1
        try:
            for step in range(length):
                pc = raw[pc](ri, rf, rv, slots, fb, mem, sim, res)
        except Exception:
            # roll the fuel debit back to the trapping instruction
            # (res counters are unobservable after a trap)
            sim._executed -= length - step - 1
            raise
        return pc
    return block


# ---------------------------------------------------------------------------
# block code generation
# ---------------------------------------------------------------------------

def _gen_block(name: str, code, leader: int, length: int, env_dict,
               written_at_entry: set, binding=None) -> str:
    lines = _gen_block_lines(name, code, leader, length,
                             CodegenEnv(env_dict), written_at_entry,
                             binding)
    debit = "\n".join("    " + line
                      for line in _debit_lines(code, leader, length))
    body = "\n".join("        " + line for line in lines)
    return (f"def _b{leader}(ri, rf, rv, slots, fb, mem, sim, res):\n"
            f"{debit}\n"
            f"    _i = {length - 1}\n"
            f"    try:\n"
            f"{body}\n"
            f"    except Exception:\n"
            f"        # roll the fuel debit back to the trapping\n"
            f"        # instruction (res counters are unobservable\n"
            f"        # after a trap)\n"
            f"        sim._executed -= {length} - _i - 1\n"
            f"        raise\n")


def _gen_block_lines(name: str, code, leader: int, length: int,
                     env: CodegenEnv, written_at_entry: set,
                     binding=None,
                     reg_fmt: str = "{0}[{1}]",
                     check_direct: bool = False,
                     goto_fmt: str = "return {0}",
                     ret_lines=("return -1",),
                     tier2: bool = False,
                     data: str = "mem.data",
                     msize: str = "mem.size") -> List[str]:
    """The per-instruction lowering shared by the block tier and the
    tier-2 whole-function compiler.  ``reg_fmt`` maps a register file
    name + index to its lvalue (flat list vs lowered Python local,
    where ``check_direct`` skips the read-into-temp for the
    uninitialized check); ``goto_fmt``/``ret_lines`` shape transfers
    (``return pc`` per block vs ``pc = ...`` dispatcher assignments).
    Under ``tier2`` the arith/cmp/cast kernels are inlined as Python
    expressions where provably identical, and progress markers are
    elided for instructions that cannot raise; ``data``/``msize``
    name the (hoisted) memory buffer and size expressions.
    """
    lines: List[str] = []
    written = set(written_at_entry)
    counter = [0]
    #: per-instruction can-this-raise flag (tier-2 only): instructions
    #: proven pure need no ``_i`` progress marker, and a block with no
    #: markers at all drops its metered try/except wrapper
    impure = [False]

    def newt() -> str:
        counter[0] += 1
        return f"t{counter[0]}"

    def emit(text: str, indent: str = "") -> None:
        lines.append(indent + text)

    def read(operand, indent: str = "") -> str:
        kind, value = operand
        if kind == "imm":
            if type(value) is int:
                return f"({value!r})"
            return env.bind(value, "c")
        if kind == "slot":
            raise ValueError("raw slot operand")      # -> fallback
        location = reg_fmt.format(_REG_FILES[kind], value)
        if (kind, value) in written:
            return location
        impure[0] = True            # the uninitialized-register trap
        message = env.bind(f"{name}: read of uninitialized register "
                           f"{kind}{value}", "m")
        if check_direct:
            emit(f"if {location} is _UNSET:", indent)
            emit(f"raise TrapError({message})", indent + "    ")
            return location
        t = newt()
        emit(f"{t} = {location}", indent)
        emit(f"if {t} is _UNSET:", indent)
        emit(f"raise TrapError({message})", indent + "    ")
        return t

    def dst_of(instr) -> str:
        kind, index = instr.dst
        written.add((kind, index))
        return reg_fmt.format(_REG_FILES[kind], index)

    def addr_of(instr, srcs, indent: str = "") -> str:
        base = read(srcs[0], indent)
        if len(srcs) > 1:
            offset = read(srcs[1], indent)
            t = newt()
            emit(f"{t} = ({base}) + ({offset})", indent)
            base = t
        t = newt()
        emit(f"{t} = ({base}) & {MASK64_LITERAL}", indent)
        return t

    def bounds(addr_var: str, size: int) -> None:
        emit(f"if {addr_var} < {NULL_GUARD} or "
             f"{addr_var} + {size} > {msize}:")
        emit('raise TrapError(f"memory access out of bounds: '
             'addr={' + addr_var + ':#x} size=' + str(size) + '")',
             "    ")

    exit_pc = leader + length

    for pc in range(leader, exit_pc):
        instr = code[pc]
        op = instr.op
        # Progress marker: if this instruction traps mid-block, the
        # except clause rolls the block-entry fuel debit back to
        # exactly the reference engine's per-instruction count.  The
        # block tier conservatively marks everything; tier-2 marks
        # only instructions that can actually raise.
        marker_at = len(lines)
        impure[0] = not tier2

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
                    impure[0] = True
                emit(f"{dst_of(instr)} = {expr.format(a=a, b=b)}")
            else:
                impure[0] = True    # div/rem trap; kernel calls too
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
                impure[0] = True    # undefined predicates trap
                kernel = env.bind(cmp_kernel(instr.arg, instr.ty), "k")
                emit(f"{dst_of(instr)} = {kernel}({a}, {b})")
        elif op == "un":
            template = inline_unop(instr.arg, instr.ty, env) \
                if tier2 else None
            source = read(instr.srcs[0])
            if template is not None:
                expr, pure = template
                if not pure:
                    impure[0] = True
                emit(f"{dst_of(instr)} = {expr.format(a=source)}")
            else:
                impure[0] = True
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
                    impure[0] = True
                emit(f"{dst_of(instr)} = {expr.format(a=source)}")
            else:
                impure[0] = True    # float->int: NaN/inf trap
                emit(f"{dst_of(instr)} = "
                     f"{env.bind(kernel, 'k')}({source})")
        elif op == "select":
            # Lazy like the reference: only the chosen operand is read
            # (and only it gets the uninitialized-register check); the
            # destination counts as written only after both branches
            # are generated, so a dst-aliasing operand still checks.
            cond = read(instr.srcs[0])
            kind, index = instr.dst
            dst = reg_fmt.format(_REG_FILES[kind], index)
            emit(f"if ({cond}) != 0:")
            taken = read(instr.srcs[1], "    ")
            emit(f"{dst} = {taken}", "    ")
            emit("else:")
            untaken = read(instr.srcs[2], "    ")
            emit(f"{dst} = {untaken}", "    ")
            written.add((kind, index))
        elif op == "load":
            impure[0] = True
            packer = scalar_struct(instr.ty)
            unpack = env.bind(packer.unpack_from, "u")
            addr = addr_of(instr, instr.srcs)
            bounds(addr, packer.size)
            emit(f"{dst_of(instr)} = {unpack}({data}, {addr})[0]")
        elif op == "store":
            impure[0] = True
            packer = scalar_struct(instr.ty)
            pack = env.bind(packer.pack_into, "p")
            if isinstance(instr.ty, ty.IntType):
                coerce = env.bind(
                    lambda v, _t=instr.ty: ty.wrap_int(int(v), _t), "w")
            else:
                coerce = "float"
            addr = addr_of(instr, instr.srcs[:-1])
            value = read(instr.srcs[-1])
            bounds(addr, packer.size)
            emit("try:")
            emit(f"{pack}({data}, {addr}, {value})", "    ")
            emit("except _PE:")
            emit(f"{pack}({data}, {addr}, {coerce}({value}))", "    ")
        elif op == "lea.frame":
            emit(f"{dst_of(instr)} = fb + {instr.arg}")
        elif op == "spill.ld":
            impure[0] = True        # empty-slot trap
            message = env.bind(f"{name}: reload of empty spill slot "
                               f"{instr.arg}", "m")
            emit("try:")
            emit(f"{dst_of(instr)} = slots[{instr.arg}]", "    ")
            emit("except KeyError:")
            emit(f"raise TrapError({message})", "    ")
        elif op == "spill.st":
            emit(f"slots[{instr.arg}] = {read(instr.srcs[0])}")
        elif op == "br":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):
                raise ValueError("non-integer branch target")  # -> raw
            emit(goto_fmt.format(target))
        elif op == "brif":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):
                raise ValueError("non-integer branch target")  # -> raw
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
                f"{target} if {test} else {exit_pc}"))
        elif op == "call":
            impure[0] = True
            resolved = _resolved_callee(binding, instr.arg)
            values = []
            for operand in instr.srcs:
                if operand[0] == "slot":
                    # KeyError propagates raw, exactly like the
                    # reference's direct slots[...] access; read into
                    # a temp so operand traps keep their source order
                    t = newt()
                    emit(f"{t} = slots[{operand[1]}]")
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
            emit(goto_fmt.format(exit_pc))
        elif op == "ret":
            if instr.srcs:
                emit(f"sim._ret = {read(instr.srcs[0])}")
            else:
                emit("sim._ret = None")
            for line in ret_lines:
                emit(line)
        elif op == "vload":
            impure[0] = True
            packer = vector_struct(instr.ty.elem, instr.ty.lanes)
            unpack = env.bind(packer.unpack_from, "u")
            addr = addr_of(instr, instr.srcs)
            bounds(addr, packer.size)
            emit(f"{dst_of(instr)} = list({unpack}({data}, {addr}))")
        elif op == "vstore":
            impure[0] = True
            lanes = instr.ty.lanes
            packer = vector_struct(instr.ty.elem, lanes)
            pack = env.bind(packer.pack_into, "p")
            elem_name = env.bind(instr.ty.elem, "e")
            addr = addr_of(instr, instr.srcs[:-1])
            value = read(instr.srcs[-1])
            emit(f"if len({value}) == {lanes} and "
                 f"{addr} >= {NULL_GUARD} and "
                 f"{addr} + {packer.size} <= {msize}:")
            emit("try:", "    ")
            emit(f"{pack}({data}, {addr}, *{value})", "        ")
            emit("except _PE:", "    ")
            emit(f"mem.store_vec({elem_name}, {addr}, {value})",
                 "        ")
            emit("else:")
            emit(f"mem.store_vec({elem_name}, {addr}, {value})", "    ")
        elif op == "vbin":
            impure[0] = True        # lane-count mismatch traps, and
            a = read(instr.srcs[0])  # the f32 repack can overflow
            b = read(instr.srcs[1])
            bop = instr.arg
            elem = instr.ty.elem
            if tier2 and isinstance(elem, ty.FloatType) \
                    and elem.bits == 32 \
                    and bop in ("add", "sub", "mul", "min", "max"):
                # Inline the 4-lane f32 batch kernel: one quad
                # pack/unpack round trip instead of a kernel call plus
                # per-lane rounding — identical arithmetic, including
                # the left-to-right product rounding order.  Any other
                # shape falls back to the kernel in the else arm.
                qp = env.bind(_F32_QUAD.pack, "qp")
                qu = env.bind(_F32_QUAD.unpack, "qu")
                sym = _ARITH_SYMS.get(bop)
                if sym is not None:
                    cores = ", ".join(f"_a{i} {sym} _b{i}"
                                      for i in range(4))
                else:
                    cores = ", ".join(f"{bop}(_a{i}, _b{i})"
                                      for i in range(4))
                kernel = env.bind(vec_binop_kernel(bop, elem), "v")
                dst = dst_of(instr)
                emit(f"if len({a}) == 4 and len({b}) == 4:")
                emit(f"_a0, _a1, _a2, _a3 = {a}", "    ")
                emit(f"_b0, _b1, _b2, _b3 = {b}", "    ")
                emit(f"{dst} = list({qu}({qp}({cores})))", "    ")
                emit("else:")
                emit(f"{dst} = {kernel}({a}, {b})", "    ")
            else:
                kernel = env.bind(vec_binop_kernel(bop, elem), "v")
                emit(f"{dst_of(instr)} = {kernel}({a}, {b})")
        elif op == "vsplat":
            source = read(instr.srcs[0])
            emit(f"{dst_of(instr)} = [{source}] * {instr.ty.lanes}")
        elif op == "vreduce":
            impure[0] = True        # empty-vector trap
            reduce_op, acc_ty = instr.arg
            if reduce_op not in ("add", "max", "min"):
                raise ValueError("undefined reduce op")   # -> fallback
            widen_kernel = cast_kernel(instr.ty.elem, acc_ty)
            widen_tpl = fold_tpl = None
            if tier2:
                if widen_kernel is identity_kernel:
                    widen_tpl = ("{a}", True)
                else:
                    widen_tpl = inline_cast(instr.ty.elem, acc_ty, env)
                fold_tpl = inline_binop(reduce_op, acc_ty, env)
            vec = read(instr.srcs[0])
            acc, lane = newt(), newt()
            emit(f"if not {vec}:")
            emit("raise TrapError('reduce of empty vector')", "    ")
            if widen_tpl is not None and widen_tpl[1] \
                    and fold_tpl is not None and fold_tpl[1]:
                # Inline the whole fold: no kernel call per lane.
                wexpr = widen_tpl[0]
                emit(f"{acc} = {wexpr.format(a=f'{vec}[0]')}")
                emit(f"for {lane} in {vec}[1:]:")
                emit(f"{acc} = "
                     f"{fold_tpl[0].format(a=acc, b=wexpr.format(a=lane))}",
                     "    ")
            else:
                widen = env.bind(widen_kernel, "k")
                fold = env.bind(binop_kernel(reduce_op, acc_ty), "k")
                emit(f"{acc} = {widen}({vec}[0])")
                emit(f"for {lane} in {vec}[1:]:")
                emit(f"{acc} = {fold}({acc}, {widen}({lane}))", "    ")
            emit(f"{dst_of(instr)} = {acc}")
        else:
            raise ValueError(f"bad machine opcode {op!r}")  # fallback

        if len(lines) > marker_at and impure[0]:
            lines.insert(marker_at, f"_i = {pc - leader}")

    if code[exit_pc - 1].op not in ("br", "brif", "ret", "call"):
        emit(goto_fmt.format(exit_pc))

    return lines


# ---------------------------------------------------------------------------
# tier-2: whole-function translation
# ---------------------------------------------------------------------------
#
# One generated Python function covers every fuel block: a ``while 1``
# dispatcher over block leaders, the flat register files lowered to
# Python locals (``ri3`` instead of ``ri[3]``), and the same per-op
# lowering as the block tier (shared via ``_gen_block_lines``).  The
# contract matches a block handler exactly —
# ``_t2(ri, rf, rv, slots, fb, mem, sim, res) -> pc`` — so the
# trampoline in ``Simulator._call_fast`` treats its return value like
# any block's:
#
# * ``-1``   — the function returned (``sim._ret`` holds the value);
# * leader pc — a *deopt*: a fuel debit would cross the limit, or the
#   block resisted translation.  The tier-2 code writes its lowered
#   registers back into the flat files, leaves the block **undebited**
#   (fuel and res counters both) and hands the leader to the
#   block-threaded trampoline, which re-debits and (on fuel
#   exhaustion) meters per instruction — so cycle/instruction counts
#   and trap messages stay byte-identical to the reference.
#
# Fuel accounting comes in two shapes: functions containing calls keep
# ``sim._executed`` live at every block debit (the callee's debits
# must interleave with the caller's exactly as per-instruction
# accounting would), while call-free functions carry the counter in a
# local and flush it on every exit path.  The res counters are debited
# per block either way — they are only read after the run completes.

def _build_tier2(func: CompiledFunction, binding=None,
                 warm: bool = False):
    """The must-written register facts come proven from the dataflow
    plane (:func:`repro.analysis.facts.machine_facts`, the worklist
    solve that used to live here as ``_written_at_block_entry``); a
    function the plane declines gets no tier-2 at all."""
    facts, fresh = machine_facts(func)
    if fresh:
        TIER2_BUILDS["facts_warm" if warm else "facts_request"] += 1
    if facts is None:
        return None
    try:
        source, env = _gen_tier2(func, binding, facts)
        exec(compile(source, f"<pvi-sim-t2:{func.name}>", "exec"), env)
        t2 = env["_t2"]
        #: the per-leader entry whitelist, for introspection/tests
        t2.osr_entries = env.get("_OSR_ENTRIES", frozenset())
        t2.guards_elided = env.get("_GUARDS_ELIDED", 0)
        t2.guards_kept = env.get("_GUARDS_KEPT", 0)
        TIER2_BUILDS["guards_elided"] += t2.guards_elided
        TIER2_BUILDS["guards_kept"] += t2.guards_kept
        return t2
    except Exception:
        return None


def _gen_tier2(func: CompiledFunction, binding=None, facts=None):
    code = func.code
    n = len(code)
    name = func.name
    blocks = fuel_blocks(code)
    env_dict = {"TrapError": TrapError, "_PE": PACK_COERCE_ERRORS,
                "_UNSET": UNSET}
    env = CodegenEnv(env_dict)
    param_regs = _param_regs(func)
    reg_counts, _ = _register_layout(func)
    has_calls = any(instr.op == "call" for instr in code)
    counters_by_block = {leader: _block_counters(code, leader, length)
                         for leader, length in blocks.items()}

    named = [(file_name, count) for file_name, count
             in zip(("ri", "rf", "rv"), reg_counts) if count]
    load_regs = "; ".join(f"{f}{k} = {f}[{k}]"
                          for f, count in named for k in range(count))
    writeback = ["; ".join(f"{f}[{k}] = {f}{k}"
                           for f, count in named for k in range(count))] \
        if named else []

    # Res counters: functions containing calls keep them live on the
    # shared result object (the callee's debits interleave); call-free
    # functions carry them in locals and flush on every exit — they
    # are only read after the run completes (and are unobservable
    # after a trap, so the raise paths skip the flush).
    if has_calls:
        res_fields = []
    else:
        res_fields = ["instructions", "cycles"] + \
            [field for field in ("branches", "spill_loads",
                                 "spill_stores", "calls")
             if any(c[field] for c in counters_by_block.values())]
    res_load = "; ".join(f"_r_{f} = res.{f}" for f in res_fields)
    res_flush = "; ".join(f"res.{f} = _r_{f}" for f in res_fields)
    if has_calls:
        counter_flush = []
        ret_lines = ("return -1",)
    else:
        counter_flush = ["sim._executed = executed", res_flush]
        ret_lines = ("sim._executed = executed", res_flush,
                     "return -1")

    out: List[str] = []

    def w(line: str, indent: int = 0) -> None:
        out.append(" " * indent + line)

    # Loop blocks head the dispatch ladder: every block inside a
    # back-edge span is checked before the straight-line entry/exit
    # blocks, so iterations match on the first arms instead of
    # scanning the whole elif chain once per transfer.
    hot = set()
    for src, instr in enumerate(code):
        if instr.op in ("br", "brif") and isinstance(instr.arg, int) \
                and 0 <= instr.arg <= src:
            hot.update(b for b in blocks if instr.arg <= b <= src)
    ordered = [b for b in blocks if b in hot] \
        + [b for b in blocks if b not in hot]

    # Pre-translate every block under the whole-function dataflow
    # facts; an untranslatable block keeps no dispatch arm — its
    # leader falls through to the else arm, a per-block deopt point.
    # The per-leader must-written register sets come proven from the
    # dataflow plane (``repro.analysis.passes.written_at_block_entry``
    # — the same forward must-solve this module used to run
    # privately): along any internal edge the whole predecessor block
    # executed (a mid-block trap propagates out, a fuel deopt returns
    # to the block trampoline), so every destination it names is
    # written.
    if facts is None:
        facts, _ = machine_facts(func)
        if facts is None:
            raise ValueError(
                f"analysis declined {func.name!r}; no tier-2 facts")
    entry_written = facts.written_at_entry
    bodies = {}
    for leader in blocks:
        try:
            bodies[leader] = _gen_block_lines(
                name, code, leader, blocks[leader], env,
                entry_written.get(leader, param_regs), binding,
                reg_fmt="{0}{1}", check_direct=True,
                goto_fmt="pc = {0}", ret_lines=ret_lines,
                tier2=True, data="_md", msize="_ms")
        except Exception:
            bodies[leader] = None

    # Two-block natural loops — a header ending in ``brif`` and a
    # lone latch ending in ``br header`` — run as a native ``while``
    # inside the header's dispatch arm, so loop iterations pay no
    # dispatch at all.  Fuel/counter debits and deopt returns stay
    # per block, byte-identical to the ladder form.
    loops = {}
    dropped = set()
    for src, instr in enumerate(code):
        if instr.op != "br" or not isinstance(instr.arg, int):
            continue
        header = instr.arg
        if header not in blocks or header > src:
            continue
        latch = max(b for b in blocks if b <= src)
        if latch == header or src != latch + blocks[latch] - 1:
            continue
        hbody, lbody = bodies.get(header), bodies.get(latch)
        if not hbody or not lbody or lbody[-1] != f"pc = {header}":
            continue
        branch = re.fullmatch(r"pc = (\d+) if (.+) else (\d+)",
                              hbody[-1])
        if branch is None:
            continue
        taken, fall = int(branch.group(1)), int(branch.group(3))
        if taken == fall or latch not in (taken, fall):
            continue
        if header in loops:
            dropped.add(header)     # two latches: keep the ladder form
        loops[header] = (latch, branch.group(2), taken, fall)
    for header in dropped:
        del loops[header]
    loops = {header: entry for header, entry in loops.items()
             if header not in {e[0] for e in loops.values()}
             and entry[0] not in loops}
    fused_latches = {entry[0] for entry in loops.values()}

    # On-stack replacement entry points: translated back-edge targets
    # (loop headers) outside fused latches.  The trampoline may call
    # ``_t2`` with ``pc`` at one of these, handing over the live
    # block-tier register files mid-call.
    osr_entries = sorted(t for t in backedge_targets(code, blocks)
                         if bodies.get(t) and t not in fused_latches)
    env_dict["_OSR_ENTRIES"] = frozenset(osr_entries)

    w("def _t2(ri, rf, rv, slots, fb, mem, sim, res, pc=0):")
    w("fuel = sim.fuel", 4)
    w("_md = mem.data; _ms = mem.size", 4)
    if load_regs:
        w(load_regs, 4)
    # OSR entry guard: only whitelisted leaders may enter mid-call.
    # The must-written facts hold for the block tier's register files
    # too (same block graph, same all-or-nothing block execution), so
    # the per-entry ``_UNSET`` re-checks of every register assumed
    # written at the leader are always false on a handed-over
    # snapshot and are elided; ``PVI_OSR_GUARDS=1`` keeps them
    # (differential escape hatch — both modes must observe
    # byte-identical runs).  Either way the counts are surfaced in
    # ``tier2_build_stats()``.
    if osr_entries:
        osr_name = env.bind(frozenset(osr_entries), "osr")
        w("if pc:", 4)
        w(f"if pc not in {osr_name}:", 8)
        w("return pc", 12)
        keep = keep_osr_guards()
        for leader in osr_entries:
            assumed = entry_written.get(leader, param_regs) - param_regs
            names = sorted(f"{_REG_FILES[kind]}{index}"
                           for kind, index in assumed)
            if not names:
                continue
            if not keep:
                env_dict["_GUARDS_ELIDED"] = \
                    env_dict.get("_GUARDS_ELIDED", 0) + len(names)
                continue
            env_dict["_GUARDS_KEPT"] = \
                env_dict.get("_GUARDS_KEPT", 0) + len(names)
            unset = " or ".join(f"{reg} is _UNSET" for reg in names)
            w(f"if pc == {leader} and ({unset}):", 8)
            w("return pc", 12)
    else:
        w("if pc:", 4)
        w("return pc", 8)
    if not has_calls:
        w("executed = sim._executed", 4)
        if res_load:
            w(res_load, 4)
    w("while 1:", 4)

    def emit_block(leader: int, base: int, body) -> None:
        """Fuel/counter debits + (possibly metered) body at indent
        ``base``."""
        length = blocks[leader]
        counters = counters_by_block[leader]
        if has_calls:
            w(f"executed = sim._executed + {length}", base)
            w("if executed > fuel:", base)
            for line in writeback:
                w(line, base + 4)
            w(f"return {leader}", base + 4)
            w("sim._executed = executed", base)
            w(f"res.instructions += {length}", base)
            w(f"res.cycles += {counters['cycles']}", base)
            for field in ("branches", "spill_loads", "spill_stores",
                          "calls"):
                if counters[field]:
                    w(f"res.{field} += {counters[field]}", base)
        else:
            w(f"executed += {length}", base)
            w("if executed > fuel:", base)
            w(f"executed -= {length}", base + 4)
            for line in writeback:
                w(line, base + 4)
            w("sim._executed = executed", base + 4)
            if res_flush:
                w(res_flush, base + 4)
            w(f"return {leader}", base + 4)
            debits = [f"_r_instructions += {length}",
                      f"_r_cycles += {counters['cycles']}"]
            debits += [f"_r_{field} += {counters[field]}"
                       for field in ("branches", "spill_loads",
                                     "spill_stores", "calls")
                       if counters[field]]
            w("; ".join(debits), base)
        # A block with no ``_i`` markers has no instruction that can
        # raise — the rollback handler is dead, so elide it.
        if not any(line.startswith("_i = ") for line in body):
            for line in body:
                w(line, base)
            return
        w(f"_i = {length - 1}", base)
        w("try:", base)
        for line in body:
            w(line, base + 4)
        w("except Exception:", base)
        # roll the debit back to the trapping instruction, exactly
        # like the block tier's except clause
        if has_calls:
            w(f"sim._executed -= {length} - _i - 1", base + 4)
        else:
            w(f"sim._executed = executed - ({length} - _i - 1)",
              base + 4)
        w("raise", base + 4)

    keyword = "if"
    for leader in ordered:
        body = bodies[leader]
        if body is None or leader in fused_latches:
            continue
        w(f"{keyword} pc == {leader}:", 8)
        keyword = "elif"
        if leader not in loops:
            emit_block(leader, 12, body)
            continue
        latch, cond, taken, fall = loops[leader]
        # The header's terminal branch becomes the loop exit; the
        # latch's terminal ``pc = header`` becomes the implicit
        # back edge.
        if latch == taken:
            exits = [f"if not ({cond}):", f"    pc = {fall}",
                     "    break"]
        else:
            exits = [f"if {cond}:", f"    pc = {taken}", "    break"]
        w("while 1:", 12)
        emit_block(leader, 16, body[:-1] + exits)
        emit_block(latch, 16, bodies[latch][:-1])

    fell = env.bind(f"{name}: fell off code end", "m")
    w(f"{keyword} pc == {n}:", 8)
    if not has_calls:
        w("sim._executed = executed", 12)
    w(f"raise TrapError({fell})", 12)
    w("else:", 8)
    for line in writeback:
        w(line, 12)
    for line in counter_flush:
        if line:
            w(line, 12)
    w("return pc", 12)

    return "\n".join(out), env_dict


# ---------------------------------------------------------------------------
# raw per-instruction handlers (metered path + codegen fallback)
# ---------------------------------------------------------------------------

def _reader(operand, name: str) -> Callable:
    """A closure reading one operand from the flat register files."""
    kind, value = operand
    if kind == "imm":
        def r(ri, rf, rv, _v=value):
            return _v
        return r
    if kind == "slot":
        def r(ri, rf, rv):
            raise TrapError("raw slot operand outside spill op")
        return r
    if kind not in _CLS_INDEX:
        # The reference's regs[kind] KeyError funnels into its
        # uninitialized-register trap; match that.
        def r(ri, rf, rv):
            raise TrapError(f"{name}: read of uninitialized register "
                            f"{kind}{value}")
        return r
    cls = _CLS_INDEX[kind]

    def r(ri, rf, rv, _c=cls, _i=value):
        v = (ri, rf, rv)[_c][_i]
        if v is UNSET:
            raise TrapError(f"{name}: read of uninitialized register "
                            f"{kind}{value}")
        return v
    return r


def _make_raw_handler(name: str, pc: int, instr,
                      n: int, binding=None) -> Handler:
    op = instr.op
    nxt = pc + 1
    dst = instr.dst
    if dst is not None and dst[0] in _CLS_INDEX:
        dst_cls = _CLS_INDEX[dst[0]]
        dst_index = dst[1]
    else:
        dst_cls = dst_index = None

    def write(ri, rf, rv, value):
        (ri, rf, rv)[dst_cls][dst_index] = value

    if op == "bin":
        kernel = binop_kernel(instr.arg, instr.ty)
        ra = _reader(instr.srcs[0], name)
        rb = _reader(instr.srcs[1], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, kernel(ra(ri, rf, rv), rb(ri, rf, rv)))
            return nxt
    elif op == "mov":
        ra = _reader(instr.srcs[0], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, ra(ri, rf, rv))
            return nxt
    elif op == "cmp":
        kernel = cmp_kernel(instr.arg, instr.ty)
        ra = _reader(instr.srcs[0], name)
        rb = _reader(instr.srcs[1], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, kernel(ra(ri, rf, rv), rb(ri, rf, rv)))
            return nxt
    elif op == "un":
        kernel = unop_kernel(instr.arg, instr.ty)
        ra = _reader(instr.srcs[0], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, kernel(ra(ri, rf, rv)))
            return nxt
    elif op == "cast":
        from_ty, to_ty = instr.arg
        kernel = cast_kernel(from_ty, to_ty)
        ra = _reader(instr.srcs[0], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, kernel(ra(ri, rf, rv)))
            return nxt
    elif op == "select":
        rc = _reader(instr.srcs[0], name)
        ra = _reader(instr.srcs[1], name)
        rb = _reader(instr.srcs[2], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            value = ra(ri, rf, rv) if rc(ri, rf, rv) != 0 \
                else rb(ri, rf, rv)
            write(ri, rf, rv, value)
            return nxt
    elif op == "load":
        value_ty = instr.ty
        ra = _reader(instr.srcs[0], name)
        rb = _reader(instr.srcs[1], name) if len(instr.srcs) > 1 \
            else None

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            addr = ra(ri, rf, rv)
            if rb is not None:
                addr += rb(ri, rf, rv)
            write(ri, rf, rv, mem.load(value_ty, addr))
            return nxt
    elif op == "store":
        value_ty = instr.ty
        ra = _reader(instr.srcs[0], name)
        rb = _reader(instr.srcs[1], name) if len(instr.srcs) > 2 \
            else None
        rs = _reader(instr.srcs[-1], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            addr = ra(ri, rf, rv)
            if rb is not None:
                addr += rb(ri, rf, rv)
            mem.store(value_ty, addr, rs(ri, rf, rv))
            return nxt
    elif op == "lea.frame":
        offset = instr.arg

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, fb + offset)
            return nxt
    elif op == "spill.ld":
        slot = instr.arg

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            try:
                value = slots[slot]
            except KeyError:
                raise TrapError(f"{name}: reload of empty spill "
                                f"slot {slot}")
            write(ri, rf, rv, value)
            return nxt
    elif op == "spill.st":
        slot = instr.arg
        ra = _reader(instr.srcs[0], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            slots[slot] = ra(ri, rf, rv)
            return nxt
    elif op == "br":
        target = normalize_branch_target(instr.arg, n)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            return target
    elif op == "brif":
        target = normalize_branch_target(instr.arg, n)
        rc = _reader(instr.srcs[0], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            return target if rc(ri, rf, rv) != 0 else nxt
    elif op == "call":
        callee_name = instr.arg
        resolved = _resolved_callee(binding, callee_name)
        getters = []
        for operand in instr.srcs:
            if operand[0] == "slot":
                def getter(ri, rf, rv, slots, _index=operand[1]):
                    return slots[_index]
            else:
                def getter(ri, rf, rv, slots,
                           _r=_reader(operand, name)):
                    return _r(ri, rf, rv)
            getters.append(getter)

        if resolved is not None:
            def handler(ri, rf, rv, slots, fb, mem, sim, res,
                        _callee=resolved):
                values = [g(ri, rf, rv, slots) for g in getters]
                result = sim._call_fast(_callee, values, res)
                if dst_cls is not None:
                    write(ri, rf, rv, result)
                return nxt
        else:
            def handler(ri, rf, rv, slots, fb, mem, sim, res):
                values = [g(ri, rf, rv, slots) for g in getters]
                callee = sim.module.functions[callee_name]
                result = sim._call_fast(callee, values, res)
                if dst_cls is not None:
                    write(ri, rf, rv, result)
                return nxt
    elif op == "ret":
        if instr.srcs:
            ra = _reader(instr.srcs[0], name)

            def handler(ri, rf, rv, slots, fb, mem, sim, res):
                sim._ret = ra(ri, rf, rv)
                return -1
        else:
            def handler(ri, rf, rv, slots, fb, mem, sim, res):
                sim._ret = None
                return -1
    elif op == "vload":
        elem = instr.ty.elem
        lanes = instr.ty.lanes
        ra = _reader(instr.srcs[0], name)
        rb = _reader(instr.srcs[1], name) if len(instr.srcs) > 1 \
            else None

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            addr = ra(ri, rf, rv)
            if rb is not None:
                addr += rb(ri, rf, rv)
            write(ri, rf, rv, mem.load_vec(elem, lanes, addr))
            return nxt
    elif op == "vstore":
        elem = instr.ty.elem
        ra = _reader(instr.srcs[0], name)
        rb = _reader(instr.srcs[1], name) if len(instr.srcs) > 2 \
            else None
        rs = _reader(instr.srcs[-1], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            addr = ra(ri, rf, rv)
            if rb is not None:
                addr += rb(ri, rf, rv)
            mem.store_vec(elem, addr, rs(ri, rf, rv))
            return nxt
    elif op == "vbin":
        kernel = vec_binop_kernel(instr.arg, instr.ty.elem)
        ra = _reader(instr.srcs[0], name)
        rb = _reader(instr.srcs[1], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, kernel(ra(ri, rf, rv), rb(ri, rf, rv)))
            return nxt
    elif op == "vsplat":
        lanes = instr.ty.lanes
        ra = _reader(instr.srcs[0], name)

        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            write(ri, rf, rv, [ra(ri, rf, rv)] * lanes)
            return nxt
    elif op == "vreduce":
        reduce_op, acc_ty = instr.arg
        widen = cast_kernel(instr.ty.elem, acc_ty)
        ra = _reader(instr.srcs[0], name)
        if reduce_op in ("add", "max", "min"):
            fold = binop_kernel(reduce_op, acc_ty)

            def handler(ri, rf, rv, slots, fb, mem, sim, res):
                vec = ra(ri, rf, rv)
                if not vec:
                    raise TrapError("reduce of empty vector")
                acc = widen(vec[0])
                for lane in vec[1:]:
                    acc = fold(acc, widen(lane))
                write(ri, rf, rv, acc)
                return nxt
        else:
            def handler(ri, rf, rv, slots, fb, mem, sim, res):
                raise TrapError(f"reduce op {reduce_op!r} undefined")
    else:
        def handler(ri, rf, rv, slots, fb, mem, sim, res):
            raise TrapError(f"bad machine opcode {op!r}")

    return handler
