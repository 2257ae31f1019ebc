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
:mod:`repro.vm.threaded`, and so is what a scalar op, a vector op or a
control transfer lowers to (:class:`repro.tiers.BlockEmitter`); this
module supplies the machine operand model (where an operand is read
from — register files with the uninitialized-register check — and
where a result goes, in ``_gen_block_lines``, which still lowers
``select`` and the scalar memory ops itself; the ``_t2`` frame lines,
the register layout) and the block *counter vector*.  Tier-2 keeps a
vector register a tuple; only a vector register holds one (a vector
op's result in another register file is a list), and it is re-listed
wherever anything but a vector op reads it and where it leaves the
register files (returned, passed, spilled, or written back at a
deopt).
Every
*fuel block* (ending at a branch, ``ret`` or ``call``) becomes one
Python function (an instance of a memoized block template,
:func:`repro.tiers.block_template`) that debits fuel **and all
counters** (instructions, cycles, branches, spills, calls) on entry —
blocks execute linearly to their terminator, so successful runs
reproduce the reference engine's per-instruction totals exactly.  A
debit crossing the fuel limit (:class:`repro.engine.MeterTrip`) steps
the instructions the fuel still covers one at a time
(:func:`repro.tiering.replay_metered`), so the fuel trap lands on
precisely the reference engine's instruction.
A step is the same lowering applied to a one-instruction block, built
on first use; a block whose code generation bails steps the same way,
under the same block-entry debit.

The predecoded form is cached on the function object
(``repro.tiers.Lowering.predecode``) keyed by a structural content
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

from repro.analysis.facts import machine_facts
from repro.analysis.intervals import Interval
from repro.counted import Induction
from repro.lang import types as ty
from repro.semantics.errors import TrapError
from repro.semantics.memory import scalar_struct
from repro.targets.isa import CompiledFunction, CompiledModule
from repro.tiering import Predecoded, warm
from repro.lanes import Vec
from repro.tiers import (
    BlockEmitter, Lowering, Tier, Tier2BuildStats, Value, block_tier,
    whole_tier,
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
    #: [(cls_index | -1, index)]
    __slots__ = ("reg_counts", "param_locs", "frame_bytes")


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
    Tier-2 is built wherever a serving call could want it
    (:func:`repro.tiering.warm`), so later runs start in tier-2 at pc 0
    with no compile pause (:func:`tier2_build_stats` proves it: runs
    of an image this function has seen leave the ``request`` bucket
    untouched)."""
    warm(module, predecode_machine)
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
    tier-2 whole-function compiler: the machine's operand model over
    the emitter's lowering (:class:`repro.tiers.BlockEmitter` decides
    what a scalar op or a control transfer lowers to).  ``tier.place``
    maps a register file name + index to its lvalue (flat list vs
    lowered Python local, where the uninitialized check tests the
    local directly instead of reading into a temp).  In both tiers
    ``em.impure`` is set exactly where the emitted code can raise: it
    is what puts the instruction in the block's rollback table.
    """
    name, code, env = low.name, low.code, low.env
    tier2 = tier.tier2
    reg_fmt, data = tier.place, tier.data
    written = set(low.entry_written.get(leader, low.param_regs))
    em = BlockEmitter(low, tier)
    lines, emit, newt, lit = em.lines, em.emit, em.newt, em.lit
    ranges = em.ranges

    def span(operand):
        """The interval an operand is known to hold (``ranges`` is
        empty outside a counted loop's blocks)."""
        kind, value = operand
        if kind == "imm":
            return Interval(value, value) if type(value) is int else None
        return ranges.get(reg_fmt.format(_REG_FILES.get(kind), value))

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

    def dst_of(instr, masked: bool = False, rng=None) -> str:
        """The destination's place, marked written (``masked`` /
        ``rng``: what tier-2 knows of the value: ``em.rewrite``; a
        vector's, ``em.assign``)."""
        kind, index = instr.dst
        written.add((kind, index))
        place = reg_fmt.format(_REG_FILES[kind], lit(index))
        if tier2:
            em.rewrite(place, masked, rng)
        return place

    def vread(operand) -> Vec:
        """A vector operand: what this block wrote there, or the
        register as it stands (in tier-2 possibly a tuple)."""
        location = read(operand)
        return em.vecs.get(location) or Vec(location, tuple=tier2)

    def observed(operand, indent: str = "") -> str:
        """An operand anything but a vector op reads (a scalar op, a
        copy out of the vector registers, a store, an address), or
        that leaves the register files (returned, passed, spilled):
        tier-2's vector tuples become the lists the reference holds.
        So a tuple never leaves a vector register, and the deopt
        writeback re-lists those alone."""
        location = read(operand, indent)
        if operand[0] == "vec":
            return f"(list({location}) if type({location}) is tuple " \
                   f"else {location})"
        return location

    if not tier2:
        observed = read     # the block tier holds no tuple

    def kept(instr, operand, indent: str = "") -> str:
        """An operand copied into ``instr``'s destination as it is: a
        vector register's tuple stays one only in another vector
        register."""
        if instr.dst[0] == "vec":
            return read(operand, indent)
        return observed(operand, indent)

    def vassign(instr, vec: Vec) -> None:
        """A vector op's result into its destination: a list unless
        that is a vector register."""
        em.assign(dst_of(instr), vec, instr.dst[0] != "vec")

    def addr_of(instr, srcs) -> str:
        base = observed(srcs[0])
        if len(srcs) > 1:
            exact = em.exact_binop("add", ty.U64, span(srcs[0]),
                                   span(srcs[1])) if ranges else None
            offset = observed(srcs[1])
            t = newt()
            emit(f"{t} = ({base}) + ({offset})")
            return em.address(t, exact is not None, exact)
        return em.address(base, base in em.masked, span(srcs[0]))

    def take(count: int):
        """What is known of a scalar op's sources (``BlockEmitter``):
        nothing outside a counted loop's blocks."""
        if ranges:
            return [span(instr.srcs[i]) for i in range(count)]

    def read_srcs(count: int) -> list:
        srcs = instr.srcs
        return [observed(srcs[0])] if count == 1 \
            else [observed(srcs[0]), observed(srcs[1])]

    def set_result(instr, value: Value) -> None:
        emit(f"{dst_of(instr, value.masked, rng=value.rng)} = "
             f"{em.rhs(value)}")

    def copy(instr) -> None:
        rng = span(instr.srcs[0]) if ranges else None
        source = kept(instr, instr.srcs[0])
        emit(f"{dst_of(instr, rng=rng)} = {source}")

    exit_pc = leader + length
    skip = em.skip

    for pc in range(leader, exit_pc):
        if pc in skip:
            continue
        instr = code[pc]
        op = instr.op
        em.begin()

        # NB: sources must be read (and uninitialized-register checked)
        # *before* dst_of marks the destination written — a dst that
        # aliases an unwritten source must still trap.
        if op == "bin":
            set_result(instr, em.binop(instr.arg, instr.ty, take, read_srcs))
        elif op == "mov":
            copy(instr)
        elif op == "cmp":
            set_result(instr, em.compare(instr.arg, instr.ty, pc, take,
                                         read_srcs))
        elif op == "un":
            set_result(instr, em.unop(instr.arg, instr.ty, take, read_srcs))
        elif op == "cast":
            from_ty, to_ty = instr.arg
            value = em.cast(from_ty, to_ty, take, read_srcs)
            if value is None:       # a cast that changes no value
                copy(instr)
            else:
                set_result(instr, value)
        elif op == "select":
            # Lazy like the reference: only the chosen operand is read
            # (and only it gets the uninitialized-register check); the
            # destination counts as written only after both branches
            # are generated, so a dst-aliasing operand still checks.
            cond = read(instr.srcs[0])
            kind, index = instr.dst
            dst = reg_fmt.format(_REG_FILES[kind], lit(index))
            emit(f"if ({cond}) != 0:")
            taken = kept(instr, instr.srcs[1], "    ")
            emit(f"{dst} = {taken}", "    ")
            emit("else:")
            untaken = kept(instr, instr.srcs[2], "    ")
            emit(f"{dst} = {untaken}", "    ")
            written.add((kind, index))
            if tier2:
                em.rewrite(dst)
        elif op == "load":
            em.impure = True
            packer = scalar_struct(instr.ty)
            unpack = env.bind(packer.unpack_from, "u")
            addr = addr_of(instr, instr.srcs)
            em.bounds(addr, packer)
            emit(f"{dst_of(instr)} = {unpack}({data}, {addr})[0]")
        elif op == "store":
            em.impure = True
            packer, pack, coerce = em.store_kernels(instr.ty)
            addr = addr_of(instr, instr.srcs[:-1])
            value = observed(instr.srcs[-1])
            em.bounds(addr, packer)
            em.store(pack, coerce, addr, value)
        elif op == "lea.frame":
            emit(f"{dst_of(instr, rng=em.frame(instr.arg))} = "
                 f"fb + {lit(instr.arg)}")
        elif op == "spill.ld":
            em.impure = True        # empty-slot trap
            message = env.bind(f"{name}: reload of empty spill slot "
                               f"{instr.arg}", "m")
            emit("try:")
            emit(f"{dst_of(instr)} = slots[{lit(instr.arg)}]", "    ")
            emit("except KeyError:")
            emit(f"raise TrapError({message})", "    ")
        elif op == "spill.st":
            emit(f"slots[{lit(instr.arg)}] = {observed(instr.srcs[0])}")
        elif op == "br":
            em.jump(instr.arg, code)
        elif op == "brif":
            em.branch(instr.arg, code, read(instr.srcs[0]), exit_pc)
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
                    values.append(observed(operand))
            value = newt()
            if resolved is not None:
                # Inline cache: the frozen module pins the callee.
                emit(f"{value} = sim._call_fast("
                     f"{env.bind(resolved, 'f')}, "
                     f"[{', '.join(values)}], res)")
            else:
                callee = env.bind(instr.arg, "n")
                emit(f"{value} = sim._call_fast(sim.module.functions"
                     f"[{callee}], [{', '.join(values)}], res)")
            if instr.dst is not None:
                emit(f"{dst_of(instr)} = {value}")
            em.goto(exit_pc)
        elif op == "ret":
            if instr.srcs:
                emit(f"sim._ret = {observed(instr.srcs[0])}")
            else:
                emit("sim._ret = None")
            em.ret()
        elif op == "vload":
            vassign(instr, em.vload(instr.ty.elem, instr.ty.lanes,
                                    lambda: addr_of(instr, instr.srcs)))
        elif op == "vstore":
            em.vstore(instr.ty.elem, instr.ty.lanes,
                      lambda: (addr_of(instr, instr.srcs[:-1]),
                               vread(instr.srcs[-1])))
        elif op == "vbin":
            a = vread(instr.srcs[0])
            b = vread(instr.srcs[1])
            vassign(instr, em.vbinop(instr.arg, instr.ty.elem,
                                     instr.ty.lanes, a, b))
        elif op == "vsplat":
            source = observed(instr.srcs[0])
            place = dst_of(instr)       # bound before the lane count
            em.assign(place, em.vsplat(source, instr.ty.lanes),
                      instr.dst[0] != "vec")
        elif op == "vreduce":
            reduce_op, acc_ty = instr.arg
            acc = em.reduce(reduce_op, instr.ty.elem, acc_ty, instr.ty.lanes,
                            lambda: vread(instr.srcs[0]))
            emit(f"{dst_of(instr)} = {acc}")
        else:
            raise TrapError(f"bad machine opcode {op!r}")

        em.end(pc - leader)

    if not em.ended:    # the next leader cut the block short
        em.goto(exit_pc)
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

    def induction(self, header, latch):
        # Header ``cmp.lt flag, iv, bound; brif flag, latch``; latch
        # ending ``add iv, iv, #c`` or ``add t, iv, #c; mov iv, t``,
        # then ``br header``; no other write of ``iv`` or of a
        # register ``bound``, and no read of ``t`` the dropped
        # increment would have fed.
        code, blocks = self.code, self.blocks
        head = code[header:header + blocks[header]]
        body = code[latch:latch + blocks[latch]]
        if len(head) < 2 or len(body) < 3:
            return None
        test, branch = head[-2:]
        copy = body[-2] if body[-2].op == "mov" else None
        add = body[-3] if copy is not None else body[-2]
        if not (branch.op == "brif" and branch.arg == latch
                and test.op == "cmp" and test.arg == "lt"
                and isinstance(test.ty, ty.IntType) and test.ty.signed
                and test.dst is not None and branch.srcs == [test.dst]
                and test.srcs[0][0] == "int"
                and add.op == "bin" and add.arg == "add"
                and add.ty == ty.I32 and add.srcs[0] == test.srcs[0]
                and add.srcs[1][0] == "imm"):
            return None
        iv, limit = test.srcs
        step = add.srcs[1][1]
        if type(step) is not int or not 0 < step < 1 << 31:
            return None
        temp, skip = None, frozenset((latch + len(body) - 2,))
        if copy is None:
            if add.dst != iv:
                return None
        else:
            temp = add.dst
            if copy.dst != iv or copy.srcs != [temp] or temp == iv \
                    or temp[0] != "int":
                return None
            for instr in head + body[:-3]:      # an iteration, in order
                if temp in instr.srcs:
                    return None         # read before the loop wrote it
                if instr.dst == temp:
                    break
            skip |= {latch + len(body) - 3}
            temp = f"ri{temp[1]}"
        writes = [instr.dst for instr in head + body
                  if instr.dst is not None]
        if writes.count(iv) != 1 or limit in writes:
            return None
        if limit[0] == "int":
            bound = f"ri{limit[1]}"
        elif limit[0] == "imm" and type(limit[1]) is int:
            bound = f"({limit[1]})"
        else:
            return None
        (ints, _, _), _ = _register_layout(self.func)
        invariants = frozenset(f"ri{k}" for k in range(ints)
                               if ("int", k) not in writes)
        return Induction(f"ri{iv[1]}", bound, step, temp, skip,
                         header + len(head) - 2, invariants)

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
        # Deopt writeback: a vector register tier-2 left a tuple in
        # goes back to the register file as the list it is there.
        return ([],
                ["; ".join(f"{f}{k} = {f}[{k}]" for f, k in regs)],
                ["; ".join(f"rv[{k}] = list(rv{k}) if type(rv{k}) is tuple "
                           f"else rv{k}" if f == "rv" else f"{f}[{k}] = {f}{k}"
                           for f, k in regs)])

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
