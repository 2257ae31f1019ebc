"""The offline auto-vectorizer (split compilation, step one).

Transforms simple counted loops into a 128-bit virtual-vector main loop
plus the original scalar loop as epilogue::

    for (i = 0; i < n; i++) body(i)
        =>
    nvec = n & ~(lanes-1)
    for (i = 0; i < nvec; i += lanes) vbody(i)     // portable vec ops
    for (; i < n; i++) body(i)                     // scalar epilogue

Two loop shapes are supported, covering the paper's Table 1 kernels and
the usual BLAS-1 style code:

* **elementwise**: all stores contiguous, value chains lane-parallel
  (``vecadd``, ``saxpy``, ``dscal``);
* **reduction**: a scalar accumulator combined with ``add``/``min``/
  ``max``, optionally widening (``sum u8/u16``, ``max u8`` after
  if-conversion) — emitted as ``vreduce`` into the accumulator type.
  A float accumulator is reassociated (one partial sum per lane).

Legality uses the affine model of :mod:`repro.opt.affine`; distinct
pointer bases are *assumed not to alias* (the information a C front end
has and bytecode loses — exactly what the paper proposes carrying as
annotations).  The assumption is recorded in the produced
:class:`VecLoopInfo`.

Cost: this analysis is what the paper calls too expensive for a JIT;
it runs here offline for free, or inside the JIT for the "online-only"
flow of experiment F1, where its work counter is charged to the
compile-time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.values import Const, Value, VecType, VReg, vec_of
from repro.opt.affine import AffineMap
from repro.opt.licm import _ensure_preheader
from repro.opt.loops import CountedLoop, find_counted_loops
from repro.opt.pass_manager import PassResult

_CHAIN_OPS = {"add", "sub", "mul", "div", "min", "max"}
_REDUCE_OPS = {"add", "min", "max"}


@dataclass
class VecLoopInfo:
    """What the vectorizer did to one loop, kept on
    ``func.vector_loops``.  What the online step receives is the
    vector builtins themselves: a SIMD JIT maps them directly, other
    JITs scalarize, and the online-only flow, handed scalar code, has
    to redo the whole analysis itself."""
    function: str
    vector_header: str          # label of the vector loop header
    scalar_header: str          # label of the epilogue (original) loop
    lanes: int
    elem: str
    kind: str                   # 'elementwise' or 'reduction'
    reduce_op: Optional[str] = None
    acc_type: Optional[str] = None
    noalias_bases: List[str] = field(default_factory=list)


@dataclass
class _AccUpdate:
    acc: VReg
    op: str
    operand: Value              # the per-iteration contribution
    binop: ins.BinOp
    move: Optional[ins.Move]    # None when the binop writes acc directly
    widen_cast: Optional[ins.Cast] = None


class _Reject(Exception):
    """Internal: loop cannot be vectorized (not an error)."""


def vectorize(func: Function) -> PassResult:
    result = PassResult()
    processed: Set[str] = set()
    for _ in range(8):            # re-discover after each transform
        loops = find_counted_loops(func)
        candidate = next((l for l in loops if l.header not in processed),
                         None)
        if candidate is None:
            break
        processed.add(candidate.header)
        result.work += _loop_size(func, candidate)
        try:
            info = _vectorize_loop(func, candidate)
        except _Reject:
            continue
        func.vector_loops.append(info)
        result.changed = True
    return result


def _loop_size(func: Function, loop: CountedLoop) -> int:
    return sum(len(b.instrs) for b in func.blocks
               if b.label in loop.loop.body)


def _vectorize_loop(func: Function, cl: CountedLoop) -> VecLoopInfo:
    # (the bound is an integer: the loop test compares it with the
    # integer induction)
    if not cl.is_simple_forward:
        raise _Reject

    work = func.block(cl.work)
    body = work.instrs[:-3]
    defs_in_loop = _collect_defs(func, cl)
    invariants = _invariant_operands(body, defs_in_loop)

    amap = AffineMap(cl.ivar, invariants)
    for instr in body:
        amap.visit(instr)

    accs = _find_accumulators(func, cl, body, defs_in_loop)
    acc_binops = {id(a.binop) for a in accs}
    acc_moves = {id(a.move) for a in accs if a.move is not None}
    acc_anchors = {id(a.move if a.move is not None else a.binop): a
                   for a in accs}
    widen_casts = {id(a.widen_cast) for a in accs if a.widen_cast}

    elem_ty, bases = _check_memory(body, amap, defs_in_loop)
    lanes = 16 // ty.sizeof(elem_ty)
    vty = vec_of(elem_ty)

    # (_find_accumulators admits only _REDUCE_OPS)
    for acc in accs:
        if ty.is_integer(acc.acc.ty) != ty.is_integer(elem_ty):
            raise _Reject

    _check_no_outside_uses(func, cl, body, accs)

    # ---- build the vector clone -------------------------------------------
    splat_requests: Dict[Tuple, Tuple[Value, VecType]] = {}
    invariant_loads: List[ins.Load] = []
    vmap: Dict[int, VReg] = {}
    smap: Dict[int, VReg] = {}
    vec_instrs: List[ins.Instr] = []

    def scalar_operand(value: Value) -> Value:
        if isinstance(value, Const):
            return value
        return smap.get(value.id, value)

    def splat_of(value: Value) -> VReg:
        key = ("c", value.value, str(value.ty)) if isinstance(value, Const) \
            else ("r", value.id)
        if key not in splat_requests:
            reg = func.new_reg(vty, "splat")
            splat_requests[key] = (value, reg)
        return splat_requests[key][1]

    def vec_operand(value: Value) -> VReg:
        if isinstance(value, Const):
            if value.ty != elem_ty:
                raise _Reject
            return splat_of(value)
        if value.id in vmap:
            return vmap[value.id]
        if value.ty == elem_ty and amap.is_invariant(value) and \
                value not in defs_in_loop:
            return splat_of(value)
        raise _Reject

    for instr in body:
        if id(instr) in widen_casts:
            continue
        if (id(instr) in acc_binops or id(instr) in acc_moves) and \
                id(instr) not in acc_anchors:
            continue
        if id(instr) in acc_anchors:
            acc = acc_anchors[id(instr)]
            source = acc.widen_cast.src if acc.widen_cast else acc.operand
            vsrc = vec_operand(source)
            reduced = func.new_reg(acc.acc.ty, "red")
            vec_instrs.append(ins.VReduce(acc.op, reduced, vsrc, vty,
                                          acc.acc.ty))
            combined = func.new_reg(acc.acc.ty)
            vec_instrs.append(ins.BinOp(acc.op, combined, acc.acc, reduced,
                                        acc.acc.ty))
            vec_instrs.append(ins.Move(acc.acc, combined))
            continue
        # _check_memory admitted every access: a store, or a load with
        # a non-zero coefficient, is contiguous and of ``elem_ty``
        if isinstance(instr, ins.Load):
            if amap.of(instr.addr).coeff:
                vdst = func.new_reg(vty)
                vec_instrs.append(ins.VLoad(vdst, scalar_operand(instr.addr),
                                            vty))
                vmap[instr.dst.id] = vdst
                continue
            # Invariant load: hoist to the vector preheader and splat.
            if isinstance(instr.addr, VReg) and instr.addr.id in smap:
                raise _Reject      # address built from i: not invariant
            if instr.ty != elem_ty:
                raise _Reject
            invariant_loads.append(instr)
            vmap[instr.dst.id] = splat_of(instr.dst)
            continue
        if isinstance(instr, ins.Store):
            vec_instrs.append(ins.VStore(scalar_operand(instr.addr),
                                         vec_operand(instr.value), vty))
            continue
        if isinstance(instr, (ins.BinOp, ins.Cast, ins.Move)) and \
                instr.dst is not None and amap.of(instr.dst) is not None:
            # Address arithmetic: clone as scalar with fresh registers.
            clone = ins.clone(instr, scalar_operand,
                              lambda reg: func.new_reg(reg.ty))
            smap[instr.dst.id] = clone.dst
            vec_instrs.append(clone)
            continue
        if isinstance(instr, ins.BinOp) and instr.ty == elem_ty and \
                instr.op in _CHAIN_OPS:
            vdst = func.new_reg(vty)
            vec_instrs.append(ins.VBinOp(instr.op, vdst,
                                         vec_operand(instr.a),
                                         vec_operand(instr.b), vty))
            vmap[instr.dst.id] = vdst
            continue
        if isinstance(instr, ins.Move) and instr.src is not None and \
                instr.dst.ty == elem_ty:
            vmap[instr.dst.id] = vec_operand(instr.src)
            continue
        if isinstance(instr, ins.UnOp) and instr.op == "neg" and \
                instr.ty == elem_ty:
            zero = Const(0.0 if ty.is_float(elem_ty) else 0, elem_ty)
            vdst = func.new_reg(vty)
            vec_instrs.append(ins.VBinOp("sub", vdst, splat_of(zero),
                                         vec_operand(instr.a), vty))
            vmap[instr.dst.id] = vdst
            continue
        raise _Reject

    # ---- assemble the CFG ---------------------------------------------------
    preheader = _ensure_preheader(func, cl.loop)
    vec_pre = func.new_block("vec.pre")
    vec_head = func.new_block("vec.head")
    vec_body = func.new_block("vec.body")

    # vec.pre: hoisted invariant loads, splats, vector trip count.
    for load in invariant_loads:
        vec_pre.append(ins.Load(load.dst, load.addr, load.ty))
    for source, reg in splat_requests.values():
        vec_pre.append(ins.VSplat(reg, source, vty))
    bound_ty = cl.bound.ty
    assert isinstance(bound_ty, ty.IntType)
    mask = Const(ty.wrap_int(~(lanes - 1), bound_ty), bound_ty)
    nvec = func.new_reg(bound_ty, "nvec")
    vec_pre.append(ins.BinOp("and", nvec, cl.bound, mask, bound_ty))
    vec_pre.append(ins.Jump(vec_head.label))

    cond = func.new_reg(ty.I32)
    vec_head.append(ins.Cmp("lt", cond, cl.ivar, nvec, bound_ty))
    vec_head.append(ins.Branch(cond, vec_body.label, cl.header))

    vec_body.instrs.extend(vec_instrs)
    stepped = func.new_reg(cl.ivar.ty)
    vec_body.append(ins.BinOp("add", stepped, cl.ivar,
                              Const(lanes, cl.ivar.ty), cl.ivar.ty))
    vec_body.append(ins.Move(cl.ivar, stepped))
    vec_body.append(ins.Jump(vec_head.label))

    ins.retarget(preheader.terminator, cl.header, vec_pre.label)

    # Order blocks: vec blocks just before the (now epilogue) header.
    for block in (vec_pre, vec_head, vec_body):
        func.blocks.remove(block)
    at = func.blocks.index(func.block(cl.header))
    func.blocks[at:at] = [vec_pre, vec_head, vec_body]

    kind = "reduction" if accs else "elementwise"
    return VecLoopInfo(
        function=func.name,
        vector_header=vec_head.label,
        scalar_header=cl.header,
        lanes=lanes,
        elem=str(elem_ty),
        kind=kind,
        reduce_op=accs[0].op if accs else None,
        acc_type=str(accs[0].acc.ty) if accs else None,
        noalias_bases=sorted(bases),
    )


# ---------------------------------------------------------------------------
# analysis helpers
# ---------------------------------------------------------------------------

def _collect_defs(func: Function, cl: CountedLoop) -> Set[VReg]:
    defs: Set[VReg] = set()
    for block in func.blocks:
        if block.label in cl.loop.body:
            for instr in block.instrs:
                defs.update(instr.defs())
    return defs


def _invariant_operands(body, defs_in_loop: Set[VReg]) -> List[VReg]:
    invariants = []
    for instr in body:
        for reg in instr.uses():
            if reg not in defs_in_loop:
                invariants.append(reg)
    return invariants


def _find_accumulators(func: Function, cl: CountedLoop, body,
                       defs_in_loop: Set[VReg]) -> List[_AccUpdate]:
    """Recognize ``acc = acc op x`` chains (with optional widening cast)."""
    use_counts: Dict[int, int] = {}
    for instr in body:
        for reg in instr.uses():
            use_counts[reg.id] = use_counts.get(reg.id, 0) + 1
    defs_by_reg: Dict[int, List[ins.Instr]] = {}
    for instr in body:
        for reg in instr.defs():
            defs_by_reg.setdefault(reg.id, []).append(instr)

    outside_defs = _outside_defs(func, cl)
    accs: List[_AccUpdate] = []
    for instr in body:
        acc: Optional[VReg] = None
        binop: Optional[ins.BinOp] = None
        move: Optional[ins.Move] = None
        if isinstance(instr, ins.Move) and isinstance(instr.src, VReg):
            # acc = mov t  where  t = binop(acc, x)
            source = instr.src
            binops = defs_by_reg.get(source.id, [])
            if len(binops) == 1 and isinstance(binops[0], ins.BinOp) and \
                    use_counts.get(source.id, 0) == 1:
                acc, binop, move = instr.dst, binops[0], instr
        elif isinstance(instr, ins.BinOp):
            # acc = binop(acc, x)  (produced by select->minmax conversion)
            acc, binop, move = instr.dst, instr, None
        if acc is None or binop is None:
            continue
        if acc == cl.ivar or acc not in outside_defs:
            continue
        if len(defs_by_reg.get(acc.id, [])) != 1:
            continue
        if binop.op not in _REDUCE_OPS:
            continue
        if isinstance(binop.a, VReg) and binop.a == acc:
            operand = binop.b
        elif isinstance(binop.b, VReg) and binop.b == acc:
            operand = binop.a
        else:
            continue
        if use_counts.get(acc.id, 0) != 1:
            continue          # acc used beyond its own update: too clever
        widen = None
        if isinstance(operand, VReg):
            operand_defs = defs_by_reg.get(operand.id, [])
            if len(operand_defs) == 1 and \
                    isinstance(operand_defs[0], ins.Cast) and \
                    use_counts.get(operand.id, 0) == 1:
                cast = operand_defs[0]
                if ty.is_integer(cast.from_ty) and \
                        ty.is_integer(cast.to_ty) and \
                        cast.to_ty.bits >= cast.from_ty.bits:
                    widen = cast
        accs.append(_AccUpdate(acc=acc, op=binop.op, operand=operand,
                               binop=binop, move=move, widen_cast=widen))
    return accs


def _outside_defs(func: Function, cl: CountedLoop) -> Set[VReg]:
    outside: Set[VReg] = set(func.params)
    for block in func.blocks:
        if block.label in cl.loop.body:
            continue
        for instr in block.instrs:
            outside.update(instr.defs())
    return outside


def _check_memory(body, amap: AffineMap,
                  defs_in_loop: Set[VReg]) -> Tuple[ty.Type, Set[str]]:
    """Dependence legality; returns (element type, no-alias base names)."""
    loads = [i for i in body if isinstance(i, ins.Load)]
    stores = [i for i in body if isinstance(i, ins.Store)]
    if not loads and not stores:
        raise _Reject

    contiguous_types: List[ty.Type] = []
    store_forms = []
    for store in stores:
        form = amap.of(store.addr)
        if form is None or form.base is None or \
                form.coeff != ty.sizeof(store.ty):
            raise _Reject
        store_forms.append((store, form))
        contiguous_types.append(store.ty)

    load_forms = []
    order = {id(i): n for n, i in enumerate(body)}
    for load in loads:
        form = amap.of(load.addr)
        if form is None:
            raise _Reject
        if form.coeff == ty.sizeof(load.ty) and form.base is not None:
            contiguous_types.append(load.ty)
            load_forms.append((load, form))
        elif form.coeff == 0:
            load_forms.append((load, form))
        else:
            raise _Reject

    if not contiguous_types:
        raise _Reject
    elem_ty = contiguous_types[0]
    if any(t != elem_ty for t in contiguous_types):
        raise _Reject

    # Same-base store/access constraints.
    for store, sform in store_forms:
        for load, lform in load_forms:
            if lform.base != sform.base:
                continue
            if lform.coeff == 0:
                raise _Reject        # invariant load from a stored base
            if lform.offset != sform.offset:
                raise _Reject        # potential loop-carried dependence
            if order[id(load)] > order[id(store)]:
                raise _Reject        # read-after-write within iteration
        for other, oform in store_forms:
            if other is store:
                continue
            if oform.base == sform.base and oform.offset != sform.offset:
                raise _Reject

    bases: Set[str] = set()
    for _, form in store_forms + load_forms:
        if form.base is not None:
            bases.add(f"%{form.base}")
    return elem_ty, bases


def _check_no_outside_uses(func: Function, cl: CountedLoop, body,
                           accs: List[_AccUpdate]) -> None:
    """Registers defined per-iteration must die inside the loop."""
    allowed = {cl.ivar} | {a.acc for a in accs}
    defined: Set[VReg] = set()
    for instr in body:
        defined.update(instr.defs())
    defined -= allowed
    for block in func.blocks:
        if block.label in cl.loop.body:
            continue
        for instr in block.instrs:
            for reg in instr.uses():
                if reg in defined:
                    raise _Reject

