"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bytecode.encode import decode_module, encode_module
from repro.bytecode.module import BytecodeFunction
from repro.bytecode.opcodes import ALL_OPS, BCInstr, CMP_PREDS, TYPE_TAGS
from repro.bytecode.verifier import verify_module
from repro.frontend import lower_source
from repro.ir.function import Module
from repro.ir.interp import IRInterpreter
from repro.ir.verify import verify_function
from repro.lang import types as ty
from repro.semantics import Memory


#: the decoder's documented rejection surface — anything else leaking
#: out of ``decode_module`` on corrupt bytes is a bug (the byte fuzzer
#: and the hostile-annotation test both hold it to this)
DECODE_REJECTIONS = (ValueError, KeyError, IndexError, OverflowError,
                     struct.error, UnicodeDecodeError)


def lower_checked(source: str) -> Module:
    """Lower MiniC source and verify every resulting function."""
    module = lower_source(source)
    for func in module:
        verify_function(func)
    return module


def run_ir(source: str, name: str, args: Sequence,
           arrays: Optional[Dict[str, Tuple[ty.Type, List]]] = None):
    """Compile ``source``, allocate named arrays, call ``name``.

    ``arrays`` maps argument placeholders to ``(elem_ty, values)``; the
    placeholder string appearing in ``args`` is replaced by the
    allocated address.  Returns ``(result, memory, addresses)``.
    """
    module = lower_checked(source)
    memory = Memory()
    addresses: Dict[str, int] = {}
    if arrays:
        for key, (elem_ty, values) in arrays.items():
            addresses[key] = memory.alloc_array(elem_ty, values)
    concrete = [addresses.get(a, a) if isinstance(a, str) else a
                for a in args]
    interp = IRInterpreter(module, memory)
    result = interp.call(name, concrete)
    return result, memory, addresses


def corpus_sources() -> Dict[str, str]:
    """name -> MiniC source of ``ALL_KERNELS`` and ``REGALLOC_CORPUS``:
    the 16 programs the compiler tests and digests run over."""
    from repro.workloads import ALL_KERNELS, REGALLOC_CORPUS
    return {**{name: kernel.source
               for name, kernel in ALL_KERNELS.items()},
            **REGALLOC_CORPUS}


#: what an edit draws from when it does not borrow from a neighbour:
#: locals in and out of range, predicates, tags, a reduce pair, and
#: values no operand, tag or opcode may be
OPERANDS = [0, 1, 7, 99, -1, 2.5, None, "x", ("mul", "f32"),
            *CMP_PREDS, *TYPE_TAGS]
TAGS = [*TYPE_TAGS, None, "bogus"]
OPS = [*ALL_OPS, "bogus"]


def mutate(func: BytecodeFunction, rng: random.Random) -> BytecodeFunction:
    """One or two instruction-level edits: opcode, type tag or
    operand replaced (by another instruction's, three times in four,
    so that some mutants still verify); two instructions swapped; one
    deleted; one duplicated."""
    code = [BCInstr(i.op, i.ty, i.arg) for i in func.code]

    def draw(field, pool):
        if rng.randrange(4):
            return getattr(rng.choice(code), field)
        return rng.choice(pool)

    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(code))
        edit = rng.randrange(6)
        if edit == 0:
            code[at].op = draw("op", OPS)
        elif edit == 1:
            code[at].ty = draw("ty", TAGS)
        elif edit == 2:
            code[at].arg = draw("arg", OPERANDS)
        elif edit == 3:
            other = rng.randrange(len(code))
            code[at], code[other] = code[other], code[at]
        elif edit == 4 and len(code) > 1:
            del code[at]
        else:
            code.insert(at, BCInstr(code[at].op, code[at].ty,
                                    code[at].arg))
    return BytecodeFunction(func.name, list(func.param_types),
                            func.ret_type, list(func.local_types),
                            list(func.frame_slots), code)


def admit(module):
    """``module`` as a device would receive it (off the wire, then
    verified), or ``None``: hand-built instructions can hold operands
    no encoding has, which the verifier does not look at."""
    try:
        module = decode_module(encode_module(module))
        verify_module(module)
    except Exception:           # garbage in, any rejection out
        return None
    return module


#: the flows :func:`generated_sources` deploys under
DIGEST_FLOWS = ("split", "online-only")


def render_hole(value) -> str:
    """A hole value as the digest sees it: numbers, strings and
    rollback line tables by value; objects (kernels, struct methods,
    callees) by type, as their reprs hold addresses."""
    if isinstance(value, dict):
        return repr(sorted(value.items()))
    if isinstance(value, (int, float, str)):
        return repr(value)
    return f"<{type(value).__name__}>"


def generated_sources() -> Dict[Tuple[str, str, str, str], str]:
    """Everything the tier scaffold generates over ``ALL_KERNELS`` x
    :data:`DIGEST_FLOWS` x ``target_names()``, both engines (the
    wasm32 stack image runs on the VM), keyed by ``(kernel, flow,
    target, filename)``.  A tier-2 source is captured where it is
    compiled.  The block tier compiles no per-function source: each
    block is captured where it is *instantiated* — so the capture
    holds every block whatever the template memo already held, in any
    test order — as its label, its template text and one
    ``# h<k> = value`` line per hole (:func:`render_hole`); a
    function's blocks are joined in build order under the filename
    its source used to carry.  One-instruction steps (``name@pc``
    labels) are built on demand by traps, not by predecode, and are
    left out."""
    from repro import tiers
    from repro.core import deploy, offline_compile
    from repro.targets import dispatch, target_names
    from repro.vm import threaded
    from repro.workloads import ALL_KERNELS

    captured: Dict[Tuple[str, str, str, str], str] = {}
    where: List[str] = []

    def spy(source, filename, mode):
        if filename.startswith("<pvi") and "-t2:" in filename:
            captured[(*where, filename)] = source
        return compile(source, filename, mode)

    real_instance = tiers.Lowering.instance

    def instance(low, text, holes, label):
        if "@" not in label:
            key = (*where, f"<{low.tags[0]}:{low.name}>")
            captured[key] = captured.get(key, "") + "\n".join(
                [f"# {label}", text,
                 *(f"# {name} = {render_hole(value)}"
                   for name, value in holes.items()), ""])
        return real_instance(low, text, holes, label)

    tiers.compile = spy             # shadows the builtin in ``tiers``
    tiers.Lowering.instance = instance
    try:
        for name, kernel in ALL_KERNELS.items():
            artifact = offline_compile(kernel.source, name)
            for flow in DIGEST_FLOWS:
                for target in target_names():
                    where[:] = [name, flow, target]
                    image = deploy(artifact, target, flow)
                    module = getattr(image, "module", None)
                    if module is not None:      # a stack image
                        predecode, image = threaded.predecode, module
                    else:
                        predecode = dispatch.predecode_machine
                    for func in image.functions.values():
                        predecode(func, image).tier2()
    finally:
        del tiers.compile
        tiers.Lowering.instance = real_instance
    return captured


def keyed_digest(texts: Dict[Tuple[str, ...], str]) -> Tuple[str, str]:
    """``(sha256, prints)`` of a ``{key tuple: text}`` capture, in key
    order.  ``prints`` holds two hex digits per entry: enough to name
    the first entry that moved, which the one digest cannot."""
    digest = hashlib.sha256()
    prints = []
    for key in sorted(texts):
        text = ("\0".join(key) + "\0" + texts[key] + "\0").encode()
        digest.update(text)
        prints.append(hashlib.sha256(text).hexdigest()[:2])
    return digest.hexdigest(), "".join(prints)


def first_moved(texts: Dict[Tuple[str, ...], str], prints: str,
                pinned: str) -> Optional[Tuple[str, ...]]:
    """The first key of ``texts`` whose print differs from ``pinned``."""
    return next((key for index, key in enumerate(sorted(texts))
                 if prints[2 * index:2 * index + 2]
                 != pinned[2 * index:2 * index + 2]), None)


def sources_digest(sources: Dict[Tuple[str, str, str, str], str]):
    """``(sha256, {filename tag: (sources, lines)}, prints)`` of a
    :func:`generated_sources` capture (:func:`keyed_digest`)."""
    tags: Dict[str, List[int]] = {}
    for key in sorted(sources):
        count = tags.setdefault(key[3][1:].split(":")[0], [0, 0])
        count[0] += 1
        count[1] += sources[key].count("\n") + 1
    sha, prints = keyed_digest(sources)
    return (sha,
            {tag: tuple(count) for tag, count in sorted(tags.items())},
            prints)


def jit_outputs() -> Dict[Tuple[str, str, str], str]:
    """Every modeled output of both compilers over ``ALL_KERNELS`` and
    ``REGALLOC_CORPUS`` x every registered flow x ``target_names()``:
    16 functions x 5 flows x 7 targets = 560 images, keyed ``(function,
    flow, target)``, each rendered as its work and size totals and
    every machine instruction ``(op, ty, dst, srcs, arg, cost, size)``
    (a stack image has no machine code: totals only).  Each artifact
    the images were deployed from (one per distinct pipeline of the
    flows) is an entry ``(function, pipeline label, "offline")``:
    ``offline_work``, the sha256 of both bytecode flavours' encoded
    bytes, and per-pass ``PassStats.summary_dict()`` without times.
    Nothing rendered depends on time, addresses or hash order."""
    from repro.bytecode.encode import encode_module
    from repro.core import deploy, offline_compile
    from repro.flows import registered_flows
    from repro.targets import target_names

    out: Dict[Tuple[str, str, str], str] = {}
    for name, source in corpus_sources().items():
        artifacts = {}
        for flow in registered_flows():
            artifact = artifacts.get(flow.pipeline)
            if artifact is None:
                artifact = artifacts[flow.pipeline] = offline_compile(
                    source, name, pipeline=flow.pipeline)
                lines = [f"offline_work {artifact.offline_work}"]
                for flavour in (artifact.bytecode,
                                artifact.scalar_bytecode):
                    wire = encode_module(flavour)
                    lines.append(f"{len(wire)} "
                                 f"{hashlib.sha256(wire).hexdigest()}")
                for row in artifact.pass_stats.summary_dict().items():
                    row[1].pop("time")
                    lines.append(repr(row))
                out[name, flow.pipeline.label(), "offline"] = \
                    "\n".join(lines)
            for target in target_names():
                image = deploy(artifact, target, flow)
                lines = [f"jit_work {image.total_jit_work} analysis "
                         f"{image.total_jit_analysis_work} code_bytes "
                         f"{image.total_code_bytes} passes "
                         f"{sorted(image.total_jit_pass_work.items())}"]
                for func in image.functions.values():
                    lines.append(
                        f"{func.name}: spills {func.spill_slot_count} "
                        f"frame {getattr(func, 'frame_bytes', None)} "
                        f"params {getattr(func, 'param_locs', None)}")
                    lines.extend(
                        repr((i.op, i.ty, i.dst, i.srcs, i.arg, i.cost,
                              i.size))
                        for i in getattr(func, "code", ()))
                out[name, flow.name, target] = "\n".join(lines)
    return out
