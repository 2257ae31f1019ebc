"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend import lower_source
from repro.ir.function import Module
from repro.ir.interp import IRInterpreter
from repro.ir.verify import verify_function
from repro.lang import types as ty
from repro.semantics import Memory


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


def sources_digest(sources: Dict[Tuple[str, str, str, str], str]):
    """``(sha256, {filename tag: (sources, lines)}, prints)`` of a
    :func:`generated_sources` capture, in key order.  ``prints`` holds
    two hex digits per source: enough to name the first source that
    moved, which the one digest cannot."""
    digest = hashlib.sha256()
    tags: Dict[str, List[int]] = {}
    prints = []
    for key in sorted(sources):
        text = ("\0".join(key) + "\0" + sources[key] + "\0").encode()
        digest.update(text)
        prints.append(hashlib.sha256(text).hexdigest()[:2])
        count = tags.setdefault(key[3][1:].split(":")[0], [0, 0])
        count[0] += 1
        count[1] += sources[key].count("\n") + 1
    return (digest.hexdigest(),
            {tag: tuple(count) for tag, count in sorted(tags.items())},
            "".join(prints))
