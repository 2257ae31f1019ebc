"""Bytecode module and function containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bytecode.opcodes import BCInstr

#: Local slot type descriptor: a scalar tag ("i32"), or "v128:<elem>"
#: for vector locals.
LocalType = str


def vector_local(elem_tag: str) -> str:
    return f"v128:{elem_tag}"


def is_vector_local(local_ty: LocalType) -> bool:
    return local_ty.startswith("v128:")


def vector_elem_tag(local_ty: LocalType) -> str:
    assert is_vector_local(local_ty)
    return local_ty.split(":", 1)[1]


@dataclass
class FrameSlotInfo:
    name: str
    size: int
    align: int


@dataclass
class BytecodeFunction:
    name: str
    param_types: List[LocalType]
    ret_type: Optional[LocalType]          # None = void
    local_types: List[LocalType] = field(default_factory=list)
    frame_slots: List[FrameSlotInfo] = field(default_factory=list)
    code: List[BCInstr] = field(default_factory=list)

    @property
    def num_params(self) -> int:
        return len(self.param_types)

    def frame_size(self) -> int:
        """Total laid-out frame size (16-byte aligned)."""
        offset = 0
        for slot in self.frame_slots:
            offset = (offset + slot.align - 1) // slot.align * slot.align
            offset += slot.size
        return (offset + 15) // 16 * 16

    def frame_offsets(self) -> List[int]:
        offsets = []
        offset = 0
        for slot in self.frame_slots:
            offset = (offset + slot.align - 1) // slot.align * slot.align
            offsets.append(offset)
            offset += slot.size
        return offsets

    # -- predecode cache hook -------------------------------------------------
    #
    # The fast execution engine (repro.vm.threaded) translates ``code``
    # into handler closures once and parks the result here, keyed by a
    # cheap structural token so in-place edits (peephole rewrites,
    # hand-mutation in tests) invalidate it by content.  The cache
    # rides on the function object, so every VM over the same module
    # (or over another unfrozen module sharing the function object)
    # reuses one predecode.
    #
    # A *frozen* module's predecode additionally binds call targets
    # (the callee function objects) directly into the handlers, so the
    # entry also records which module it was resolved against; a VM
    # over a different module misses and rebuilds instead of running
    # another module's callees.

    #: bumped whenever the predecode payload shape changes (e.g. the
    #: OSR entry-point set added alongside the handler table, or the
    #: dataflow-plane facts the tier-2 translation is generated
    #: under), so externally persisted tokens from older schemas never
    #: validate.  The analysis plane's facts cache keys through this
    #: token too (``[FACTS_SCHEMA] + content_token()``).
    PREDECODE_SCHEMA = 3

    def content_token(self) -> List:
        """Structural identity of everything the predecode bakes in:
        the code, plus the signature/frame/local layout it derives
        defaults and offsets from, and the payload schema version.
        Any in-place edit changes it."""
        return [self.PREDECODE_SCHEMA,
                tuple(self.param_types), self.ret_type,
                tuple(self.local_types),
                [(s.name, s.size, s.align) for s in self.frame_slots],
                [(i.op, i.ty, i.arg) for i in self.code]]

    def cached_predecode(self, token, module=None):
        cached = getattr(self, "_predecode_cache", None)
        if cached is not None and cached[0] == token and \
                cached[1] is module:
            return cached[2]
        return None

    def store_predecode(self, token, payload, module=None) -> None:
        self._predecode_cache = (token, module, payload)


@dataclass
class BytecodeModule:
    name: str = "module"
    functions: Dict[str, BytecodeFunction] = field(default_factory=dict)
    annotations: List = field(default_factory=list)

    #: frozen = the function table and code will not change in place;
    #: the fast engine may resolve call targets once at predecode time
    #: (per-call inline caching) instead of per executed call.
    _frozen: bool = field(default=False, repr=False, compare=False)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "BytecodeModule":
        """Declare the module immutable from here on.  The offline
        compiler freezes its outputs; anything that still wants to
        edit code in place (tests, tools) just never freezes."""
        self._frozen = True
        return self

    def add(self, func: BytecodeFunction) -> BytecodeFunction:
        if self._frozen:
            raise ValueError(f"module {self.name!r} is frozen")
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def __getitem__(self, name: str) -> BytecodeFunction:
        return self.functions[name]

    def __iter__(self):
        return iter(self.functions.values())

    def annotations_for(self, func_name: str, kind=None) -> List:
        found = [a for a in self.annotations if a.function == func_name]
        if kind is not None:
            found = [a for a in found if isinstance(a, kind)]
        return found

    def max_hotness(self, func_name: str) -> Optional[int]:
        """The largest hotness weight annotated for ``func_name``, or
        ``None`` when the profile never mentions it.  ``None`` and
        ``0`` differ deliberately: an unprofiled function carries no
        evidence either way, a zero-weight one is known cold — the
        tier-2 promotion gate treats only the latter as a verdict."""
        from repro.bytecode.annotations import HotnessAnnotation
        weights = [a.weight for a in self.annotations_for(
            func_name, HotnessAnnotation)]
        return max(weights) if weights else None
