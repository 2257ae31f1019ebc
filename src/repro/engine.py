"""Execution-engine selection for the VM and the target simulators.

Three engines execute everything in this reproduction:

* ``fast`` (the default) — predecode + closure threading: a one-time
  per-function pass translates the code into a tuple of specialized
  handler closures (opcode, types and operand locations resolved at
  decode time), fed by the type-specialized semantics kernels of
  :mod:`repro.semantics.kernels`.  Functions carrying a hotness
  annotation that clears the adaptive threshold (or an explicit
  ``JITOptions(tier2=True)`` hint) are additionally promoted to the
  tier-2 whole-function compiler below.  Independently of call-entry
  promotion, on-stack replacement (``PVI_OSR``, on by default) lets a
  call already spinning in the block tier enter the tier-2
  translation at a hot loop header — built once the function has
  executed enough block-tier instructions to repay the build
  (:data:`repro.tiers.TIER2_PAYBACK`), and entered at pc 0 by every
  later call — see DESIGN.md §2c.
* ``tier2`` — whole-function translation: the fuel blocks of a
  function are lowered into one generated Python function (virtual
  stack / register file in Python locals, block transfers as real
  control flow), compiled once and cached on the predecoded form.
  Anything the emitter cannot prove deopts back to the block-threaded
  engine at the enclosing block leader, with identical instruction
  and cycle counts.  Selecting ``tier2`` as *the* engine forces the
  promotion for every function (the differential suite runs this way);
  under ``fast`` only hinted functions are promoted.
* ``reference`` — the original string-ladder interpreters
  (``VM._run`` / ``Simulator._call``), kept verbatim as the semantic
  oracle.  The differential suite asserts byte-identical values,
  traps and cycle/instruction counts across all engines.

The process-wide default comes from the ``PVI_ENGINE`` environment
variable; ``VM(..., engine=...)`` and ``Simulator(..., engine=...)``
override it per instance.
"""

from __future__ import annotations

import os
import struct
from typing import Optional, Tuple

FAST = "fast"
REFERENCE = "reference"
TIER2 = "tier2"
ENGINES = (FAST, REFERENCE, TIER2)

#: environment variable naming the process-wide default engine
ENGINE_ENV = "PVI_ENGINE"

#: environment gate for on-stack replacement (default: enabled)
OSR_ENV = "PVI_OSR"

#: environment override for the OSR back-edge promotion threshold
OSR_THRESHOLD_ENV = "PVI_OSR_THRESHOLD"

#: environment gate forcing the tier-2 OSR prologues to keep the
#: per-entry fact guards the static analysis has proven redundant
OSR_GUARDS_ENV = "PVI_OSR_GUARDS"

#: back-edge visits at one loop header between two questions to the
#: payback gate (:meth:`repro.tiers.Predecoded.tier2_repaid`), and
#: between a tier-2 deopt and the re-entry attempt at that header.  It
#: is the *stride* of the default policy, not its trigger: a crossing
#: builds tier-2 only once the function has repaid the build.
DEFAULT_OSR_THRESHOLD = 64


def default_engine() -> str:
    """The engine named by ``PVI_ENGINE`` (``fast`` when unset)."""
    value = os.environ.get(ENGINE_ENV, "").strip().lower()
    if not value:
        return FAST
    if value in ENGINES:
        return value
    raise ValueError(f"{ENGINE_ENV} must be one of {ENGINES}, "
                     f"got {value!r}")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Validate an explicit engine choice; ``None`` means the
    process-wide default."""
    if engine is None:
        return default_engine()
    if engine in ENGINES:
        return engine
    raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


def osr_enabled() -> bool:
    """Is on-stack replacement on for the fast engines?  On by
    default: a call spinning in the block-threaded tier promotes into
    the tier-2 translation at a hot loop header instead of finishing
    the whole call there (and a deopted call can re-enter the same
    way), and a call of an unhinted function whose translation
    already exists starts in it.  ``PVI_OSR=0`` turns the policy off
    process-wide (no mid-call entry, no pc-0 entry of an unhinted
    function);
    ``VM(..., osr=...)`` / ``Simulator(..., osr=...)`` override per
    instance.  Purely a speed policy — instruction/cycle counts and
    traps are identical either way."""
    value = os.environ.get(OSR_ENV, "").strip().lower()
    return value not in ("0", "false", "no", "off")


def keep_osr_guards() -> bool:
    """Should tier-2 OSR prologues keep the per-entry fact guards?

    Off by default: the dataflow plane (:mod:`repro.analysis`) proves
    the facts those guards re-checked — vector-local lane counts for
    the VM, must-written registers for the simulator — hold at *every*
    block-tier program point, so the checks are always true and the
    prologue elides them (counted in ``tier2_build_stats()`` as
    ``guards_elided``).  ``PVI_OSR_GUARDS=1`` keeps the guards
    (counted as ``guards_kept``) — a differential escape hatch: both
    modes must produce byte-identical observations."""
    value = os.environ.get(OSR_GUARDS_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on", "keep")


def osr_threshold(explicit: Optional[int] = None) -> Tuple[int, bool]:
    """``(threshold, gated)``: back-edge visits at a single loop
    header before the running call asks for tier-2 there, and whether
    the answer goes through the payback gate.

    An explicit value — the ``osr_threshold=`` constructor argument,
    else ``PVI_OSR_THRESHOLD`` — means literally "enter at exactly
    this back-edge count": the build is not gated (the differential
    tests and CI force promotion in short loops this way).  With
    neither set, the threshold is :data:`DEFAULT_OSR_THRESHOLD` and a
    crossing only *asks* the gate, which builds once the function has
    spent what the build costs.  Counters reset on every entry, so a
    loop that keeps deopting re-pays the threshold between attempts —
    bounding ping-pong overhead to ``1/threshold``."""
    if explicit is not None:
        return max(1, int(explicit)), False
    value = os.environ.get(OSR_THRESHOLD_ENV, "").strip()
    if not value:
        return DEFAULT_OSR_THRESHOLD, True
    threshold = int(value)
    if threshold < 1:
        raise ValueError(f"{OSR_THRESHOLD_ENV} must be >= 1, "
                         f"got {threshold}")
    return threshold, False


class MeterTrip(Exception):
    """Internal to the fast engines: a block-entry fuel debit crossed
    the limit.  The dispatch loop catches it and hands the block to
    :func:`repro.tiers.replay_metered` (the *metered* path), which
    steps the instructions the fuel still covers and raises the fuel
    trap on exactly the instruction the reference engine would have
    trapped on — and an earlier non-fuel trap inside the block still
    wins, as it would per-instruction."""

    def __init__(self, pc: int):
        super().__init__(pc)
        self.pc = pc


# ---------------------------------------------------------------------------
# shared predecode machinery (used by repro.vm.threaded and
# repro.targets.dispatch — one copy, so the fuel-block partitioning
# and the debit/rollback pattern can never drift between the engines)
# ---------------------------------------------------------------------------

#: 64-bit address mask literal for generated code
MASK64_LITERAL = "0xFFFFFFFFFFFFFFFF"


def fuel_blocks(code) -> dict:
    """leader pc -> block length over a flat instruction list.

    Fuel blocks are maximal straight-line runs: they end at branches,
    ``ret`` *and* ``call`` (inclusive), so a callee's fuel debits
    interleave with the caller's exactly as per-instruction accounting
    would.  Both instruction forms use ``op``/``arg`` identically for
    the ops that matter here.
    """
    n = len(code)
    leaders = {0}
    for index, instr in enumerate(code):
        op = instr.op
        if op in ("br", "brif"):
            target = instr.arg
            if isinstance(target, int) and 0 <= target < n:
                leaders.add(target)
            leaders.add(index + 1)
        elif op in ("ret", "call"):
            leaders.add(index + 1)
    ordered = sorted(leader for leader in leaders if leader < n)
    lengths = {}
    for position, leader in enumerate(ordered):
        end = ordered[position + 1] if position + 1 < len(ordered) else n
        lengths[leader] = end - leader
    return lengths


def backedge_targets(code, blocks) -> frozenset:
    """Block leaders targeted by a backward branch — the loop headers
    a running call may on-stack-replace at.  Shared by both fast
    engines so the candidate sets can never drift."""
    targets = set()
    for src, instr in enumerate(code):
        if instr.op in ("br", "brif") and isinstance(instr.arg, int) \
                and 0 <= instr.arg <= src:
            targets.add(instr.arg)
    return frozenset(targets & set(blocks))


class CodegenEnv:
    """How codegen-time constants appear in generated source: objects
    are named into an exec environment, integers are written out."""

    def __init__(self, env: dict):
        self.env = env

    def bind(self, value, prefix: str = "g") -> str:
        name = f"{prefix}{len(self.env)}"
        self.env[name] = value
        return name

    def lit(self, value) -> str:
        """An integer operand (index, immediate, target, amount)."""
        return repr(value)


# ---------------------------------------------------------------------------
# tier-2 inline expression templates
# ---------------------------------------------------------------------------
#
# The tier-2 whole-function compilers replace semantics-kernel *calls*
# with the kernel's arithmetic inlined as a Python expression wherever
# the result is provably identical for every input — including the
# wrap/sign-decode of out-of-range operands, and IEEE unordered-NaN
# comparison results, which Python's own comparison operators share.
# Ops with trap semantics (integer div/rem, unknown predicates) and
# float division (IEEE zero-divide special cases) keep the kernel
# call.  Templates carry ``{a}``/``{b}`` operand slots; the second
# element of each result marks expressions that cannot raise (f32
# results round through the same struct pack as the kernel, which can
# overflow on absurd inputs, so they stay marked impure).

#: the f32 rounding round-trip the scalar kernels use
_F32_ROUND = struct.Struct("<f")

#: the 4-lane batch round trip the quad vec kernels use
_F32_QUAD = struct.Struct("<4f")


def is_f32_quad(bop: str, elem) -> bool:
    """Is ``vec.<bop>`` over ``elem`` a shape tier-2 inlines as the
    4-lane f32 batch kernel?  The emitters ask before inlining, the
    lane analysis before giving the result a tuple meta."""
    from repro.lang import types as ty
    return isinstance(elem, ty.FloatType) and elem.bits == 32 \
        and bop in ("add", "sub", "mul", "min", "max")


_ARITH_SYMS = {"add": "+", "sub": "-", "mul": "*"}
_BIT_SYMS = {"and": "&", "or": "|", "xor": "^"}
_CMP_SYMS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
             "gt": ">", "ge": ">="}


def _int_wrap(core: str, int_ty) -> str:
    """Wrap ``core`` into ``int_ty``'s range exactly like the kernels:
    mask, then sign-decode via the xor trick for signed types."""
    mask = (1 << int_ty.bits) - 1
    if int_ty.signed:
        sign = 1 << (int_ty.bits - 1)
        return f"(((({core}) & {mask}) ^ {sign}) - {sign})"
    return f"(({core}) & {mask})"


def inline_binop(op: str, value_ty, env: "CodegenEnv"):
    """``(template, pure)`` inlining the binop kernel for
    ``value_ty``, or ``None`` when the op must stay a kernel call."""
    from repro.lang import types as ty
    if isinstance(value_ty, ty.IntType):
        mask = (1 << value_ty.bits) - 1
        sm = value_ty.bits - 1
        if op in _ARITH_SYMS:
            return _int_wrap(f"{{a}} {_ARITH_SYMS[op]} {{b}}",
                             value_ty), True
        if op in _BIT_SYMS:
            core = f"({{a}} & {mask}) {_BIT_SYMS[op]} ({{b}} & {mask})"
            if value_ty.signed:
                return _int_wrap(core, value_ty), True
            return f"({core})", True       # masked operands: in range
        if op == "shl":
            return _int_wrap(f"{{a}} << ({{b}} & {sm})", value_ty), True
        if op == "shr":
            if value_ty.signed:
                return _int_wrap(f"{{a}} >> ({{b}} & {sm})",
                                 value_ty), True
            return f"(({{a}} & {mask}) >> ({{b}} & {sm}))", True
        if op in ("min", "max"):
            return _int_wrap(f"{op}({{a}}, {{b}})", value_ty), True
        return None                        # div/rem trap on zero
    if isinstance(value_ty, ty.FloatType):
        if op in _ARITH_SYMS:
            core = f"{{a}} {_ARITH_SYMS[op]} {{b}}"
        elif op in ("min", "max"):
            core = f"{op}({{a}}, {{b}})"
        else:
            return None                    # div: IEEE special cases
        if value_ty.bits == 32:
            p = env.bind(_F32_ROUND.pack, "p")
            u = env.bind(_F32_ROUND.unpack, "u")
            return f"{u}({p}({core}))[0]", False
        return f"({core})", True
    return None


def inline_cmp(pred: str, value_ty):
    """A pure template inlining the cmp kernel, or ``None`` for
    predicates the kernel traps on."""
    from repro.lang import types as ty
    sym = _CMP_SYMS.get(pred)
    if sym is None:
        return None
    if isinstance(value_ty, ty.IntType) and not value_ty.signed:
        mask = (1 << value_ty.bits) - 1
        return (f"(1 if (({{a}}) & {mask}) {sym} (({{b}}) & {mask}) "
                f"else 0)")
    # Signed ints compare directly; Python float comparisons share
    # IEEE's unordered-NaN results (all False except ``!=``), exactly
    # the kernel's NaN handling.
    return f"(1 if ({{a}}) {sym} ({{b}}) else 0)"


def inline_cast(from_ty, to_ty, env: "CodegenEnv"):
    """``(template, pure)`` inlining a non-identity cast kernel, or
    ``None`` (float->int keeps the kernel: NaN/inf special cases)."""
    from repro.lang import types as ty
    if isinstance(to_ty, ty.IntType):
        if isinstance(from_ty, ty.IntType):
            return _int_wrap("{a}", to_ty), True
        return None
    if not isinstance(to_ty, ty.FloatType):
        return None
    if to_ty.bits == 32:
        p = env.bind(_F32_ROUND.pack, "p")
        u = env.bind(_F32_ROUND.unpack, "u")
        return f"{u}({p}(float({{a}})))[0]", False
    return "(float({a}))", False       # float(huge int) can overflow


def inline_unop(op: str, value_ty, env: "CodegenEnv"):
    """``(template, pure)`` inlining the unop kernel, or ``None``."""
    from repro.lang import types as ty
    if isinstance(value_ty, ty.IntType):
        if op == "neg":
            return _int_wrap("-({a})", value_ty), True
        if op == "not":
            return _int_wrap("~({a})", value_ty), True
        return None
    if op != "neg" or not isinstance(value_ty, ty.FloatType):
        return None
    if value_ty.bits == 32:
        p = env.bind(_F32_ROUND.pack, "p")
        u = env.bind(_F32_ROUND.unpack, "u")
        return f"{u}({p}(-({{a}})))[0]", False
    return "(-({a}))", True


def normalize_branch_target(target, n: int):
    """Clamp an out-of-range branch target to ``n`` (the tail handler,
    which raises the fell-off-code-end trap).

    Machine code has no verifier, so malformed targets must not slip
    through the fast engine's ``pc >= 0`` dispatch check: a negative
    target would silently end the call and a target past the tail
    would IndexError.  Both reference ladders trap out-of-range pcs
    with "fell off code end", so redirecting to the tail preserves
    exact trap parity.  Non-int targets pass through untouched — they
    fail at dispatch time in both engines.
    """
    if isinstance(target, int) and not 0 <= target <= n:
        return n
    return target
