"""Execution-engine selection for the VM and the target simulators.

Three engines execute everything in this reproduction:

* ``fast`` (the default) — predecode + closure threading: a one-time
  per-function pass translates the code into a tuple of specialized
  handler closures (opcode, types and operand locations resolved at
  decode time), fed by the type-specialized semantics kernels of
  :mod:`repro.semantics.kernels`.  Functions carrying a hotness
  annotation that clears the adaptive threshold (one rule for both
  engines: :func:`repro.flows.promotes_to_tier2`) are additionally
  promoted to the tier-2 whole-function compiler below.
  Independently of call-entry promotion, on-stack replacement
  (``PVI_OSR``, on by default) lets a call already spinning in the
  block tier enter the tier-2 translation at a hot loop header —
  built once the function has executed enough block-tier
  instructions to repay the build (:data:`repro.tiering.TIER2_PAYBACK`),
  and entered at pc 0 by every later call — see DESIGN.md §2c.
* ``tier2`` — whole-function translation: the fuel blocks of a
  function are lowered into one generated Python function (virtual
  stack / register file in Python locals, block transfers as real
  control flow, kernel calls replaced by the expression templates the
  kernels are compiled from), compiled once and cached on the
  predecoded form.
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

Besides engine selection this module holds what the two fast engines
share below the tier scaffold: the fuel-block partition, the OSR
candidate set, :class:`MeterTrip`, :class:`CodegenEnv` and branch
target normalization.  What an op computes lives in
:mod:`repro.semantics.kernels`.
"""

from __future__ import annotations

import operator
import os
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
#: payback gate (:meth:`repro.tiering.Predecoded.tier2_repaid`), and
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
    :func:`repro.tiering.replay_metered` (the *metered* path), which
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


def backward_branches(code):
    """``(target, src)`` of every ``br`` / ``brif`` at ``src`` to an
    int ``target`` at or before it: the spans a loop iterates over."""
    for src, instr in enumerate(code):
        if instr.op in ("br", "brif") and isinstance(instr.arg, int) \
                and 0 <= instr.arg <= src:
            yield instr.arg, src


def backedge_targets(code, blocks) -> frozenset:
    """Block leaders targeted by a backward branch — the loop headers
    a running call may on-stack-replace at.  Shared by both fast
    engines so the candidate sets can never drift."""
    return frozenset(target for target, _ in backward_branches(code)
                     if target in blocks)


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


def branch_target(target, code):
    """Where a branch to ``target`` in ``code`` lands, as the reference
    ladders dispatch it, or the exception they raise on the way.

    Machine code has no verifier: a negative target must not end the
    call silently through the fast engine's ``pc >= 0`` check, nor one
    past the tail IndexError.  Both ladders trap an out-of-range ``pc``
    with "fell off code end", so it lands on ``len(code)``, the tail
    handler, which raises that trap.  A target that is no int meets
    the same range test, then the ladders' fetch ``code[pc]``: what
    either raises is returned for a taken branch to raise, as ``(exc,
    fetched)`` — ``fetched`` when the range test passed and the fetch
    raised (``1.5``, not ``"x"``), which a ladder that counts an
    instruction before fetching it has counted.
    """
    n = len(code)
    try:
        if target >= n or target < 0:
            return n
    except Exception as exc:
        return exc, False
    try:
        code[target]
    except Exception as exc:
        return exc, True
    return operator.index(target)
