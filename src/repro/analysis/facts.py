"""Proven-facts tables: the cacheable product of the dataflow plane.

:class:`FunctionFacts` is one analysis run per function, as a
plain-data, picklable record.  Two kinds:

* ``"bytecode"`` — the lint plane, read by the admission gate and
  ``pvi-lint``: the fuel-block map and which leaders are reachable,
  integer value ranges, maybe-uninitialized reads, dead stores, and
  range-derived findings (null-page accesses, constant branches).
* ``"machine"`` — what the simulator's tier-2 build reads: the
  must-written register sets per leader
  (``written_at_entry``/``param_regs``), a function of the JIT's
  output on the device and computed there.

What the *VM's* tier-2 build reads is not here: that table ships in
the bytecode (:class:`repro.bytecode.annotations.LaneFactsAnnotation`)
and a build that finds none runs the lane walk alone, never this
plane.

Facts ride the function object as ``_pvi_facts_cache = (token,
facts)`` keyed by ``[FACTS_SCHEMA] + content_token()`` — the same
invalidate-by-content discipline as the predecode cache.  Unlike the
predecode (whose closures must be stripped at process seams), facts
are pure data and survive pickling.

A function the analysis cannot finish (a pass raising outside a
block walk) caches ``None``: callers treat that as "no proofs
available" — the simulator's tier-2 declines and stays on the
always-correct block tier, the lint reports the function unanalyzed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import BlockCFG
from repro.analysis import passes

#: bumped whenever the facts payload shape or any producing analysis
#: changes meaning (3: the VM tier-2 fields left for the bytecode's
#: ``LaneFactsAnnotation``).  Nothing persists a table any more, so
#: this only separates planes that could share a pickled function.
FACTS_SCHEMA = 3


@dataclass
class FunctionFacts:
    """Plain-data analysis results for one function (either form)."""
    kind: str                       # "bytecode" | "machine"
    name: str
    blocks: Dict[int, int] = field(default_factory=dict)
    reachable: frozenset = frozenset()
    # -- machine tier-2 facts -----------------------------------------------
    param_regs: frozenset = frozenset()
    written_at_entry: Dict[int, frozenset] = field(default_factory=dict)
    # -- lint-plane facts ---------------------------------------------------
    ranges: Dict[int, Dict[int, Tuple]] = field(default_factory=dict)
    range_notes: List[Tuple] = field(default_factory=list)
    maybe_uninit: List[Tuple[int, int]] = field(default_factory=list)
    dead_stores: List[Tuple[int, int]] = field(default_factory=list)

    def dead_blocks(self) -> List[int]:
        """Leaders no internal edge from the entry reaches."""
        return sorted(set(self.blocks) - set(self.reachable))


@dataclass
class FactsTable:
    """Facts for every function of a module, by name.  ``None`` marks
    a function the analysis declined (the lint says so)."""
    kind: str
    functions: Dict[str, Optional[FunctionFacts]] = field(
        default_factory=dict)

    def get(self, name: str) -> Optional[FunctionFacts]:
        return self.functions.get(name)


def analyze_bytecode_function(func) -> Optional[FunctionFacts]:
    """Run every bytecode-side analysis; ``None`` if the plane itself
    fails (never for ordinary malformed blocks — those just abort
    their own block walk and leave partial, still-sound facts)."""
    try:
        cfg = BlockCFG(func.code)
        ranges = int_ranges_safe(func, cfg)
        stored = passes.must_stored_at_entry(func, cfg)
        live = passes.live_at_block_exit(func, cfg)
        return FunctionFacts(
            kind="bytecode",
            name=func.name,
            blocks=dict(cfg.blocks),
            reachable=cfg.reachable(),
            ranges=ranges,
            range_notes=passes.range_findings(func, cfg, ranges),
            maybe_uninit=passes.maybe_uninit_reads(func, cfg, stored),
            dead_stores=passes.dead_stores(func, cfg, live),
        )
    except Exception:
        return None


def int_ranges_safe(func, cfg) -> Dict[int, Dict[int, Tuple]]:
    """Value ranges are lint-only; never let them sink the table."""
    try:
        return passes.int_value_ranges(func, cfg)
    except Exception:
        return {}


def analyze_machine_function(func) -> Optional[FunctionFacts]:
    try:
        cfg = BlockCFG(func.code)
        param_regs = passes.machine_param_regs(func)
        return FunctionFacts(
            kind="machine",
            name=func.name,
            blocks=dict(cfg.blocks),
            reachable=cfg.reachable(),
            param_regs=param_regs,
            written_at_entry=passes.written_at_block_entry(
                func.code, cfg, param_regs),
        )
    except Exception:
        return None


def _cached_facts(func, analyze):
    """``(facts_or_None, fresh)``, cached on ``func`` keyed by content
    token."""
    token = [FACTS_SCHEMA] + func.content_token()
    cached = getattr(func, "_pvi_facts_cache", None)
    if cached is not None and cached[0] == token:
        return cached[1], False
    facts = analyze(func)
    func._pvi_facts_cache = (token, facts)
    return facts, True


def bytecode_facts(func):
    """``(facts_or_None, fresh)`` for a ``BytecodeFunction``.  No
    analysis looks at what a ``call`` resolves to, so one entry serves
    every module the function appears in."""
    return _cached_facts(func, analyze_bytecode_function)


def machine_facts(func):
    """``(facts_or_None, fresh)`` for a ``CompiledFunction``."""
    return _cached_facts(func, analyze_machine_function)


def module_facts(module) -> FactsTable:
    """Facts for every function of a ``BytecodeModule`` (the shape the
    admission gate and ``pvi-lint`` consume)."""
    table = FactsTable(kind="bytecode")
    for func in module.functions.values():
        table.functions[func.name], _ = bytecode_facts(func)
    return table
