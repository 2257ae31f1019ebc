"""Proven-facts tables: the cacheable product of the dataflow plane.

The paper's split puts expensive analysis on the offline side and
leaves the runtime a cheap consumer; :class:`FunctionFacts` is the
interface between the two.  One analysis run per function produces a
plain-data, picklable record of everything the tier-2 emitters and
the lint plane need:

* the fuel-block map and which leaders are reachable,
* the VM lane/tuple fixpoint (``tuple_locals``/``lane_locals``) and
  every memory access width (``access_widths``, the superset codegen
  hoists ``_ms - width`` limits from),
* the machine must-written register sets per leader
  (``written_at_entry``/``param_regs``),
* lint-plane facts: integer value ranges, maybe-uninitialized reads,
  dead stores, and range-derived findings (null-page accesses,
  constant branches).

Facts ride the function object as ``_pvi_facts_cache = (token,
facts)`` keyed by ``[FACTS_SCHEMA] + content_token()`` — the same
invalidate-by-content discipline as the predecode cache, and like the
predecode schema, :data:`FACTS_SCHEMA` participates so persisted
tables from an older analysis plane never validate.  Unlike the
predecode (whose closures must be stripped at process seams), facts
are pure data and survive pickling through ``ProcessExecutor``.

A function the analysis cannot finish (a pass raising outside a
block walk) caches ``None``: callers treat that as "no proofs
available" — tier-2 declines and stays on the always-correct block
tier.  A table that reaches a function from outside (a sidecar
revived from disk) is not trusted for being here: the tier-2 pass
that consumes it validates it (:class:`repro.analysis.passes.LaneRules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import BlockCFG
from repro.analysis import passes

#: bumped whenever the facts payload shape or any producing analysis
#: changes meaning, so stale cached tables never validate (2: the lane
#: walk continues past an instruction whose lowering raises, so a
#: malformed block's table may be a superset of schema 1's)
FACTS_SCHEMA = 2


@dataclass
class FunctionFacts:
    """Plain-data analysis results for one function (either form)."""
    kind: str                       # "bytecode" | "machine"
    name: str
    blocks: Dict[int, int] = field(default_factory=dict)
    reachable: frozenset = frozenset()
    # -- VM tier-2 facts ----------------------------------------------------
    tuple_locals: frozenset = frozenset()
    lane_locals: Dict[int, int] = field(default_factory=dict)
    access_widths: frozenset = frozenset()
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
    a function the analysis declined (no proofs; tier-2 stays off)."""
    kind: str
    functions: Dict[str, Optional[FunctionFacts]] = field(
        default_factory=dict)

    def get(self, name: str) -> Optional[FunctionFacts]:
        return self.functions.get(name)


def _facts_token(func) -> List:
    return [FACTS_SCHEMA] + func.content_token()


def _cached(func, token):
    cached = getattr(func, "_pvi_facts_cache", None)
    if cached is not None and cached[0] == token:
        return cached
    return None


def analyze_bytecode_function(func) -> Optional[FunctionFacts]:
    """Run every bytecode-side analysis; ``None`` if the plane itself
    fails (never for ordinary malformed blocks — those just abort
    their own block walk and leave partial, still-sound facts)."""
    try:
        cfg = BlockCFG(func.code)
        tuple_locals, lane_locals, widths = passes.lane_fixpoint(func)
        ranges = int_ranges_safe(func, cfg)
        stored = passes.must_stored_at_entry(func, cfg)
        live = passes.live_at_block_exit(func, cfg)
        return FunctionFacts(
            kind="bytecode",
            name=func.name,
            blocks=dict(cfg.blocks),
            reachable=cfg.reachable(),
            tuple_locals=tuple_locals,
            lane_locals=lane_locals,
            access_widths=widths,
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


def bytecode_facts(func):
    """``(facts_or_None, fresh)`` for a ``BytecodeFunction``, cached on
    the function keyed by content token.  No analysis looks at what a
    ``call`` resolves to, so one entry serves every module the
    function appears in."""
    token = _facts_token(func)
    cached = _cached(func, token)
    if cached is not None:
        return cached[1], False
    facts = analyze_bytecode_function(func)
    func._pvi_facts_cache = (token, facts)
    return facts, True


def machine_facts(func):
    """``(facts_or_None, fresh)`` for a ``CompiledFunction``."""
    token = _facts_token(func)
    cached = _cached(func, token)
    if cached is not None:
        return cached[1], False
    facts = analyze_machine_function(func)
    func._pvi_facts_cache = (token, facts)
    return facts, True


def module_facts(module) -> FactsTable:
    """Facts for every function of a ``BytecodeModule`` (the shape the
    admission gate and ``pvi-lint`` consume)."""
    table = FactsTable(kind="bytecode")
    for func in module.functions.values():
        table.functions[func.name], _ = bytecode_facts(func)
    return table


# ---------------------------------------------------------------------------
# wire form (artifact-cache persistence)
# ---------------------------------------------------------------------------
#
# Facts ride persisted artifacts so a warm service start skips the
# analysis plane entirely.  The encoding is *canonical* JSON-able
# data — every set sorted, every mapping emitted in key order — so
# serializing the same facts twice (or facts revived from disk) is
# byte-for-byte deterministic, which the artifact cache's roundtrip
# identity relies on.  ``±inf`` range bounds survive as JSON
# Infinity literals (the stdlib encoder emits and re-reads them).

def facts_to_wire(facts: Optional[FunctionFacts]) -> Optional[Dict]:
    """Canonical plain-data form of one function's facts (``None``
    marks a declined function and round-trips as such)."""
    if facts is None:
        return None
    return {
        "kind": facts.kind,
        "name": facts.name,
        "blocks": [[k, v] for k, v in sorted(facts.blocks.items())],
        "reachable": sorted(facts.reachable),
        "tuple_locals": sorted(facts.tuple_locals),
        "lane_locals": [[k, v]
                        for k, v in sorted(facts.lane_locals.items())],
        "access_widths": sorted(facts.access_widths),
        "param_regs": sorted(facts.param_regs),
        "written_at_entry": [[k, sorted(v)] for k, v in
                             sorted(facts.written_at_entry.items())],
        "ranges": [[leader, [[i, list(bounds)] for i, bounds in
                             sorted(entry.items())]]
                   for leader, entry in sorted(facts.ranges.items())],
        "range_notes": [list(note) for note in facts.range_notes],
        "maybe_uninit": [list(p) for p in facts.maybe_uninit],
        "dead_stores": [list(p) for p in facts.dead_stores],
    }


def facts_from_wire(wire: Optional[Dict]) -> Optional[FunctionFacts]:
    if wire is None:
        return None
    return FunctionFacts(
        kind=wire["kind"],
        name=wire["name"],
        blocks={int(k): int(v) for k, v in wire["blocks"]},
        reachable=frozenset(wire["reachable"]),
        tuple_locals=frozenset(wire["tuple_locals"]),
        lane_locals={int(k): int(v) for k, v in wire["lane_locals"]},
        access_widths=frozenset(wire["access_widths"]),
        param_regs=frozenset(wire["param_regs"]),
        written_at_entry={int(k): frozenset(v)
                          for k, v in wire["written_at_entry"]},
        ranges={int(leader): {int(i): tuple(bounds)
                              for i, bounds in entry}
                for leader, entry in wire["ranges"]},
        range_notes=[tuple(note) for note in wire["range_notes"]],
        maybe_uninit=[tuple(p) for p in wire["maybe_uninit"]],
        dead_stores=[tuple(p) for p in wire["dead_stores"]],
    )
