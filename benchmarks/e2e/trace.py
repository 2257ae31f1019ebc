"""The per-layer tracer: spans around public calls, from outside.

Only the traced run imports this module.  ``Tracer.install`` replaces
the public callables named in :data:`TRACE_POINTS` — wherever a
``repro`` module (or a benchmark module) holds a reference to them by
module attribute, and on their classes for methods — with wrappers
that record ``{name, start, end, parent, op}`` spans in memory;
``uninstall`` puts the originals back.  Nothing under ``src/`` is
edited, so what happens *inside* a process-pool worker stays opaque:
it shows up as the waiting (self) time of the span that awaits it.

Parents: a span's parent is the span open in the same thread or
asyncio task (a context variable); a call that arrives with no such
context — the server side of a socket, a pool thread, a
``run_in_executor`` hop — is attached to the span opened most recently
and still open.  The traced replay runs one operation at a time, so
that span belongs to the same operation.

Self time of a span is its duration minus the part of it that its
children cover (children that overlap each other are not subtracted
twice), so self times over an operation's tree add up to the
operation's wall time.
"""

from __future__ import annotations

import contextvars
import inspect
import functools
import importlib
import json
import statistics
import sys
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None)


@dataclass(frozen=True)
class TracePoint:
    """One public callable to wrap."""
    name: str                       # span (layer.metric) name
    module: str                     # where the callable is defined
    attr: str                       # "function" or "Class.method"
    #: record the span only under an ancestor of this name
    under: Optional[str] = None
    #: result -> span name, for calls whose cost depends on the outcome
    rename: Optional[Callable[[object], str]] = None
    #: result -> counters to add
    count: Optional[Callable[[object], Dict[str, int]]] = None


def _cache_get_name(result) -> str:
    return "service.cache_get_miss" if result is None \
        else "service.cache_get_hit"


def _fanout_name(futures) -> str:
    reused = all(reused for _future, reused in futures.values())
    return "service.memo_hit" if reused else "service.fanout"


def _offline_counts(artifact) -> Dict[str, int]:
    # "vectorize" is the last stage of the vector flavour's pipeline,
    # once per function: its ir_after is the size that gets emitted
    return {"opt.work": artifact.offline_work,
            "opt.ir_instrs_after": sum(
                record.ir_after for record in artifact.pass_stats.records
                if record.name == "vectorize")}


TRACE_POINTS: Tuple[TracePoint, ...] = (
    # service.edge
    TracePoint("edge.wire_parse", "repro.service.edge.wire",
               "parse_deploy_request"),
    TracePoint("edge.auth", "repro.service.edge.auth",
               "TenantTable.authenticate"),
    TracePoint("edge.auth", "repro.service.edge.auth", "Tenant.charge"),
    TracePoint("edge.admission", "repro.service.edge.admission",
               "AdmissionController.evaluate"),
    TracePoint("edge.response_encode", "repro.service.edge.wire",
               "deploy_result_wire"),
    # service
    TracePoint("service.submit", "repro.service.asyncio",
               "AsyncCompilationService.submit"),
    TracePoint("service.artifact_key", "repro.service.cache",
               "artifact_key"),
    TracePoint("service.cache_get", "repro.service.cache",
               "ArtifactCache.get", rename=_cache_get_name),
    TracePoint("service.cache_put", "repro.service.cache",
               "ArtifactCache.put"),
    TracePoint("service.serialize", "repro.service.cache",
               "serialize_artifact"),
    TracePoint("service.deserialize", "repro.service.cache",
               "deserialize_artifact"),
    TracePoint("service.fanout", "repro.service.deployment",
               "DeploymentPool.submit_many", rename=_fanout_name),
    TracePoint("service.fanout", "repro.service.deployment",
               "DeploymentPool.deploy_one"),
    # core and the offline compiler beneath it
    TracePoint("core.offline_compile", "repro.core.offline",
               "offline_compile", count=_offline_counts),
    TracePoint("lang.tokenize", "repro.lang.lexer", "tokenize"),
    TracePoint("lang.parse", "repro.lang.parser", "parse"),
    TracePoint("lang.check", "repro.lang.sema", "check"),
    TracePoint("frontend.lower", "repro.frontend.lower", "lower_program"),
    TracePoint("opt.scalar_pipeline", "repro.flows", "run_pipeline"),
    TracePoint("opt.vectorize", "repro.opt.vectorize", "vectorize"),
    TracePoint("split.regalloc_annotation",
               "repro.split.regalloc_offline", "regalloc_annotation"),
    TracePoint("bytecode.emit", "repro.bytecode.emit", "emit_module"),
    TracePoint("bytecode.verify", "repro.bytecode.verifier",
               "verify_module"),
    TracePoint("bytecode.encode", "repro.bytecode.encode", "encode_module",
               count=lambda wire: {"bytecode.module_bytes": len(wire)}),
    TracePoint("bytecode.decode", "repro.bytecode.encode", "decode_module"),
    # analysis
    TracePoint("analysis.admission_lint", "repro.analysis.lint",
               "check_admission"),
    TracePoint("analysis.facts", "repro.analysis.facts", "module_facts"),
    TracePoint("analysis.facts", "repro.analysis.facts", "machine_facts"),
    TracePoint("analysis.facts", "repro.analysis.facts", "bytecode_facts"),
    # jit
    TracePoint("jit.compile", "repro.jit.compiler", "compile_for_target",
               count=lambda image: {"jit.work": image.total_jit_work}),
    TracePoint("jit.decode", "repro.jit.frontend", "decode_function"),
    TracePoint("jit.cleanup", "repro.jit.peephole", "quick_cleanup"),
    TracePoint("jit.online_opt", "repro.opt.pass_manager",
               "PassManager.run", under="jit.compile"),
    TracePoint("jit.scalarize", "repro.jit.scalarize",
               "scalarize_vectors"),
    TracePoint("jit.addrfold", "repro.jit.addrfold", "fold_addressing"),
    TracePoint("jit.regalloc", "repro.jit.regalloc", "allocate"),
    TracePoint("jit.codegen", "repro.jit.codegen", "generate"),
    # execution engines
    TracePoint("targets.predecode", "repro.targets.dispatch",
               "predecode_machine"),
    TracePoint("targets.predecode", "repro.targets.dispatch",
               "warm_module"),
    TracePoint("vm.predecode", "repro.vm.threaded", "predecode"),
    TracePoint("vm.predecode", "repro.vm.threaded",
               "warm_bytecode_module"),
)


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or None, op id or None]
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self._open: List[int] = []
        self._lock = threading.Lock()
        self._op: Optional[int] = None
        self._paused = False
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _parent(self) -> Optional[int]:
        """The span open in this thread or task, else the one opened
        most recently and still open (call with the lock held or for
        a read that may be stale)."""
        parent = _CURRENT.get()
        if parent is None or self.spans[parent][2] is not None:
            parent = self._open[-1] if self._open else None
        return parent

    def _begin(self, name: str) -> int:
        now = time.perf_counter()
        with self._lock:
            parent = self._parent()
            index = len(self.spans)
            self.spans.append([name, now, None, parent, self._op])
            self._open.append(index)
        return index

    def _end(self, index: int, name: Optional[str] = None) -> None:
        now = time.perf_counter()
        with self._lock:
            span = self.spans[index]
            span[2] = now
            if name is not None:
                span[0] = name
            self._open.remove(index)

    def _has_ancestor(self, name: str) -> bool:
        index = self._parent()
        while index is not None:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    @contextmanager
    def span(self, name: str):
        """An explicit span around a call the harness makes itself."""
        index = self._begin(name)
        token = _CURRENT.set(index)
        try:
            yield
        finally:
            _CURRENT.reset(token)
            self._end(index)

    @contextmanager
    def op(self, op_id: int, name: str = "client.op"):
        """The root span of one operation."""
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    @contextmanager
    def paused(self):
        """Wrapped calls made meanwhile record nothing (set-up that is
        not the layer under study)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def add(self, counters: Dict[str, int]) -> None:
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, func, point: TracePoint):
        def finish(index: int, result) -> None:
            self._end(index, point.rename(result) if point.rename
                      else None)
            if point.count is not None:
                self.add(point.count(result))

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced(*args, **kwargs):
                if self._paused:
                    return await func(*args, **kwargs)
                index = self._begin(point.name)
                token = _CURRENT.set(index)
                try:
                    result = await func(*args, **kwargs)
                except BaseException:
                    self._end(index)
                    raise
                finally:
                    _CURRENT.reset(token)
                finish(index, result)
                return result
            return traced

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._paused or (point.under is not None and
                                not self._has_ancestor(point.under)):
                return func(*args, **kwargs)
            index = self._begin(point.name)
            token = _CURRENT.set(index)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._end(index)
                raise
            finally:
                _CURRENT.reset(token)
            finish(index, result)
            return result
        return traced

    def _replace(self, holder, attr: str, new) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def install(self, extra_modules: Tuple[str, ...] = ()) -> None:
        """Wrap every trace point.  ``extra_modules`` are benchmark
        modules that call the layers directly."""
        for point in TRACE_POINTS:
            module = importlib.import_module(point.module)
            if "." in point.attr:
                cls_name, method = point.attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, method,
                              self._wrap(cls.__dict__[method], point))
                continue
            original = getattr(module, point.attr)
            wrapper = self._wrap(original, point)
            for name, holder in list(sys.modules.items()):
                if holder is None or not (name.startswith("repro") or
                                          name in extra_modules):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, attr, wrapper)
        # the edge's JSON halves, without touching the json module
        server = importlib.import_module("repro.service.edge.server")
        self._replace(server, "json", types.SimpleNamespace(
            loads=self._wrap(json.loads, TracePoint(
                "edge.wire_parse", "json", "loads")),
            dumps=self._wrap(json.dumps, TracePoint(
                "edge.response_encode", "json", "dumps"))))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


# -- the ledger --------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[list]) -> List[float]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children.setdefault(parent, []).append(
                (max(start, p_start), min(end, p_end)))
    return [(end - start) - _covered(children.get(index, []))
            for index, (_n, start, end, _p, _o) in enumerate(spans)]


def ledger(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: the median over operations of the self time the
    operation spent in it (ms), and its inclusive and self shares of
    all operation wall time.  A span tree recorded outside any
    operation (traced set-up) counts as an operation of its own for
    the median and is left out of the shares."""
    selfs = self_times(spans)
    per_op: Dict[str, Dict[object, float]] = {}
    inclusive: Dict[str, float] = {}
    total_self: Dict[str, float] = {}
    roots: List[int] = []
    op_wall = 0.0
    for index, ((name, start, end, parent, op), self_s) in \
            enumerate(zip(spans, selfs)):
        roots.append(index if parent is None else roots[parent])
        ops = per_op.setdefault(name, {})
        key = op if op is not None else ("set-up", roots[index])
        ops[key] = ops.get(key, 0.0) + self_s
        if op is None:
            continue
        if parent is None:
            op_wall += end - start
        total_self[name] = total_self.get(name, 0.0) + self_s
        # inclusive time counts a name once along any ancestor chain
        ancestor, nested = parent, False
        while ancestor is not None and not nested:
            nested = spans[ancestor][0] == name
            ancestor = spans[ancestor][3]
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return {
        name: {
            "self_ms_per_op": statistics.median(ops.values()) * 1e3,
            "ops": len(ops),
            "self_share": total_self.get(name, 0.0) / op_wall,
            "inclusive_share": inclusive.get(name, 0.0) / op_wall,
        }
        for name, ops in per_op.items()}


def root_wall(spans: List[list]) -> float:
    """Wall covered by operation root spans."""
    return sum(end - start for _n, start, end, parent, op in spans
               if parent is None and op is not None)
