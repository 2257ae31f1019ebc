"""The offline compiler compiles each function once.

``offline_compile`` lowers the source once, runs the scalar stages of
the pipeline once per function, emits the scalar bytecode flavour,
then vectorizes the same IR and emits the vector flavour.  The oracle
here is the shape that replaced: each flavour from its own
``lower_source`` and its own ``run_pipeline``.  Over the compiler
corpus and the 32 module shapes the e2e benchmark sends to the edge,
under four pipeline specs:

* both encoded flavours and ``vectorized_functions`` equal the
  oracle's, and ``offline_work`` is the oracle's vector-side total
  (what the oracle's scalar side spent is exactly what left);
* the scalar flavour holds no vector op and no annotation but the
  hotness profile, and the two modules share no mutable object;
* counted from outside: one lowering per compile, one
  ``run_pipeline`` per function, one ``vectorize`` per function.

CI also runs this file under two fixed ``PYTHONHASHSEED`` values: a
dependence on set order between the two emissions would show as a
byte difference here.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys
from dataclasses import replace

import pytest

from repro import flows
from repro.analysis.passes import lane_fixpoint
from repro.bytecode.annotations import HotnessAnnotation
from repro.bytecode.emit import emit_module
from repro.bytecode.encode import encode_module
from repro.core import offline, offline_compile
from repro.flows import PipelineSpec, run_pipeline
from repro.frontend import lower_source
from repro.opt import PassStats
from repro.split import regalloc_annotation

from support import corpus_sources

vectorize_module = importlib.import_module("repro.opt.vectorize")

SPECS = {
    "default": PipelineSpec(),
    "unroll2": PipelineSpec(unroll=2),
    "no-vectorize": PipelineSpec(vectorize=False),
    "no-passes": PipelineSpec(passes=()),
}


def _edge_sources():
    """The ``/deploy`` source of each module shape of
    ``benchmarks/e2e/workloads.py`` (one to three corpus functions and
    a pad function), composed by the benchmark's own code."""
    path = pathlib.Path(__file__).resolve().parent.parent / \
        "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_e2e_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    assert len(workloads.SHAPES) == 32
    return {f"edge-{index:02d}": workloads.compose(shape, index)["source"]
            for index, shape in enumerate(workloads.SHAPES)}


SOURCES = {**corpus_sources(), **_edge_sources()}


def oracle(source, name, spec):
    """``(vector bytes, scalar bytes, vectorized functions, vector-side
    stats, hotness)`` the way the parent of ISSUE 23 built them: two
    lowerings, two pipeline runs.  The profile it makes up marks the
    first function hot."""
    scalar_module = lower_source(source, name)
    for func in scalar_module:
        run_pipeline(func, replace(spec, vectorize=False), verify=True)
    scalar_bc, _ = emit_module(scalar_module)

    module = lower_source(source, name)
    stats = PassStats()
    for func in module:
        stats.merge(run_pipeline(func, spec, verify=True))
    bytecode, _ = emit_module(module)
    hotness = {next(iter(module)).name: 7}
    for func in module:
        if spec.annotate_regalloc:
            bytecode.annotations.append(
                regalloc_annotation(func, bytecode[func.name]))
        if spec.annotate_hw:
            bytecode.annotations.append(offline._hw_annotation(func))
        bytecode.annotations.append(lane_fixpoint(bytecode[func.name]))
        if func.name in hotness:
            for flavour in (bytecode, scalar_bc):
                flavour.annotations.append(HotnessAnnotation(
                    function=func.name, weight=hotness[func.name]))
    return (encode_module(bytecode), encode_module(scalar_bc),
            [func.name for func in module
             if spec.vectorize and func.vector_loops],
            stats, hotness)


@pytest.fixture(scope="module", params=list(SPECS))
def compiled(request):
    """``(name, artifact, oracle tuple, call counts)`` of every source
    under one spec; the counts cover ``offline_compile`` alone."""
    spec = SPECS[request.param]
    calls = []

    def counting(label, real):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return real(*args, **kwargs)
        return wrapper

    rows = []
    for name, source in SOURCES.items():
        expected = oracle(source, name, spec)
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(offline, "lower_source",
                          counting("lower", offline.lower_source))
            patch.setattr(flows, "run_pipeline",
                          counting("pipeline", flows.run_pipeline))
            patch.setattr(vectorize_module, "vectorize",
                          counting("vectorize",
                                   vectorize_module.vectorize))
            artifact = offline_compile(source, name, pipeline=spec,
                                       hotness=expected[-1])
        rows.append((name, artifact, expected,
                     {label: calls.count(label)
                      for label in ("lower", "pipeline", "vectorize")}))
    return spec, rows


def _rows(stats):
    """Per-pass aggregate without wall times."""
    return {name: {key: value for key, value in row.items()
                   if key != "time"}
            for name, row in stats.summary_dict().items()}


def _vectorize_sizes(stats):
    return [(record.ir_before, record.ir_after)
            for record in stats.records if record.name == "vectorize"]


def _parts(module):
    """Every mutable object a bytecode module is made of."""
    for func in module:
        yield func
        yield from (func.code, func.local_types, func.param_types,
                    func.frame_slots)
        yield from func.code
        yield from func.frame_slots
    yield module.annotations
    yield from module.annotations


def test_both_flavours_equal_the_two_compilation_oracle(compiled):
    _, rows = compiled
    for name, artifact, (vector, scalar, vectorized, stats, _), _ in rows:
        assert encode_module(artifact.bytecode) == vector, name
        assert encode_module(artifact.scalar_bytecode) == scalar, name
        assert artifact.vectorized_functions == vectorized, name
        assert artifact.offline_work == stats.total_work \
            == artifact.pass_stats.total_work, name
        assert _rows(artifact.pass_stats) == _rows(stats), name


def test_fork_is_not_vacuous(compiled):
    """The default spec vectorizes most of the corpus (unrolled or
    unoptimized loops are not the vectorizer's shape: those specs pin
    that nothing leaks into the scalar flavour either way)."""
    spec, rows = compiled
    vectorized = [name for name, artifact, _, _ in rows
                  if artifact.vectorized_functions]
    if spec == SPECS["default"]:
        assert len(vectorized) > len(rows) // 2
    if not spec.vectorize:
        assert not vectorized
    for name, artifact, _, _ in rows:
        assert bool(artifact.vectorized_functions) == any(
            instr.op.startswith("vec.")
            for func in artifact.bytecode for instr in func.code), name


def test_scalar_flavour_is_plain(compiled):
    _, rows = compiled
    for name, artifact, _, _ in rows:
        scalar = artifact.scalar_bytecode
        assert not any(instr.op.startswith("vec.")
                       for func in scalar for instr in func.code), name
        assert [type(a) for a in scalar.annotations] == \
            [HotnessAnnotation], name


def test_flavours_share_no_mutable_object(compiled):
    _, rows = compiled
    for name, artifact, _, _ in rows:
        mine = {id(part) for part in _parts(artifact.bytecode)}
        assert mine.isdisjoint(
            id(part) for part in _parts(artifact.scalar_bytecode)), name


def test_every_stage_runs_once(compiled):
    spec, rows = compiled
    for name, artifact, (_, _, _, stats, _), counts in rows:
        functions = len(list(artifact.bytecode))
        assert counts == {
            "lower": 1, "pipeline": functions,
            "vectorize": functions if spec.vectorize else 0}, name
        # what the e2e tracer's ``opt.ir_instrs_after`` sums: one
        # ``vectorize`` record per function, in function order, sized
        # as the oracle's (the size that is emitted)
        sizes = _vectorize_sizes(artifact.pass_stats)
        assert len(sizes) == counts["vectorize"], name
        assert sizes == _vectorize_sizes(stats), name
